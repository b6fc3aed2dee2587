"""The span engine against the powerset construction it replaced.

The reference explores sets of residue tuples with the public set-semantics
definitions (``initial_state``, ``extend_state``, ``is_accepting_state``).
Span states track the F_p-span of those sets, so both constructions must
give the same minimal automaton: transitions, finals and initial state.
Before minimizing, the finals a build picks by its kernel test must be the
span states whose decoded basis (``explore``) passes the set predicate.
"""

import contextlib
import hashlib
import io
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import suites
from edesolver import cli, companion, fsa, scalar, span
from edesolver.errors import CapacityError
from edesolver.gfpoly import Poly, PrimeField
from edesolver.scalar import ScalarEde


# Work limits of the residue-set construction on random examples: member
# images computed, and members visited.  Sets can grow to thousands of
# members where spans stay small, and an example past a limit is rejected.
RANDOM_LIMITS = (500, 50_000)


class TooLarge(Exception):
    """The residue-set construction outgrew its work limits."""


def set_automaton(engine, ede, limits=(math.inf, math.inf)) -> fsa.Automaton:
    """Minimal automaton of the residue-set construction of ``engine``."""
    images = {}  # extend_state distributes over unions: memoized per member
    visits = 0

    def delta(state, x):
        nonlocal visits
        visits += len(state)
        if visits > limits[1]:
            raise TooLarge
        out = set()
        for tau in state:
            if (tau, x) not in images:
                if len(images) >= limits[0]:
                    raise TooLarge
                images[tau, x] = engine.extend_state(ede, (tau,), x)
            out |= images[tau, x]
        return frozenset(out)

    keys, transitions = fsa.explore_dfa(
        ede.exponent_alphabet, engine.initial_state(ede), delta
    )
    finals = {i for i, key in enumerate(keys) if engine.is_accepting_state(key)}
    labels = [str(i) for i in range(len(keys))]
    return fsa.Automaton(ede.field.p, ede.t, labels, transitions, 0, finals).minimize()


def signature(aut: fsa.Automaton):
    return aut.transitions, aut.finals, aut.initial


def assert_same_minimal_automaton(engine, ede, limits=(math.inf, math.inf)):
    want = set_automaton(engine, ede, limits)
    raw = engine.build_automaton(ede)
    keys, transitions = engine.explore(ede)
    assert raw.transitions == tuple(map(tuple, transitions)) and raw.initial == 0, ede
    assert raw.finals == {i for i, key in enumerate(keys) if engine.is_accepting_state(key)}, ede
    assert signature(raw.minimize()) == signature(want), ede


def test_scalar_suite_matches_set_construction():
    for ede in suites.scalar_suite():
        assert_same_minimal_automaton(scalar, ede)


def test_matrix_suite_matches_set_construction():
    for ede in suites.matrix_suite():
        assert_same_minimal_automaton(companion, ede)


def test_order_one_pairs_match_set_construction():
    for matrix_ede, scalar_ede in suites.n1_pairs():
        assert_same_minimal_automaton(companion, matrix_ede)
        assert_same_minimal_automaton(scalar, scalar_ede)


@st.composite
def small_scalar_edes(draw):
    """Random ScalarEde with p in {2, 3}, r, t <= 2, s <= 3, degrees <= 2."""
    field = PrimeField(draw(st.sampled_from((2, 3))))
    r = draw(st.integers(1, 2))
    t = draw(st.integers(1, 2))
    s = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 2)] * r).filter(lambda e: sum(e) <= 2)

    def poly():
        terms = draw(st.dictionaries(exponents, st.integers(1, field.p - 1), max_size=3))
        return Poly(field, r, terms)

    q = tuple(poly() for _ in range(s))
    bases = tuple(tuple(poly() for _ in range(t)) for _ in range(s))
    return ScalarEde(field, r, t, q, bases)


@settings(max_examples=40, deadline=None)
@given(small_scalar_edes())
def test_random_scalar_equations_match_set_construction(ede):
    try:
        assert_same_minimal_automaton(scalar, ede, RANDOM_LIMITS)
    except TooLarge:
        reject()


# ------------------------------------------------------------- elimination

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_echelon_is_the_canonical_reduced_form(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    rows, width = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 7))
    cells = st.lists(st.integers(0, p - 1), min_size=rows * width, max_size=rows * width)
    a = np.array(data.draw(cells), dtype=np.int64).reshape(rows, width)
    e = span._echelon(a, p)
    assert e.dtype == np.int64 and e.shape[1] == width
    leads = [int(np.flatnonzero(row)[0]) for row in e]  # no zero rows
    assert leads == sorted(set(leads))
    for k, lead in enumerate(leads):
        assert e[k, lead] == 1
        assert np.count_nonzero(e[:, lead]) == 1
    # the same span, however it is spanned, gives the same bytes
    mix = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=rows * rows, max_size=rows * rows)))
    more = np.vstack([(mix.reshape(rows, rows) @ a) % p, a[::-1]]) if rows else a
    assert span._echelon(more, p).tobytes() == e.tobytes()
    assert span._echelon(e, p).tobytes() == e.tobytes()


def bits(row: int, width: int) -> list:
    """The 0/1 coefficients of a packed row, leading column (top bit) first."""
    return [row >> (width - 1 - j) & 1 for j in range(width)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_echelon_equals_the_dense_form(data):
    rows, width = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 40))
    packed = data.draw(st.lists(st.integers(0, 2**width - 1), min_size=rows, max_size=rows))
    for pick in data.draw(st.lists(st.integers(0, 2**rows - 1), max_size=4)):
        combo = 0  # a dependent row: the XOR of the rows the bits of pick select
        for k in range(rows):
            if pick >> k & 1:
                combo ^= packed[k]
        packed.append(combo)
    a = np.array([bits(row, width) for row in packed], dtype=np.int64).reshape(len(packed), width)
    key = span._xor_echelon(packed, width)
    assert [bits(row, width) for row in span._unpack(key, width)] == span._echelon(a, 2).tolist()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_step_images_equal_the_dense_products(data):
    r, entries = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * r)

    def poly():
        return Poly(F2, r, dict.fromkeys(data.draw(st.lists(exponents, max_size=3)), 1))

    def entry():
        return data.draw(st.integers(0, entries - 1))

    letters = ((0,), (1,))
    moves = {x: [(entry(), entry(), poly()) for _ in range(data.draw(st.integers(0, 4)))] for x in letters}
    start = [tuple(poly() for _ in range(entries))]
    coords, _, cells = span._setup(start, moves, 2, r, 3 * r)
    width, sections = len(coords), 2**r
    dense = span._step_matrices(cells, width, 2, r, len(letters))
    packed = span._packed_step_maps(cells, width, r, len(letters))
    row = data.draw(st.integers(0, 2**width - 1))
    for l in range(len(letters)):
        want = (np.array(bits(row, width), dtype=np.int64) @ dense[l] % 2).reshape(sections, width)
        image = span._image(row, packed[l])
        for y in range(sections):
            assert bits(image >> width * (sections - 1 - y), width) == want[y].tolist()


def test_packed_explore_reads_each_key_back_once_per_state(monkeypatch):
    # explore_dfa steps a key by every letter in a row: one read-back serves
    # all of them, and the acceptance test reads each key once more
    reads = []
    unpack = span._unpack
    monkeypatch.setattr(span, "_unpack", lambda key, width: reads.append(key) or unpack(key, width))
    for ede in suites.scalar_suite():
        if ede.field.p == 2 and ede.t == 2:
            reads.clear()
            aut = scalar.build_automaton(ede)
            assert len(aut.letters) == 4
            assert len(reads) == 2 * aut.num_states


# ---------------------------------------------------------------- guards

F2 = PrimeField(2)
THETA = Poly.variable(F2, 1, 0)
ONE = Poly.one(F2, 1)


def test_image_outside_the_degree_box_raises():
    # theta^3 sends 1 to theta (section by 1), which bound 0 cannot hold
    with pytest.raises(RuntimeError, match="degree box"):
        span.explore(F2, 1, 0, [(ONE,)], {(1,): [(0, 0, THETA**3)]}, 100, [0])


def test_prime_that_could_overflow_int64_is_capped():
    # (p - 1)^2 > 2^63: the step-matrix cap refuses before any product
    big = PrimeField(4294967311)
    one = Poly.one(big, 1)
    with pytest.raises(CapacityError):
        span.explore(big, 1, 0, [(one,)], {(0,): [(0, 0, one)]}, 100, [0])


def test_step_matrix_cells_are_capped():
    dense = Poly(F2, 1, {(i,): 1 for i in range(3000)})
    with pytest.raises(CapacityError) as exc:
        span.explore(F2, 1, 3000, [(dense,)], {(0,): []}, 100, [0])
    assert exc.value.discovered > math.isqrt(span.MAX_STEP_CELLS // 2)


def test_step_matrix_cap_names_the_cells_needed():
    # two coordinates in 50 variables: 2^50 sections make any step map too large
    start = Poly.one(F2, 50) + Poly.variable(F2, 50, 0)
    with pytest.raises(CapacityError) as exc:
        span.explore(F2, 50, 1, [(start,)], {(0,): [], (1,): []}, 100, [0])
    assert exc.value.discovered == 2
    assert str(exc.value) == (
        "2 coordinates reachable: their step maps need 2 letters x 2^50 sections x 2^2 "
        f"= {2 * 2**50 * 4} cells, over the cap of {span.MAX_STEP_CELLS}"
    )


def test_high_degree_start_tracks_only_reachable_coordinates():
    # theta^4000 * 1^n: the degree box holds 4001 monomials, the support map
    # reaches the 13 of theta^4000, theta^2000, ..., theta^62, ..., theta, 1
    ede = ScalarEde(F2, 1, 1, (Poly(F2, 1, {(4000,): 1}),), ((ONE,),))
    keys, _ = scalar.explore(ede)
    assert len(keys) == 13
    assert_same_minimal_automaton(scalar, ede)


# ------------------------------------------------------------ pinned outputs

SPECS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "specs"

# SHA-256 of the raw automata of both suites and of `edesolver build` on the
# bundled specs.  Any engine change must leave state numbering, finals and
# exports byte-identical, so this digest changes only with the languages.
PINNED_DIGEST = "358aea6ea5ba7817473c00ead01091caa427df430e92af662f5ca7c96c6baefb"


def test_raw_automata_and_bundled_builds_are_pinned():
    digest = hashlib.sha256()
    for ede in suites.scalar_suite() + suites.matrix_suite():
        raw = scalar.build_automaton(ede)
        digest.update(repr((raw.transitions, sorted(raw.finals), raw.initial)).encode())
    for path in sorted(SPECS.glob("*.json")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["build", str(path)])
        digest.update(f"{path.name} {code}\n{out.getvalue()}".encode())
    assert digest.hexdigest() == PINNED_DIGEST
