"""The span engine against the powerset construction it replaced.

The reference explores sets of residue tuples with the public set-semantics
definitions (``initial_state``, ``extend_state``, ``is_accepting_state``).
Span states track the F_p-span of those sets, so both constructions must
give the same minimal automaton: transitions, finals and initial state.
Before minimizing, the finals a build picks by its kernel test must be the
span states whose decoded basis (``explore``) passes the set predicate.
The engine's languages must also obey the Frobenius and shift identities,
and its coordinates must stay in the degree box of ``degree_bound``.
"""

import contextlib
import dataclasses
import functools
import hashlib
import io
import itertools
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import suites
from edesolver import cli, companion, fsa, scalar, span, systems
from edesolver.digits import DigitWord
from edesolver.errors import CapacityError
from edesolver.gfpoly import Poly, PrimeField, parse_poly
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
        engine.initial_state(ede), lambda state: [delta(state, x) for x in ede.exponent_alphabet]
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


# ------------------------------------------------------- metamorphic checks


def frobenius(ede):
    """The equation with every Q_i raised to the p-th power."""
    return dataclasses.replace(ede, q=tuple(q**ede.field.p for q in ede.q))


def shifted(ede, k: int):
    """The equation with every Q_i multiplied by its base P_ik."""
    return dataclasses.replace(ede, q=tuple(q * row[k] for q, row in zip(ede.q, ede.bases)))


def assert_frobenius(ede):
    # sum Q_i^p P_i^(p n) is (sum Q_i P_i^n)^p, which vanishes exactly when
    # its p-th root does in a reduced ring, and the word 0.w spells p n
    aut, lifted = scalar.build_automaton(ede), scalar.build_automaton(frobenius(ede))
    zero = (0,) * ede.t
    for length in range(4):
        for word in itertools.product(aut.letters, repeat=length):
            assert lifted.accepts((zero, *word)) == aut.accepts(word), (ede, word)


def assert_shift(ede):
    # sum Q_i P_ik P_i^n is sum Q_i P_i^(n + e_k)
    p, t = ede.field.p, ede.t
    aut = scalar.build_automaton(ede)
    for k in range(t):
        moved = scalar.build_automaton(shifted(ede, k))
        for n in itertools.product(range(p**3 - 1), repeat=t):
            up = tuple(v + (j == k) for j, v in enumerate(n))
            want = aut.accepts(DigitWord.encode(up, p, t))
            assert moved.accepts(DigitWord.encode(n, p, t)) == want, (ede, k, n)


def test_frobenius_prepends_a_zero_letter():
    # F_p[theta] and the separable rings R[B'] of the matrix suite are reduced
    for ede in suites.scalar_suite() + suites.matrix_suite():
        assert_frobenius(ede)


def test_multiplying_q_by_a_base_shifts_its_unknown():
    for ede in suites.scalar_suite() + suites.matrix_suite():
        assert_shift(ede)


@settings(max_examples=30, deadline=None)
@given(small_scalar_edes())
def test_random_frobenius_prepends_a_zero_letter(ede):
    assert_frobenius(ede)


@settings(max_examples=30, deadline=None)
@given(small_scalar_edes())
def test_random_multiplying_q_by_a_base_shifts_its_unknown(ede):
    assert_shift(ede)


# ------------------------------------------------------------- elimination

# The dense int64 kernels the packed rows replaced, kept as the reference.

def _step_matrices(terms, width: int, p: int, r: int):
    """L_x for every letter x: rows are coordinates, columns (section letter, coordinate)."""
    out = np.zeros((len(terms), width, p**r * width), dtype=np.int64)
    for l, letter in enumerate(terms):
        for (i, y, j), c in letter.items():
            out[l, i, y * width + j] = c
    return out % p


def _echelon(a, p: int):
    """Reduced row-echelon form of ``a`` mod p with the zero rows dropped."""
    width = a.shape[1]
    pivots = {}  # pivot column -> row; each row is zero in the other pivot columns
    for row in a.tolist():
        for col, prow in pivots.items():
            c = row[col]
            if c:
                row = [(v - c * w) % p for v, w in zip(row, prow)]
        c = next(filter(None, row), 0)
        if not c:
            continue
        lead = row.index(c)
        if c != 1:
            inv = pow(c, -1, p)
            row = [v * inv % p for v in row]
        for col, prow in pivots.items():
            c = prow[lead]
            if c:
                pivots[col] = [(v - c * w) % p for v, w in zip(prow, row)]
        pivots[lead] = row
        if len(pivots) == width:
            break
    return np.array([pivots[col] for col in sorted(pivots)], dtype=np.int64).reshape(len(pivots), width)


PRIMES = (2, 3, 5, 7, 191)


def pack(coeffs, b: int) -> int:
    """A packed row of b-bit fields, its first coefficient in the top field."""
    row = 0
    for c in coeffs:
        row = row << b | int(c)
    return row


def fields(row: int, width: int, b: int) -> list:
    """The coefficients of a packed row of ``width`` b-bit fields, top field first."""
    return [row >> b * (width - 1 - j) & (1 << b) - 1 for j in range(width)]


def echelon_rows(p: int, width: int, rows) -> list:
    """The packed echelon key of rows of coefficients, decoded back to rows."""
    b, _, echelon = span._kernels(p, width, 1)
    key = echelon([pack(row, b) for row in rows])
    return [fields(row, width, b) for row in span._unpack(key, width * b)]


def combination(weights, rows, p: int, width: int) -> list:
    """sum_k weights[k] * rows[k] mod p."""
    return [sum(w * row[j] for w, row in zip(weights, rows)) % p for j in range(width)]


@st.composite
def matrices(draw, max_rows=8, max_width=12):
    """(p, width, rows): a prime of PRIMES and rows over F_p, some zero and some dependent."""
    p = draw(st.sampled_from(PRIMES))
    width = draw(st.integers(0, max_width))
    coeffs = st.lists(st.integers(0, p - 1), min_size=width, max_size=width)
    rows = draw(st.lists(coeffs, max_size=max_rows))
    rows += [[0] * width] * draw(st.integers(0, 2))
    weights = st.lists(st.integers(0, p - 1), min_size=len(rows), max_size=len(rows))
    rows += [combination(w, rows, p, width) for w in draw(st.lists(weights, max_size=3))]
    order = draw(st.permutations(range(len(rows))))
    return p, width, [rows[k] for k in order]


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_echelon_is_the_canonical_reduced_form(case, data):
    p, width, rows = case
    e = echelon_rows(p, width, rows)
    assert all(len(row) == width and all(0 <= v < p for v in row) for row in e)
    leads = [next(j for j, v in enumerate(row) if v) for row in e]  # no zero rows
    assert leads == sorted(set(leads))
    for k, lead in enumerate(leads):
        assert e[k][lead] == 1
        assert sum(1 for row in e if row[lead]) == 1
    # the same span, however it is spanned, gives the same key
    weights = st.lists(st.integers(0, p - 1), min_size=len(rows), max_size=len(rows))
    more = [combination(w, rows, p, width) for w in data.draw(st.lists(weights, max_size=len(rows)))]
    more += rows[::-1]
    assert echelon_rows(p, width, more) == e
    assert echelon_rows(p, width, e) == e


@settings(max_examples=150, deadline=None)
@given(matrices(max_width=40))
def test_packed_echelon_equals_the_dense_form(case):
    p, width, rows = case
    a = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    assert echelon_rows(p, width, rows) == _echelon(a, p).tolist()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packed_step_images_equal_the_dense_products(data):
    p = data.draw(st.sampled_from(PRIMES))
    field = PrimeField(p)
    r = data.draw(st.integers(1, 1 if p > 7 else 2))  # 191^2 sections make a dense map too large
    entries = data.draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * r)

    def poly():
        return Poly(field, r, data.draw(st.dictionaries(exponents, st.integers(1, p - 1), max_size=3)))

    def entry():
        return data.draw(st.integers(0, entries - 1))

    letters = ((0,), (1,))
    moves = {x: [(entry(), entry(), poly()) for _ in range(data.draw(st.integers(0, 4)))] for x in letters}
    start = [tuple(poly() for _ in range(entries))]
    coords, _, terms = span._setup(start, moves, p, r)
    width, sections = len(coords), p**r
    dense = _step_matrices(terms, width, p, r)
    b, image, _ = span._kernels(p, width, sections)
    packed = span._step_maps(p, b, width, terms)
    row = data.draw(st.lists(st.integers(0, p - 1), min_size=width, max_size=width))
    for l in range(len(letters)):
        want = (np.array(row, dtype=np.int64) @ dense[l] % p).reshape(sections, width)
        # coordinate i sits in field i, and pack and fields put a list's first entry on top
        got = image(pack(row[::-1], b), packed[l])
        for y in range(sections):
            assert fields(got >> width * b * y, width, b)[::-1] == want[y].tolist()


def span_verdict(p: int, accept, rows) -> bool:
    """Whether the engine's start span of ``rows`` (one {exponent: coeff} per entry) accepts."""
    field = PrimeField(p)
    start = [tuple(Poly(field, 1, {(e,): c for e, c in entry.items() if c}) for entry in row) for row in rows]
    finals, _, _ = span.explore(field, 1, start, {(0,): []}, 10, accept)
    return 0 in finals


def dense_verdict(p: int, accept, rows) -> bool:
    """A v = 0 for every row v: each group's entries sum to zero mod p at each monomial."""
    for row in rows:
        sums = {}
        for group, entry in zip(accept, row):
            for e, c in entry.items():
                sums[group, e] = sums.get((group, e), 0) + c
        if any(c % p for c in sums.values()):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_span_verdict_is_the_dense_kernel_test(data):
    # rows of all p - 1 load every field of an image under A to its largest
    # sum, (p - 1) times the entries in its group
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    size = data.draw(st.integers(1, 2 * p + 1))
    accept = data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    coeff = st.integers(0, p - 1)
    monomials = st.sets(st.integers(0, 2), min_size=1)

    def row():
        if data.draw(st.booleans()):  # every field p - 1
            tops = data.draw(monomials)
            return [{e: p - 1 for e in tops} for _ in accept]
        out = [data.draw(st.dictionaries(st.integers(0, 2), coeff, max_size=3)) for _ in accept]
        if data.draw(st.booleans()):  # into the kernel: each group's last entry cancels the others
            for g in set(accept):
                last = max(j for j, group in enumerate(accept) if group == g)
                out[last] = {e: -sum(out[j].get(e, 0) for j in range(last) if accept[j] == g) % p for e in range(3)}
        return out

    rows = [row() for _ in range(data.draw(st.integers(1, 3)))]
    assert span_verdict(p, accept, rows) == dense_verdict(p, accept, rows)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_span_verdict_on_full_fields(p):
    # one group of k entries, each p - 1 at two monomials: the column sums
    # are k (p - 1), zero mod p exactly when p divides k
    for k in range(1, 2 * p + 2):
        rows = [[{0: p - 1, 2: p - 1}] * k]
        assert span_verdict(p, [0] * k, rows) == (k % p == 0), k
    # two groups of p entries each accept; moving one entry across rejects
    rows = [[{1: p - 1}] * (2 * p)]
    assert span_verdict(p, [0] * p + [1] * p, rows)
    assert not span_verdict(p, [0] * (p - 1) + [1] * (p + 1), rows)
    # every basis row is tested, not only the one with the highest lead
    rows = [[{0: 1}] + [{}] * (p - 1), [{1: p - 1}] * p]
    assert span_verdict(p, [0] * p, rows[1:])
    assert not span_verdict(p, [0] * p, rows)


def test_packed_explore_reads_each_key_back_once_per_state(monkeypatch):
    # explore_dfa steps a key by every letter in a row: one read-back serves
    # all of them, and the acceptance test reads each key once more
    reads = []
    unpack = span._unpack
    monkeypatch.setattr(span, "_unpack", lambda key, lane: reads.append(key) or unpack(key, lane))
    for ede in suites.scalar_suite():
        if ede.t == 2:
            reads.clear()
            aut = scalar.build_automaton(ede)
            assert len(aut.letters) == ede.field.p**2
            assert len(reads) == 2 * aut.num_states


def wide_section_edes():
    # Relation specs P^n1 - (P^p)^n2 = 0, with n1 = p n2 among their
    # solutions, at p^r = 17 and 25, and the t = 2 suite instances at p^r = 9
    def relation(p, r, base):
        field = PrimeField(p)
        one, base = Poly.one(field, r), parse_poly(base, field, r)
        return ScalarEde(field, r, 2, (one, one * (p - 1)), ((base, one), (one, base**p)))

    edes = [relation(17, 1, "1:1 + 1:0"), relation(5, 2, "1:1,0 + 1:0,1 + 1:0,0")]
    edes += [e for e in suites.scalar_suite() if e.field.p**e.r == 9 and e.t == 2]
    assert len(edes) == 5
    return edes


# SHA-256 of the raw automata of the wide-section instances, as the build
# that cut every image into all of its p^r lanes gave them.
WIDE_SECTION_DIGEST = "9ddc81afffd68ae6d8755dd388065bdbdc1d28e09c80608a6a7261aec7923687"


def test_wide_section_builds_are_pinned():
    # cutting each image only up to its highest nonzero lane must not
    # change the raw automaton
    digest = hashlib.sha256()
    for ede in wide_section_edes():
        raw = scalar.build_automaton(ede)
        digest.update(repr((raw.transitions, sorted(raw.finals), raw.initial)).encode())
    assert digest.hexdigest() == WIDE_SECTION_DIGEST


@pytest.mark.parametrize("direct_lanes", [1, 2, 3, 16])
def test_wide_section_builds_equal_the_direct_cut(monkeypatch, direct_lanes):
    # The direct cut hands the echelon form every one of the p^r lanes of
    # each image, padded with zero lanes to a multiple of direct_lanes (as a
    # split into pieces of that many lanes does).  Fed those rows in place of
    # the lanes up to the highest nonzero one, a build must not change.
    # The acceptance test takes images under A with the same kernel: only
    # images under a step map are steps.
    edes = wide_section_edes()
    want = [signature(scalar.build_automaton(ede)) for ede in edes]
    images, verdicts, maps = [], [], []
    mod_image, mod_echelon, step_maps = span._mod_image, span._mod_echelon, span._step_maps

    def recorded(p, b, reduce, row, step):
        out = mod_image(p, b, reduce, row, step)
        (images if any(step is m for m in maps) else verdicts).append(out)
        return out

    def built_maps(*args):
        maps[:] = step_maps(*args)
        return list(maps)

    monkeypatch.setattr(span, "_mod_image", recorded)
    monkeypatch.setattr(span, "_step_maps", built_maps)
    for ede, built in zip(edes, want):
        lanes = -(-ede.field.p**ede.r // direct_lanes) * direct_lanes

        def direct(p, b, reduce, width, rows):
            if images:  # a step: the rows are the lanes of these images
                mask = (1 << width * b) - 1
                rows = [im >> width * b * y & mask for im in images for y in range(lanes)]
                images.clear()
            return mod_echelon(p, b, reduce, width, rows)

        monkeypatch.setattr(span, "_mod_echelon", direct)
        verdicts.clear()
        assert signature(scalar.build_automaton(ede)) == built
        assert not images
        assert verdicts  # the acceptance pass ran through the image kernel


def test_wide_section_images_take_only_their_nonzero_lanes(monkeypatch):
    # one coordinate over p = 1021: every letter sends it to itself under
    # section letter 0, so each image is one field wide, not p lanes, and
    # each image row hands at most one lane to the echelon form
    handed = []
    mod_echelon = span._mod_echelon
    monkeypatch.setattr(
        span, "_mod_echelon", lambda *args: handed.append(len(args[-1])) or mod_echelon(*args)
    )
    spec = cli.parse_spec(
        {"p": 1021, "r": 1, "t": 1, "equations": [{"summands": [{"Q": "1:0", "P": ["1:0"]}]}]}
    )
    tracemalloc.start()
    try:
        systems.solve_system(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20, peak
    assert max(handed) == 1, max(handed)  # a state spans at most one row


# ---------------------------------------------------------------- guards

SPECS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "specs"
TEST_SPECS = pathlib.Path(__file__).resolve().parent / "specs"
# specs that a cap refuses before or during the set-up
CAP_SPECS = ("cap_p191", "cap_companion_p101", "huge_prime")

F2 = PrimeField(2)
ONE = Poly.one(F2, 1)


def degree_box_inputs():
    """(name, N0, build) for every suite instance and every bundled spec the caps admit.

    A spec's N0 is the largest over its equations, peeled at the zero
    prefix: the peeled bases P^p are the same for every prefix.  Its build
    stops at a state cap of 1, after the set-up.
    """
    for k, ede in enumerate(suites.scalar_suite() + suites.matrix_suite()):
        yield f"suite {k}", scalar.degree_bound(ede)[0], functools.partial(scalar.build_automaton, ede)
    for path in sorted(SPECS.glob("*.json")) + sorted(TEST_SPECS.glob("*.json")):
        if path.stem in CAP_SPECS:
            continue
        spec = cli.load_spec(str(path))
        zero = (0,) * spec.t
        n0 = max(scalar.degree_bound(systems.peel_equation(spec, eq, zero))[0] for eq in spec.equations)
        yield path.stem, n0, functools.partial(_solve_past_setup, spec)


def _solve_past_setup(spec):
    with contextlib.suppress(CapacityError):
        systems.solve_system(spec, 1)


def test_coordinates_stay_in_the_degree_box(monkeypatch):
    # The step maps the box of degree max(N0, start degree) into itself, so
    # no coordinate the set-up reaches leaves it.  The engine holds no check
    # of its own: this one catches a degree_bound below the true box.
    seen = []  # (largest start-row degree, coordinates) of each set-up
    setup = span._setup

    def recorded(rows, *args):
        out = setup(rows, *args)
        seen.append((scalar.max_degree(f for row in rows for f in row), out[0]))
        return out

    monkeypatch.setattr(span, "_setup", recorded)
    risen = set()  # the inputs whose coordinates rise above their start degree
    for name, n0, build in degree_box_inputs():
        seen.clear()
        build()
        assert seen, name
        for start, coords in seen:
            top = max((sum(e) for _, e in coords), default=0)
            assert top <= max(n0, start), (name, top, n0, start)
            if top > start:
                risen.add(name)
    assert "companion_n6" in risen, risen


def test_prime_that_could_overflow_int64_is_capped():
    # p sections alone put one coordinate's step map over the cell cap: the
    # set-up refuses before it sums a term
    big = PrimeField(4294967311)
    one = Poly.one(big, 1)
    with pytest.raises(CapacityError):
        span.explore(big, 1, [(one,)], {(0,): [(0, 0, one)]}, 100, [0])


def test_step_matrix_cells_are_capped():
    dense = Poly(F2, 1, {(i,): 1 for i in range(3000)})
    with pytest.raises(CapacityError) as exc:
        span.explore(F2, 1, [(dense,)], {(0,): []}, 100, [0])
    assert exc.value.discovered > math.isqrt(span.MAX_STEP_CELLS // 2)


def test_step_matrix_cap_names_the_cells_needed():
    # two coordinates in 50 variables: 2^50 sections make any step map too large
    start = Poly.one(F2, 50) + Poly.variable(F2, 50, 0)
    with pytest.raises(CapacityError) as exc:
        span.explore(F2, 50, [(start,)], {(0,): [], (1,): []}, 100, [0])
    assert exc.value.discovered == 2
    assert str(exc.value) == (
        "2 coordinates reachable: their step maps need 2 letters x 2^50 sections x 2^2 "
        f"cells, over the cap of {span.MAX_STEP_CELLS}"
    )


def test_step_matrix_cap_is_checked_on_the_start_coordinates():
    # p = 191: the start rows of the 191 first letters already hold 573
    # coordinates, whose step maps are far over the cap, so the set-up
    # refuses before it emits a cell
    spec = cli.load_spec(str(TEST_SPECS / "cap_p191.json"))
    with pytest.raises(CapacityError) as exc:
        systems.solve_system(spec)
    assert exc.value.discovered == 573
    assert str(exc.value).startswith("573 coordinates reachable: their step maps need 191 letters x 191^1")


def test_high_degree_start_tracks_only_reachable_coordinates():
    # theta^4000 * 1^n: the degree box holds 4001 monomials, the support map
    # reaches the 13 of theta^4000, theta^2000, ..., theta^62, ..., theta, 1
    ede = ScalarEde(F2, 1, 1, (Poly(F2, 1, {(4000,): 1}),), ((ONE,),))
    keys, _ = scalar.explore(ede)
    assert len(keys) == 13
    assert_same_minimal_automaton(scalar, ede)


# ------------------------------------------------------------ pinned outputs

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


# SHA-256 of the languages of both suites, the bundled specs and three
# companion specs: (transitions, sorted finals, initial) of each minimal
# automaton.  The state labels are left out, so a construction that names
# its states otherwise must still keep this digest, and every language.
LANGUAGE_DIGEST = "3fede37c352d25bad0036309cf254a4c4c0395b44787813a69a8cf410f40c3ac"
PINNED_SPECS = ("relation_n4", "relation_p3_n2", "companion_system_t2")


def test_minimal_languages_are_pinned():
    def raw_automata():
        for ede in suites.scalar_suite() + suites.matrix_suite():
            yield scalar.build_automaton(ede)
        for path in sorted(SPECS.glob("*.json")) + [TEST_SPECS / f"{name}.json" for name in PINNED_SPECS]:
            yield systems.solve_system(cli.load_spec(str(path)))

    digest = hashlib.sha256()
    for raw in raw_automata():
        aut = raw.minimize()
        digest.update(repr((aut.transitions, sorted(aut.finals), aut.initial)).encode())
    assert digest.hexdigest() == LANGUAGE_DIGEST
