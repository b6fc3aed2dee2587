"""Coefficient peeling and the one-exploration solver of whole systems."""

import contextlib
import dataclasses
import functools
import hashlib
import io
import itertools
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import suites
from edesolver import cli, companion, fsa, oracle, scalar, systems
from edesolver.companion import MatrixEde, PolyMatrix, companion_matrix
from edesolver.digits import DigitWord, alphabet
from edesolver.errors import StructureError
from edesolver.gfpoly import Poly, PrimeField, parse_poly
from edesolver.systems import (
    Summand,
    SystemSpec,
    equation_language,
    peel_equation,
    peel_last_digits,
    solve_system,
    solves_at_zero,
)

SPECS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "specs"
# n = 2 companion over F_2, t = 2, two equations with poly_coeff: a system
# shape no bundled spec has
COMPANION_SYSTEM_T2 = pathlib.Path(__file__).resolve().parent / "specs" / "companion_system_t2.json"
# (theta + xi)^n1 + 2 (theta^3 + xi^3)^n2 = 0 over the n = 2 companion ring
# of xi^2 = xi + theta over F_3: solved exactly by n1 = 3 n2
RELATION_P3_N2 = pathlib.Path(__file__).resolve().parent / "specs" / "relation_p3_n2.json"
# (theta + xi)^n1 + (theta^2 + xi^2)^n2 = 0 over the n = 4 companion ring of
# xi^4 = xi + theta over F_2: solved exactly by n1 = 2 n2
RELATION_N4 = pathlib.Path(__file__).resolve().parent / "specs" / "relation_n4.json"

F2 = PrimeField(2)
F3 = PrimeField(3)

THETA = Poly.variable(F2, 1, 0)
ONE = Poly.one(F2, 1)
ZERO = Poly.zero(F2, 1)
NVAR = Poly.variable(F2, 1, 0)  # coefficient polynomials live in the t unknowns

EVEN_N = SystemSpec(F2, 1, 1, None, ((Summand(NVAR, ONE, (THETA,)),),))
THETA_EQ = SystemSpec(
    F2, 1, 1, None,
    ((Summand(None, ONE, (THETA,)), Summand(None, THETA, (ONE,))),),
)
# n^2 + n vanishes identically on F_2: every peeled start is zero
FERMAT = SystemSpec(
    F2, 1, 1, None, ((Summand(parse_poly("1:2 + 1:1", F2, 1), ONE, (ONE,)),),)
)
ZERO_EQ = (Summand(None, ZERO, (ONE,)),)
TWO_ZERO_EQS = SystemSpec(F2, 1, 1, None, (ZERO_EQ, ZERO_EQ))
UNSOLVABLE_MEET = SystemSpec(
    F2, 1, 1, None,
    (
        (Summand(None, ONE, (THETA,)), Summand(None, THETA, (ONE,))),
        (Summand(None, ONE, (ONE,)),),  # 1 = 0
    ),
)
# even n, intersected with n = 0 (theta^n + 1 + theta + theta = theta^n + 1)
EVEN_AND_ZERO = SystemSpec(
    F2, 1, 1, None,
    (
        (Summand(NVAR, ONE, (THETA,)),),
        (
            Summand(None, ONE, (THETA,)),
            Summand(None, THETA, (ONE,)),
            Summand(None, THETA + ONE, (ONE,)),
        ),
    ),
)


def matrix_even_n():
    """n * B^n = 0 over the order-2 companion ring, B invertible."""
    spec2 = suites.companion_n2_f2()
    return SystemSpec(F2, 1, 1, spec2, ((Summand(NVAR, (ONE,), ((ZERO, ONE),)),),))


def words_up_to(p, t, max_len):
    letters = alphabet(p, t)
    for length in range(max_len + 1):
        for combo in itertools.product(letters, repeat=length):
            yield DigitWord(p, t, combo)


def random_scalar_system(rng, p, r, t, n_eqs=1, s_max=2, coeff_deg=2):
    field = PrimeField(p)
    eqs = []
    for _ in range(n_eqs):
        summands = []
        for _ in range(rng.randint(1, s_max)):
            coeff = None
            if rng.random() < 0.7:
                coeff = suites.random_poly(rng, field, t, max_deg=coeff_deg)
            q = suites.random_poly(rng, field, r)
            bases = tuple(suites.random_poly(rng, field, r) for _ in range(t))
            summands.append(Summand(coeff, q, bases))
        eqs.append(tuple(summands))
    return SystemSpec(field, r, t, None, tuple(eqs))


# --------------------------------------------------------------- validation

def test_system_validation():
    with pytest.raises(StructureError):
        SystemSpec(F2, 1, 1, None, ())
    with pytest.raises(StructureError):
        SystemSpec(F2, 1, 1, None, ((),))
    with pytest.raises(StructureError):
        SystemSpec(F2, 1, 1, None, ((Summand(None, ONE, ()),),))
    with pytest.raises(StructureError):
        # coefficient must be over the t unknowns
        SystemSpec(
            F2, 1, 2, None,
            ((Summand(NVAR, ONE, (THETA, ONE)),),),
        )
    with pytest.raises(StructureError):
        # scalar system with xi-coefficient entries
        SystemSpec(F2, 1, 1, None, ((Summand(None, (ONE,), ((THETA,),)),),))


def test_companion_system_validation():
    spec2 = suites.companion_n2_f2()
    SystemSpec(
        F2, 1, 1, spec2,
        ((Summand(None, (ONE,), ((ZERO, ONE),)),),),
    )
    with pytest.raises(StructureError):
        SystemSpec(
            F2, 1, 1, spec2,
            ((Summand(None, ONE, (THETA,)),),),  # bare Poly entries
        )
    with pytest.raises(StructureError):
        SystemSpec(F3, 1, 1, spec2, ((Summand(None, (ONE,), ((ONE,),)),),))


# ------------------------------------------------------------------ peeling

def test_peel_without_coefficients_scales_and_squares():
    (eq,) = THETA_EQ.equations
    peeled = peel_equation(THETA_EQ, eq, (1,))
    assert isinstance(peeled, scalar.ScalarEde)
    assert peeled.q == (THETA, THETA)  # 1 * theta^1, theta * 1^1
    assert peeled.bases == ((THETA * THETA,), (ONE,))
    peeled0 = peel_equation(THETA_EQ, eq, (0,))
    assert peeled0.q == (ONE, THETA)


def test_peel_evaluates_coefficients_at_the_last_digit():
    (eq,) = EVEN_N.equations
    at0 = peel_equation(EVEN_N, eq, (0,))
    assert at0.q == (ZERO,)  # coefficient n vanishes at n = 0
    at1 = peel_equation(EVEN_N, eq, (1,))
    assert at1.q == (THETA,)
    assert at1.bases == ((THETA * THETA,),)


def test_peel_last_digits_covers_all_prefixes():
    out = peel_last_digits(EVEN_N)
    assert [prefix for prefix, _ in out] == [(0,), (1,)]
    assert all(len(eqs) == 1 for _, eqs in out)


def literal_peel(sys_spec, equation, prefix):
    """Peeling written out per prefix, every power recomputed."""
    p = sys_spec.field.p
    new_q, new_bases = [], []
    for sm in equation:
        c = 1 if sm.coeff is None else sm.coeff.evaluate(prefix)
        if sys_spec.companion is None:
            q, mats = sm.q * c, sm.bases
            new_bases.append(tuple(b.frobenius() for b in mats))
        else:
            q = companion.evaluate_at_companion(sm.q, sys_spec.companion) * c
            mats = [companion.evaluate_at_companion(b, sys_spec.companion) for b in sm.bases]
            new_bases.append(tuple(m**p for m in mats))
        for m, d in zip(mats, prefix):
            q = q * m**d
        new_q.append(q)
    if sys_spec.companion is None:
        return scalar.ScalarEde(sys_spec.field, sys_spec.r, sys_spec.t, new_q, new_bases)
    return MatrixEde(sys_spec.companion, new_q, new_bases)


def test_peel_last_digits_equals_peel_equation_on_bundled_specs():
    for path in sorted(SPECS.glob("*.json")):
        sys_spec = cli.load_spec(str(path))
        peeled = peel_last_digits(sys_spec)
        assert [prefix for prefix, _ in peeled] == list(alphabet(sys_spec.field.p, sys_spec.t))
        for prefix, edes in peeled:
            assert edes == tuple(peel_equation(sys_spec, eq, prefix) for eq in sys_spec.equations)
            assert edes == tuple(literal_peel(sys_spec, eq, prefix) for eq in sys_spec.equations)
            if sys_spec.companion is not None:
                cprime = companion.conjugator(sys_spec.companion)[0]
                assert all(ede.conjugator == cprime for ede in edes)


@pytest.mark.parametrize(
    "path", sorted(SPECS.glob("*.json")) + [COMPANION_SYSTEM_T2], ids=lambda p: p.stem
)
def test_start_coefficients_are_the_literal_products(path):
    # c(d) * q * prod_k P_k^{d_k} for every last digit d, each power taken on its own
    sys_spec = cli.load_spec(str(path))
    letters = alphabet(sys_spec.field.p, sys_spec.t)
    for eq in sys_spec.equations:
        summands = sys_spec.ring_summands(eq)
        for d, starts in zip(letters, systems._starts(sys_spec.field.p, summands, letters), strict=True):
            want = []
            for coeff, q, bases in summands:
                start = q * (1 if coeff is None else coeff.evaluate(d))
                for base, dk in zip(bases, d):
                    start = start * base**dk
                want.append(start)
            assert starts == tuple(want), (path.stem, d)


def test_peel_preserves_solutions_scalar():
    rng = random.Random(101)
    for _ in range(12):
        p = rng.choice((2, 3))
        t = rng.randint(1, 2)
        sys_spec = random_scalar_system(rng, p, rng.randint(1, 2), t)
        (eq,) = sys_spec.equations
        for prefix in alphabet(p, t):
            peeled = peel_equation(sys_spec, eq, prefix)
            for rest in itertools.product(range(p + 1), repeat=t):
                n = tuple(d + p * m for d, m in zip(prefix, rest))
                orig = _evaluate_scalar_equation(sys_spec, eq, n)
                sub = oracle.evaluate(peeled, rest)
                assert orig.is_zero() == sub.is_zero()


def _evaluate_scalar_equation(sys_spec, eq, values):
    total = Poly.zero(sys_spec.field, sys_spec.r)
    for sm in eq:
        c = 1 if sm.coeff is None else sm.coeff.evaluate(values)
        term = sm.q * c
        for base, e in zip(sm.bases, values):
            term = term * base**e
        total = total + term
    return total


def test_peel_matrix_system():
    spec2 = suites.companion_n2_f2()
    b = companion_matrix(spec2)
    sys_spec = SystemSpec(
        F2, 1, 1, spec2,
        ((Summand(NVAR, (ONE,), ((ZERO, ONE),)),),),  # n * B^n = 0
    )
    (eq,) = sys_spec.equations
    peeled = peel_equation(sys_spec, eq, (1,))
    assert isinstance(peeled, MatrixEde)
    assert peeled.q == (b,)
    assert peeled.bases == ((b * b,),)
    assert peel_equation(sys_spec, eq, (0,)).q[0].is_zero()


# ---------------------------------------------------------------- languages

def test_solves_at_zero():
    assert not solves_at_zero(THETA_EQ, THETA_EQ.equations[0])
    assert solves_at_zero(EVEN_N, EVEN_N.equations[0])
    zero_sys = SystemSpec(F2, 1, 1, None, ((Summand(None, ZERO, (ONE,)),),))
    assert solves_at_zero(zero_sys, zero_sys.equations[0])


def test_polynomial_free_equation_matches_direct_build():
    rng = random.Random(55)
    for _ in range(4):
        p = rng.choice((2, 3))
        field = PrimeField(p)
        s = rng.randint(1, 2)
        q = tuple(suites.random_poly(rng, field, 1) for _ in range(s))
        bases = tuple((suites.random_poly(rng, field, 1),) for _ in range(s))
        ede = scalar.ScalarEde(field, 1, 1, q, bases)
        sys_spec = SystemSpec(
            field, 1, 1, None,
            (tuple(Summand(None, qi, bi) for qi, bi in zip(q, bases)),),
        )
        direct = scalar.build_automaton(ede)
        assembled = solve_system(sys_spec)
        for w in words_up_to(p, 1, 4):
            assert direct.accepts(w) == assembled.accepts(w)


def test_even_n_language():
    aut = solve_system(EVEN_N)
    decoded = sorted({w.decode()[0] for w in aut.enumerate_words(4)})
    assert decoded == [0, 2, 4, 6, 8, 10, 12, 14]
    assert aut.accepts(DigitWord(2, 1, ()))  # lambda stands for n = 0


def test_fermat_vanishing_coefficient_accepts_everything():
    aut = solve_system(FERMAT)
    for w in words_up_to(2, 1, 4):
        assert aut.accepts(w)


def test_system_of_two_trivial_equations():
    aut = solve_system(TWO_ZERO_EQS)
    for w in words_up_to(2, 1, 3):
        assert aut.accepts(w)


@pytest.mark.parametrize("cap", [0, -3])
@pytest.mark.parametrize("name", ["zero_eq", "two_equations"])
def test_state_cap_below_one_is_rejected(name, cap):
    spec = cli.load_spec(str(SPECS / f"{name}.json"))
    with pytest.raises(StructureError, match="at least 1"):
        solve_system(spec, cap)
    assert solve_system(spec, 1 << 10).num_states >= 1


def test_meet_with_unsolvable_equation_is_empty():
    assert solve_system(UNSOLVABLE_MEET).is_empty()


def test_intersection_equals_per_equation_meet():
    sys_spec = EVEN_AND_ZERO
    whole = solve_system(sys_spec)
    parts = [equation_language(sys_spec, eq) for eq in sys_spec.equations]
    for w in words_up_to(2, 1, 4):
        assert whole.accepts(w) == all(a.accepts(w) for a in parts)
    assert sorted({w.decode() for w in whole.enumerate_words(4)}) == [(0,)]


def test_matrix_system_language():
    sys_spec = matrix_even_n()
    aut = solve_system(sys_spec)
    decoded = sorted({w.decode()[0] for w in aut.enumerate_words(3)})
    assert decoded == [0, 2, 4, 6]
    rep = oracle.compare(sys_spec, aut, 3)
    assert rep.ok


def test_random_systems_agree_with_oracle():
    rng = random.Random(77)
    for _ in range(6):
        p = rng.choice((2, 3))
        sys_spec = random_scalar_system(
            rng, p, rng.randint(1, 2), rng.randint(1, 2), n_eqs=rng.randint(1, 2)
        )
        aut = solve_system(sys_spec)
        rep = oracle.compare(sys_spec, aut, 3)
        assert rep.ok, rep.mismatches[:3]


# ------------------------------------------------------ reference assembly
#
# The joint exploration against a reference built from public pieces only:
# the empty word spells the zero tuple, and a word d.w solves the system
# exactly when w is accepted by the engine automaton of every equation
# peeled at the last digit d.


def assert_matches_reference(sys_spec, max_len=4):
    p, t = sys_spec.field.p, sys_spec.t
    aut = solve_system(sys_spec).minimize()
    build = scalar.build_automaton if sys_spec.companion is None else companion.build_automaton
    lam = all(solves_at_zero(sys_spec, eq) for eq in sys_spec.equations)
    assert aut.accepts(DigitWord(p, t, ())) == lam
    for d in alphabet(p, t):
        parts = [build(peel_equation(sys_spec, eq, d)) for eq in sys_spec.equations]
        for w in words_up_to(p, t, max_len - 1):
            want = all(a.accepts(w) for a in parts)
            assert aut.accepts(DigitWord(p, t, (d,) + w.letters)) == want, (sys_spec, d, w)


@pytest.mark.parametrize("path", sorted(SPECS.glob("*.json")), ids=lambda p: p.stem)
def test_bundled_specs_match_reference(path):
    assert_matches_reference(cli.load_spec(str(path)))


def test_known_systems_match_reference():
    for sys_spec in (
        EVEN_N, THETA_EQ, FERMAT, TWO_ZERO_EQS, UNSOLVABLE_MEET, EVEN_AND_ZERO, matrix_even_n(),
    ):
        assert_matches_reference(sys_spec)


def test_one_equation_object_per_system_equation(monkeypatch):
    # the prefixes share each equation's bases P^p and C': only the start
    # coefficients are peeled per prefix, not p^t equations per equation
    sys_spec = cli.load_spec(str(COMPANION_SYSTEM_T2))
    assert (sys_spec.field.p, sys_spec.t, len(sys_spec.equations)) == (2, 2, 2)
    built = []
    init = scalar.Equation.__post_init__
    monkeypatch.setattr(scalar.Equation, "__post_init__", lambda ede: built.append(ede) or init(ede))
    solve_system(sys_spec)
    assert len(built) == 2


# SHA-256 of `edesolver build` on COMPANION_SYSTEM_T2 (exit status 0)
COMPANION_SYSTEM_T2_DIGEST = "9d20adfb77c0bb9d35d64a0a24baf1661e6b30d2b3491f2d2dcf7e5ada31c326"


def test_companion_system_t2_build_is_pinned():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["build", str(COMPANION_SYSTEM_T2)]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == COMPANION_SYSTEM_T2_DIGEST


# SHA-256 of `edesolver build` on RELATION_P3_N2 (exit status 0)
RELATION_P3_N2_DIGEST = "58b5c7c779ac24d4d718bc95f09ceb897228dc5dae2c1b3331ed9553ab06a8ee"


def test_relation_p3_n2_build_is_pinned():
    # a p = 3 companion spec whose language is not empty: 982 raw states
    sys_spec = cli.load_spec(str(RELATION_P3_N2))
    raw = solve_system(sys_spec)
    aut = raw.minimize()
    assert (raw.num_states, aut.num_states) == (982, 4)
    assert hashlib.sha256(aut.to_json().encode()).hexdigest() == RELATION_P3_N2_DIGEST
    for n1, n2 in itertools.product(range(28), repeat=2):
        assert aut.accepts(DigitWord.encode((n1, n2), 3, 2)) == (n1 == 3 * n2), (n1, n2)


# SHA-256 of `edesolver build` on RELATION_N4 (exit status 0)
RELATION_N4_DIGEST = "9dfca5d0433af8b10001458ddacd5935e0773705657332a53067d4dfcbed4076"


def test_relation_n4_build_is_pinned():
    # a p = 2 companion spec of order 4 whose language is not empty
    sys_spec = cli.load_spec(str(RELATION_N4))
    raw = solve_system(sys_spec)
    aut = raw.minimize()
    assert (raw.num_states, aut.num_states) == (13845, 3)
    assert hashlib.sha256(aut.to_json().encode()).hexdigest() == RELATION_N4_DIGEST
    for n1, n2 in itertools.product(range(32), repeat=2):
        assert aut.accepts(DigitWord.encode((n1, n2), 2, 2)) == (n1 == 2 * n2), (n1, n2)


def test_all_zero_starts_explore_only_the_zero_space():
    # every peeled start is zero, so the span has no coordinates at all:
    # the pre-initial state and the zero space, which accepts
    for sys_spec in (FERMAT, TWO_ZERO_EQS):
        aut = solve_system(sys_spec)
        assert aut.num_states == 2
        assert aut.finals == {0, 1}


# -------------------------------------------------------- metamorphic checks
#
# Each check compares two minimal automata, which minimize() numbers
# canonically, so it covers every word length without the oracle.  It runs
# on the t = 2 scalar suite instances and on two t = 2 companion specs.

T2_SPECS = (RELATION_P3_N2, COMPANION_SYSTEM_T2)


def signature(aut):
    return aut.transitions, aut.finals, aut.initial


def swap_digits(aut):
    """``aut`` reading every letter of two digits with the digits swapped."""
    index = {x: j for j, x in enumerate(aut.letters)}
    transitions = [[row[index[x[::-1]]] for x in aut.letters] for row in aut.transitions]
    return fsa.Automaton(aut.p, aut.t, aut.labels, transitions, aut.initial, aut.finals)


def swap_unknowns(sys_spec):
    """The system with its two unknowns swapped, in the bases and in the coefficients."""

    def coeff(c):
        return None if c is None else Poly(c.field, c.num_vars, {e[::-1]: v for e, v in c.terms.items()})

    equations = tuple(tuple(Summand(coeff(sm.coeff), sm.q, sm.bases[::-1]) for sm in eq) for eq in sys_spec.equations)
    return dataclasses.replace(sys_spec, equations=equations)


def times_theta(sys_spec):
    """The system with every Q multiplied by theta, which is no zero divisor in either ring."""
    theta = Poly.variable(sys_spec.field, sys_spec.r, 0)

    def q(elem):
        return elem * theta if sys_spec.companion is None else tuple(c * theta for c in elem)

    equations = tuple(tuple(Summand(sm.coeff, q(sm.q), sm.bases) for sm in eq) for eq in sys_spec.equations)
    return dataclasses.replace(sys_spec, equations=equations)


def t2_suite():
    return [ede for ede in suites.scalar_suite() if ede.t == 2]


def test_swapping_the_unknowns_swaps_the_digits():
    for ede in t2_suite():
        swapped = dataclasses.replace(ede, bases=tuple(row[::-1] for row in ede.bases))
        want = signature(swap_digits(scalar.build_automaton(ede)).minimize())
        assert signature(scalar.build_automaton(swapped).minimize()) == want, ede
    for path in T2_SPECS:
        sys_spec = cli.load_spec(str(path))
        want = signature(swap_digits(solve_system(sys_spec)).minimize())
        assert signature(solve_system(swap_unknowns(sys_spec)).minimize()) == want, path


def test_multiplying_every_q_by_theta_keeps_the_language():
    for ede in t2_suite():
        theta = Poly.variable(ede.field, ede.r, 0)
        scaled = dataclasses.replace(ede, q=tuple(q * theta for q in ede.q))
        want = signature(scalar.build_automaton(ede).minimize())
        assert signature(scalar.build_automaton(scaled).minimize()) == want, ede
    for path in T2_SPECS:
        sys_spec = cli.load_spec(str(path))
        want = signature(solve_system(sys_spec).minimize())
        assert signature(solve_system(times_theta(sys_spec)).minimize()) == want, path


def scalar_suite_pairs():
    """Two-equation systems: each scalar suite instance with the next one of equal (p, r, t)."""
    groups = {}
    for ede in suites.scalar_suite():
        equation = tuple(Summand(None, q, row) for q, row in zip(ede.q, ede.bases))
        groups.setdefault((ede.field, ede.r, ede.t), []).append(equation)
    return [
        SystemSpec(field, r, t, None, pair)
        for (field, r, t), equations in groups.items()
        for pair in zip(equations, equations[1:])
    ]


def test_a_system_is_the_meet_of_its_equations():
    # at every word length, where gate 5 reads words up to length 4
    systems = [cli.load_spec(str(SPECS / "two_equations.json")), cli.load_spec(str(COMPANION_SYSTEM_T2))]
    for sys_spec in systems + scalar_suite_pairs():
        parts = [equation_language(sys_spec, eq) for eq in sys_spec.equations]
        want = signature(functools.reduce(fsa.Automaton.intersect, parts).minimize())
        assert signature(solve_system(sys_spec).minimize()) == want, sys_spec


@st.composite
def scalar_systems(draw):
    """Scalar systems: p in {2, 3}, r, t <= 2, 1-3 equations of 1-2 summands."""
    field = PrimeField(draw(st.sampled_from((2, 3))))
    r = draw(st.integers(1, 2))
    t = draw(st.integers(1, 2))

    def poly(num_vars):
        exponents = st.tuples(*[st.integers(0, 2)] * num_vars).filter(lambda e: sum(e) <= 2)
        terms = draw(st.dictionaries(exponents, st.integers(1, field.p - 1), max_size=3))
        return Poly(field, num_vars, terms)

    equations = []
    for _ in range(draw(st.integers(1, 3))):
        summands = []
        for _ in range(draw(st.integers(1, 2))):
            coeff = poly(t) if draw(st.booleans()) else None
            summands.append(Summand(coeff, poly(r), tuple(poly(r) for _ in range(t))))
        equations.append(tuple(summands))
    return SystemSpec(field, r, t, None, tuple(equations))


@settings(max_examples=30, deadline=None)
@given(scalar_systems())
def test_random_scalar_systems_match_reference(sys_spec):
    assert_matches_reference(sys_spec)
