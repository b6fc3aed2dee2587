"""Single-equation engine: degree bounds, the per-digit operator, automata."""

import itertools
import random

import pytest

import suites
from edesolver.digits import DigitWord, alphabet
from edesolver.errors import CapacityError, StructureError
from edesolver.gfpoly import Poly, PrimeField, parse_poly
from edesolver.scalar import (
    ScalarEde,
    base_power,
    build_automaton,
    degree_bound,
    entries,
    explore,
    extend_residues,
    extend_state,
    initial_state,
    is_accepting_residues,
    is_accepting_state,
    span_layout,
    step,
)

F2 = PrimeField(2)
F3 = PrimeField(3)

THETA = Poly.variable(F2, 1, 0)
ONE = Poly.one(F2, 1)
ZERO = Poly.zero(F2, 1)

# theta^n + theta = 0 over F_2[theta]; solved only by n = 1
EDE_THETA = ScalarEde(F2, 1, 1, (ONE, THETA), ((THETA,), (ONE,)))
EDE_ZERO = ScalarEde(F2, 1, 1, (ZERO,), ((ONE,),))
EDE_ONE = ScalarEde(F2, 1, 1, (ONE,), ((ONE,),))


def random_ede(rng, p, r, t, s, max_deg=2):
    field = PrimeField(p)

    def rpoly():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            e = [0] * r
            budget = rng.randint(0, max_deg)
            for _ in range(budget):
                e[rng.randrange(r)] += 1
            terms[tuple(e)] = rng.randint(0, p - 1)
        return Poly(field, r, terms)

    q = tuple(rpoly() for _ in range(s))
    bases = tuple(tuple(rpoly() for _ in range(t)) for _ in range(s))
    return ScalarEde(field, r, t, q, bases)


# --------------------------------------------------------------- validation

def test_spec_validation():
    with pytest.raises(StructureError):
        ScalarEde(F2, 1, 1, (), ())  # s = 0
    with pytest.raises(StructureError):
        ScalarEde(F2, 1, 1, (ONE,), ((ONE, ONE),))  # t mismatch
    with pytest.raises(StructureError):
        ScalarEde(F2, 1, 1, (Poly.one(F3, 1),), ((ONE,),))  # foreign field
    with pytest.raises(StructureError):
        ScalarEde(F2, 1, 1, (Poly.one(F2, 2),), ((ONE,),))  # wrong arity


def test_shape_properties():
    assert EDE_THETA.s == 2
    assert EDE_THETA.exponent_alphabet == ((0,), (1,))
    assert EDE_THETA.section_alphabet == ((0,), (1,))


# ------------------------------------------------------------ degree bounds

def test_degree_bound_theta_example():
    # p=2, one unknown, bases of degree <= 1
    assert degree_bound(EDE_THETA) == (2, 2)


def test_degree_bound_two_unknowns():
    q = (parse_poly("1:1,0", F3, 2),)
    bases = ((parse_poly("1:2,0", F3, 2), parse_poly("1:0,1", F3, 2)),)
    ede = ScalarEde(F3, 2, 2, q, bases)
    assert degree_bound(ede) == (6, 6)


def test_degree_bound_constant_bases():
    ede = ScalarEde(F2, 1, 1, (parse_poly("1:4", F2, 1),), ((ONE,),))
    assert degree_bound(ede) == (0, 4)


def test_degree_bound_zero_base_counts_as_degree_zero():
    ede = ScalarEde(F2, 1, 1, (ONE,), ((ZERO,),))
    assert degree_bound(ede) == (0, 0)


# ------------------------------------------------------------ the operator

def test_base_power_examples():
    assert base_power(EDE_THETA, 1, (0,)) == ONE
    assert base_power(EDE_THETA, 1, (1,)) == THETA
    theta1 = parse_poly("1:1,0", F3, 2)
    ede = ScalarEde(
        F3, 2, 2,
        (Poly.one(F3, 2),),
        ((theta1, parse_poly("1:1,0 + 1:0,0", F3, 2)),),
    )
    expected = theta1 * parse_poly("1:1,0 + 1:0,0", F3, 2) ** 2
    assert base_power(ede, 1, (1, 2)) == expected


def test_base_power_index_range():
    with pytest.raises(StructureError):
        base_power(EDE_THETA, 0, (0,))
    with pytest.raises(StructureError):
        base_power(EDE_THETA, 3, (0,))


def test_step_zero_exponent_is_plain_section():
    f = parse_poly("1:3 + 1:1", F2, 1)
    assert step(EDE_THETA, 1, (0,), (1,), f) == f.section((1,))


def test_step_worked_values():
    assert step(EDE_THETA, 1, (1,), (0,), ONE) == ZERO
    assert step(EDE_THETA, 1, (1,), (1,), ONE) == ONE
    assert step(EDE_THETA, 1, (1,), (0,), THETA) == THETA  # section(theta^2, 0)


def test_span_layout_multipliers_are_base_power_times_conjugator():
    # the triple of letter x from entry (i, a, k) to entry (i, a, b) carries
    # entry (k, b) of summand i's multiplier P^x * C'
    pairs = [ede for pair in suites.n1_pairs() for ede in pair]
    for ede in suites.scalar_suite() + suites.matrix_suite() + pairs:
        n = ede.n
        _, moves = span_layout([ede])
        assert list(moves) == list(ede.exponent_alphabet)
        for x, triples in moves.items():
            mults = [entries(base_power(ede, i, x) * ede.conjugator) for i in range(1, ede.s + 1)]
            assert len(set((a, b) for a, b, _ in triples)) == len(triples) == ede.s * n**3
            for source, target, f in triples:
                i, a, k = source // (n * n), source // n % n, source % n
                assert target // n == i * n + a
                assert f == mults[i][k * n + target % n], (ede, x, source, target)


# ------------------------------------------------------- residue extension

def test_extend_residues_zeros_stay_zero():
    assert extend_residues(EDE_THETA, (ZERO, ZERO), (1,), (1,)) == (ZERO, ZERO)


def test_extend_residues_matches_componentwise_step():
    residues = tuple(EDE_THETA.q)
    for x in EDE_THETA.exponent_alphabet:
        for y in EDE_THETA.section_alphabet:
            got = extend_residues(EDE_THETA, residues, x, y)
            assert got == tuple(
                step(EDE_THETA, i + 1, x, y, f) for i, f in enumerate(residues)
            )


def test_extend_residues_initial_by_one_one():
    got = extend_residues(EDE_THETA, (ONE, THETA), (1,), (1,))
    assert got == (ONE, ONE)


def test_extend_state_bounds():
    assert extend_state(EDE_THETA, frozenset(), (1,)) == frozenset()
    start = initial_state(EDE_THETA)
    ext = extend_state(EDE_THETA, start, (1,))
    assert len(ext) <= len(start) * 2  # p^r images per member
    assert ext == frozenset({(ONE, ONE), (ZERO, ZERO)})


def test_goodness():
    f = parse_poly("1:2 + 1:0", F2, 1)
    assert is_accepting_residues((f, f))  # f + f = 0 in char 2
    assert is_accepting_residues((f, -f))
    assert not is_accepting_residues((ONE, ZERO))
    assert is_accepting_state(frozenset())
    assert is_accepting_state(frozenset({(ZERO, ZERO)}))
    assert not is_accepting_state(frozenset({(ZERO, ZERO), (ONE, ZERO)}))


# ------------------------------------------------------------ the automaton

def test_one_equals_zero_has_empty_language():
    aut = build_automaton(EDE_ONE)
    assert aut.is_empty()
    assert aut.enumerate_words(4) == []


def test_zero_equals_zero_accepts_everything():
    aut = build_automaton(EDE_ZERO)
    assert aut.num_states == 1
    for w in aut.enumerate_words(3):
        pass
    assert len(aut.enumerate_words(3)) == 1 + 2 + 4 + 8


def test_theta_equation_language():
    aut = build_automaton(EDE_THETA)
    assert aut.num_states == 3
    for length in range(5):
        for combo in itertools.product(((0,), (1,)), repeat=length):
            w = DigitWord(2, 1, combo)
            expected = len(combo) >= 1 and combo[0] == (1,) and all(
                c == (0,) for c in combo[1:]
            )
            assert aut.accepts(w) == expected
    assert sorted({w.decode() for w in aut.enumerate_words(4)}) == [(1,)]


def test_capacity_error_carries_count():
    with pytest.raises(CapacityError) as exc:
        build_automaton(EDE_THETA, state_cap=2)
    assert exc.value.discovered == 2


@pytest.mark.parametrize("cap", [0, -3])
def test_state_cap_below_one_is_rejected(cap):
    with pytest.raises(StructureError, match="at least 1"):
        build_automaton(EDE_THETA, state_cap=cap)


def test_rebuilds_are_identical():
    a = build_automaton(EDE_THETA)
    b = build_automaton(EDE_THETA)
    assert a.labels == b.labels
    assert a.transitions == b.transitions
    assert a.finals == b.finals
    assert a.to_json() == b.to_json()


# -------------------------------------------------- composition and bounds

_direct_word_operator = suites.scalar_word_operator


def test_two_letter_composition_matches_direct_definition():
    rng = random.Random(7)
    for trial in range(6):
        ede = random_ede(rng, p=2 if trial % 2 else 3, r=1, t=1, s=2)
        p = ede.field.p
        f = ede.q[0]
        for xs in itertools.product(ede.exponent_alphabet, repeat=2):
            for ys in itertools.product(ede.section_alphabet, repeat=2):
                folded = f
                for x, y in zip(xs, ys):
                    folded = step(ede, 1, x, y, folded)
                assert folded == _direct_word_operator(ede, 1, xs, ys, f)


def test_states_computed_by_folding_match_direct_extension():
    # fold-of-letters vs. brute force over all equal-length section words
    rng = random.Random(11)
    for _ in range(4):
        ede = random_ede(rng, p=2, r=1, t=1, s=2)
        for u in itertools.product(ede.exponent_alphabet, repeat=2):
            state = initial_state(ede)
            for x in u:
                state = extend_state(ede, state, x)
            direct = set()
            for w in itertools.product(ede.section_alphabet, repeat=len(u)):
                direct.add(
                    tuple(
                        _direct_word_operator(ede, i + 1, u, w, ede.q[i])
                        for i in range(ede.s)
                    )
                )
            assert state == frozenset(direct)


def test_reachable_degrees_stay_bounded():
    rng = random.Random(23)
    for trial in range(8):
        ede = random_ede(rng, p=rng.choice((2, 3)), r=rng.randint(1, 2), t=1, s=2)
        _, n1 = degree_bound(ede)
        keys, _ = explore(ede)
        for state in keys:
            for residues in state:
                for f in residues:
                    assert f.total_degree() <= n1
