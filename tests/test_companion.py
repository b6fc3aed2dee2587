"""Matrix-ring engine: companion forms, the conjugation identity, automata."""

import itertools
import random

import pytest

import suites
from edesolver.companion import (
    CompanionSpec,
    MatrixEde,
    PolyMatrix,
    build_automaton,
    companion_matrix,
    conjugator,
    degree_bound,
    determinant,
    evaluate_at_companion,
    explore,
    extend_residues,
    initial_state,
    is_accepting_state,
    step,
)
from edesolver.digits import DigitWord
from edesolver.errors import SingularConjugatorError, StructureError
from edesolver.gfpoly import Poly, PrimeField, parse_poly
from edesolver import scalar

F2 = PrimeField(2)
F3 = PrimeField(3)

THETA = Poly.variable(F2, 1, 0)
ONE = Poly.one(F2, 1)
ZERO = Poly.zero(F2, 1)


def M(rows, field=F2, num_vars=1):
    return PolyMatrix(
        field, num_vars,
        tuple(tuple(parse_poly(e, field, num_vars) for e in row) for row in rows),
    )


SPEC2 = suites.companion_n2_f2()  # xi^2 + xi + theta
B2 = companion_matrix(SPEC2)


# ------------------------------------------------------------ poly matrices

def test_matrix_shapes_validated():
    with pytest.raises(StructureError):
        PolyMatrix(F2, 1, ((ONE,), (ONE, ZERO)))
    with pytest.raises(StructureError):
        PolyMatrix(F2, 1, ((ONE, ZERO),))  # not square


def test_matrix_arithmetic():
    ident = PolyMatrix.identity(F2, 1, 2)
    assert B2 * ident == B2
    assert ident * B2 == B2
    assert (B2 + B2).is_zero()
    assert B2 * 1 == B2 and 1 * B2 == B2
    assert (B2 * 2).is_zero()
    assert B2**0 == ident
    assert B2**1 == B2
    product = ident
    for k in range(34):
        assert B2**k == product
        product = product * B2
    with pytest.raises(StructureError):
        B2 + PolyMatrix.identity(F2, 1, 3)
    with pytest.raises(StructureError):
        B2 ** (-1)
    with pytest.raises(StructureError):
        B2**2.0


def test_matrix_scalar_poly_multiplication():
    assert B2 * THETA == M([["0", "1:2"], ["1:1", "1:1"]])


def test_matrix_frobenius_and_section_are_entrywise():
    m = M([["1:1", "0"], ["0", "1:1"]])
    assert m.frobenius() == M([["1:2", "0"], ["0", "1:2"]])
    assert m.section((1,)) == PolyMatrix.identity(F2, 1, 2)
    assert m.section((0,)).is_zero()
    assert PolyMatrix.zero(F2, 1, 2).section((0,)).is_zero()


def test_matrix_reconstruction_entrywise():
    rng = random.Random(3)
    for _ in range(5):
        m = PolyMatrix(
            F3, 1,
            tuple(
                tuple(suites.random_poly(rng, F3, 1, max_deg=4) for _ in range(2))
                for _ in range(2)
            ),
        )
        total = PolyMatrix.zero(F3, 1, 2)
        for y in ((0,), (1,), (2,)):
            mono = Poly(F3, 1, {y: 1})
            total = total + m.section(y).frobenius() * mono
        assert total == m


def test_matrix_degree():
    assert PolyMatrix.zero(F2, 1, 2).total_degree() == float("-inf")
    assert B2.total_degree() == 1
    assert (B2 * B2).total_degree() == 1


def test_determinant():
    assert determinant(PolyMatrix.identity(F2, 1, 3)) == Poly.one(F2, 1)
    assert determinant(B2) == THETA  # 0*1 - theta*1, char 2
    assert determinant(PolyMatrix.zero(F2, 1, 2)).is_zero()


# --------------------------------------------------------------- companions

def test_companion_matrix_n2():
    assert B2 == M([["0", "1:1"], ["1:0", "1:0"]])


def test_companion_matrix_n1():
    spec = CompanionSpec(F2, 1, 1, ONE, (THETA,))
    assert companion_matrix(spec) == M([["1:1"]])


def test_companion_matrix_n3_subdiagonal():
    spec = CompanionSpec(F3, 1, 3, Poly.variable(F3, 1, 0),
                         tuple(Poly.zero(F3, 1) for _ in range(3)))
    b = companion_matrix(spec)
    for i in range(3):
        for j in range(3):
            if j == i - 1:
                assert b.rows[i][j] == Poly.variable(F3, 1, 0)
            elif j != 2:
                assert b.rows[i][j].is_zero()


def test_companion_spec_validation():
    with pytest.raises(StructureError):
        CompanionSpec(F2, 1, 2, ZERO, (ONE, ONE))  # rho = 0
    with pytest.raises(StructureError):
        CompanionSpec(F2, 1, 2, ONE, (ONE,))  # wrong numerator count


def test_evaluate_at_companion():
    assert evaluate_at_companion((ONE,), SPEC2) == PolyMatrix.identity(F2, 1, 2)
    assert evaluate_at_companion((ZERO, ONE), SPEC2) == B2
    assert evaluate_at_companion((ZERO, ZERO, ONE), SPEC2) == B2 * B2
    # xi^2 = xi + theta in this ring
    assert B2 * B2 == M([["1:1", "1:1"], ["1:0", "1:1 + 1:0"]])


# -------------------------------------------------------------- conjugators

def test_conjugator_n1_is_identity():
    spec = CompanionSpec(F2, 1, 1, THETA, (ONE,))
    c, sigma = conjugator(spec)
    assert c == PolyMatrix.identity(F2, 1, 1)
    assert sigma == ONE


def test_conjugator_worked_example():
    c, sigma = conjugator(SPEC2)
    assert c == M([["1:0", "1:1"], ["0", "1:0"]])
    assert sigma == ONE
    lhs = (B2 * B2) * c
    rhs = c * B2.frobenius()
    assert lhs == rhs == M([["1:1", "1:2 + 1:1"], ["1:0", "1:0"]])


def test_conjugator_rejects_inseparable_minimal_polynomial():
    # xi^2 - theta has derivative 0, so xi^p lands back on xi^0 coordinates
    spec = CompanionSpec(F2, 1, 2, ONE, (THETA, ZERO))
    with pytest.raises(SingularConjugatorError):
        conjugator(spec)


def test_conjugation_identity_on_random_specs():
    for spec in suites.random_separable_specs(count=12):
        c, _ = conjugator(spec)
        assert not determinant(c).is_zero()
        b = companion_matrix(spec)
        assert (b ** spec.field.p) * c == c * b.frobenius()


# ---------------------------------------------------------------- equations

IDENT2 = PolyMatrix.identity(F2, 1, 2)
# B^n = B over the n=2 companion ring
EDE_B = MatrixEde(SPEC2, (IDENT2, B2), ((B2,), (IDENT2,)))


def test_matrix_ede_validation():
    with pytest.raises(StructureError):
        MatrixEde(SPEC2, (), ())
    with pytest.raises(StructureError):
        MatrixEde(SPEC2, (IDENT2,), ((PolyMatrix.identity(F2, 1, 3),),))


def test_degree_bound_matrix():
    # base degree 1, conjugator degree 1: ceil((2*1*1 + 1)/1)
    assert degree_bound(EDE_B) == (3, 3)
    spec1 = CompanionSpec(F2, 1, 1, ONE, (ONE,))
    flat = MatrixEde(
        spec1,
        (evaluate_at_companion((parse_poly("1:4", F2, 1),), spec1),),
        ((PolyMatrix.identity(F2, 1, 1),),),
    )
    # constant bases and trivial conjugator: same numbers as the scalar bound
    assert degree_bound(flat) == (0, 4)


def test_step_with_trivial_conjugator_is_plain_section():
    spec1 = CompanionSpec(F2, 1, 1, ONE, (THETA,))
    f = evaluate_at_companion((parse_poly("1:3 + 1:1", F2, 1),), spec1)
    ede = MatrixEde(spec1, (f,), ((PolyMatrix.identity(F2, 1, 1),),))
    assert step(ede, 1, (0,), (1,), f) == f.section((1,))


def test_step_matches_hand_expansion():
    c, _ = conjugator(SPEC2)
    f = IDENT2
    for y in ((0,), (1,)):
        assert step(EDE_B, 1, (1,), y, f) == (f * B2 * c).section(y)
        assert step(EDE_B, 2, (1,), y, f) == (f * c).section(y)


def test_extend_residues_componentwise():
    got = extend_residues(EDE_B, (IDENT2, B2), (1,), (1,))
    want = tuple(
        step(EDE_B, i + 1, (1,), (1,), m) for i, m in enumerate((IDENT2, B2))
    )
    assert got == want


_direct_word_operator = suites.matrix_word_operator


def test_two_letter_composition_matches_chain():
    for ede in suites.matrix_suite()[:4]:
        f = ede.q[0]
        for xs in itertools.product(ede.exponent_alphabet, repeat=2):
            for ys in itertools.product(ede.section_alphabet, repeat=2):
                folded = f
                for x, y in zip(xs, ys):
                    folded = step(ede, 1, x, y, folded)
                assert folded == _direct_word_operator(ede, 1, xs, ys, f)


# ------------------------------------------------------------ the automaton

def test_power_equation_language():
    aut = build_automaton(EDE_B)
    words = aut.enumerate_words(3)
    assert sorted({w.decode() for w in words}) == [(1,)]
    for combo in itertools.product(((0,), (1,)), repeat=3):
        w = DigitWord(2, 1, combo)
        expected = combo[0] == (1,) and all(c == (0,) for c in combo[1:])
        assert aut.accepts(w) == expected


def test_zero_summand_accepts_all_words():
    ede = MatrixEde(SPEC2, (PolyMatrix.zero(F2, 1, 2),), ((B2,),))
    aut = build_automaton(ede)
    assert aut.num_states == 1
    assert aut.accepts(DigitWord(2, 1, ()))


def test_n3_separable_instance():
    ede = suites.matrix_suite()[-1]
    assert ede.base.n == 3
    aut = build_automaton(ede)
    assert sorted({w.decode() for w in aut.enumerate_words(3)}) == [(1,)]


def test_n1_degenerates_to_scalar_engine():
    for matrix_ede, scalar_ede in suites.n1_pairs():
        m_aut = build_automaton(matrix_ede)
        s_aut = scalar.build_automaton(scalar_ede)
        # the order-one ring is the scalar ring: the same build, not only the same language
        assert m_aut.transitions == s_aut.transitions
        assert m_aut.finals == s_aut.finals
        assert m_aut.initial == s_aut.initial
        p = scalar_ede.field.p
        for length in range(5):
            for combo in itertools.product(
                scalar_ede.exponent_alphabet, repeat=length
            ):
                w = DigitWord(p, 1, combo)
                assert m_aut.accepts(w) == s_aut.accepts(w)


def test_reachable_matrix_degrees_stay_bounded():
    for ede in suites.matrix_suite()[:5]:
        _, n2 = degree_bound(ede)
        keys, _ = explore(ede)
        for state in keys:
            for residues in state:
                for m in residues:
                    assert m.total_degree() <= n2


def test_goodness_is_zero_matrix_test():
    assert is_accepting_state(frozenset({(B2, B2)}))  # char 2 cancellation
    assert not is_accepting_state(frozenset({(B2, IDENT2)}))
    assert is_accepting_state(frozenset())
    assert initial_state(EDE_B) == frozenset({(IDENT2, B2)})
