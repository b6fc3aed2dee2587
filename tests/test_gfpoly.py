"""Polynomial ring arithmetic and the digit-section decomposition."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edesolver.errors import StructureError
from edesolver.gfpoly import (
    MINUS_INFINITY,
    Poly,
    PrimeField,
    format_poly,
    parse_poly,
    section_table,
)

F2 = PrimeField(2)
F3 = PrimeField(3)


def P(text, field=F2, num_vars=1):
    return parse_poly(text, field, num_vars)


# ---------------------------------------------------------------- strategies

@st.composite
def polys(draw, field=None, num_vars=None, max_exp=6, max_terms=5):
    field = field or draw(st.sampled_from([F2, F3, PrimeField(5)]))
    num_vars = num_vars or draw(st.integers(1, 2))
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        e = tuple(draw(st.integers(0, max_exp)) for _ in range(num_vars))
        terms[e] = draw(st.integers(0, field.p - 1))
    return Poly(field, num_vars, terms)


@st.composite
def poly_pairs(draw):
    field = draw(st.sampled_from([F2, F3, PrimeField(5)]))
    num_vars = draw(st.integers(1, 2))
    f = draw(polys(field=field, num_vars=num_vars))
    g = draw(polys(field=field, num_vars=num_vars))
    return f, g


def random_digits(field, num_vars):
    return st.tuples(*[st.integers(0, field.p - 1)] * num_vars)


# ------------------------------------------------------------- construction

def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, 6, 9, -3, 2.0, "7", None):
        with pytest.raises(StructureError):
            PrimeField(bad)
    assert PrimeField(2).p == 2
    assert PrimeField(7919).p == 7919


def test_field_equality_and_hash():
    assert PrimeField(3) == F3
    assert PrimeField(3) != F2
    assert hash(PrimeField(3)) == hash(F3)


def test_terms_are_canonical():
    f = Poly(F3, 2, {(1, 0): 4, (0, 0): 3, (2, 2): 0})
    assert f.terms == {(1, 0): 1}
    assert Poly(F3, 2, {}) == Poly.zero(F3, 2)


def test_bad_terms_rejected():
    with pytest.raises(StructureError):
        Poly(F2, 2, {(1,): 1})  # arity
    with pytest.raises(StructureError):
        Poly(F2, 1, {(-1,): 1})  # negative exponent
    with pytest.raises(StructureError):
        Poly(F2, 1, {("a",): 1})  # exponent not an integer
    with pytest.raises(StructureError):
        Poly(F2, 1, {(1,): "x"})  # coefficient not an integer


def test_constructors():
    assert Poly.one(F3, 1) == Poly.constant(F3, 1, 1)
    assert Poly.constant(F3, 1, 3).is_zero()
    x1 = Poly.variable(F3, 2, 1)
    assert x1.terms == {(0, 1): 1}
    with pytest.raises(StructureError):
        Poly.variable(F3, 2, 2)


def test_mixed_ring_operations_rejected():
    with pytest.raises(StructureError):
        P("1:1") + P("1:1", F3)
    with pytest.raises(StructureError):
        P("1:1") * P("1:1,0", F2, 2)


# --------------------------------------------------------------- arithmetic

def test_add_cancels_in_char_two():
    f = P("1:1 + 1:0")
    assert (f + f).is_zero()


def test_add_identity():
    f = P("2:3 + 1:1", F3)
    assert f + Poly.zero(F3, 1) == f


def test_add_two_variables():
    assert P("1:1,0", F3, 2) + P("1:0,1", F3, 2) == P("1:1,0 + 1:0,1", F3, 2)


def test_freshmans_dream():
    f = P("1:1 + 1:0")
    assert f * f == P("1:2 + 1:0")
    g = P("1:1,0 + 1:0,1", F2, 2)
    assert g * g == P("1:2,0 + 1:0,2", F2, 2)


def test_mul_identity_and_scalars():
    f = P("2:3 + 1:0", F3)
    assert f * Poly.one(F3, 1) == f
    assert f * 2 == P("1:3 + 2:0", F3)
    assert 0 * f == Poly.zero(F3, 1)
    assert f * 4 == f  # scalar reduced mod 3


def test_pow():
    x = Poly.variable(F3, 1, 0)
    assert (x + 1) ** 3 == P("1:3 + 1:0", F3)  # Frobenius again
    assert x**0 == Poly.one(F3, 1)
    f = P("2:2 + 1:1 + 1:0", F3)
    product = Poly.one(F3, 1)
    for k in range(34):
        assert f**k == product
        product = product * f
    with pytest.raises(StructureError):
        x ** (-1)
    with pytest.raises(StructureError):
        x**2.0


# ------------------------------------------------------------------ degrees

def test_total_degree():
    assert P("1:2,1", F2, 2).total_degree() == 3
    assert Poly.zero(F2, 2).total_degree() == MINUS_INFINITY
    assert Poly.constant(F3, 1, 2).total_degree() == 0
    assert MINUS_INFINITY < 0


# ---------------------------------------------------------------- frobenius

def test_frobenius_examples():
    f = P("1:1 + 1:0")
    assert f.frobenius() == P("1:2 + 1:0")
    assert f.frobenius() == f * f
    assert Poly.constant(F3, 1, 2).frobenius() == Poly.constant(F3, 1, 2)
    assert P("1:1,1", F3, 2).frobenius() == P("1:3,3", F3, 2)


@settings(max_examples=60)
@given(polys())
def test_frobenius_is_pth_power(f):
    assert f.frobenius() == f ** f.field.p


# ----------------------------------------------------------------- sections

def test_section_single_terms():
    theta = Poly.variable(F2, 1, 0)
    assert theta.section((1,)) == Poly.one(F2, 1)
    assert theta.section((0,)).is_zero()
    assert (theta * theta).section((0,)) == theta


def test_section_two_variables():
    f = P("1:2,1 + 1:0,0", F2, 2)
    assert f.section((0, 1)) == P("1:1,0", F2, 2)
    assert f.section((0, 0)) == Poly.one(F2, 2)
    assert f.section((1, 0)).is_zero()


def test_section_validates_digits():
    f = P("1:1")
    with pytest.raises(StructureError):
        f.section((0, 0))
    with pytest.raises(StructureError):
        f.section((2,))


def test_section_word():
    cube = P("1:3")
    assert cube.section_word([(1,), (1,)]) == Poly.one(F2, 1)
    assert cube.section_word([]) == cube
    assert Poly.zero(F2, 1).section_word([(0,), (1,)]).is_zero()


def test_section_table_sparse():
    table = section_table(P("1:3"))
    assert set(table) == {(1,)}
    assert table[(1,)] == P("1:1")


@settings(max_examples=80)
@given(polys(), st.data())
def test_reconstruction_identity(f, data):
    """f is recovered from its sections: sum of g_y(x^p) * x^y."""
    total = Poly.zero(f.field, f.num_vars)
    for y, g in section_table(f).items():
        mono = Poly(f.field, f.num_vars, {y: 1})
        total = total + g.frobenius() * mono
    assert total == f


@settings(max_examples=60)
@given(poly_pairs(), st.data())
def test_section_linearity(fg, data):
    f, g = fg
    y = data.draw(random_digits(f.field, f.num_vars))
    assert (f + g).section(y) == f.section(y) + g.section(y)


@settings(max_examples=60)
@given(poly_pairs(), st.data())
def test_section_factors_out_frobenius_images(fg, data):
    # the section operator strips one digit layer, so p-th-power factors
    # pass through it untouched
    f, g = fg
    y = data.draw(random_digits(f.field, f.num_vars))
    assert (f * g.frobenius()).section(y) == f.section(y) * g


@settings(max_examples=60)
@given(polys(), st.data())
def test_section_degree_drop(f, data):
    y = data.draw(random_digits(f.field, f.num_vars))
    g = f.section(y)
    if g.is_zero():
        return
    assert g.total_degree() <= math.floor(f.total_degree() / f.field.p)


@settings(max_examples=40)
@given(polys())
def test_vanishing_iff_all_section_words_vanish(f):
    import itertools

    letters = list(itertools.product(range(f.field.p), repeat=f.num_vars))
    for length in (1, 2):
        words = itertools.product(letters, repeat=length)
        all_zero = all(f.section_word(w).is_zero() for w in words)
        assert all_zero == f.is_zero()


# -------------------------------------------------------------- text format

def test_format_examples():
    assert format_poly(P("1:2,0 + 2:0,1", F3, 2)) == "1:2,0 + 2:0,1"
    assert format_poly(Poly.zero(F2, 1)) == "0"
    assert str(P("1:1 + 1:0")) == "1:1 + 1:0"


def test_parse_is_lenient_about_coefficients():
    assert P("5:1 + 2:0", F3) == P("2:1 + 2:0", F3)
    assert P("3:1", F3).is_zero()
    assert P("  1:1+1:0  ") == P("1:1 + 1:0")
    assert P("0").is_zero()


def test_parse_rejects_malformed_terms():
    # int() would also read other Unicode digits and '_' separators
    for bad in ("1", "x:1", "1:1,1", "1:-1", "1:1 + + 1:0", "\uff11:0", "\u0663:2", "1:1_0"):
        with pytest.raises(StructureError):
            P(bad)


@settings(max_examples=80)
@given(polys())
def test_format_parse_round_trip(f):
    assert parse_poly(format_poly(f), f.field, f.num_vars) == f


def test_evaluate():
    f = P("1:2 + 2:0", F3)
    assert f.evaluate((0,)) == 2
    assert f.evaluate((1,)) == 0
    assert f.evaluate((5,)) == (25 + 2) % 3
    with pytest.raises(StructureError):
        f.evaluate((1, 2))
