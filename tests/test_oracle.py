"""Brute-force evaluation and exhaustive language comparison."""

import gc
import itertools
import json
import pathlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import suites
from edesolver import cli, companion, oracle, scalar, systems
from edesolver.companion import MatrixEde, PolyMatrix, companion_matrix
from edesolver.digits import DigitWord, alphabet
from edesolver.errors import CapacityError, StructureError
from edesolver.fsa import Automaton
from edesolver.gfpoly import Poly, PrimeField
from edesolver.oracle import (
    Mismatch,
    VerificationReport,
    compare,
    evaluate,
    is_solution,
)
from edesolver.scalar import ScalarEde, build_automaton
from edesolver.systems import Summand, SystemSpec

SPECS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "specs"

F2 = PrimeField(2)
THETA = Poly.variable(F2, 1, 0)
ONE = Poly.one(F2, 1)
ZERO = Poly.zero(F2, 1)

EDE_THETA = ScalarEde(F2, 1, 1, (ONE, THETA), ((THETA,), (ONE,)))


# --------------------------------------------------------------- evaluation

def test_evaluate_theta_equation():
    assert evaluate(EDE_THETA, (1,)).is_zero()
    assert evaluate(EDE_THETA, (2,)) == THETA * THETA + THETA
    assert evaluate(EDE_THETA, (0,)) == ONE + THETA
    assert not is_solution(EDE_THETA, (5,))
    assert is_solution(EDE_THETA, (1,))


def test_evaluate_trivial_cases():
    zero_ede = ScalarEde(F2, 1, 1, (ZERO,), ((ONE,),))
    for n in range(6):
        assert evaluate(zero_ede, (n,)).is_zero()
    spec2 = suites.companion_n2_f2()
    mede = MatrixEde(spec2, (PolyMatrix.zero(F2, 1, 2),), ((companion_matrix(spec2),),))
    assert evaluate(mede, (9,)).is_zero()


def test_evaluate_matrix_power_equation():
    spec2 = suites.companion_n2_f2()
    b = companion_matrix(spec2)
    ident = PolyMatrix.identity(F2, 1, 2)
    ede = MatrixEde(spec2, (ident, b), ((b,), (ident,)))  # B^n + B (= B^n - B)
    assert is_solution(ede, (1,))
    for n in (0, 2, 3, 4, 7):
        assert not is_solution(ede, (n,))


def test_evaluate_system_returns_one_residue_per_equation():
    nvar = Poly.variable(F2, 1, 0)
    sys_spec = SystemSpec(
        F2, 1, 1, None,
        (
            (Summand(nvar, ONE, (THETA,)),),
            (Summand(None, ONE, (THETA,)), Summand(None, THETA, (ONE,))),
        ),
    )
    out = evaluate(sys_spec, (2,))
    assert len(out) == 2
    assert out[0].is_zero()  # coefficient 2 = 0 in F_2
    assert out[1] == THETA * THETA + THETA
    assert not is_solution(sys_spec, (2,))


def test_evaluate_validates_arity_and_sign():
    with pytest.raises(StructureError):
        evaluate(EDE_THETA, (1, 2))
    with pytest.raises(StructureError):
        evaluate(EDE_THETA, (-1,))
    with pytest.raises(StructureError):
        evaluate(object(), (1,))


def test_power_cache_is_consistent():
    cache = {}
    for n in (0, 1, 13, 64, 13):
        assert oracle._pow_cached(THETA, n, cache, "k") == THETA**n
    assert cache[("k", 13)] == THETA**13


# ------------------------------------------------------------- independence

def _forbidden(*args, **kwargs):
    raise AssertionError("engine machinery invoked inside the oracle")


def test_evaluate_never_calls_the_engine_operators(monkeypatch):
    monkeypatch.setattr(Poly, "section", _forbidden)
    monkeypatch.setattr(Poly, "frobenius", _forbidden)
    monkeypatch.setattr(PolyMatrix, "section", _forbidden)
    monkeypatch.setattr(PolyMatrix, "frobenius", _forbidden)
    monkeypatch.setattr(scalar, "step", _forbidden)

    assert is_solution(EDE_THETA, (1,))
    spec2 = suites.companion_n2_f2()
    b = companion_matrix(spec2)
    ident = PolyMatrix.identity(F2, 1, 2)
    assert is_solution(MatrixEde(spec2, (ident, b), ((b,), (ident,))), (1,))
    nvar = Poly.variable(F2, 1, 0)
    sys_spec = SystemSpec(F2, 1, 1, None, ((Summand(nvar, ONE, (THETA,)),),))
    assert is_solution(sys_spec, (4,))


def test_compare_never_calls_the_engine_operators(monkeypatch):
    ede = suites.matrix_suite()[1]
    spec = cli.load_spec(str(SPECS / "companion_power.json"))
    # built before the patch
    machines = [
        (EDE_THETA, build_automaton(EDE_THETA), 4),
        (ede, companion.build_automaton(ede), 4),
        (spec, systems.solve_system(spec), 3),
    ]
    monkeypatch.setattr(Poly, "section", _forbidden)
    monkeypatch.setattr(Poly, "frobenius", _forbidden)
    monkeypatch.setattr(PolyMatrix, "section", _forbidden)
    monkeypatch.setattr(PolyMatrix, "frobenius", _forbidden)
    monkeypatch.setattr(scalar, "step", _forbidden)
    monkeypatch.setattr(companion, "step", _forbidden)
    for spec, aut, max_len in machines:
        assert compare(spec, aut, max_len).ok


# ---------------------------------------------------------- word vectors


def _exponents(p, t, length, index):
    """The exponent tuple spelled by word ``index`` of ``length`` letters, in compare's order."""
    letters = alphabet(p, t)
    combo = [letters[x] for x in np.unravel_index(index, (len(letters),) * length)]
    return DigitWord(p, t, combo).decode()


def _assert_words_match_evaluation(spec, length):
    solved = oracle._solved(spec, length)
    assert solved.shape == (spec.field.p ** (spec.t * length),)
    cache = {}
    for index, ok in enumerate(solved):
        values = _exponents(spec.field.p, spec.t, length, index)
        assert bool(ok) == is_solution(spec, values, cache), (spec, values)


def _solution_grid(spec, n_max):
    """The solution set over [0, n_max)^t, n_max a power of p, read off the word vector."""
    p, t, length = spec.field.p, spec.t, 0
    while p**length < n_max:
        length += 1
    grid = np.zeros((n_max,) * t, dtype=bool)
    for index, ok in enumerate(oracle._solved(spec, length)):
        grid[_exponents(p, t, length, index)] = ok
    return grid


def _random_companion_system(rng, spec, t, s_max=2):
    """A one-equation companion system with coefficient polynomials."""

    def xi():
        return tuple(suites.random_poly(rng, spec.field, spec.r) for _ in range(spec.n))

    summands = []
    for _ in range(rng.randint(1, s_max)):
        coeff = suites.random_poly(rng, spec.field, t) if rng.random() < 0.5 else None
        summands.append(systems.Summand(coeff, xi(), tuple(xi() for _ in range(t))))
    return SystemSpec(spec.field, spec.r, t, spec, (tuple(summands),))


def test_grid_matches_per_word_evaluation():
    rng = random.Random(9)
    cases = []
    for _ in range(8):
        p = rng.choice((2, 3))
        field = PrimeField(p)
        t = rng.randint(1, 2)
        s = rng.randint(1, 3)
        q = tuple(suites.random_poly(rng, field, 1) for _ in range(s))
        bases = tuple(
            tuple(suites.random_poly(rng, field, 1) for _ in range(t))
            for _ in range(s)
        )
        cases.append((ScalarEde(field, 1, t, q, bases), 3))
    for r, t in ((2, 2), (1, 3), (2, 3)):
        field = PrimeField(rng.choice((2, 3)))
        q = tuple(suites.random_poly(rng, field, r) for _ in range(2))
        bases = tuple(tuple(suites.random_poly(rng, field, r) for _ in range(t)) for _ in q)
        cases.append((ScalarEde(field, r, t, q, bases), 3 if t == 2 else 2))
    for spec in (suites.companion_n2_f2(), suites.companion_n3_f2()):
        for t in (1, 2):
            cases.append((_random_companion_system(rng, spec, t), 4 // t))
    cases.append((suites.matrix_suite()[2], 4))
    for spec, length in cases:
        _assert_words_match_evaluation(spec, length)


def test_grid_is_exact_for_large_primes():
    # (1 + (p-1)) * ((p-1)x + (p-2))^n vanishes for every n over F_p, but
    # products of two residues pass 2^15 over F_191 and 2^7 over F_13, so an
    # int16 or int8 vector would wrap
    for p in (13, 191):
        field = PrimeField(p)
        x, one = Poly.variable(field, 1, 0), Poly.one(field, 1)
        base = x * (p - 1) + one * (p - 2)
        ede = ScalarEde(field, 1, 1, (one, one * (p - 1)), ((base,), (base,)))
        assert oracle._solved(ede, 1).all()
        ede = ScalarEde(field, 1, 1, (one, one * (p - 2)), ((base,), (base,)))
        assert not oracle._solved(ede, 1).any()


def test_grid_handles_zero_bases_and_zero_constants():
    # 0 * 0^n + 1 * 0^n = 0 exactly when n > 0
    ede = ScalarEde(F2, 1, 1, (ZERO, ONE), ((ZERO,), (ZERO,)))
    solved = oracle._solved(ede, 3)
    grid = {_exponents(2, 1, 3, index): bool(ok) for index, ok in enumerate(solved)}
    assert not grid[(0,)]
    assert all(grid[(n,)] for n in range(1, 8))


# ---------------------------------------------------------- kernel pieces


def _dense(elem, extent, dtype):
    """A ring element as a (1, n, n, *extent) array, written term by term."""
    rows = ((elem,),) if isinstance(elem, Poly) else elem.rows
    arr = np.zeros((1, len(rows), len(rows)) + extent, dtype)
    for k, row in enumerate(rows):
        for b, f in enumerate(row):
            for e, c in f.terms.items():
                arr[(0, k, b) + e] = c
    return arr


def _ring_element(field, n, entry):
    """entry(k, b) as a Poly (n = 1) or an n x n PolyMatrix."""
    if n == 1:
        return entry(0, 0)
    return PolyMatrix(field, 2, [[entry(k, b) for b in range(n)] for k in range(n)])


@pytest.mark.parametrize("p", [2, 3, 5, 191])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_times_is_a_reduced_literal_product(p, n):
    field = PrimeField(p)
    x, y, one = Poly.variable(field, 2, 0), Poly.variable(field, 2, 1), Poly.one(field, 2)
    zero = one * 0
    rng = random.Random(p * 10 + n)
    # every entry of a at p - 1, so each product column reaches its bound, and a random one
    box = sum((x**i * y**j for i in range(4) for j in range(3)), zero) * (p - 1)
    left = [
        _ring_element(field, n, lambda k, b: box),
        _ring_element(field, n, lambda k, b: suites.random_poly(rng, field, 2)),
    ]
    # coefficient sums from 1 to 3(p-1) per entry, so n of them pile into column 0
    for coeffs in ([1], [1, 1], [1, 1, 1, 1], [p - 1], [p - 1, 1], [p - 1, p - 1, p - 1]):
        pile = sum((x**i * y ** (i % 2) * c for i, c in enumerate(coeffs)), zero)
        factor = _ring_element(field, n, lambda k, b: pile if b == 0 else (y if (k, b) == (0, 1) else zero))
        tops, _, bound = fac = oracle._factor(factor, p)
        assert bound == (p - 1) * n * sum(coeffs)
        dtype = np.int16 if bound < 1 << 15 else np.int64
        arr = np.concatenate([_dense(a, (4, 3), dtype) for a in left])
        out = oracle._times(arr, fac, p)
        assert out.shape == (2, n, n, 4 + tops[0], 3 + tops[1])
        assert out.min() >= 0 and out.max() < p
        for i, a in enumerate(left):
            assert np.array_equal(out[i : i + 1], _dense(a * factor, out.shape[3:], dtype)), (coeffs, i)


def _unequal_degree_systems():
    """x^(2a) y^b (...)^c - y^(2a) x^b (...)^c over F_3, with and without poly_coeff.

    Bases of unequal degree make the words of one pass, and the two
    summands, differ in extent.
    """
    field = PrimeField(3)
    x, y, one = Poly.variable(field, 2, 0), Poly.variable(field, 2, 1), Poly.one(field, 2)
    out = []
    for t in (2, 3):
        third = ((), ()) if t == 2 else ((x + y,), (x * x + y,))
        for coeff in (None, Poly.variable(field, t, 0) + Poly.one(field, t)):
            eq = (Summand(coeff, one, (x * x, y) + third[0]), Summand(None, one * 2, (y * y, x) + third[1]))
            out.append(SystemSpec(field, 2, t, None, (eq,)))
    # companion systems with a mixed solution grid, without and with poly_coeff
    out += [_random_companion_system(random.Random(seed), suites.companion_n2_f2(), 2) for seed in (1, 2)]
    return out


def _single_unknown_systems():
    """(x + 1)^n - x^n - 1 with x = theta or the companion root xi, and a word length.

    The sum vanishes at the powers of p (the freshman's dream) and, for
    these x, nowhere else, so the word vectors are mixed; the (n + 1)
    poly_coeff of two of them also removes n = 1.  Without a poly_coeff a
    cube may hold no letter at all, so small caps step the odometer by the
    base itself.
    """
    out = []
    for field, length, coeff in ((F2, 5, False), (PrimeField(3), 4, True)):
        x, one = Poly.variable(field, 1, 0), Poly.one(field, 1)
        c = Poly.variable(field, 1, 0) + Poly.one(field, 1) if coeff else None
        eq = (Summand(c, one, (x + one,)), Summand(None, -one, (x,)), Summand(None, -one, (one,)))
        out.append((SystemSpec(field, 1, 1, None, (eq,)), length))
    for spec, length, coeff in ((suites.companion_n2_f2(), 4, False), (suites.companion_n3_f2(), 3, True)):
        one, zero = Poly.one(F2, 1), Poly.zero(F2, 1)

        def xi(*coeffs):
            return coeffs + (zero,) * (spec.n - len(coeffs))

        c = Poly.variable(F2, 1, 0) + Poly.one(F2, 1) if coeff else None
        eq = (
            Summand(c, xi(one), (xi(one, one),)),
            Summand(None, xi(one), (xi(zero, one),)),
            Summand(None, xi(one), (xi(one),)),
        )
        out.append((SystemSpec(F2, 1, 1, spec, (eq,)), length))
    return out


def _content_systems():
    """(x + 1)^n1 - x^n1 - 1, times a power of y, with monomial content to divide out.

    Over F_3 the bracket vanishes exactly where n1 is a power of 3, so every
    grid is mixed.  Each case multiplies the q's, one base of every summand,
    or every base by a monomial; the kernel divides it out.  Two summands
    that cancel give the q's unequal content in the first case.  The zero-base
    summand adds 1 at n1 = 0 only, where the bracket is -1; the (n2 + 1)
    coefficient removes n2 = 2, 5, 8.  The companion case is the same sum in
    xi over F_2[theta], times theta in every q and base.
    """
    field = PrimeField(3)
    x, y, one = Poly.variable(field, 2, 0), Poly.variable(field, 2, 1), Poly.one(field, 2)
    zero, m = one * 0, x * y * y
    c = Poly.variable(field, 2, 1) + Poly.one(field, 2)

    def eq(q, firsts, second, coeff=None):
        return tuple(Summand(coeff, qi * q, (f, second)) for qi, f in zip((one, -one, -one), firsts))

    plain = (x + one, x, one)
    every = tuple(f * x * y for f in plain)
    pair = tuple(Summand(None, q * x**3 * y**2, (x, y + one)) for q in (one, -one))
    cases = (
        # content in q only, where a cancelling pair of summands has more
        pair + eq(x * x * y, plain, y + one),
        eq(one, plain, m),  # in one base, shared by all summands
        eq(y, every, m),  # in every base
        eq(y, every, m) + (Summand(None, y, (zero, m)),),  # a zero base
        eq(x, every, m) + (Summand(None, zero, (x, y)),),  # a zero q
        eq(x * y, every, m, c),  # a poly_coeff
    )
    out = [SystemSpec(field, 2, 2, None, (sums,)) for sums in cases]
    spec = suites.companion_n2_f2()
    theta, unit, null = Poly.variable(F2, 1, 0), Poly.one(F2, 1), Poly.zero(F2, 1)
    sums = (
        Summand(None, (theta, null), ((theta, theta),)),
        Summand(None, (theta, null), ((null, theta),)),
        Summand(None, (theta, null), ((theta, null),)),
        Summand(None, (null, null), ((unit, theta),)),
    )
    out.append(SystemSpec(F2, 1, 1, spec, (sums,)))
    for sys_spec in out:  # each has content to divide out
        (summands,) = oracle._equations(sys_spec)
        parts = [[q for _, q, _ in summands]] + [[bases[k] for _, _, bases in summands] for k in range(sys_spec.t)]
        assert any(any(oracle._content(elems, sys_spec.r)) for elems in parts)
    return out


# up to 2^4 cells: single-word passes, from cubes of no letter or one;
# 2^8 to 2^13: passes cut from a cube inside a letter (2 or 3 words of 9, 9
# of 27) and whole cubes; 2^22: every word in one cube
@pytest.mark.parametrize("cells", [1, 3, 1 << 4, 1 << 8, 1 << 10, 1 << 13, 1 << 22])
def test_grid_matches_evaluation_at_any_batch_size(monkeypatch, cells):
    monkeypatch.setattr(oracle, "BATCH_CELLS", cells)
    cases = [(spec, 2) for spec in _unequal_degree_systems()]
    cases += [(spec, 2 if spec.t == 2 else 4) for spec in _content_systems()]
    for spec, length in cases + _single_unknown_systems():
        _assert_words_match_evaluation(spec, length)


def test_monomial_equation_is_tabulated_in_few_small_products(monkeypatch):
    # theta2 * theta1^n1 * (theta1 theta2)^n2 never vanishes: once its content
    # is divided out, each product is one cell per grid point
    field = PrimeField(3)
    t1, t2, one = Poly.variable(field, 2, 0), Poly.variable(field, 2, 1), Poly.one(field, 2)
    zero = one * 0
    ede = ScalarEde(field, 2, 2, (zero, t2, zero), ((zero, zero), (t1, t1 * t2), (one, t2)))
    work = [0, 0]
    times = oracle._times

    def counted(arr, factor, p):
        out = times(arr, factor, p)
        work[0] += 1
        work[1] += out.size
        return out

    monkeypatch.setattr(oracle, "_times", counted)
    assert not _solution_grid(ede, 81).any()
    assert work[0] <= 100 and work[1] <= 10**4, work


def test_grid_leaves_no_garbage_and_holds_no_memory():
    # repeated grids must not grow the heap: no reference cycle left for the
    # collector (it would hold the kernel's arrays until a full collection),
    # and no allocation kept past the call
    spec = _unequal_degree_systems()[1]  # two summands and a poly_coeff
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(200):  # fills CPython's freelists, which stay traced
            _solution_grid(spec, 9)
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            _solution_grid(spec, 9)
        grown = tracemalloc.get_traced_memory()[0] - before
        assert gc.collect() == 0
    finally:
        tracemalloc.stop()
        gc.enable()
    assert grown < 1024, grown


# --------------------------------------------------------------- comparison

def test_compare_theta_equation_counts():
    aut = build_automaton(EDE_THETA)
    report = compare(EDE_THETA, aut, 4)
    assert report.checked == 31  # 1 + 2 + 4 + 8 + 16
    assert report.ok
    assert report.max_len == 4


def test_compare_flipped_finals_reports_every_word():
    aut = build_automaton(EDE_THETA)
    flipped = Automaton(
        aut.p, aut.t, aut.labels, aut.transitions, aut.initial,
        set(range(aut.num_states)) - set(aut.finals),
    )
    report = compare(EDE_THETA, flipped, 4)
    assert len(report.mismatches) == 31
    assert not report.ok
    for m in report.mismatches:
        assert m.is_solution != m.accepted


def test_compare_rejects_foreign_automaton():
    aut = build_automaton(EDE_THETA)
    other = ScalarEde(PrimeField(3), 1, 1, (Poly.one(PrimeField(3), 1),),
                      ((Poly.one(PrimeField(3), 1),),))
    with pytest.raises(StructureError):
        compare(other, aut, 2)


def test_compare_word_cap(monkeypatch):
    aut = build_automaton(EDE_THETA)
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "DEFAULT_WORD_CAP", 10)
        with pytest.raises(CapacityError, match="more than 10 words"):
            compare(EDE_THETA, aut, 4)
    # counting stops at the first length past the cap, not at 2^(10^7 + 1) - 1
    with pytest.raises(CapacityError, match="more than 500000 words") as exc:
        compare(EDE_THETA, aut, 10**7)
    assert 500_000 < exc.value.discovered <= 2 * 500_000 + 1


def test_compare_matrix_instance():
    ede = suites.matrix_suite()[0]
    from edesolver.companion import build_automaton as build_matrix

    report = compare(ede, build_matrix(ede), 3)
    assert report.ok
    assert report.checked == 15


def test_report_serialization():
    aut = build_automaton(EDE_THETA)
    flipped = Automaton(
        aut.p, aut.t, aut.labels, aut.transitions, aut.initial,
        set(range(aut.num_states)) - set(aut.finals),
    )
    report = compare(EDE_THETA, flipped, 1)
    text = report.to_json()
    assert text == report.to_json()
    doc = json.loads(text)
    assert list(doc) == ["max_len", "checked", "mismatches"]
    assert doc["checked"] == 3
    first = doc["mismatches"][0]
    assert set(first) == {"word", "oracle", "automaton"}
    assert isinstance(first["word"], list)


def test_report_ok_property():
    assert VerificationReport(max_len=1, checked=3).ok
    assert not VerificationReport(max_len=1, checked=3, mismatches=[object()]).ok


# ------------------------------------------ differential: per-word reference


def reference_compare(spec, automaton, max_len):
    """The per-word comparison: literal evaluation and ``accepts`` for every word."""
    p, t = spec.field.p, spec.t
    letters = alphabet(p, t)
    total = sum(len(letters) ** l for l in range(max_len + 1))
    report = VerificationReport(max_len=max_len, checked=total)
    cache = {}
    for length in range(max_len + 1):
        for combo in itertools.product(letters, repeat=length):
            word = DigitWord(p, t, combo)
            sol = is_solution(spec, word.decode(), cache)
            acc = automaton.accepts(word)
            if sol != acc:
                report.mismatches.append(Mismatch(word, sol, acc))
    return report


def complemented(aut):
    finals = set(range(aut.num_states)) - set(aut.finals)
    return Automaton(aut.p, aut.t, aut.labels, aut.transitions, aut.initial, finals)


class AcceptsOnly:
    """An automaton known only by ``p``, ``t`` and ``accepts``."""

    def __init__(self, aut):
        self.p, self.t, self._aut = aut.p, aut.t, aut

    def accepts(self, word):
        return self._aut.accepts(word)


def assert_same_reports(spec, aut, max_len):
    assert compare(spec, aut, max_len).as_dict() == reference_compare(spec, aut, max_len).as_dict()


def _bundled():
    out = []
    for path in sorted(SPECS.glob("*.json")):
        spec = cli.load_spec(str(path))
        out.append((path.stem, spec, systems.solve_system(spec)))
    return out


@pytest.mark.parametrize("index", range(len(suites.scalar_suite())))
def test_compare_matches_reference_on_scalar_suite(index):
    ede = suites.scalar_suite()[index]
    aut = build_automaton(ede)
    assert_same_reports(ede, aut, 4)
    assert_same_reports(ede, complemented(aut), 3)


@pytest.mark.parametrize("index", range(len(suites.matrix_suite())))
def test_compare_matches_reference_on_matrix_suite(index):
    ede = suites.matrix_suite()[index]
    aut = companion.build_automaton(ede)
    assert_same_reports(ede, aut, 4)
    assert_same_reports(ede, complemented(aut), 3)


def test_compare_matches_reference_on_bundled_specs():
    for _, spec, aut in _bundled():
        for max_len in (0, 1, 3):
            assert_same_reports(spec, aut, max_len)
            assert_same_reports(spec, complemented(aut), max_len)
            assert_same_reports(spec, AcceptsOnly(complemented(aut)), max_len)


def test_compare_accepts_only_automaton_matches_reference():
    ede = suites.scalar_suite()[16]  # p = 3, t = 2
    aut = build_automaton(ede)
    for machine in (aut, complemented(aut)):
        duck = AcceptsOnly(machine)
        assert compare(ede, duck, 3).as_dict() == compare(ede, machine, 3).as_dict()
        assert_same_reports(ede, duck, 3)


def test_compare_at_length_zero_checks_the_empty_word():
    for _, spec, aut in _bundled():
        report = compare(spec, complemented(aut), 0)
        assert report.checked == 1
        assert [m.word.letters for m in report.mismatches] == [()]
        assert compare(spec, aut, 0).ok
    with pytest.raises(StructureError):
        compare(EDE_THETA, build_automaton(EDE_THETA), -1)


@st.composite
def oracle_cases(draw):
    """A random system (scalar, or companion with p = 2) and a random automaton."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    t = draw(st.integers(1, 3))
    if draw(st.booleans()):
        spec = _random_companion_system(rng, suites.companion_n2_f2(), t)
    else:
        field = PrimeField(draw(st.sampled_from((2, 3))))
        r = draw(st.integers(1, 2))
        eqs = []
        for _ in range(draw(st.integers(1, 2))):
            eqs.append(tuple(
                systems.Summand(
                    suites.random_poly(rng, field, t) if rng.random() < 0.6 else None,
                    suites.random_poly(rng, field, r),
                    tuple(suites.random_poly(rng, field, r) for _ in range(t)),
                )
                for _ in range(rng.randint(1, 3))
            ))
        spec = SystemSpec(field, r, t, None, tuple(eqs))
    p = spec.field.p
    letters = len(alphabet(p, t))
    states = draw(st.integers(1, 4))
    table = [[rng.randrange(states) for _ in range(letters)] for _ in range(states)]
    finals = {q for q in range(states) if rng.random() < 0.5}
    aut = Automaton(p, t, [str(q) for q in range(states)], table, 0, finals)
    max_len = draw(st.integers(0, 3 if letters <= 4 else 2))
    return spec, aut, max_len


@settings(max_examples=40, deadline=None)
@given(oracle_cases())
def test_compare_matches_reference_on_random_systems(case):
    spec, aut, max_len = case
    assert_same_reports(spec, aut, max_len)
