"""Companion-matrix rings: the coefficient rings of order n >= 1 for :mod:`scalar`.

The coefficient ring here is R[B] where R = F_p[x_1..x_r] and B is the
companion matrix of a monic-up-to-scaling polynomial

    xi^n - (rho_{n-1}/rho) xi^{n-1} - ... - (rho_0/rho)

assumed separable (no repeated root) over the fraction field of R.  To stay
inside polynomial entries the engine works with the scaled "entire" form
B' = rho * B: rho on the subdiagonal and the numerators rho_0..rho_{n-1}
in the last column.

Raising an element of R[B'] to the p-th power is an entrywise Frobenius
substitution up to conjugation: there is a Krylov matrix C (column j holds
the coordinates of xi^{p j} in the power basis) with

    B'^p = C' B'(x^p) C'^{-1},   C' = rho^{p(n-1)} * C  in  M_n(R).

That identity lets the per-digit step of :mod:`scalar` carry over: multiply
the residue matrix by the digit-selected base powers AND one copy of C',
then apply the entrywise section operator.  C' is singular exactly when
the minimal polynomial has a repeated root, and such input is rejected up
front; a reducible separable polynomial gives an invertible C' and works.

This module holds only the ring: :class:`MatrixEde`, an
:class:`scalar.Equation`, gives the equation layer of :mod:`scalar` its
order n, its one (the identity), its C', its ring test and the row-major
flattening of a matrix into n^2 entry polynomials.  The step, the set
semantics, the degree bound, :func:`explore` and :func:`build_automaton`
are the ones of :mod:`scalar`, for which F_p[x_1..x_r] is the order-one
case with C' = 1; they are re-exported here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

from .errors import SingularConjugatorError, StructureError
from .gfpoly import MINUS_INFINITY, Poly, PrimeField, format_poly, power
from .scalar import (  # noqa: F401  the equation layer both rings share
    Equation,
    build_automaton,
    degree_bound,
    explore,
    extend_residues,
    extend_state,
    initial_state,
    is_accepting_state,
    step,
)


@dataclass(frozen=True)
class PolyMatrix:
    """Immutable n-by-n matrix with :class:`Poly` entries."""

    field: PrimeField
    num_vars: int
    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n < 1:
            raise StructureError("empty matrix")
        for row in rows:
            if len(row) != n:
                raise StructureError("matrix must be square")
            for f in row:
                if not isinstance(f, Poly) or f.field != self.field or f.num_vars != self.num_vars:
                    raise StructureError("entry does not live in the declared ring")

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def zero(cls, field, num_vars, n) -> "PolyMatrix":
        z = Poly.zero(field, num_vars)
        return cls(field, num_vars, tuple((z,) * n for _ in range(n)))

    @classmethod
    def identity(cls, field, num_vars, n) -> "PolyMatrix":
        z = Poly.zero(field, num_vars)
        o = Poly.one(field, num_vars)
        return cls(
            field,
            num_vars,
            tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)),
        )

    def _check(self, other: "PolyMatrix"):
        if (
            self.field != other.field
            or self.num_vars != other.num_vars
            or self.n != other.n
        ):
            raise StructureError("matrices over different rings or sizes")

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check(other)
        return PolyMatrix(
            self.field,
            self.num_vars,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def _map(self, fn) -> "PolyMatrix":
        """The matrix of fn(entry), entry by entry."""
        return PolyMatrix(self.field, self.num_vars, tuple(tuple(map(fn, row)) for row in self.rows))

    def __mul__(self, other):
        if isinstance(other, (Poly, int)):
            return self._map(lambda f: f * other)
        self._check(other)
        n = self.n
        cols = tuple(zip(*other.rows))
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = row[0] * col[0]
                for k in range(1, n):
                    acc = acc + row[k] * col[k]
                out_row.append(acc)
            out.append(tuple(out_row))
        return PolyMatrix(self.field, self.num_vars, tuple(out))

    def __rmul__(self, other):
        if isinstance(other, (Poly, int)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int) -> "PolyMatrix":
        return power(self, k, lambda: PolyMatrix.identity(self.field, self.num_vars, self.n))

    def is_zero(self) -> bool:
        return all(f.is_zero() for row in self.rows for f in row)

    def frobenius(self) -> "PolyMatrix":
        """Entrywise substitution x -> x^p (NOT the matrix p-th power)."""
        return self._map(Poly.frobenius)

    def section(self, y) -> "PolyMatrix":
        return self._map(lambda f: f.section(y))

    def section_word(self, word) -> "PolyMatrix":
        m = self
        for y in word:
            m = m.section(y)
        return m

    def total_degree(self):
        degs = [f.total_degree() for row in self.rows for f in row]
        return max(degs) if degs else MINUS_INFINITY

    def __str__(self):
        return (
            "["
            + ", ".join(
                "[" + ", ".join(format_poly(f) for f in row) + "]" for row in self.rows
            )
            + "]"
        )


def determinant(m: PolyMatrix) -> Poly:
    """Laplace expansion along the first row; fine at the small n used here."""
    n = m.n
    if n == 1:
        return m.rows[0][0]
    total = Poly.zero(m.field, m.num_vars)
    for j in range(n):
        entry = m.rows[0][j]
        if entry.is_zero():
            continue
        minor = PolyMatrix(
            m.field,
            m.num_vars,
            tuple(
                tuple(row[k] for k in range(n) if k != j) for row in m.rows[1:]
            ),
        )
        term = entry * determinant(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


@dataclass(frozen=True)
class CompanionSpec:
    """Scaled companion matrix data: subdiagonal ``rho``, last column numerators."""

    field: PrimeField
    r: int
    n: int
    rho: Poly
    numerators: tuple

    def __post_init__(self):
        object.__setattr__(self, "numerators", tuple(self.numerators))
        if self.n < 1:
            raise StructureError("need n >= 1")
        if self.r < 1:
            raise StructureError("need r >= 1")
        for f in (self.rho, *self.numerators):
            if not isinstance(f, Poly) or f.field != self.field or f.num_vars != self.r:
                raise StructureError("companion data does not live in the ring")
        if self.rho.is_zero():
            raise StructureError("rho must be nonzero")
        if len(self.numerators) != self.n:
            raise StructureError(f"need {self.n} last-column numerators")


def companion_matrix(spec: CompanionSpec) -> PolyMatrix:
    """The entire-form matrix: rho on the subdiagonal, numerators last column."""
    z = Poly.zero(spec.field, spec.r)
    rows = []
    for i in range(spec.n):
        row = [z] * spec.n
        if i > 0:
            row[i - 1] = spec.rho
        row[spec.n - 1] = spec.numerators[i]
        rows.append(tuple(row))
    return PolyMatrix(spec.field, spec.r, tuple(rows))


def conjugator(spec: CompanionSpec) -> tuple:
    """(C', sigma): the denominator-cleared Krylov conjugator and its scalar.

    Column j of the unscaled C holds the coordinates of xi^{p j} in the
    power basis, which for the entire form is B'^{p j} e_0 / rho^{p j}.
    Scaling by sigma = rho^{p (n-1)} clears every column, giving a matrix
    over R that satisfies  B'^p C' = C' B'(x^p)  exactly.

    Raises :class:`SingularConjugatorError` when det C' = 0, which happens
    exactly when the minimal polynomial has a repeated root: up to nonzero
    column scalars C' is the Krylov matrix of B'^p at e_0, e_0 is cyclic for
    B' (B'^j e_0 = rho^j e_j), and Frobenius is injective in characteristic p.
    """
    n = spec.n
    field, r = spec.field, spec.r
    bp = companion_matrix(spec) ** field.p
    e0 = [Poly.one(field, r)] + [Poly.zero(field, r)] * (n - 1)
    rho_p = spec.rho**field.p
    cols = []
    w = list(e0)
    scale = rho_p ** (n - 1)
    for j in range(n):
        cols.append([f * scale for f in w])
        if j < n - 1:
            w = [
                sum((bp.rows[i][k] * w[k] for k in range(n)), Poly.zero(field, r))
                for i in range(n)
            ]
            scale = rho_p ** (n - 2 - j)
    cprime = PolyMatrix(field, r, tuple(tuple(col[i] for col in cols) for i in range(n)))
    if determinant(cprime).is_zero():
        raise SingularConjugatorError(
            "conjugator is singular; the minimal polynomial has a repeated root "
            "over the fraction field"
        )
    sigma = spec.rho ** (field.p * (n - 1))
    return cprime, sigma


def evaluate_at_companion(coeffs, spec: CompanionSpec) -> PolyMatrix:
    """Horner evaluation of a polynomial in xi (coeffs low to high) at B'."""
    coeffs = tuple(coeffs)
    b = companion_matrix(spec)
    result = PolyMatrix.zero(spec.field, spec.r, spec.n)
    for c in reversed(coeffs):
        if not isinstance(c, Poly) or c.field != spec.field or c.num_vars != spec.r:
            raise StructureError("coefficient does not live in the base ring")
        result = result * b + PolyMatrix.identity(spec.field, spec.r, spec.n) * c
    return result


@dataclass(frozen=True)
class MatrixEde(Equation):
    """One equation over R[B']: matrix constants ``q`` and base grid ``bases``.

    The constructor checks only that each member is an n-by-n matrix over
    the base ring.  Members are expected to lie in R[B'], the commutative
    subring of xi-polynomials evaluated at the companion matrix, as
    :func:`evaluate_at_companion` builds them.  ``cprime`` passes on the
    C' of ``base`` when the caller has it, as a system's equations share
    one; without it :attr:`conjugator` computes C' from ``base``.
    """

    base: CompanionSpec
    q: tuple
    bases: tuple
    cprime: PolyMatrix | None = dataclasses.field(default=None, compare=False, repr=False)

    def _member(self, elem) -> bool:
        return (
            isinstance(elem, PolyMatrix)
            and elem.field == self.base.field
            and elem.num_vars == self.base.r
            and elem.n == self.base.n
        )

    @property
    def field(self) -> PrimeField:
        return self.base.field

    @property
    def r(self) -> int:
        return self.base.r

    @property
    def t(self) -> int:
        return len(self.bases[0])

    @property
    def n(self) -> int:
        return self.base.n

    @cached_property
    def one(self) -> PolyMatrix:
        return PolyMatrix.identity(self.field, self.r, self.n)

    @cached_property
    def conjugator(self) -> PolyMatrix:
        return conjugator(self.base)[0] if self.cprime is None else self.cprime

    def element(self, entries) -> PolyMatrix:
        n = self.n
        return PolyMatrix(self.field, self.r, [entries[a * n:(a + 1) * n] for a in range(n)])
