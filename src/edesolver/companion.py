"""Digit automata for exponential equations over companion-matrix rings.

The coefficient ring here is R[B] where R = F_p[x_1..x_r] and B is the
companion matrix of a monic-up-to-scaling polynomial

    xi^n - (rho_{n-1}/rho) xi^{n-1} - ... - (rho_0/rho)

assumed irreducible and separable over the fraction field of R.  To stay
inside polynomial entries the engine works with the scaled "entire" form
B' = rho * B: rho on the subdiagonal and the numerators rho_0..rho_{n-1}
in the last column.

Raising an element of R[B'] to the p-th power is an entrywise Frobenius
substitution up to conjugation: there is a Krylov matrix C (column j holds
the coordinates of xi^{p j} in the power basis) with

    B'^p = C' B'(x^p) C'^{-1},   C' = rho^{p(n-1)} * C  in  M_n(R).

That identity lets the per-digit step mirror the scalar engine: multiply
the residue matrix by the digit-selected base powers AND one copy of C',
then apply the entrywise section operator.  A singular C' is exactly how a
reducible or inseparable input manifests and is rejected up front.

States are defined as sets of residue-matrix tuples, as in :mod:`scalar`;
:func:`build_automaton` flattens each tuple to its s*n^2 polynomial
entries, folds C' into the step maps and tracks F_p-spans with the shared
span engine (:mod:`span`), accepting a span when the summands' matrices
sum to zero entry by entry on it.  :func:`explore` decodes the same spans
back into residue-matrix tuples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from . import digits, fsa, span
from .errors import SingularConjugatorError, StructureError
from .gfpoly import MINUS_INFINITY, Poly, PrimeField, format_poly


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

    def __mul__(self, other):
        if isinstance(other, (Poly, int)):
            return PolyMatrix(
                self.field,
                self.num_vars,
                tuple(tuple(f * other for f in row) for row in self.rows),
            )
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
        if not isinstance(k, int) or k < 0:
            raise StructureError("matrix exponent must be a natural number")
        result = PolyMatrix.identity(self.field, self.num_vars, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            need = k > 1
            k >>= 1
            if need:
                base = base * base
        return result

    def is_zero(self) -> bool:
        return all(f.is_zero() for row in self.rows for f in row)

    def frobenius(self) -> "PolyMatrix":
        """Entrywise substitution x -> x^p (NOT the matrix p-th power)."""
        return PolyMatrix(
            self.field,
            self.num_vars,
            tuple(tuple(f.frobenius() for f in row) for row in self.rows),
        )

    def section(self, y) -> "PolyMatrix":
        return PolyMatrix(
            self.field,
            self.num_vars,
            tuple(tuple(f.section(y) for f in row) for row in self.rows),
        )

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

    Raises :class:`SingularConjugatorError` when det C' = 0, the signature
    of a reducible or inseparable minimal polynomial.
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
            "conjugator is singular; the minimal polynomial is not irreducible "
            "and separable over the fraction field"
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
class MatrixEde:
    """One equation over R[B']: matrix constants ``q`` and base grid ``bases``.

    All member matrices must come from evaluating xi-polynomials at the
    companion matrix (enforced by :meth:`from_xi_coeffs`; the raw
    constructor is for internally derived equations, whose members stay in
    the commutative subring by construction).
    """

    base: CompanionSpec
    q: tuple
    bases: tuple

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(self.q))
        object.__setattr__(self, "bases", tuple(tuple(row) for row in self.bases))
        if not self.q:
            raise StructureError("need at least one summand")
        if len(self.bases) != len(self.q):
            raise StructureError("base grid must have one row per summand")
        t = len(self.bases[0]) if self.bases else 0
        if t < 1:
            raise StructureError("need t >= 1")
        for row in self.bases:
            if len(row) != t:
                raise StructureError("ragged base grid")
        for m in (*self.q, *(m for row in self.bases for m in row)):
            if (
                not isinstance(m, PolyMatrix)
                or m.field != self.base.field
                or m.num_vars != self.base.r
                or m.n != self.base.n
            ):
                raise StructureError("matrix does not live in the equation's ring")

    @classmethod
    def from_xi_coeffs(cls, base: CompanionSpec, q_coeffs, base_coeffs) -> "MatrixEde":
        q = tuple(evaluate_at_companion(c, base) for c in q_coeffs)
        bases = tuple(
            tuple(evaluate_at_companion(c, base) for c in row) for row in base_coeffs
        )
        return cls(base, q, bases)

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
    def s(self) -> int:
        return len(self.q)

    @cached_property
    def exponent_alphabet(self) -> tuple:
        return digits.alphabet(self.field.p, self.t)

    @cached_property
    def section_alphabet(self) -> tuple:
        return digits.alphabet(self.field.p, self.r)

    @cached_property
    def conjugator(self) -> PolyMatrix:
        return conjugator(self.base)[0]


def degree_bound(ede: MatrixEde) -> tuple:
    """(N0, N2), the matrix analogue of the scalar bound.

    Each step multiplies by at most t digit powers of the evaluated bases
    plus one conjugator factor before the section divides degrees by p.
    """
    p = ede.field.p
    big_m = 0
    for row in ede.bases:
        for m in row:
            d = m.total_degree()
            if d != MINUS_INFINITY:
                big_m = max(big_m, int(d))
    deg_c = ede.conjugator.total_degree()
    deg_c = 0 if deg_c == MINUS_INFINITY else int(deg_c)
    n0 = math.ceil((p * ede.t * big_m + deg_c) / (p - 1))
    max_q = 0
    for m in ede.q:
        d = m.total_degree()
        if d != MINUS_INFINITY:
            max_q = max(max_q, int(d))
    return n0, max(max_q, n0)


def base_power(ede: MatrixEde, i: int, x) -> PolyMatrix:
    """Summand i's bases raised to the digits of x (without the conjugator)."""
    if not 1 <= i <= ede.s:
        raise StructureError(f"summand index {i} out of range 1..{ede.s}")
    x = digits.check_letter(x, ede.field.p, ede.t)
    out = PolyMatrix.identity(ede.field, ede.r, ede.base.n)
    for m, d in zip(ede.bases[i - 1], x):
        if d:
            out = out * m**d
    return out


def step(ede: MatrixEde, i: int, x, y, f: PolyMatrix) -> PolyMatrix:
    """One digit step: multiply by base powers and C', then section by y."""
    return (f * base_power(ede, i, x) * ede.conjugator).section(y)


def extend_residues(ede: MatrixEde, residues, x, y) -> tuple:
    residues = tuple(residues)
    if len(residues) != ede.s:
        raise StructureError(f"expected {ede.s} residues, got {len(residues)}")
    return tuple(step(ede, i + 1, x, y, m) for i, m in enumerate(residues))


def extend_state(ede: MatrixEde, state, x) -> frozenset:
    return frozenset(
        extend_residues(ede, tau, x, y) for tau in state for y in ede.section_alphabet
    )


def is_accepting_residues(residues) -> bool:
    residues = tuple(residues)
    total = residues[0]
    for m in residues[1:]:
        total = total + m
    return total.is_zero()


def is_accepting_state(state) -> bool:
    return all(is_accepting_residues(tau) for tau in state)


def initial_state(ede: MatrixEde) -> frozenset:
    return frozenset({tuple(ede.q)})


def span_entries(ede: MatrixEde) -> tuple:
    """(start entries, acceptance groups) for :mod:`span`.

    Residue tuples flatten row-major to s*n^2 entries; entry (i, a, b) is
    summed with the (a, b) entries of the other summands.
    """
    n = ede.base.n
    entries = tuple(f for m in ede.q for row in m.rows for f in row)
    return entries, tuple(range(n * n)) * ede.s


def span_moves(ede: MatrixEde) -> dict:
    """The (source, target, multiplier) triples of every letter.

    Entry (i, a, b) of an image sums entry (i, a, k) times entry (k, b) of
    summand i's multiplier (base power times C') over k.
    """
    n, cprime = ede.base.n, ede.conjugator
    moves = {}
    for x in ede.exponent_alphabet:
        moves[x] = []
        for i in range(ede.s):
            rows = (base_power(ede, i + 1, x) * cprime).rows
            for a, k, b in itertools.product(range(n), repeat=3):
                moves[x].append(((i * n + a) * n + k, (i * n + a) * n + b, rows[k][b]))
    return moves


def explore(ede: MatrixEde, state_cap: int = fsa.DEFAULT_STATE_CAP):
    """Reachable span states; returns (state keys, transition table).

    Each key is the frozenset of residue tuples forming the echelon basis of
    its span (see :mod:`span`).
    """
    n = ede.base.n
    bases, transitions = span.explore(
        ede.field, ede.r, degree_bound(ede)[1], [span_entries(ede)[0]],
        ede.exponent_alphabet, span_moves(ede), state_cap,
    )

    def matrix(entries):
        return PolyMatrix(ede.field, ede.r, [entries[a * n:(a + 1) * n] for a in range(n)])

    keys = [
        frozenset(
            tuple(matrix(row[i * n * n:(i + 1) * n * n]) for i in range(ede.s)) for row in basis
        )
        for basis in bases
    ]
    return keys, transitions


def build_automaton(ede: MatrixEde, state_cap: int = fsa.DEFAULT_STATE_CAP) -> fsa.Automaton:
    """The DFA accepting exactly the words whose decoded tuple solves the equation."""
    entries, groups = span_entries(ede)
    finals, transitions = span.explore(
        ede.field, ede.r, degree_bound(ede)[1], [entries],
        ede.exponent_alphabet, span_moves(ede), state_cap, accept=groups,
    )
    labels = [str(i) for i in range(len(transitions))]
    return fsa.Automaton(ede.field.p, ede.t, labels, transitions, 0, finals)
