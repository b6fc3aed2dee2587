"""Digit automata for exponential equations, over F_p[x_1..x_r] and its companion rings.

An equation instance is

    Q_1 * P_11^{n_1} .. P_1t^{n_t} + ... + Q_s * P_s1^{n_1} .. P_st^{n_t} = 0

with all Q_i, P_ik in a ring R and the unknowns n_k ranging over the
naturals.  Writing the unknown tuple in base p, least significant digit
first, the solution words form a regular language, and this module builds
the deciding DFA directly.

The per-digit step works on "residue tuples": s-tuples of ring elements,
starting from (Q_1, .., Q_s).  Consuming the digit letter x under section
letter y maps component i to

    section( f_i * P_i1^{x_1} .. P_it^{x_t} * C' , y ).

Here R is either F_p[x_1..x_r] itself (:class:`ScalarEde`) or one of the
companion-matrix rings of :mod:`companion` (``MatrixEde``), whose n-by-n
matrices need the conjugator C' to commute the p-th power past the section.
F_p[x_1..x_r] is the order-one companion ring: its C' is the 1-by-1
identity, the polynomial 1.  So every function below is written once,
against the small interface both equation classes provide: the order
``n``, the ring's ``one``, the ``conjugator`` C', and ``element``, which
rebuilds a ring element from the n^2 entry polynomials that :func:`entries`
flattens it into.  Both classes derive from :class:`Equation`, which checks
the summands and the base grid against the ring's ``_member`` test and
holds ``s`` and both alphabets.

By definition a state is the set of residue tuples produced by all section
choices so far (``initial_state`` / ``extend_state``); it accepts when every
member tuple sums to zero, which by the section operator's faithfulness
happens exactly when the equation holds at the decoded exponent tuple.
Sections divide degrees by p, so residues stay inside a fixed degree box.
The step is F_p-linear and acceptance is a linear condition, so
:func:`build_automaton` tracks the F_p-span of each set instead, through
the span engine (:mod:`span`): a residue tuple flattens to its s*n^2 entry
polynomials, C' is folded into the step maps, and a span accepts when it
lies in the kernel of the map summing the summands entry by entry.
:func:`span_layout` lays out those entries, acceptance groups and step
maps for several equations side by side, as :mod:`systems` needs, and
:func:`span_starts` their start rows from given start coefficients; a
single equation is the case of one.  The language is the same and the
reachable spans are far fewer than the reachable sets.
:func:`build_automaton` and :func:`explore` make the same one call to the
engine: the first keeps its finals, and only the second decodes the spans
back into residue tuples, to which the set predicates apply as-is.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from . import digits, fsa, span
from .errors import StructureError
from .gfpoly import MINUS_INFINITY, Poly, PrimeField


class Equation:
    """One equation over a ring of order n: coefficients ``q`` and an s-by-t grid of bases.

    Each ring is a frozen dataclass on this base with fields ``q`` and
    ``bases``.  It provides ``field``, ``r`` and ``t``, the order ``n``, the
    ring's ``one``, the ``conjugator`` C', ``element`` and
    ``_member(elem)``, whether elem lies in the ring.
    """

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(self.q))
        object.__setattr__(self, "bases", tuple(tuple(row) for row in self.bases))
        if not self.q:
            raise StructureError("need at least one summand")
        if len(self.bases) != len(self.q):
            raise StructureError("base grid must have one row per summand")
        if self.r < 1 or self.t < 1:
            raise StructureError("need r >= 1 and t >= 1")
        for row in self.bases:
            if len(row) != self.t:
                raise StructureError(f"each summand needs {self.t} bases")
        for elem in (*self.q, *(elem for row in self.bases for elem in row)):
            if not self._member(elem):
                raise StructureError("element does not live in the equation's ring")

    @property
    def s(self) -> int:
        return len(self.q)

    @cached_property
    def exponent_alphabet(self) -> tuple:
        return digits.alphabet(self.field.p, self.t)

    @cached_property
    def section_alphabet(self) -> tuple:
        return digits.alphabet(self.field.p, self.r)


@dataclass(frozen=True)
class ScalarEde(Equation):
    """One scalar equation: polynomial coefficients ``q`` and bases ``bases``."""

    field: PrimeField
    r: int
    t: int
    q: tuple
    bases: tuple

    n = 1  # the order of the ring: F_p[x_1..x_r] is the order-one companion ring

    def _member(self, elem) -> bool:
        return isinstance(elem, Poly) and elem.field == self.field and elem.num_vars == self.r

    @cached_property
    def one(self) -> Poly:
        return Poly.one(self.field, self.r)

    @cached_property
    def conjugator(self) -> Poly:
        """C' of the order-one ring: the 1-by-1 identity."""
        return self.one

    def element(self, entries) -> Poly:
        return entries[0]


def max_degree(elems) -> int:
    """Largest total degree among ``elems``; zero elements count as degree 0."""
    degs = [elem.total_degree() for elem in elems]
    return max((int(d) for d in degs if d != MINUS_INFINITY), default=0)


def degree_bound(ede) -> tuple:
    """(N0, N1): the step operator maps degree <= N below N back, N >= N0.

    M is the largest base degree (zero bases count as degree 0).  One digit
    letter multiplies by at most t bases, each raised to a digit < p, and by
    C' (degree 0 in the scalar ring), so a step grows degree by at most
    (p-1)*t*M + deg C' before the section divides by p.
    N0 = ceil((p*t*M + deg C')/(p-1)) dominates the fixed point; N1
    additionally covers the starting degrees, so every reachable state
    stays within N1.
    """
    p = ede.field.p
    big_m = max_degree(f for row in ede.bases for f in row)
    n0 = math.ceil((p * ede.t * big_m + max_degree([ede.conjugator])) / (p - 1))
    return n0, max(max_degree(ede.q), n0)


def base_power(ede, i: int, x):
    """Product of summand i's bases raised to the digits of letter x (without C').

    ``i`` is the 1-based summand index, matching the equation's order.
    Zero digits contribute the factor 1 even for a zero base.
    """
    if not 1 <= i <= ede.s:
        raise StructureError(f"summand index {i} out of range 1..{ede.s}")
    x = digits.check_letter(x, ede.field.p, ede.t)
    out = ede.one
    for base, d in zip(ede.bases[i - 1], x):
        if d:
            out = out * base**d
    return out


def digit_powers(base, p: int) -> tuple:
    """(P, P^2, .., P^(p-1)): entry d - 1 is the factor P^d a digit d < p contributes.

    One product per entry; :func:`letter_power` reads a letter's factor off
    the tables of a summand's bases.
    """
    out = [base]
    for _ in range(p - 2):
        out.append(out[-1] * base)
    return tuple(out)


def letter_power(tables, x, out):
    """P_1^{x_1} .. P_t^{x_t} * out from each base's :func:`digit_powers`: the factors
    multiply ``out`` from the left, last base first, in :func:`base_power`'s order."""
    for table, d in zip(reversed(tables), reversed(x)):
        if d:
            out = table[d - 1] * out
    return out


def step(ede, i: int, x, y, f):
    """One digit step on summand i: multiply by the base power and C', section by y."""
    return (f * base_power(ede, i, x) * ede.conjugator).section(y)


def extend_residues(ede, residues, x, y) -> tuple:
    """Apply the digit step componentwise, the same (x, y) for every summand."""
    residues = tuple(residues)
    if len(residues) != ede.s:
        raise StructureError(f"expected {ede.s} residues, got {len(residues)}")
    return tuple(step(ede, i + 1, x, y, f) for i, f in enumerate(residues))


def extend_state(ede, state, x) -> frozenset:
    """All residue tuples reachable from ``state`` by consuming letter x."""
    return frozenset(
        extend_residues(ede, tau, x, y) for tau in state for y in ede.section_alphabet
    )


def is_accepting_residues(residues) -> bool:
    """A residue tuple cancels when its components sum to zero."""
    residues = tuple(residues)
    total = residues[0]
    for f in residues[1:]:
        total = total + f
    return total.is_zero()


def is_accepting_state(state) -> bool:
    """A state accepts when every member cancels (vacuously true if empty)."""
    return all(is_accepting_residues(tau) for tau in state)


def initial_state(ede) -> frozenset:
    return frozenset({tuple(ede.q)})


def entries(elem) -> tuple:
    """The entry polynomials of a ring element, row-major; a Poly is its own one entry."""
    return (elem,) if isinstance(elem, Poly) else tuple(f for row in elem.rows for f in row)


def span_layout(edes) -> tuple:
    """(acceptance groups, moves) for :mod:`span`, the equations side by side.

    A residue tuple flattens to s*n^2 entries, summand by summand, each ring
    element row-major, and the entries of each equation follow those of the
    equations before it.  Entry (i, a, b) of equation e is in group
    (e, a * n + b): it is summed with the (a, b) entries of the other
    summands of e.
    ``moves[x]`` lists the (source, target, multiplier) triples of letter x,
    in alphabet order: entry (i, a, b) of an image sums entry (i, a, k) times
    entry (k, b) of summand i's multiplier (base power times C') over k, so
    the step maps are block-diagonal.  The equations share one alphabet.
    A letter's base power comes from the bases' :func:`digit_powers`, so no
    letter pays for a power of its own.
    """
    groups, moves = [], {x: [] for x in edes[0].exponent_alphabet}
    for e, ede in enumerate(edes):
        n, cprime = ede.n, ede.conjugator
        for i in range(ede.s):
            offset = len(groups)  # of summand i
            groups += [(e, g) for g in range(n * n)]
            tables = [digit_powers(base, ede.field.p) for base in ede.bases[i]]
            for x, triples in moves.items():
                mult = entries(letter_power(tables, x, cprime))
                for a, k, b in itertools.product(range(n), repeat=3):
                    triples.append((offset + a * n + k, offset + a * n + b, mult[k * n + b]))
    return groups, moves


def span_starts(qs) -> list:
    """One start row per equation, laid out as :func:`span_layout` lays it:
    the entries of ``qs[e]``, the start coefficients of equation e, in its
    own slots and zeros in the others.  Only the ring's entry layout is
    read, so no equation need be built first."""
    flat = [[f for elem in q for f in entries(elem)] for q in qs]
    zero = Poly.zero(flat[0][0].field, flat[0][0].num_vars)
    return [[f if k == e else zero for k, fs in enumerate(flat) for f in fs] for e in range(len(flat))]


def _span(ede, state_cap: int) -> tuple:
    """(finals, transitions, bases) of the span exploration of one equation."""
    groups, moves = span_layout([ede])
    return span.explore(ede.field, ede.r, span_starts([ede.q]), moves, state_cap, groups)


def explore(ede, state_cap: int = fsa.DEFAULT_STATE_CAP):
    """Reachable span states; returns (state keys, transition table).

    Each key is the frozenset of residue tuples forming the echelon basis of
    its span (see :mod:`span`), so the predicates above apply to it as-is.
    """
    size = ede.n * ede.n
    _, transitions, bases = _span(ede, state_cap)
    keys = [
        frozenset(
            tuple(ede.element(row[i * size:(i + 1) * size]) for i in range(ede.s)) for row in basis
        )
        for basis in bases
    ]
    return keys, transitions


def build_automaton(ede, state_cap: int = fsa.DEFAULT_STATE_CAP) -> fsa.Automaton:
    """The DFA over exponent letters accepting exactly the solution words."""
    finals, transitions, _ = _span(ede, state_cap)
    labels = [str(i) for i in range(len(transitions))]
    return fsa.Automaton(ede.field.p, ede.t, labels, transitions, 0, finals)
