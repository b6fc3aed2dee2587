"""Systems of exponential equations with polynomial coefficients.

A system summand may carry a coefficient polynomial in the unknowns
themselves, as in  n * x^n = 0.  Over F_p such coefficients are periodic
in each unknown with period p, so splitting every unknown into its last
digit and the rest,  n_k = d_k + p * m_k,  turns one equation into p^t
coefficient-free equations, one per last-digit tuple d:

    sum_i  coeff_i(d) * Q_i * prod_k P_ik^{d_k}  *  prod_k (P_ik^p)^{m_k} = 0 .

Only the start coefficients  coeff_i(d) * Q_i * prod_k P_ik^{d_k}  depend
on d: the bases P_ik^p, and the conjugator C' of a companion ring, are the
same for every d.  So :func:`solve_system` builds one ``ScalarEde`` or
``MatrixEde`` per system equation, whose step maps serve every prefix,
and peels only the start coefficients per prefix, reading every
P_ik^{d_k} off one table of base powers per base.  C' is computed once
per spec (``SystemSpec.conjugator``) and shared by all its equations.
It lays the flattened entries of all equations side by side
(``scalar.span_layout``), making the step maps block-diagonal, and runs
one span exploration (:mod:`span`) for the whole system: a pre-initial
state reads the last digit d and moves to the span of the start rows for
d (``scalar.span_starts``), one row per equation; a span accepts when
every equation's residues cancel.  The engine also decides the empty
word: it spells the zero tuple, as the word of one zero letter does, so
the pre-initial state takes that letter's verdict (:func:`solves_at_zero`
computes it from the summands, as a reference).  The engine widens the
degree bound N0 of the equations to the degrees of the start rows itself.
:func:`peel_equation` and :func:`peel_last_digits` give the peeled
equations themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import companion, digits, fsa, scalar, span
from .companion import CompanionSpec, MatrixEde, evaluate_at_companion
from .errors import StructureError
from .gfpoly import Poly, PrimeField


@dataclass(frozen=True)
class Summand:
    """coeff(n_1..n_t) * q * P_1^{n_1} .. P_t^{n_t} with optional coeff.

    For scalar systems ``q`` is a Poly and ``bases`` a tuple of Poly; for
    companion systems both hold tuples of Poly, the low-to-high xi
    coefficients of ring elements.
    """

    coeff: Poly | None
    q: object
    bases: tuple

    def __post_init__(self):
        object.__setattr__(self, "bases", tuple(self.bases))


@dataclass(frozen=True)
class SystemSpec:
    """Top-level problem: shared ring data plus one or more equations."""

    field: PrimeField
    r: int
    t: int
    companion: CompanionSpec | None
    equations: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "equations", tuple(tuple(eq) for eq in self.equations)
        )
        if self.r < 1 or self.t < 1:
            raise StructureError("need r >= 1 and t >= 1")
        if not self.equations:
            raise StructureError("need at least one equation")
        if self.companion is not None:
            if self.companion.field != self.field or self.companion.r != self.r:
                raise StructureError("companion spec ring mismatch")
        for eq in self.equations:
            if not eq:
                raise StructureError("empty equation")
            for sm in eq:
                self._check_summand(sm)

    def _check_summand(self, sm: Summand):
        if sm.coeff is not None:
            if sm.coeff.field != self.field or sm.coeff.num_vars != self.t:
                raise StructureError(
                    "coefficient polynomial must have one variable per unknown"
                )
        if len(sm.bases) != self.t:
            raise StructureError(f"each summand needs {self.t} bases")
        if self.companion is None:
            ring_elems = (sm.q, *sm.bases)
            for f in ring_elems:
                if not isinstance(f, Poly) or f.field != self.field or f.num_vars != self.r:
                    raise StructureError("summand entry outside the scalar ring")
        else:
            for coeffs in (sm.q, *sm.bases):
                if not isinstance(coeffs, (tuple, list)) or not coeffs:
                    raise StructureError(
                        "companion summand entries are nonempty xi-coefficient lists"
                    )
                for c in coeffs:
                    if not isinstance(c, Poly) or c.field != self.field or c.num_vars != self.r:
                        raise StructureError("xi coefficient outside the base ring")

    @cached_property
    def conjugator(self):
        """C' of the companion ring, computed once per spec; None for the scalar ring.

        Raises :class:`SingularConjugatorError` for a minimal polynomial
        with a repeated root (see :func:`companion.conjugator`).
        """
        return None if self.companion is None else companion.conjugator(self.companion)[0]

    def ring_summands(self, equation) -> list:
        """[(coeff | None, q, bases)] of one equation, companion data evaluated at B'."""
        comp = self.companion

        def elem(x):
            return x if comp is None else evaluate_at_companion(x, comp)

        return [(sm.coeff, elem(sm.q), tuple(elem(b) for b in sm.bases)) for sm in equation]


def _starts(p: int, summands, prefixes) -> list:
    """The start coefficients coeff_i(d) * q_i * prod_k P_ik^{d_k} of each prefix d.

    One tuple per prefix of ``prefixes``, one entry per summand of
    ``ring_summands``; the base powers come from one table of P^d, d < p,
    per base.
    """
    tables = [[scalar.digit_powers(b, p) for b in bases] for _, _, bases in summands]
    out = []
    for prefix in prefixes:
        starts = []
        for (coeff, q, _), table in zip(summands, tables):
            if coeff is not None:
                q = q * coeff.evaluate(prefix)
            starts.append(scalar.letter_power(table, prefix, q))
        out.append(tuple(starts))
    return out


def _peeled(sys: SystemSpec, summands, q):
    """The coefficient-free equation with start coefficients ``q`` and bases P_ik^p."""
    bases = tuple(tuple(b**sys.field.p for b in bs) for _, _, bs in summands)
    if sys.companion is None:
        return scalar.ScalarEde(sys.field, sys.r, sys.t, q, bases)
    return MatrixEde(sys.companion, q, bases, sys.conjugator)


def peel_equation(sys: SystemSpec, equation, prefix):
    """The coefficient-free equation governing the digits above ``prefix``.

    Scalar ring: summand i becomes  coeff_i(prefix) * q_i * prod P_ik^{prefix_k}
    with bases P_ik^p; same shape with matrices in the companion ring.
    """
    prefix = digits.check_letter(prefix, sys.field.p, sys.t)
    summands = sys.ring_summands(equation)
    return _peeled(sys, summands, _starts(sys.field.p, summands, [prefix])[0])


def peel_last_digits(sys: SystemSpec) -> list:
    """[(prefix letter, peeled equations)] for all p^t last-digit tuples."""
    return [
        (x, tuple(peel_equation(sys, eq, x) for eq in sys.equations))
        for x in digits.alphabet(sys.field.p, sys.t)
    ]


def solves_at_zero(sys: SystemSpec, equation) -> bool:
    """Whether the zero tuple solves one equation.

    At n = 0 every exponential factor is 1, so the left-hand side is just
    sum_i coeff_i(0) * q_i: the start coefficients of the zero prefix,
    which cancel exactly when it vanishes.
    """
    return scalar.is_accepting_residues(_starts(sys.field.p, sys.ring_summands(equation), [(0,) * sys.t])[0])


def equation_language(sys: SystemSpec, equation, state_cap: int = fsa.DEFAULT_STATE_CAP) -> fsa.Automaton:
    """Automaton for the words solving one equation of the system."""
    one = SystemSpec(sys.field, sys.r, sys.t, sys.companion, (equation,))
    return solve_system(one, state_cap)


def solve_system(sys: SystemSpec, state_cap: int = fsa.DEFAULT_STATE_CAP) -> fsa.Automaton:
    """Automaton deciding the whole system, from one span exploration.

    State 0 is the pre-initial state: it accepts the empty word exactly when
    the zero tuple solves every equation, which the engine reads off the
    zero letter's span.  ``state_cap`` bounds the joint exploration.
    """
    letters = digits.alphabet(sys.field.p, sys.t)
    summands = [sys.ring_summands(eq) for eq in sys.equations]
    qs = dict(zip(letters, zip(*[_starts(sys.field.p, sms, letters) for sms in summands])))
    starts = {x: scalar.span_starts(qs[x]) for x in letters}
    # start rows over the cell cap are refused before any base P^p is taken
    span.start_coords([row for x in letters for row in starts[x]], len(letters), sys.field.p, sys.r)
    # one equation per system equation: its bases P^p and C' serve every prefix
    edes = [_peeled(sys, sms, q) for sms, q in zip(summands, qs[letters[0]])]
    groups, moves = scalar.span_layout(edes)
    n0 = max(scalar.degree_bound(ede)[0] for ede in edes)
    finals, transitions, _ = span.explore(sys.field, sys.r, n0, starts, moves, state_cap, groups)
    labels = ["pre"] + [str(i) for i in range(1, len(transitions))]
    return fsa.Automaton(sys.field.p, sys.t, labels, transitions, 0, finals)
