"""Systems of exponential equations with polynomial coefficients.

A system summand may carry a coefficient polynomial in the unknowns
themselves, as in  n * x^n = 0.  Over F_p such coefficients are periodic
in each unknown with period p, so splitting every unknown into its last
digit and the rest,  n_k = d_k + p * m_k,  turns one equation into p^t
coefficient-free equations, one per last-digit tuple d:

    sum_i  coeff_i(d) * Q_i * prod_k P_ik^{d_k}  *  prod_k (P_ik^p)^{m_k} = 0 .

The peeled equations are ``ScalarEde`` or ``MatrixEde`` instances, and
the equation layer of :mod:`scalar` serves both rings alike.  The peeled
equations of one system share their bases (P_ik^p, and the conjugator C')
whatever d is, so they share one step map.  :func:`solve_system` lays the
flattened entries of all equations side by side, making the step maps
block-diagonal, and runs one span exploration (:mod:`span`) for the whole
system: a pre-initial state reads the last digit d and moves to the span
of the peeled starting residues for d, one row per equation; a span
accepts when every equation's residues cancel.  The empty word, the zero
tuple, accepts when the starting residues of the zero prefix d = 0 cancel.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import digits, fsa, scalar, span
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


def _peel_parts(sys: SystemSpec, equation) -> tuple:
    """Per summand (summand, q, bases, next bases P^p): the prefix-independent
    parts of peeling, companion elements evaluated at the companion matrix.
    """
    comp = sys.companion
    parts = []
    for sm in equation:
        if comp is None:
            parts.append((sm, sm.q, sm.bases, tuple(b.frobenius() for b in sm.bases)))
        else:
            q = evaluate_at_companion(sm.q, comp)
            mats = tuple(evaluate_at_companion(b, comp) for b in sm.bases)
            parts.append((sm, q, mats, tuple(m**sys.field.p for m in mats)))
    return tuple(parts)


def _peel(sys: SystemSpec, parts, prefix):
    new_q = []
    for sm, q, bases, _ in parts:
        q = q * (1 if sm.coeff is None else sm.coeff.evaluate(prefix))
        for base, d in zip(bases, prefix):
            if d:
                q = q * base**d
        new_q.append(q)
    new_bases = tuple(part[3] for part in parts)
    if sys.companion is None:
        return scalar.ScalarEde(sys.field, sys.r, sys.t, tuple(new_q), new_bases)
    return MatrixEde(sys.companion, tuple(new_q), new_bases)


def peel_equation(sys: SystemSpec, equation, prefix):
    """The coefficient-free equation governing the digits above ``prefix``.

    Scalar ring: summand i becomes  coeff_i(prefix) * q_i * prod P_ik^{prefix_k}
    with bases P_ik^p; same shape with matrices in the companion ring.
    """
    prefix = digits.check_letter(prefix, sys.field.p, sys.t)
    return _peel(sys, _peel_parts(sys, equation), prefix)


def peel_last_digits(sys: SystemSpec) -> list:
    """[(prefix letter, peeled equations)] for all p^t last-digit tuples.

    Prefix-independent parts are computed once per equation, C' once per system.
    """
    parts = [_peel_parts(sys, eq) for eq in sys.equations]
    out = [(x, tuple(_peel(sys, pc, x) for pc in parts)) for x in digits.alphabet(sys.field.p, sys.t)]
    cprime = out[0][1][0].conjugator
    for ede in (ede for _, edes in out for ede in edes):
        vars(ede)["conjugator"] = cprime  # fill the cached property
    return out


def solves_at_zero(sys: SystemSpec, equation) -> bool:
    """Whether the zero tuple solves one equation.

    At n = 0 every exponential factor is 1, so the left-hand side is just
    sum_i coeff_i(0) * q_i: the starting residues of the equation peeled
    at the zero prefix, which cancel exactly when it vanishes.
    """
    zero = (0,) * sys.t
    return scalar.is_accepting_residues(_peel(sys, _peel_parts(sys, equation), zero).q)


def equation_language(sys: SystemSpec, equation, state_cap: int = fsa.DEFAULT_STATE_CAP) -> fsa.Automaton:
    """Automaton for the words solving one equation of the system."""
    one = SystemSpec(sys.field, sys.r, sys.t, sys.companion, (equation,))
    return solve_system(one, state_cap)


def solve_system(sys: SystemSpec, state_cap: int = fsa.DEFAULT_STATE_CAP) -> fsa.Automaton:
    """Automaton deciding the whole system, from one span exploration.

    State 0 is the pre-initial state: it accepts the empty word exactly when
    the zero tuple solves every equation.  ``state_cap`` bounds the joint
    exploration.
    """
    peeled = peel_last_digits(sys)
    groups, moves = scalar.span_layout(peeled[0][1])  # moves do not depend on the prefix
    starts = {prefix: scalar.span_starts(edes) for prefix, edes in peeled}
    bound = max(scalar.degree_bound(ede)[1] for _, edes in peeled for ede in edes)
    finals, transitions = span.explore(sys.field, sys.r, bound, starts, moves, state_cap, accept=groups)
    if all(scalar.is_accepting_residues(ede.q) for ede in peeled[0][1]):  # the zero prefix
        finals.add(0)
    labels = ["pre"] + [str(i) for i in range(1, len(transitions))]
    return fsa.Automaton(sys.field.p, sys.t, labels, transitions, 0, finals)
