"""Brute-force verification layer, independent of the automaton engines.

``evaluate`` computes the literal left-hand side of an equation at one
exponent tuple with plain ring arithmetic and repeated-squaring powers.
It never touches the section operator, Frobenius substitution or the
per-digit step machinery, so agreement between ``compare`` and a built
automaton is evidence for the construction rather than for itself.

``compare`` checks every word up to a length bound.  One dense kernel
tabulates the solution set over the decoded exponent grid [0, p^max_len)^t
for scalar and companion rings alike.  It first divides out the equation's
monomial content: theta^a, the largest monomial dividing every term of
every q, and theta^(b_k), the largest dividing every nonzero base k, so

    sum_i c_i(n) q_i prod_k P_ik^(n_k)
        = theta^(a + sum_k b_k n_k) * sum_i c_i(n) q'_i prod_k P'_ik^(n_k).

A monomial is not a zero divisor in F_p[theta], nor, as a scalar, in a
matrix ring over it, so the reduced sum vanishes exactly where the equation
does, and its products are smaller.  A ring element is an (n, n, *extent)
array mod p (n = 1 for a scalar ring) that grows with its degree, and a
product by a base adds one shifted copy per term, reduced only where the
base's coefficients can reach p: literal multiplication with no shortcuts
of characteristic p, in batches of at most ``BATCH_CELLS`` cells.  The last
unknown advances a block of p^j exponents per product, by powers P^(p^i) of
its base computed with ring products, never by Frobenius substitution.
Words are swept in level order (length l+1 is length l extended by every
letter), so a level's automaton states and grid indices are two arrays, and
word objects are built only for mismatches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import fsa
from .companion import MatrixEde, evaluate_at_companion
from .digits import DigitWord, alphabet
from .errors import CapacityError, StructureError
from .gfpoly import Poly
from .scalar import ScalarEde
from .systems import SystemSpec

DEFAULT_WORD_CAP = 500_000
# Largest number of cells (block times batch size times n^2 times the
# sweep's final extent) in one batch array of the solution-grid sweep: bigger
# batches save little time and cost memory.
BATCH_CELLS = 1 << 15


def _equations(spec) -> list:
    """Every equation as [(coeff | None, q, bases)] of Poly or PolyMatrix ring elements.

    Companion data is evaluated at the companion matrix once per summand.
    """
    if isinstance(spec, (ScalarEde, MatrixEde)):
        return [[(None, q, spec.bases[i]) for i, q in enumerate(spec.q)]]
    if not isinstance(spec, SystemSpec):
        raise StructureError(f"cannot evaluate object of type {type(spec).__name__}")
    comp = spec.companion

    def elem(x):
        return x if comp is None else evaluate_at_companion(x, comp)

    return [
        [(sm.coeff, elem(sm.q), tuple(elem(b) for b in sm.bases)) for sm in eq]
        for eq in spec.equations
    ]


def _pow_cached(base, n: int, cache: dict | None, key):
    """base**n by repeated squaring, memoizing every exponent seen."""
    if cache is None:
        return base**n
    got = cache.get((key, n))
    if got is not None:
        return got
    if n < 2:
        out = base**n
    else:
        half = _pow_cached(base, n >> 1, cache, key)
        out = half * half
        if n & 1:
            out = out * base
    cache[(key, n)] = out
    return out


def evaluate(spec, values, cache: dict | None = None):
    """Literal left-hand side at one exponent tuple.

    Returns a Poly for a scalar equation, a PolyMatrix for a matrix
    equation, and a list with one residue per equation for a system.
    """
    values = tuple(values)
    if any(v < 0 for v in values):
        raise StructureError("exponents must be naturals")
    equations = _equations(spec)
    if len(values) != spec.t:
        raise StructureError(f"expected {spec.t} exponents")
    out = []
    for e, eq in enumerate(equations):
        total = eq[0][1] * 0  # the ring's zero
        for i, (coeff, q, bases) in enumerate(eq):
            c = 1 if coeff is None else coeff.evaluate(values)
            if c == 0:
                continue
            term = q * c
            for k, n in enumerate(values):
                term = term * _pow_cached(bases[k], n, cache, ("b", e, i, k))
            total = total + term
        out.append(total)
    return out if isinstance(spec, SystemSpec) else out[0]


def is_solution(spec, values, cache: dict | None = None) -> bool:
    residue = evaluate(spec, values, cache)
    if isinstance(residue, list):
        return all(r.is_zero() for r in residue)
    return residue.is_zero()


# ---------------------------------------------------------------------------
# dense solution grids


def _rows(elem) -> tuple:
    """The entry rows of a ring element; a Poly is a 1 x 1 matrix."""
    return ((elem,),) if isinstance(elem, Poly) else elem.rows


def _content(elems, r: int) -> tuple:
    """Exponents of the largest monomial dividing every term of every element."""
    exps = [e for x in elems for row in _rows(x) for f in row for e in f.terms]
    return tuple(map(min, zip(*exps))) if exps else (0,) * r


def _factor(elem, p: int, shift: tuple = ()) -> tuple:
    """(largest exponents, [(k, b, exponents, coeff)], bound) of elem / theta^shift.

    theta^shift must divide every term of elem; an empty shift divides by 1.
    """
    rows = _rows(elem)
    terms = [(k, b, e, c) for k, row in enumerate(rows) for b, f in enumerate(row) for e, c in f.terms.items()]
    if any(shift):
        terms = [(k, b, tuple(x - s for x, s in zip(e, shift)), c) for k, b, e, c in terms]
    # star-unpack a list, not a generator: CPython builds a generator's argument
    # tuple by resizing, which fills its per-length tuple freelists (on
    # matrix-suite, 1.6 MB more peak RSS)
    tops = tuple(map(max, zip(*[e for _, _, e, _ in terms]))) if terms else (0,) * elem.num_vars
    # (p-1) times the largest coefficient sum in one target column bounds a product
    load = [0] * len(rows)
    for _, b, _, c in terms:
        load[b] += c
    return tops, terms, (p - 1) * max(load)


def _reduce(arr, p: int, top: int):
    """Reduce entries in [0, top] mod p in place.

    Subtracting p * 2^j wherever it fits, largest j first, costs three cheap
    array passes per halving, far less than an integer remainder.
    """
    if top < p:
        return
    m = p << ((top // p).bit_length() - 1)
    while m >= p:
        arr -= (arr >= m) * arr.dtype.type(m)
        m >>= 1


def _times(arr, factor, p: int):
    """Batched arr @ factor for (B, n, n, *extent) arrays, reduced mod p.

    The output extent is arr's plus the factor's largest exponents.  Each
    term of entry (k, b) adds column k, scaled and shifted, to column b.
    """
    tops, terms, bound = factor
    extent = arr.shape[3:]
    out = np.zeros(arr.shape[:3] + tuple(c + e for c, e in zip(extent, tops)), arr.dtype)
    for k, b, exps, coeff in terms:
        src = arr[:, :, k]
        out[(slice(None), slice(None), b) + tuple(slice(e, e + c) for e, c in zip(exps, extent))] += (
            src if coeff == 1 else src * coeff
        )
    _reduce(out, p, bound)
    return out


def _equation_zero_grid(p: int, t: int, summands, n_max: int):
    """Boolean grid over [0, n_max)^t: True where the equation vanishes.

    Per summand the running product q_i * prod_k P_ik^{n_k}, with the
    equation's monomial content divided out, is a batch of
    (n, n, *extent) arrays whose extent grows with its degree.  Axes 0..t-3
    advance in odometer order, one prefix at a time; consecutive indices on
    axis t-2 are zero-padded to one extent and stacked into batches.  Each
    batch walks the last axis in blocks of p^j exponents: level i stacks
    S, S F_i, .., S F_i^(p-1) for F_i = P^(p^i), a literal power of the last
    base, so the first block holds exponents 0..p^j-1 exponent-major, and
    one product by P^(p^j) moves a whole block on.  Block times batch at the
    sweep's final extent stays within BATCH_CELLS cells; batches fill it
    first, and block is the largest power of p dividing n_max that fits.
    Every block is tested at once: the summands (times the coefficient table
    if any has a poly_coeff) summed, reduced, any.  A single unknown gets a
    leading axis of extent 1, so the batch axis always exists.
    """
    # a summand whose constant q is zero vanishes everywhere
    summands = [sm for sm in summands if not sm[1].is_zero()]
    if not summands:
        return np.ones((n_max,) * t, dtype=bool)
    shape = (n_max,) * t if t > 1 else (1, n_max)
    lead, last = len(shape) - t, len(shape) - 1
    q0 = summands[0][1]
    n, r = (1 if isinstance(q0, Poly) else q0.n), q0.num_vars
    # theta^content divides every q, and theta^(shift_k) every nonzero base k
    content = _content([q for _, q, _ in summands], r)
    shifts = [_content([bases[k] for _, _, bases in summands], r) for k in range(t)]
    starts = [_factor(q, p, content) for _, q, _ in summands]
    factors = [[_factor(b, p, s) for b, s in zip(bases, shifts)] for _, _, bases in summands]
    final = tuple(
        max(top[v] + 1 + (n_max - 1) * sum(f[0][v] for f in fs) for (top, _, _), fs in zip(starts, factors))
        for v in range(r)
    )
    cells = n * n * math.prod(final)
    batch_cap = max(1, min(shape[last - 1], BATCH_CELLS // cells))
    block, levels = 1, 0  # block = p^levels, the largest dividing n_max that fits the cap
    while n_max % (block * p) == 0 and block * p * batch_cap * cells <= BATCH_CELLS:
        block, levels = block * p, levels + 1
    # P^(p^j) for j < levels, and P^block once a second block follows: literal
    # powers, divided by theta^(p^j shift); the first is the base's own factor
    powers = []
    for (_, _, bases), fs in zip(summands, factors):
        pw, out = bases[-1], [fs[-1]]
        while len(out) < levels + (block < n_max):
            pw = pw**p
            out.append(_factor(pw, p, tuple(s * p ** len(out) for s in shifts[-1])))
        powers.append(out)
    plain = all(c is None for c, _, _ in summands)
    # largest unreduced sum of the zero test, and of any product column
    test_bound = (p - 1) ** (1 if plain else 2) * len(summands)
    bound = max(
        [test_bound]
        + [f[2] for f in starts]
        + [f[2] for fs in factors for f in fs]
        + [f[2] for fs in powers for f in fs]
    )
    factors = [[None] * lead + fs for fs in factors]
    dtype = np.int16 if bound < 1 << 15 else np.int64
    residues = list(itertools.product(range(p), repeat=t))
    tables = [
        np.array([1 if c is None else c.evaluate(x) for x in residues], dtype).reshape((1,) * lead + (p,) * t)
        for c, _, _ in summands
    ]
    result = np.zeros(shape, dtype=bool)

    def corner(a):  # the cells of a larger array that a occupies
        return (Ellipsis,) + tuple(slice(0, c) for c in a.shape[3:])

    def stack(parts):  # on the batch axis, zero-padded to the last, the largest
        out = np.zeros((sum(len(a) for a in parts),) + parts[-1].shape[1:], dtype)
        at = 0
        for a in parts:
            out[at : at + len(a)][corner(a)] = a
            at += len(a)
        return out

    def chain(batch, idx, d0):
        size = len(batch)
        arrs = [stack(ms) for ms in zip(*batch)]
        # exponents 0..block-1 of the last axis, exponent-major on the batch axis
        for j in range(levels):
            for i, pw in enumerate(powers):
                parts = [arrs[i]]
                for _ in range(p - 1):
                    parts.append(_times(parts[-1], pw[j], p))
                arrs[i] = stack(parts)
        rows = np.arange(d0, d0 + size) % p
        cols = [tab[tuple(x % p for x in idx)][rows].T for tab in tables]  # (p, size)
        for e0 in range(0, shape[last], block):
            if plain and len(arrs) == 1:
                acc = arrs[0]
            else:
                # star-unpack a list: see _factor
                acc = np.zeros(arrs[0].shape[:3] + tuple(map(max, zip(*[a.shape[3:] for a in arrs]))), dtype)
                es = (e0 + np.arange(block)) % p
                for a, col in zip(arrs, cols):
                    acc[corner(a)] += a if plain else a * col[es].reshape((-1,) + (1,) * (2 + r))
                _reduce(acc, p, test_bound)
            result[idx + (slice(d0, d0 + size), slice(e0, e0 + block))] = ~acc.reshape(block, size, -1).any(axis=2).T
            if e0 + block < shape[last]:
                arrs = [_times(a, pw[levels], p) for a, pw in zip(arrs, powers)]

    def walk(cur, idx):
        k = len(idx)
        batch = []
        for d in range(shape[k]):
            if k < last - 1:
                walk(cur, idx + (d,))
            else:
                batch.append(cur)
                if len(batch) == batch_cap or d == shape[k] - 1:
                    chain(batch, idx, d + 1 - len(batch))
                    batch = []
            if d < shape[k] - 1:
                cur = [_times(a, fs[k], p) for a, fs in zip(cur, factors)]

    one = np.eye(n, dtype=dtype).reshape((1, n, n) + (1,) * r)
    walk([_times(one, start, p) for start in starts], ())
    walk = None  # walk reaches itself through its closure: free that cycle, and its arrays, now
    return result.reshape((n_max,) * t)


def _solution_grid(spec, n_max: int, equations=None):
    """Boolean grid over [0, n_max)^t: True where every equation vanishes."""
    grid = np.ones((n_max,) * spec.t, dtype=bool)
    for summands in equations or _equations(spec):
        grid &= _equation_zero_grid(spec.field.p, spec.t, summands, n_max)
    return grid


# ---------------------------------------------------------------------------
# word-by-word comparison


@dataclass
class Mismatch:
    word: DigitWord
    is_solution: bool
    accepted: bool


@dataclass
class VerificationReport:
    max_len: int
    checked: int
    mismatches: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def as_dict(self) -> dict:
        return {
            "max_len": self.max_len,
            "checked": self.checked,
            "mismatches": [
                {
                    "word": [list(l) for l in m.word.letters],
                    "oracle": m.is_solution,
                    "automaton": m.accepted,
                }
                for m in self.mismatches
            ],
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.as_dict(), indent=2) + "\n"


def compare(spec, automaton, max_len: int, word_cap: int = DEFAULT_WORD_CAP) -> VerificationReport:
    """Check every word of length <= max_len against the automaton.

    A word mismatches when the automaton's verdict differs from the
    literal evaluation at the decoded exponent tuple.  ``automaton`` is an
    :class:`fsa.Automaton`, run on all words of a length at once, or any
    object with ``p``, ``t`` and ``accepts(word)``, asked word by word.
    Mismatches come by length, then in ``itertools.product`` letter order.
    """
    equations = _equations(spec)
    p, t = spec.field.p, spec.t
    if automaton.p != p or automaton.t != t:
        raise StructureError("automaton alphabet does not match the equation")
    if max_len < 0:
        raise StructureError("max_len must be a natural number")
    letters = alphabet(p, t)
    per_len = len(letters)
    total = sum(per_len**l for l in range(max_len + 1))
    if total > word_cap:
        raise CapacityError(f"{total} words exceed cap {word_cap}", discovered=total)

    n_max = p**max_len
    grid = _solution_grid(spec, n_max, equations).reshape(-1)
    # the flat grid index a letter adds as the least significant digit
    shifts = np.array(letters, dtype=np.int64) @ (n_max ** np.arange(t - 1, -1, -1, dtype=np.int64))
    dense = isinstance(automaton, fsa.Automaton)
    if dense:
        table = np.array(automaton.transitions, dtype=np.int64)
        finals = np.zeros(automaton.num_states, dtype=bool)
        finals[list(automaton.finals)] = True
        states = np.array([automaton.initial])
    index = np.zeros(1, dtype=np.int64)
    report = VerificationReport(max_len=max_len, checked=total)
    for length in range(max_len + 1):
        if length:
            # every word of the last level, extended by each letter in turn
            index = (index[:, None] + shifts * p ** (length - 1)).reshape(-1)
            if dense:
                states = table[states].reshape(-1)
        solved = grid[index]
        if dense:
            accepted = finals[states]
        else:
            words = itertools.product(letters, repeat=length)
            accepted = np.array([automaton.accepts(DigitWord(p, t, w)) for w in words], dtype=bool)
        for w in np.flatnonzero(solved != accepted):
            combo = tuple(letters[x] for x in np.unravel_index(w, (per_len,) * length))
            report.mismatches.append(
                Mismatch(DigitWord(p, t, combo), bool(solved[w]), bool(accepted[w]))
            )
    return report
