"""Brute-force verification layer, independent of the automaton engines.

``evaluate`` computes the literal left-hand side of an equation at one
exponent tuple with plain ring arithmetic and repeated-squaring powers.
It never touches the section operator, Frobenius substitution or the
per-digit step machinery, so agreement between ``compare`` and a built
automaton is evidence for the construction rather than for itself.

``compare`` checks every word up to a length bound.  One dense kernel tests
every word of the longest length, in ``compare``'s own order, for scalar and
companion rings alike; a shorter word is the longer one padded with zero
letters.  It first divides out the equation's
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
of characteristic p.  A word holds the exponents' base-p digits, least
significant first, so letter l multiplies by prod_k (P_k^(p^l))^(d_k), with
the powers P^(p^l) computed by ring products, never by Frobenius
substitution.  The first letters grow a cube of every prefix, and a flat
odometer over the other letters moves the whole cube, in passes of at most
``BATCH_CELLS`` cells; its zero tests land in word order through a fixed
permutation.  The automaton runs in level order (length l+1 is length l
extended by every letter), so a level's states are one array, and word
objects are built only for mismatches.

Only this layer needs numpy, so ``np`` is bound lazily: the ``build``,
``check``, ``enum`` and ``solvable`` commands and ``import edesolver`` never
reach the oracle, and importing numpy cost them about half their start-up
time.  The first attribute read of ``np`` imports numpy and rebinds ``np``
to it, so every later use is a plain global lookup.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

from . import fsa
from .companion import MatrixEde
from .digits import DigitWord, alphabet, count_words
from .errors import CapacityError, StructureError
from .gfpoly import Poly
from .scalar import ScalarEde
from .systems import SystemSpec

DEFAULT_WORD_CAP = 500_000
# Largest number of cells (words times n^2 times the sweep's final extent) in
# one pass of the word sweep, and in the cube it is cut from unless that cube
# is the smallest: bigger passes save little time and cost memory.
BATCH_CELLS = 1 << 15
# Largest canvas one word may need at the final length (n^2 times its
# extent).  It bounds outside input, not a tuning knob: the bundled specs
# and suite instances need at most 27576 cells, and past it a single word's
# arrays run to gigabytes.
MAX_WORD_CELLS = 1 << 20


class _Numpy:
    """Stands in for numpy until its first use, then rebinds ``np`` to numpy itself."""

    def __getattr__(self, name):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _Numpy()


def _equations(spec) -> list:
    """Every equation as [(coeff | None, q, bases)] of Poly or PolyMatrix ring elements."""
    if isinstance(spec, (ScalarEde, MatrixEde)):
        return [[(None, q, spec.bases[i]) for i, q in enumerate(spec.q)]]
    if not isinstance(spec, SystemSpec):
        raise StructureError(f"cannot evaluate object of type {type(spec).__name__}")
    return [spec.ring_summands(eq) for eq in spec.equations]


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
# the word-order solution sweep


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


def _corner(a):
    """The cells of a larger array that a occupies."""
    return (Ellipsis,) + tuple(slice(0, c) for c in a.shape[3:])


def _grow(arr, factor, p: int):
    """Each word S of arr becomes the p words S, S F, .., S F^(p-1), the new digit fastest."""
    parts = [arr]
    for _ in range(p - 1):
        parts.append(_times(parts[-1], factor, p))
    out = np.zeros((len(arr), p) + parts[-1].shape[1:], arr.dtype)
    for d, part in enumerate(parts):
        out[:, d][_corner(part)] = part
    return out.reshape((-1,) + out.shape[2:])


def _zero_words(arrs, p: int, bound: int):
    """Where the summands' arrays sum to zero, word by word; bound caps the unreduced sum."""
    acc = arrs[0]
    if len(arrs) > 1:
        # star-unpack a list: see _factor
        acc = np.zeros(acc.shape[:3] + tuple(map(max, zip(*[a.shape[3:] for a in arrs]))), acc.dtype)
        for a in arrs:
            acc[_corner(a)] += a
        _reduce(acc, p, bound)
    return ~acc.reshape(len(acc), -1).any(axis=1)


def _equation_zeros(p: int, t: int, summands, length: int):
    """Zero test of one equation at every word of ``length`` >= 1 letters.

    Words come in ``compare``'s order, ``itertools.product`` over
    ``alphabet(p, t)``: the first letter slowest, the newest fastest.  A
    word spells n_k = sum_l d_lk p^l, so a summand is c_i(n) q_i times
    prod_l prod_k (P_ik^(p^l))^(d_lk), with the monomial content divided out.
    The first ``low`` letters grow a cube of every prefix, one digit at a
    time: p stacked copies S, S F, .., S F^(p-1) of it, F = P^(p^l) a literal
    ring power.  The first letter is n mod p, which fixes c_i(n), so each
    summand is multiplied by its poly_coeff there, once.  The higher letters
    spell m_k = n_k div p^low, walked by a flat odometer whose every step
    multiplies the running products by one P_ik^(p^low); the zero tests land
    in their word columns through a fixed permutation.  The cube is cut into
    equal passes of at most BATCH_CELLS cells at the sweep's final extent,
    and ``low`` is the largest cube within that cap: passes at l + 1
    letters are at most p^t times those at l, while odometer steps fall by
    p^t, so no smaller cube needs fewer products.  A cube of one letter, or
    of none when no summand has a poly_coeff, is always allowed.  A word
    whose canvas at the final length passes MAX_WORD_CELLS raises
    CapacityError before any array is made.
    """
    size = p**t  # letters
    # a summand whose constant q is zero vanishes everywhere
    summands = [sm for sm in summands if not sm[1].is_zero()]
    if not summands:
        return np.ones(size**length, dtype=bool)
    q0 = summands[0][1]
    n, r = (1 if isinstance(q0, Poly) else q0.n), q0.num_vars
    # theta^content divides every q, and theta^(shift_k) every nonzero base k
    content = _content([q for _, q, _ in summands], r)
    shifts = [_content([bases[k] for _, _, bases in summands], r) for k in range(t)]
    starts = [_factor(q, p, content) for _, q, _ in summands]
    # powers[i][k][l]: P_ik^(p^l) divided by theta^(p^l shift_k)
    powers = [[[_factor(b, p, s)] for b, s in zip(bases, shifts)] for _, _, bases in summands]

    def cells(l):  # of one word once l letters are read, at most
        return n * n * math.prod(
            max(top[v] + 1 + (p**l - 1) * sum(pw[0][0][v] for pw in pws) for (top, _, _), pws in zip(starts, powers))
            for v in range(r)
        )

    canvas = cells(length)
    if canvas > MAX_WORD_CELLS:
        raise CapacityError(
            f"one word of {length} letters needs a canvas of {canvas} cells, over the cap of {MAX_WORD_CELLS}"
        )
    # poly_coeff is read off the first letter, so then the cube holds one at least
    first = int(any(c is not None for c, _, _ in summands))
    # the largest cube within the cap, cut into equal passes within the cap at
    # the final extent
    low = max(l for l in range(first, length + 1) if l == first or size**l * cells(l) <= BATCH_CELLS)
    passes = -(-(size**low) // max(1, BATCH_CELLS // canvas))
    width = -(-(size**low) // passes)
    hi = length - low
    # the cube reads P^(p^l) for l < low and the odometer P^(p^low): literal
    # powers; the first is the base's own factor
    for (_, _, bases), pws in zip(summands, powers):
        for elem, s, pw in zip(bases, shifts, pws):
            for l in range(1, low + (hi > 0)):
                elem = elem**p
                pw.append(_factor(elem, p, tuple(x * p**l for x in s)))
    # largest unreduced sum of the zero test, a coefficient product, and any product column
    test_bound = (p - 1) * len(summands)
    bound = max(
        [test_bound, (p - 1) ** 2 * first]
        + [f[2] for f in starts]
        + [f[2] for pws in powers for pw in pws for f in pw]
    )
    dtype = np.int8 if bound < 1 << 7 else np.int16 if bound < 1 << 15 else np.int64
    one = np.eye(n, dtype=dtype).reshape((1, n, n) + (1,) * r)
    cube = []
    for (c, _, _), start, pws in zip(summands, starts, powers):
        arr = _times(one, start, p)
        for l in range(low):
            for pw in pws:
                arr = _grow(arr, pw[l], p)
            if l == 0 and c is not None:
                column = np.array([c.evaluate(x) for x in alphabet(p, t)], dtype)
                arr = arr * column.reshape((-1,) + (1,) * (2 + r))
                _reduce(arr, p, (p - 1) ** 2)
        cube.append(arr)
    # the word column of the odometer's steps: digit j of m_k is digit k of letter low + j
    order = [j * t + k for k in range(t) for j in reversed(range(hi))]
    cols = np.arange(size**hi).reshape((p,) * (t * hi)).transpose(order).reshape(-1)
    zeros = np.empty((size**low, size**hi), dtype=bool)
    for a in range(0, size**low, width):
        # held[k]: the pass at (m_0, .., m_k, 0, .., 0), per summand
        held = [[arr[a : a + width]] * t for arr in cube]
        for col, m in zip(cols, itertools.product(range(p**hi), repeat=t)):
            if any(m):
                k = max(j for j in range(t) if m[j])  # the axis that moved; later ones restart
                for hs, pws in zip(held, powers):
                    hs[k:] = [_times(hs[k], pws[k][low], p)] * (t - k)
            zeros[a : a + width, col] = _zero_words([hs[-1] for hs in held], p, test_bound)
    return zeros.reshape(-1)


def _solved(spec, length: int, equations=None):
    """Whether every equation vanishes, at every word of ``length`` >= 1 letters."""
    p, t = spec.field.p, spec.t
    solved = np.ones(p ** (t * length), dtype=bool)
    for summands in equations or _equations(spec):
        solved &= _equation_zeros(p, t, summands, length)
    return solved


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


def compare(spec, automaton, max_len: int) -> VerificationReport:
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
    total = count_words(per_len, max_len, DEFAULT_WORD_CAP)

    # a shorter word is the longer one padded with zero letters
    every = _solved(spec, max(max_len, 1), equations)
    dense = isinstance(automaton, fsa.Automaton)
    if dense:
        table = np.array(automaton.transitions, dtype=np.int64)
        finals = np.zeros(automaton.num_states, dtype=bool)
        finals[list(automaton.finals)] = True
        states = np.array([automaton.initial])
    report = VerificationReport(max_len=max_len, checked=total)
    for length in range(max_len + 1):
        if length and dense:
            # every word of the last level, extended by each letter in turn
            states = table[states].reshape(-1)
        solved = every.reshape(per_len**length, -1)[:, 0]
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
