"""F_p-linear span states: the one exploration engine of both coefficient rings.

The digit step of :mod:`scalar` and :mod:`companion`,

    tau  ->  section(tau * P^x, y)     (componentwise, P^x the letter's multiplier),

is F_p-linear in the residue tuple tau, and a residue tuple cancels exactly
when the linear functional "sum of the components" vanishes on it.  A set
of residue tuples therefore accepts exactly when its F_p-span does, and the
span of a successor set is the sum over the section letters y of the
images of the span.  Tracking spans instead of sets keeps every language
and collapses the powerset construction to subspaces of one fixed space:
the finite-dimensional Cartier-operator space behind Derksen's automata
for positive characteristic (Invent. Math. 168, 2007).

Coordinates.  A residue tuple flattens to E entry polynomials (s for a
scalar ring, s*n^2 for a companion ring).  A coordinate is a pair (entry,
monomial); the coordinates tracked are those the step's support map
reaches from the support of the start tuple, which every reachable span
lives in.  They lie in the box of total degree <= N, the equation's degree
bound, which the step maps into itself, so a coordinate outside it is a
bug and raises.

Step maps.  For each digit letter x one dense matrix over F_p holds the
images under every section letter side by side: the row vector v times
L_x, cut into p^r blocks of the coordinate width, lists the p^r images of v.
Column (y, entry b, monomial g) of row (entry a, monomial e) is read off the
multiplier terms directly: a term c*x^u of the multiplier from entry a to
entry b sends x^e to c*x^g with y = (e + u) mod p and g = (e + u) div p.

States.  A state is the reduced row-echelon basis of its span, keyed by the
bytes of that basis; the successor under x is the echelon form of the
stacked images of the basis rows.  Arithmetic is numpy int64, reduced mod p
after every product.  A matrix product sums at most width * (p-1)^2, which
the cap on step-matrix cells (width^2 * p^r per letter) keeps below 2^60.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from . import fsa
from .errors import CapacityError
from .gfpoly import Poly

# Largest number of step-matrix cells (over all letters) one build may allocate.
MAX_STEP_CELLS = 1 << 24


def _coordinates(initial, moves, p: int, bound: int, max_width: int) -> list:
    """Sorted (entry, exponent vector) pairs reachable from the start's support."""
    successors = {}
    for triples in moves.values():
        for a, b, f in triples:
            successors.setdefault(a, set()).update((b, u) for u in f.terms)
    frontier = [(j, e) for j, f in enumerate(initial) for e in f.terms]
    seen = set(frontier)
    while frontier:
        grown = []
        for a, e in frontier:
            if sum(e) > bound:
                raise RuntimeError(f"coordinate {e} leaves the degree box of bound {bound}")
            for b, u in successors.get(a, ()):
                c = (b, tuple((ei + ui) // p for ei, ui in zip(e, u)))
                if c not in seen:
                    seen.add(c)
                    grown.append(c)
        if len(seen) > max_width:
            raise CapacityError(
                f"{len(seen)} coordinates reachable, the cap of {MAX_STEP_CELLS} "
                f"step-matrix cells allows {max_width}", discovered=len(seen),
            )
        frontier = grown
    return sorted(seen)


def _step_matrices(coords, p: int, r: int, letters, moves):
    """L_x for every letter x: rows are coordinates, columns (section letter, coordinate)."""
    width = len(coords)
    index = {c: i for i, c in enumerate(coords)}
    of_entry = {}
    for i, (a, e) in enumerate(coords):
        of_entry.setdefault(a, []).append((i, e))
    weights = [p ** (r - 1 - k) for k in range(r)]
    cells = ([], [], [], [])  # letter, row, column, coefficient
    for l, x in enumerate(letters):
        for a, b, f in moves[x]:
            for i, e in of_entry.get(a, ()):
                for u, c in f.terms.items():
                    total = [ei + ui for ei, ui in zip(e, u)]
                    y = sum(w * (v % p) for w, v in zip(weights, total))
                    j = index[b, tuple(v // p for v in total)]
                    for cell, value in zip(cells, (l, i, y * width + j, c)):
                        cell.append(value)
    out = np.zeros((len(letters), width, p**r * width), dtype=np.int64)
    letter, row, col, coeff = (np.array(cell, dtype=np.int64) for cell in cells)
    np.add.at(out, (letter, row, col), coeff)
    return out % p


def _echelon(a, p: int):
    """Reduced row-echelon form of ``a`` mod p with the zero rows dropped."""
    a = a[a.any(axis=1)]
    rank = col = 0
    while rank < len(a) and col < a.shape[1]:
        nonzero = a[rank:, col:] != 0
        live = nonzero.any(axis=0)
        step = int(live.argmax())
        if not live[step]:
            break
        col += step
        pivot = rank + int(nonzero[:, step].argmax())
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        row = a[rank]
        if row[col] != 1:
            row *= pow(int(row[col]), -1, p)
            row %= p
        factors = a[:, col].copy()
        factors[rank] = 0
        a -= np.multiply.outer(factors, row)
        a %= p
        rank += 1
        col += 1
    return a[:rank]


def explore(field, r: int, bound: int, initial, letters, moves, state_cap: int):
    """Reachable span states; returns (bases, transition table).

    ``initial`` is the flattened start tuple of E entry polynomials in r
    variables, of total degree <= ``bound``.  ``moves[x]`` lists the
    (source entry, target entry, multiplier) triples of letter x: entry b of
    the image under section letter y is the sum over its triples (a, b, f)
    of section(entry a * f, y).  ``bases[i]`` is the echelon basis of state
    i, each row decoded back to a tuple of E polynomials.
    """
    p = field.p
    blocks = len(letters) * p**r
    coords = _coordinates(initial, moves, p, bound, math.isqrt(MAX_STEP_CELLS // blocks))
    width = len(coords)
    if not width:  # a zero start tuple spans the zero space, which maps to itself
        return [[]], [[0] * len(letters)]
    maps = dict(zip(letters, _step_matrices(coords, p, r, letters, moves)))

    start = np.zeros((1, width), dtype=np.int64)
    for i, (j, e) in enumerate(coords):
        start[0, i] = initial[j].terms.get(e, 0)

    def basis(key):
        return np.frombuffer(key, dtype=np.int64).reshape(-1, width)

    def delta(key, x):
        return _echelon((basis(key) @ maps[x] % p).reshape(-1, width), p).tobytes()

    keys, transitions = fsa.explore_dfa(
        letters, _echelon(start, p).tobytes(), delta, state_cap
    )

    # coords are sorted by entry, so each entry owns one slice of a row
    ends = [bisect.bisect_left(coords, (j,)) for j in range(len(initial) + 1)]
    slices = [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]
    polys = {}  # states share entries: one Poly per distinct coefficient vector

    def poly(entry, seg):
        key = (entry, tuple(seg))
        if key not in polys:
            monomials = coords[slices[entry]]
            polys[key] = Poly._raw(field, r, {e: c for (_, e), c in zip(monomials, seg) if c})
        return polys[key]

    def decode(key):
        return [tuple(poly(j, row[sl]) for j, sl in enumerate(slices)) for row in basis(key).tolist()]

    return [decode(key) for key in keys], transitions
