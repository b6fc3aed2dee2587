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
reaches from the supports of the start rows, which every reachable span
lives in.  They lie in the box of total degree <= N, the degree bound,
which the step maps into itself, so a coordinate outside it is a bug and
raises.  One breadth-first pass finds them and, as it reaches each one,
emits the cells of its row of the step maps below.

Step maps.  The caller gives the multipliers of every digit letter x,
keyed by x in alphabet order, and the engine reads its alphabet from
those keys.  For each x one matrix over F_p holds the
images under every section letter side by side: the row vector v times
L_x, cut into p^r blocks of the coordinate width, lists the p^r images of v.
Column (y, entry b, monomial g) of row (entry a, monomial e) is read off the
multiplier terms directly: a term c*x^u of the multiplier from entry a to
entry b sends x^e to c*x^g with y = (e + u) mod p and g = (e + u) div p.

Several equations.  A system (see :mod:`systems`) lays the entries of its
equations side by side (``scalar.span_layout``; one equation is the case
of one), so its step maps are block-diagonal and one
exploration decides all equations at once.  Its start depends on the
first letter: a pre-initial state (key None) sends letter d to the span of
the start rows for d, one row per equation.

Acceptance.  Every caller gives entry groups, one per equation and matrix
entry: a row accepts when, within every group, the entries sum to zero
monomial by monomial, that is when it lies in the kernel of the 0/1
matrix A summing each group's entries at each monomial.

States.  A state is the reduced row-echelon basis of its span; the
successor under x is the echelon form of the stacked images of the basis
rows.  The echelon form is canonical, so both representations below give
the same states in the same order.

Over F_2 a row is one Python int, column j at bit width - 1 - j, so the
leading column is the top bit.  L_x is a list of width ints of 2^r * width
bits; the image of a row is the XOR of the entries at its set bits, and
section letter y owns one width-bit lane of it.  Elimination is XOR, and
the key is one int: the echelon rows in consecutive width-bit lanes.  It is
not a tuple of row ints: CPython keeps freed tuples of each small length on
freelists (up to 2000 per length) that only a full collection empties, and
tuple keys raised the peak memory of a matrix-suite benchmark run by about
1.7 MB (5 %).  A row accepts when it meets every column of A, as a mask, in
an even number of bits.

For p > 2 the key is the bytes of the basis as a numpy int64 matrix.
Products are reduced mod p after every product; a product sums at most
width * (p-1)^2, which the cap on step-matrix cells (width^2 * p^r per
letter) keeps below 2^60.  Spans are small (tens of coordinates), so the
elimination runs on Python lists.
"""

from __future__ import annotations

import bisect
import functools

import numpy as np

from . import fsa
from .errors import CapacityError
from .gfpoly import Poly

# Largest number of step-matrix cells (over all letters) one build may allocate.
MAX_STEP_CELLS = 1 << 24


def _setup(rows, moves, p: int, r: int, bound: int) -> tuple:
    """(coords, index, cells): the coordinates and the terms of every L_x, in one pass.

    ``coords`` lists, sorted, the (entry, exponent vector) pairs reachable
    from the start rows' supports, and ``index`` maps each to its position.
    The breadth-first pass that finds them emits the cells of each one as it
    reaches it: (letter, row, column, coefficient), row i a coordinate and
    column y * width + j the coordinate j of section letter y.  A cell may
    repeat: its coefficients add up.  Raises CapacityError once the dense
    step maps of the coordinates seen, letters * p^r * width^2 cells, would
    pass MAX_STEP_CELLS.
    """
    out_of = {}  # source entry -> (letter, target entry, multiplier)
    for l, triples in enumerate(moves.values()):
        for a, b, f in triples:
            out_of.setdefault(a, []).append((l, b, f))
    weights = [p ** (r - 1 - k) for k in range(r)]
    seen = {(j, e) for row in rows for j, f in enumerate(row) for e in f.terms}
    frontier = list(seen)
    found = []  # (letter, source, section letter, target, coefficient)
    while frontier:
        grown = []
        for a, e in frontier:
            if sum(e) > bound:
                raise RuntimeError(f"coordinate {e} leaves the degree box of bound {bound}")
            for l, b, f in out_of.get(a, ()):
                for u, c in f.terms.items():
                    total = [ei + ui for ei, ui in zip(e, u)]
                    target = (b, tuple(v // p for v in total))
                    found.append((l, (a, e), sum(w * (v % p) for w, v in zip(weights, total)), target, c))
                    if target not in seen:
                        seen.add(target)
                        grown.append(target)
        width = len(seen)
        cells = len(moves) * p**r * width * width
        if cells > MAX_STEP_CELLS:
            raise CapacityError(
                f"{width} coordinates reachable: their step maps need {len(moves)} letters x "
                f"{p}^{r} sections x {width}^2 = {cells} cells, over the cap of {MAX_STEP_CELLS}",
                discovered=width,
            )
        frontier = grown
    coords = sorted(seen)
    index = {c: i for i, c in enumerate(coords)}
    width = len(coords)
    return coords, index, [(l, index[i], y * width + index[j], c) for l, i, y, j, c in found]


def _step_matrices(cells, width: int, p: int, r: int, num_letters: int):
    """L_x for every letter x: rows are coordinates, columns (section letter, coordinate)."""
    out = np.zeros((num_letters, width, p**r * width), dtype=np.int64)
    cells = np.array(cells, dtype=np.int64).reshape(-1, 4)
    np.add.at(out, tuple(cells[:, :3].T), cells[:, 3])
    return out % p


def _packed_step_maps(cells, width: int, r: int, num_letters: int):
    """L_x over F_2 for every letter x, one int per coordinate.

    Entry b of a letter's list is the image of the row whose only set bit is
    b, that is of coordinate width - 1 - b; column J of the dense L_x is its
    bit 2^r * width - 1 - J, so section letter y fills one width-bit lane.
    """
    top = 2**r * width - 1
    maps = [[0] * width for _ in range(num_letters)]
    for l, i, col, _ in cells:  # every coefficient is 1
        maps[l][width - 1 - i] ^= 1 << (top - col)
    return maps


def _image(row: int, step: list) -> int:
    """The image of a packed row under a packed step map: XOR over its set bits."""
    out = 0
    while row:
        low = row & -row
        out ^= step[low.bit_length() - 1]
        row ^= low
    return out


def _xor_echelon(rows, width: int) -> int:
    """Reduced row-echelon form over F_2 of packed rows, as one key.

    The nonzero echelon rows, leading column (top bit) first, fill
    consecutive width-bit lanes of the key from the top lane down.
    """
    pivots = {}  # leading bit -> row
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = row
                break
            row ^= prow
    leads = sorted(pivots)
    used = 0  # the leading bits below the current one; their rows are reduced
    for lead in leads:
        row = pivots[lead]
        hits = row & used
        while hits:
            bit = hits.bit_length() - 1
            row ^= pivots[bit]
            hits ^= 1 << bit
        pivots[lead] = row
        used |= 1 << lead
    key = 0
    for lead in reversed(leads):
        key = key << width | pivots[lead]
    return key


def _unpack(key: int, width: int) -> list:
    """The echelon rows of a packed key, leading column first."""
    mask = (1 << width) - 1
    count = -(-key.bit_length() // width) if key else 0
    return [key >> (width * k) & mask for k in range(count - 1, -1, -1)]


def _echelon(a, p: int):
    """Reduced row-echelon form of ``a`` mod p with the zero rows dropped."""
    width = a.shape[1]
    pivots = {}  # pivot column -> row; each row is zero in the other pivot columns
    for row in a.tolist():
        for col, prow in pivots.items():
            c = row[col]
            if c:
                row = [(v - c * w) % p for v, w in zip(row, prow)]
        c = next(filter(None, row), 0)
        if not c:
            continue
        lead = row.index(c)
        if c != 1:
            inv = pow(c, -1, p)
            row = [v * inv % p for v in row]
        for col, prow in pivots.items():
            c = prow[lead]
            if c:
                pivots[col] = [(v - c * w) % p for v, w in zip(prow, row)]
        pivots[lead] = row
        if len(pivots) == width:
            break
    return np.array([pivots[col] for col in sorted(pivots)], dtype=np.int64).reshape(len(pivots), width)


def explore(field, r: int, bound: int, starts, moves, state_cap: int, accept):
    """Reachable span states; returns (finals, transitions, bases).

    A start row is a flattened tuple of E entry polynomials in r variables,
    of total degree <= ``bound``.  ``starts`` lists the start rows whose
    span is the initial state, or maps every letter to such a list: then
    state 0 is a pre-initial state (key None) whose successor under letter
    d is the span of ``starts[d]``.  The keys of ``moves`` are the letters,
    in order, and ``moves[x]`` lists the (source entry, target entry,
    multiplier) triples of letter x: entry b of the image under section
    letter y is the sum over its triples (a, b, f) of section(entry a * f, y).
    ``accept`` maps each entry to its acceptance group.

    ``finals`` holds the states whose rows sum to zero within every group
    (the pre-initial state is never among them: the empty word is the
    caller's to decide).  ``bases`` lazily yields the echelon basis of each
    state, each row decoded back to a tuple of E polynomials, so only one
    state's decoded rows are alive at a time (None for the pre-initial
    state).
    """
    p = field.p
    letters = tuple(moves)
    dispatch = isinstance(starts, dict)
    sections = p**r
    coords, index, cells = _setup(
        [row for d in letters for row in starts[d]] if dispatch else starts, moves, p, r, bound
    )
    width = len(coords)

    cols = {}  # column k of A sums one acceptance group at one monomial
    column_of = [cols.setdefault((accept[j], e), len(cols)) for j, e in coords]

    if p == 2:
        maps = dict(zip(letters, _packed_step_maps(cells, width, r, len(letters))))
        lane = (1 << width) - 1
        shifts = [width * (sections - 1 - y) for y in range(sections)]

        def span_of(start_rows):  # every coefficient is 1
            return _xor_echelon(
                [sum(1 << (width - 1 - index[j, e]) for j, f in enumerate(row) for e in f.terms) for row in start_rows],
                width,
            )

        @functools.lru_cache(maxsize=1)
        def rows_of(key):  # explore_dfa steps one key by every letter in a row
            return _unpack(key, width)

        def step(key, x):
            step_map = maps[x]
            images = [_image(row, step_map) for row in rows_of(key)]
            return _xor_echelon([image >> shift & lane for image in images for shift in shifts], width)

        def basis(key):
            return [[row >> (width - 1 - j) & 1 for j in range(width)] for row in _unpack(key, width)]

        masks = [0] * len(cols)  # the 1s of each column of A
        for i, k in enumerate(column_of):
            masks[k] |= 1 << (width - 1 - i)

        def accepting(key):
            return not any((row & mask).bit_count() & 1 for row in _unpack(key, width) for mask in masks)
    else:
        maps = dict(zip(letters, _step_matrices(cells, width, p, r, len(letters))))

        def span_of(start_rows):
            a = np.zeros((len(start_rows), width), dtype=np.int64)
            for k, row in enumerate(start_rows):
                for j, f in enumerate(row):
                    for e, c in f.terms.items():
                        a[k, index[j, e]] = c
            return _echelon(a, p).tobytes()

        def matrix(key):
            if not width:  # all starts are zero: every state is the zero space
                return np.zeros((0, 0), dtype=np.int64)
            return np.frombuffer(key, dtype=np.int64).reshape(-1, width)

        def step(key, x):
            b = matrix(key)
            return _echelon((b @ maps[x] % p).reshape(len(b) * sections, width), p).tobytes()

        def basis(key):
            return matrix(key).tolist()

        sums = np.eye(len(cols), dtype=np.int64)[column_of]  # A: row i is the unit vector of its column

        def accepting(key):
            return not (matrix(key) @ sums % p).any()

    def delta(key, x):
        return first[x] if key is None else step(key, x)

    first = {d: span_of(starts[d]) for d in letters} if dispatch else None
    initial = None if dispatch else span_of(starts)
    keys, transitions = fsa.explore_dfa(letters, initial, delta, state_cap)
    finals = {i for i, key in enumerate(keys) if key is not None and accepting(key)}

    # coords are sorted by entry, so each entry owns one slice of a row
    ends = [bisect.bisect_left(coords, (j,)) for j in range(len(accept) + 1)]
    slices = [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]
    polys = {}  # states share entries: one Poly per distinct coefficient vector

    def poly(entry, seg):
        key = (entry, tuple(seg))
        if key not in polys:
            monomials = coords[slices[entry]]
            polys[key] = Poly._raw(field, r, {e: c for (_, e), c in zip(monomials, seg) if c})
        return polys[key]

    def decode(key):
        return [tuple(poly(j, row[sl]) for j, sl in enumerate(slices)) for row in basis(key)]

    return finals, transitions, (None if key is None else decode(key) for key in keys)
