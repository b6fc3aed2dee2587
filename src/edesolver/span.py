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
lives in.  They lie in the box of total degree <= N, the caller's degree
bound N0, which the step maps into itself, widened to the degrees of the
start rows, so a coordinate outside it is a bug and raises.  One queue,
grown as new coordinates are reached, finds them and sums the terms of
each one's row of the step maps below.  Coordinate i is the i-th the queue
reaches, the start coordinates first: a state is its span, so any fixed
order gives the same automaton.  The cell cap is checked on the start
coordinates and at every new one, so a spec over it is refused before the
terms pile up.

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
the start rows for d, one row per equation.  It accepts when the zero
letter's span does: by zero padding, the empty word and the word of one
zero letter spell the same tuple.

Acceptance.  Every caller gives entry groups, one per equation and matrix
entry: a row accepts when, within every group, the entries sum to zero
monomial by monomial, that is when it lies in the kernel of the 0/1
matrix A summing each group's entries at each monomial.  A is packed as a
step map is: coordinate i is sent to the field of its column (group,
monomial), so a row accepts when its image under A is zero, and a span
when every row of its basis does.

States.  A state is the reduced row-echelon basis of its span; the
successor under x is the echelon form of the stacked images of the basis
rows.  The echelon form is canonical, so equal spans get equal keys.  The
exploration (``fsa.explore_dfa``) asks for all successors of a state at
once, so its key is read back to rows once for every letter.  An image
is cut into its section lanes by one shift each, up to its highest
nonzero lane: the zero lanes above it would give zero rows.

Rows.  A row is one Python int: coordinate i holds the b-bit field at
bits b * i, so the leading column is the highest nonzero field and comes
from ``bit_length``.  Over F_2 b = 1.  For odd p the top bit of every field
is a guard, and b is chosen from p and the width so that every unreduced
sum the kernels form fits below it (:func:`_field_bits`).  L_x is a list of
width ints of p^r * width fields: the image of a row is the sum of its
coefficients times the images of its coordinates, and section letter y owns
lane y of width fields, so an image is only as wide as its highest nonzero
lane.  Over F_2 the sum and the elimination are XOR.  For odd p a row add
is one integer add, and reducing mod p is a SWAR (SIMD within a register)
ladder that subtracts p * 2^j from every field at or above it, largest j
first (:func:`_reducer`).  The key is the bytes of the echelon rows,
leading column first, width * b // 8 + 1 little-endian bytes each: one join
writes it, one pass of slices reads it.  Keys that pack nothing cost
memory: through CPython's per-length tuple freelists a tuple of row ints
raised the peak RSS of a matrix-suite benchmark run from 31.9 to 34.2 MB,
and a frozenset of them takes about 1.7 KB more per state.
:func:`_kernels` picks the image and echelon kernels of each prime; the
image kernel serves both the steps and the acceptance test.
"""

from __future__ import annotations

import functools

from . import fsa
from .errors import CapacityError
from .gfpoly import Poly

# Largest number of step-matrix cells (over all letters) one build may hold:
# the packed maps take width ints of p^r * width fields per letter.
MAX_STEP_CELLS = 1 << 24


def _check_cells(letters: int, p: int, r: int, width: int):
    """Raise CapacityError once letters * p^r * width^2 step-map cells pass MAX_STEP_CELLS."""
    if letters * p**r * width * width > MAX_STEP_CELLS:
        raise CapacityError(
            f"{width} coordinates reachable: their step maps need {letters} letters x "
            f"{p}^{r} sections x {width}^2 cells, over the cap of {MAX_STEP_CELLS}",
            discovered=width,
        )


def start_coords(rows, letters: int, p: int, r: int) -> list:
    """The start rows' coordinates in row order; checks the cell cap before any multiplier is needed."""
    coords = list(dict.fromkeys((j, e) for row in rows for j, f in enumerate(row) for e in f.terms))
    _check_cells(letters, p, r, len(coords))
    return coords


def _setup(rows, moves, p: int, r: int, bound: int) -> tuple:
    """(coords, index, terms): the coordinates and the terms of every L_x, in one pass.

    ``coords`` lists the (entry, exponent vector) pairs reachable from the
    start rows' supports, numbered in the order one queue first reaches
    them, the start coordinates first in row order, and ``index`` maps each
    to its number.  The queue grows as new coordinates are reached, and for
    each coordinate i it takes, every multiplier term adds its coefficient
    to ``terms[l][i, y, j]``: letter l sends coordinate i to that multiple
    of coordinate j under section letter y.  The sums are not reduced mod p.
    The degree box is widened to the degrees of the start rows.  The cell
    cap (:func:`_check_cells`) is checked on the start coordinates and at
    each new one.
    """
    out_of = {}  # source entry -> (letter, target entry, multiplier)
    for l, triples in enumerate(moves.values()):
        for a, b, f in triples:
            out_of.setdefault(a, []).append((l, b, f))
    coords = start_coords(rows, len(moves), p, r)
    index = {c: i for i, c in enumerate(coords)}
    bound = max([bound, *(sum(e) for _, e in coords)])
    terms = [{} for _ in moves]
    for i, (a, e) in enumerate(coords):  # the loop walks the queue as it grows
        if sum(e) > bound:
            raise RuntimeError(f"coordinate {e} leaves the degree box of bound {bound}")
        for l, b, f in out_of.get(a, ()):
            for u, c in f.terms.items():
                total = [ei + ui for ei, ui in zip(e, u)]
                target = (b, tuple(v // p for v in total))
                j = index.get(target)
                if j is None:
                    j = index[target] = len(coords)
                    coords.append(target)
                    _check_cells(len(moves), p, r, len(coords))
                y = 0  # the section letter, by Horner's rule over the exponents
                for v in total:
                    y = y * p + v % p
                term = (i, y, j)
                terms[l][term] = terms[l].get(term, 0) + c
    return coords, index, terms


def _field_bits(p: int, width: int) -> int:
    """Bits b of one coordinate's field in a packed row of ``width`` coordinates.

    Over F_2 a field is one bit.  For odd p a field keeps its values below
    2^(b-1), its top bit a guard for :func:`_reducer`, and b is the least
    that holds the largest unreduced sum a kernel forms, (p-1) + width*(p-1)^2:
    a reduced row with up to width pivot rows added, each at most p - 1
    times.  That also covers an image, at most width*(p-1)^2, and so an
    image under A, whose fields sum at most width*(p-1).
    """
    return 1 if p == 2 else ((p - 1) * (1 + width * (p - 1))).bit_length() + 1


def _reducer(p: int, b: int, count: int):
    """reduce(x, top): x with each of its ``count`` b-bit fields, all at most top, taken mod p.

    The SWAR form of ``oracle._reduce``: for m = p * 2^j, largest first,
    subtract m from every field at or above it.  Setting every field's guard
    bit before subtracting m from all fields at once keeps the borrows inside
    the fields, and a guard bit survives exactly where its field was at
    least m.
    """
    ones = ((1 << count * b) - 1) // ((1 << b) - 1)  # 1 in every field
    guard = ones << (b - 1)
    ladder = []  # (m, m in every field), largest m first
    m = p
    while m >> (b - 1) == 0:
        ladder.insert(0, (m, m * ones))
        m <<= 1
    # the steps for a top of bit length k in units of p: the last k of the ladder
    tails = [ladder[len(ladder) - k:] for k in range(len(ladder) + 1)]

    def reduce(x: int, top: int) -> int:
        for m, spread in tails[(top // p).bit_length()]:
            hits = ((x | guard) - spread) & guard
            if hits:
                x -= (hits >> (b - 1)) * m
        return x

    return reduce


def _step_maps(p: int, b: int, width: int, terms) -> list:
    """L_x for every letter x of :func:`_setup`'s terms, one packed int per coordinate.

    Entry i of a letter's list is the image of coordinate i: term (i, y, j)
    puts its coefficient, mod p, in field y * width + j, so section letter y
    fills lane y of width fields.
    """
    maps = []
    for letter in terms:
        images = [0] * width
        for (i, y, j), c in letter.items():
            images[i] += c % p << (y * width + j) * b
        maps.append(images)
    return maps


def _image(row: int, step: list) -> int:
    """The image of a packed row over F_2: XOR over its set bits."""
    out = 0
    while row:
        low = row & -row
        out ^= step[low.bit_length() - 1]
        row ^= low
    return out


def _mod_image(p: int, b: int, reduce, row: int, step: list) -> int:
    """The image of a packed row over odd p: the sum of c * image over its fields c, reduced."""
    out = count = 0
    while row:
        f = (row.bit_length() - 1) // b
        c = row >> f * b  # the top field
        out += c * step[f]
        row -= c << f * b
        count += 1
    return reduce(out, count * (p - 1) ** 2)


def _xor_echelon(width: int, rows) -> bytes:
    """Reduced row-echelon form over F_2 of packed rows, as one key.

    The key joins the nonzero echelon rows, leading column (top bit) first,
    each in width // 8 + 1 little-endian bytes.
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
    return b"".join([pivots[lead].to_bytes(width // 8 + 1, "little") for lead in reversed(leads)])


def _mod_echelon(p: int, b: int, reduce, width: int, rows) -> bytes:
    """Reduced row-echelon form over odd p of packed rows (fields below p), as one key.

    Each pivot row is reduced and scaled to 1 in its leading field (the top
    nonzero one).  A row meets the pivots unreduced: clearing field f of
    value v with c = v mod p adds (p - c) times the pivot of f and drops the
    multiple of p left in f, and a field that holds a multiple of p is
    dropped as it comes.  The lead falls with every step, so the fields stay
    below (p-1) + width*(p-1)^2.  The key joins the nonzero echelon rows,
    leading column first, each in width*b // 8 + 1 little-endian bytes.
    """
    pivots = {}  # leading field -> row
    for row in rows:
        steps = 0  # pivot rows added since the row was reduced
        while row:
            lead = (row.bit_length() - 1) // b
            v = row >> lead * b
            c = v % p
            if not c:
                row -= v << lead * b
                continue
            prow = pivots.get(lead)
            if prow is None:
                row = reduce(row, (p - 1) * (1 + steps * (p - 1)))
                pivots[lead] = row if c == 1 else reduce(row * pow(c, -1, p), (p - 1) ** 2)
                break
            row += (p - c) * prow - ((v + p - c) << lead * b)
            steps += 1
    leads = sorted(pivots)
    mask = (1 << b) - 1
    for k, lead in enumerate(leads):
        # the pivot rows below are reduced and zero in each other's leading
        # fields, so every coefficient to clear is read off the row as it came
        row = pivots[lead]
        steps = 0
        for low in leads[:k]:
            c = row >> low * b & mask
            if c:
                row += (p - c) * pivots[low]
                steps += 1
        if steps:
            pivots[lead] = reduce(row, (p - 1) * (1 + steps * (p - 1)))
    return b"".join([pivots[lead].to_bytes(width * b // 8 + 1, "little") for lead in reversed(leads)])


def _kernels(p: int, width: int, sections: int) -> tuple:
    """(b, image, echelon) for packed rows of ``width`` coordinates over F_p.

    ``image(row, step_map)`` is the packed image of a row under one of
    :func:`_step_maps`' L_x, section letter y in lane y of width*b bits, or
    under the acceptance map of :func:`explore`; ``echelon(rows)`` is the
    key of the span of packed rows.  F_2 takes the XOR kernels, with b = 1.
    """
    b = _field_bits(p, width)
    if p == 2:
        return b, _image, functools.partial(_xor_echelon, width)
    image = functools.partial(_mod_image, p, b, _reducer(p, b, sections * width))
    return b, image, functools.partial(_mod_echelon, p, b, _reducer(p, b, width), width)


def _unpack(key: bytes, lane: int) -> list:
    """The echelon rows of a key, leading column first, for rows of ``lane`` bits."""
    size = lane // 8 + 1
    return [int.from_bytes(key[s:s + size], "little") for s in range(0, len(key), size)]


def explore(field, r: int, bound: int, starts, moves, state_cap: int, accept):
    """Reachable span states; returns (finals, transitions, bases).

    A start row is a flattened tuple of E entry polynomials in r variables.
    ``bound`` is the degree N0 the step maps into itself; the box is widened
    to the degrees of the start rows.  ``starts`` lists the start rows whose
    span is the initial state, or maps every letter to such a list: then
    state 0 is a pre-initial state (key None) whose successor under letter
    d is the span of ``starts[d]``.  The keys of ``moves`` are the letters,
    in order, and ``moves[x]`` lists the (source entry, target entry,
    multiplier) triples of letter x: entry b of the image under section
    letter y is the sum over its triples (a, b, f) of section(entry a * f, y).
    ``accept`` maps each entry to its acceptance group.

    ``finals`` holds the states whose rows sum to zero within every group.
    The pre-initial state takes the verdict of the zero letter's span: by
    zero padding, the empty word and the word of one zero letter spell the
    same tuple.  ``bases`` lazily yields the echelon basis of each state,
    each row decoded back to a tuple of E polynomials, so only one state's
    decoded rows are alive at a time (None for the pre-initial state).
    """
    p = field.p
    letters = tuple(moves)
    dispatch = isinstance(starts, dict)
    coords, index, terms = _setup(
        [row for d in letters for row in starts[d]] if dispatch else starts, moves, p, r, bound
    )
    width = len(coords)
    b, image, echelon = _kernels(p, width, p**r)
    maps = _step_maps(p, b, width, terms)
    lane = width * b  # the bits of one row
    field_mask, row_mask = (1 << b) - 1, (1 << lane) - 1
    columns = {}  # column (group, monomial) of A -> its index
    amap = [1 << b * columns.setdefault((accept[j], e), len(columns)) for j, e in coords]

    def pack(row):  # a start row: each coefficient in its coordinate's field
        return sum(c << b * index[j, e] for j, f in enumerate(row) for e, c in f.terms.items())

    def span_of(start_rows):
        return echelon([pack(row) for row in start_rows])

    def step(rows, step_map):  # the images, cut into lanes up to their highest nonzero one
        images = [image(row, step_map) for row in rows]
        return echelon([im >> s & row_mask for im in images for s in range(0, im.bit_length(), lane)])

    def successors(key):  # the key is read back once for every letter
        if key is None:
            return first
        rows = _unpack(key, lane)
        return [step(rows, step_map) for step_map in maps]

    def decode(key):
        out = []
        for row in _unpack(key, lane):
            entries = [{} for _ in accept]
            for i, (j, e) in enumerate(coords):
                c = row >> b * i & field_mask
                if c:
                    entries[j][e] = c
            out.append(tuple(Poly._raw(field, r, t) for t in entries))
        return out

    first = [span_of(starts[d]) for d in letters] if dispatch else None
    keys, transitions = fsa.explore_dfa(None if dispatch else span_of(starts), successors, state_cap)
    finals = {
        i for i, key in enumerate(keys)
        if not any(image(row, amap) for row in _unpack(first[0] if key is None else key, lane))
    }
    return finals, transitions, (None if key is None else decode(key) for key in keys)
