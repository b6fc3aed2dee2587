"""Sparse multivariate polynomials over a prime field F_p.

A polynomial in r variables is stored as a dict mapping exponent vectors
(length-r tuples of naturals) to nonzero coefficients in [1, p).  The ring
F_p[x_1..x_r] is the coefficient ring of everything else in this package,
so two characteristic-p identities get first-class support:

* Frobenius substitution.  Because the coefficients are fixed by x -> x^p,
  raising a polynomial to the p-th power equals substituting x_i^p for x_i,
  i.e. multiplying every exponent vector by p.

* Digit sections.  Every f decomposes uniquely as

      f = sum over y in [0,p)^r of  g_y(x^p) * x^y ,

  one summand per residue pattern y of the exponent vectors mod p.  The
  section by y extracts g_y: keep the terms whose exponents are congruent
  to y componentwise, subtract y, divide by p.  Sections are the inverse
  gear of Frobenius substitution and drop total degree by a factor of p,
  which is what makes the digit automata of the engine modules finite.

Multiplication is the sparse convolution of the term dicts, which suits the
polynomials of a few dozen terms that the engines multiply.
"""

from __future__ import annotations

import itertools

from .errors import StructureError

MINUS_INFINITY = float("-inf")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field F_p for a prime p.  Mostly a validated carrier of p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise StructureError(f"p must be an integer, got {p!r}")
        if not _is_prime(p):
            raise StructureError(f"{p} is not prime")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class Poly:
    """Immutable sparse polynomial over a :class:`PrimeField`.

    Supports +, -, *, ** and the characteristic-p operations
    :meth:`frobenius`, :meth:`section` and :meth:`section_word`.
    Instances hash by value, so they can key sets and dicts.
    """

    __slots__ = ("field", "num_vars", "terms", "_hash")

    def __init__(self, field: PrimeField, num_vars: int, terms=None):
        if num_vars < 0:
            raise StructureError("num_vars must be >= 0")
        p = field.p
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != num_vars:
                raise StructureError(
                    f"exponent vector {exps} has length {len(exps)}, expected {num_vars}"
                )
            if any(not isinstance(e, int) or e < 0 for e in exps):
                raise StructureError(f"exponents must be naturals, got {exps}")
            if not isinstance(coeff, int):
                raise StructureError(f"coefficients must be integers, got {coeff!r}")
            c = coeff % p
            if c:
                clean[exps] = (clean.get(exps, 0) + c) % p
                if not clean[exps]:
                    del clean[exps]
        self.field = field
        self.num_vars = num_vars
        self.terms = clean
        self._hash = None

    @classmethod
    def _raw(cls, field, num_vars, terms) -> "Poly":
        # Internal fast path: terms must already be canonical.
        self = object.__new__(cls)
        self.field = field
        self.num_vars = num_vars
        self.terms = terms
        self._hash = None
        return self

    @classmethod
    def zero(cls, field, num_vars) -> "Poly":
        return cls._raw(field, num_vars, {})

    @classmethod
    def one(cls, field, num_vars) -> "Poly":
        return cls.constant(field, num_vars, 1)

    @classmethod
    def constant(cls, field, num_vars, c: int) -> "Poly":
        c %= field.p
        zero_exp = (0,) * num_vars
        return cls._raw(field, num_vars, {zero_exp: c} if c else {})

    @classmethod
    def variable(cls, field, num_vars, index: int) -> "Poly":
        """The monomial x_{index} (0-based index)."""
        if not 0 <= index < num_vars:
            raise StructureError(f"variable index {index} out of range")
        exps = tuple(1 if i == index else 0 for i in range(num_vars))
        return cls._raw(field, num_vars, {exps: 1})

    def _check_compatible(self, other: "Poly"):
        if self.field != other.field or self.num_vars != other.num_vars:
            raise StructureError("polynomials over different rings")

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.field == other.field
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.field.p, self.num_vars, frozenset(self.terms.items()))
            )
        return self._hash

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly.constant(self.field, self.num_vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        p = self.field.p
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = (out.get(exps, 0) + c) % p
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return Poly._raw(self.field, self.num_vars, out)

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return Poly._raw(
            self.field, self.num_vars, {e: (-c) % p for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -Poly.constant(self.field, self.num_vars, other))

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.field.p
            if not c:
                return Poly.zero(self.field, self.num_vars)
            p = self.field.p
            return Poly._raw(
                self.field,
                self.num_vars,
                {e: (k * c) % p for e, k in self.terms.items()},
            )
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        p = self.field.p
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                s = (out.get(key, 0) + ca * cb) % p
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Poly._raw(self.field, self.num_vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, lambda: Poly.one(self.field, self.num_vars))

    def total_degree(self):
        """Max exponent sum, or MINUS_INFINITY for the zero polynomial."""
        if not self.terms:
            return MINUS_INFINITY
        return max(sum(e) for e in self.terms)

    def frobenius(self) -> "Poly":
        """f(x^p), which equals f**p since the coefficients live in F_p."""
        p = self.field.p
        return Poly._raw(
            self.field,
            self.num_vars,
            {tuple(v * p for v in e): c for e, c in self.terms.items()},
        )

    def section(self, y) -> "Poly":
        """Extract the digit section g_y with f = sum_y g_y(x^p) * x^y.

        ``y`` is a tuple of r digits in [0, p).  Terms whose exponents are
        congruent to y mod p (componentwise) survive; their exponents are
        shifted down by y and divided by p.  Total degree drops to at most
        floor(deg f / p).
        """
        y = self._check_digits(y)
        p = self.field.p
        out = {}
        for e, c in self.terms.items():
            if all((ei - yi) % p == 0 for ei, yi in zip(e, y)):
                out[tuple((ei - yi) // p for ei, yi in zip(e, y))] = c
        return Poly._raw(self.field, self.num_vars, out)

    def section_word(self, word) -> "Poly":
        """Iterated section along a word of digit tuples.

        Letters are consumed in storage order (least significant first), so
        the first letter's section is applied first.
        """
        f = self
        for y in word:
            f = f.section(y)
        return f

    def _check_digits(self, y) -> tuple:
        y = tuple(y)
        if len(y) != self.num_vars:
            raise StructureError(
                f"digit tuple {y} has length {len(y)}, expected {self.num_vars}"
            )
        if any(d < 0 or d >= self.field.p for d in y):
            raise StructureError(f"digits out of range [0, {self.field.p}): {y}")
        return y

    def evaluate(self, point) -> int:
        """Value at an integer point, reduced into [0, p)."""
        point = tuple(point)
        if len(point) != self.num_vars:
            raise StructureError("point arity mismatch")
        p = self.field.p
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v = v * pow(x % p, k, p) % p
            total = (total + v) % p
        return total

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({self.field.p}, {self.num_vars}, {format_poly(self)!r})"


def power(x, n: int, one):
    """x**n by square and multiply, for any ring element with ``*``.

    ``one()`` builds the ring's one; it is called only for n = 0, so a
    positive power pays exactly its squarings and multiplications.
    """
    if not isinstance(n, int) or n < 0:
        raise StructureError("exponent must be a natural number")
    if not n:
        return one()
    result = x
    for bit in bin(n)[3:]:  # from below the top bit
        result = result * result
        if bit == "1":
            result = result * x
    return result


def section_table(f: Poly) -> dict:
    """All nonzero sections of f, keyed by digit tuple.

    Absent keys mean the section is zero.  Reconstruction identity:
    f = sum over entries of value.frobenius() * x^key.
    """
    p = f.field.p
    out = {}
    for y in itertools.product(range(p), repeat=f.num_vars):
        g = f.section(y)
        if g:
            out[y] = g
    return out


def format_poly(f: Poly) -> str:
    """Canonical text form: "c:e1,e2,..," terms joined by " + ", zero is "0".

    Terms are sorted by exponent vector, descending lexicographically, so
    the output is unique per polynomial value.
    """
    if not f.terms:
        return "0"
    parts = []
    for exps in sorted(f.terms, reverse=True):
        parts.append(f"{f.terms[exps]}:" + ",".join(str(e) for e in exps))
    return " + ".join(parts)


def parse_int(text: str) -> int:
    """``int`` restricted to ASCII digits with an optional leading '-'."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an ASCII integer")
    return int(text)


def parse_poly(text: str, field: PrimeField, num_vars: int) -> Poly:
    """Inverse of :func:`format_poly`.

    Lenient about whitespace and non-canonical coefficients (they are
    reduced mod p and zero terms dropped), strict about arity and about
    digits (ASCII only, see :func:`parse_int`).
    """
    text = text.strip()
    if text == "0" or not text:
        return Poly.zero(field, num_vars)
    terms: dict = {}
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise StructureError("empty term in polynomial text")
        if chunk == "0":
            continue
        head, sep, tail = chunk.partition(":")
        if not sep:
            raise StructureError(f"term {chunk!r} is missing ':'")
        try:
            coeff = parse_int(head)
            exps = tuple(parse_int(e) for e in tail.split(",")) if tail else ()
        except ValueError as exc:
            raise StructureError(f"cannot parse term {chunk!r}") from exc
        if len(exps) != num_vars:
            raise StructureError(
                f"term {chunk!r} has {len(exps)} exponents, expected {num_vars}"
            )
        if any(e < 0 for e in exps):
            raise StructureError(f"negative exponent in {chunk!r}")
        terms[exps] = terms.get(exps, 0) + coeff
    return Poly(field, num_vars, terms)
