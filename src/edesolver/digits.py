"""Base-p digit words encoding tuples of naturals.

A letter is a width-w tuple of digits in [0, p); a word is a sequence of
letters stored least-significant first, so letter j carries the p^j digit
of every component.  The empty word decodes to the zero tuple, and
appending zero letters at the tail never changes the decoded value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapacityError, StructureError

MAX_LETTERS = 4096


def alphabet(p: int, width: int) -> tuple:
    """All p^width letters in ascending lexicographic order."""
    if p < 2 or width < 1:
        raise StructureError("need p >= 2 and width >= 1")
    if p**width > MAX_LETTERS:
        raise CapacityError(
            f"alphabet of {p}^{width} letters exceeds cap {MAX_LETTERS}",
            discovered=p**width,
        )
    return tuple(itertools.product(range(p), repeat=width))


def count_words(size: int, max_len: int, cap: int) -> int:
    """The number of words of length <= max_len over ``size`` >= 2 letters.

    Raises CapacityError at the first length that takes the count past
    ``cap``, so a huge max_len costs no more than the cap does.
    """
    total, level = 0, 1
    for _ in range(max_len + 1):
        total += level
        if total > cap:
            raise CapacityError(f"more than {cap} words up to length {max_len}", discovered=total)
        level *= size
    return total


def check_letter(letter, p: int, width: int) -> tuple:
    letter = tuple(letter)
    if len(letter) != width:
        raise StructureError(f"letter {letter} has width {len(letter)}, expected {width}")
    if any(d < 0 or d >= p for d in letter):
        raise StructureError(f"letter {letter} has digits outside [0, {p})")
    return letter


def digit_length(value: int, p: int) -> int:
    """Number of base-p digits of a natural (0 needs none)."""
    if value < 0:
        raise StructureError("negative value")
    n = 0
    while value:
        value //= p
        n += 1
    return n


@dataclass(frozen=True)
class DigitWord:
    """A word over the width-w digit alphabet, least significant letter first."""

    p: int
    width: int
    letters: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "letters",
            tuple(check_letter(l, self.p, self.width) for l in self.letters),
        )

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def decode(self) -> tuple:
        """The tuple of naturals this word spells."""
        values = [0] * self.width
        weight = 1
        for letter in self.letters:
            for i, d in enumerate(letter):
                values[i] += d * weight
            weight *= self.p
        return tuple(values)

    @classmethod
    def encode(cls, values, p: int, width: int, length: int | None = None) -> "DigitWord":
        """Word spelling ``values``; ``length`` pads with zero letters.

        With ``length=None`` the minimal length is used.  An explicit
        ``length`` below the minimal one raises.
        """
        values = tuple(values)
        if len(values) != width:
            raise StructureError(f"expected {width} components, got {len(values)}")
        if any(v < 0 for v in values):
            raise StructureError("components must be naturals")
        need = max((digit_length(v, p) for v in values), default=0)
        if length is None:
            length = need
        elif length < need:
            raise StructureError(f"length {length} cannot hold {values} in base {p}")
        letters = []
        rest = list(values)
        for _ in range(length):
            letters.append(tuple(v % p for v in rest))
            rest = [v // p for v in rest]
        return cls(p, width, tuple(letters))

    def with_tail_letter(self, letter) -> "DigitWord":
        """Append one letter at the most significant end."""
        return DigitWord(self.p, self.width, self.letters + (tuple(letter),))

    def __str__(self):
        return format_word(self)


def format_word(word: DigitWord) -> str:
    """Text form "d,d;d,d" with ';' between letters; the empty word is ""."""
    return ";".join(",".join(str(d) for d in letter) for letter in word.letters)
