"""Base-p digit alphabets, words, and the tuple codecs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edesolver.digits import (
    MAX_LETTERS,
    DigitWord,
    alphabet,
    check_letter,
    count_words,
    digit_length,
    format_word,
)
from edesolver.errors import CapacityError, StructureError


def test_alphabet_small_cases():
    assert alphabet(2, 1) == ((0,), (1,))
    assert len(alphabet(2, 2)) == 4
    assert len(alphabet(3, 2)) == 9
    assert alphabet(3, 1) == ((0,), (1,), (2,))


@pytest.mark.parametrize("size", [2, 3, 9])
def test_count_words_sums_every_length_up_to_the_cap(size):
    for max_len in range(6):
        total = sum(size**l for l in range(max_len + 1))
        assert count_words(size, max_len, total) == total
        with pytest.raises(CapacityError, match=f"more than {total - 1} words") as exc:
            count_words(size, max_len, total - 1)
        assert exc.value.discovered == total
    with pytest.raises(CapacityError) as exc:
        count_words(size, 10**9, 1000)  # stops at the first length past the cap
    assert exc.value.discovered <= 1000 * size + 1


def test_alphabet_is_sorted_and_capped():
    letters = alphabet(3, 2)
    assert list(letters) == sorted(letters)
    with pytest.raises(CapacityError):
        alphabet(2, 13)  # 8192 > MAX_LETTERS
    assert len(alphabet(2, 12)) == MAX_LETTERS


def test_check_letter():
    assert check_letter([1, 0], 2, 2) == (1, 0)
    with pytest.raises(StructureError):
        check_letter((2,), 2, 1)
    with pytest.raises(StructureError):
        check_letter((0,), 2, 2)


def test_digit_length():
    assert digit_length(0, 2) == 0
    assert digit_length(1, 2) == 1
    assert digit_length(8, 2) == 4
    assert digit_length(8, 3) == 2


def test_decode_examples():
    assert DigitWord(2, 1, ()).decode() == (0,)
    assert DigitWord(2, 1, ((1,), (0,))).decode() == (1,)
    assert DigitWord(3, 2, ((1, 2), (2, 0))).decode() == (7, 2)


def test_encode_examples():
    assert DigitWord.encode((0,), 2, 1, length=0) == DigitWord(2, 1, ())
    assert DigitWord.encode((5,), 2, 1, length=3) == DigitWord(2, 1, ((1,), (0,), (1,)))
    assert DigitWord.encode((7, 2), 3, 2, length=2) == DigitWord(3, 2, ((1, 2), (2, 0)))


def test_encode_minimal_length_default():
    assert len(DigitWord.encode((5,), 2, 1)) == 3
    assert len(DigitWord.encode((0, 0), 2, 2)) == 0
    assert len(DigitWord.encode((4, 1), 2, 2)) == 3


def test_encode_rejects_short_length():
    with pytest.raises(StructureError):
        DigitWord.encode((5,), 2, 1, length=2)
    with pytest.raises(StructureError):
        DigitWord.encode((-1,), 2, 1)


def test_word_validation():
    with pytest.raises(StructureError):
        DigitWord(2, 1, ((2,),))
    with pytest.raises(StructureError):
        DigitWord(2, 2, ((0,),))


def test_with_tail_letter_is_most_significant():
    w = DigitWord(2, 1, ((1,),))
    padded = w.with_tail_letter((0,))
    assert padded.letters == ((1,), (0,))
    assert padded.decode() == w.decode()
    grown = w.with_tail_letter((1,))
    assert grown.decode() == (3,)


def test_text_format():
    w = DigitWord(3, 2, ((1, 2), (2, 0)))
    assert format_word(w) == "1,2;2,0"
    assert str(w) == "1,2;2,0"


@st.composite
def tuples_with_shape(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    w = draw(st.integers(1, 3))
    values = tuple(draw(st.integers(0, 200)) for _ in range(w))
    return p, w, values


@settings(max_examples=100)
@given(tuples_with_shape())
def test_decode_encode_round_trip(shape):
    p, w, values = shape
    assert DigitWord.encode(values, p, w).decode() == values


@settings(max_examples=100)
@given(tuples_with_shape(), st.integers(0, 3))
def test_zero_padding_never_changes_the_value(shape, pad):
    p, w, values = shape
    word = DigitWord.encode(values, p, w)
    for _ in range(pad):
        word = word.with_tail_letter((0,) * w)
    assert word.decode() == values
