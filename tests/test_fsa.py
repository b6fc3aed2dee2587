"""Automaton algebra: products, prefixing, queries, exports."""

import itertools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edesolver.digits import DigitWord, alphabet
from edesolver.errors import AlphabetError, CapacityError, StructureError
from edesolver.fsa import DEFAULT_STATE_CAP, Automaton, explore_dfa


def all_accepting(p=2, t=1):
    k = len(alphabet(p, t))
    return Automaton(p, t, ["all"], [[0] * k], 0, {0})


def empty_language(p=2, t=1):
    k = len(alphabet(p, t))
    return Automaton(p, t, ["dead"], [[0] * k], 0, set())


def first_letter(letter, p=2, t=1):
    """Accepts exactly the words whose first (least significant) letter is the given one."""
    letters = alphabet(p, t)
    idx = letters.index(tuple(letter))
    # 0 = start, 1 = accept, 2 = sink
    start_row = [2] * len(letters)
    start_row[idx] = 1
    return Automaton(
        p, t, ["start", "hit", "sink"],
        [start_row, [1] * len(letters), [2] * len(letters)],
        0, {1},
    )


def lambda_only(p=2, t=1):
    k = len(alphabet(p, t))
    return Automaton(p, t, ["empty-word", "sink"], [[1] * k, [1] * k], 0, {0})


def words_up_to(p, t, max_len):
    letters = alphabet(p, t)
    for length in range(max_len + 1):
        for combo in itertools.product(letters, repeat=length):
            yield DigitWord(p, t, combo)


# ------------------------------------------------------------------ queries

def test_accepts_lambda_means_initial_final():
    assert all_accepting().accepts(DigitWord(2, 1, ()))
    assert not empty_language().accepts(DigitWord(2, 1, ()))


def test_single_state_all_final_accepts_everything():
    a = all_accepting(3, 2)
    for w in words_up_to(3, 2, 2):
        assert a.accepts(w)


def test_first_letter_machine():
    a = first_letter((1,))
    assert a.accepts(DigitWord(2, 1, ((1,), (0,))))
    assert a.accepts(DigitWord(2, 1, ((1,),)))
    assert not a.accepts(DigitWord(2, 1, ((0,), (1,))))
    assert not a.accepts(DigitWord(2, 1, ()))


def test_foreign_letters_rejected():
    a = all_accepting(2, 1)
    with pytest.raises(AlphabetError):
        a.accepts([(2,)])
    with pytest.raises(AlphabetError):
        a.accepts(DigitWord(3, 1, ((2,),)))
    with pytest.raises(AlphabetError):
        a.accepts(DigitWord(2, 2, ((0, 0),)))


def test_validation():
    with pytest.raises(StructureError):
        Automaton(2, 1, ["a"], [[0]], 0, {0})  # row too narrow
    with pytest.raises(StructureError):
        Automaton(2, 1, ["a"], [[0, 1]], 0, {0})  # target out of range
    with pytest.raises(StructureError):
        Automaton(2, 1, ["a"], [[0, 0]], 1, {0})
    with pytest.raises(StructureError):
        Automaton(2, 1, ["a"], [[0, 0]], 0, {3})


def test_explore_dfa_cap():
    with pytest.raises(CapacityError) as exc:
        explore_dfa(0, lambda k: [k, k + 1], state_cap=10)
    assert exc.value.discovered == 10
    assert DEFAULT_STATE_CAP >= 10_000
    for cap in (0, -3):
        with pytest.raises(StructureError, match="at least 1"):
            explore_dfa(0, lambda k: [k, k], state_cap=cap)


# ----------------------------------------------------------------- products

def test_intersect_with_all_is_identity_on_words():
    a = first_letter((1,))
    both = a.intersect(all_accepting())
    for w in words_up_to(2, 1, 5):
        assert both.accepts(w) == a.accepts(w)


def test_intersect_with_empty_is_empty():
    a = first_letter((1,))
    assert a.intersect(empty_language()).is_empty()


def test_intersect_disjoint_first_letters():
    meet = first_letter((1,)).intersect(first_letter((0,)))
    assert meet.is_empty()


def test_union_examples():
    a = first_letter((1,))
    assert not a.union(empty_language()).is_empty()
    for w in words_up_to(2, 1, 4):
        assert a.union(empty_language()).accepts(w) == a.accepts(w)
        assert a.union(all_accepting()).accepts(w)


def test_union_of_both_first_letters_accepts_every_nonempty_word():
    joint = first_letter((1,)).union(first_letter((0,)))
    for w in words_up_to(2, 1, 4):
        assert joint.accepts(w) == (len(w) > 0)


def test_product_requires_same_alphabet():
    with pytest.raises(StructureError):
        all_accepting(2, 1).intersect(all_accepting(3, 1))


@settings(max_examples=40)
@given(st.data())
def test_product_semantics_on_random_words(data):
    a = first_letter((1,))
    b = lambda_only().union(first_letter((1,)))
    n = data.draw(st.integers(0, 6))
    w = DigitWord(2, 1, tuple((data.draw(st.integers(0, 1)),) for _ in range(n)))
    assert a.intersect(b).accepts(w) == (a.accepts(w) and b.accepts(w))
    assert a.union(b).accepts(w) == (a.accepts(w) or b.accepts(w))


# ---------------------------------------------------------------- prepending

def test_prepend_to_all_accepting():
    a = all_accepting().prepend_letter((1,))
    for w in words_up_to(2, 1, 4):
        expected = len(w) > 0 and w.letters[0] == (1,)
        assert a.accepts(w) == expected


def test_prepend_to_empty():
    assert empty_language().prepend_letter((0,)).is_empty()


def test_prepend_to_lambda_language():
    a = lambda_only().prepend_letter((1,))
    accepted = [w for w in words_up_to(2, 1, 3) if a.accepts(w)]
    assert accepted == [DigitWord(2, 1, ((1,),))]


@settings(max_examples=40)
@given(st.data())
def test_prepend_shifts_the_language(data):
    base = first_letter((0,))
    x = (data.draw(st.integers(0, 1)),)
    pre = base.prepend_letter(x)
    n = data.draw(st.integers(0, 5))
    w = DigitWord(2, 1, tuple((data.draw(st.integers(0, 1)),) for _ in range(n)))
    assert pre.accepts(DigitWord(2, 1, (x,) + w.letters)) == base.accepts(w)
    if len(w) == 0 or w.letters[0] != x:
        assert not pre.accepts(w)


# -------------------------------------------------------------- enumeration

def test_is_empty():
    assert empty_language().is_empty()
    assert not all_accepting().is_empty()
    # finals exist but are unreachable
    a = Automaton(2, 1, ["s", "f"], [[0, 0], [1, 1]], 0, {1})
    assert a.is_empty()


def test_enumerate_all_accepting():
    out = all_accepting().enumerate_words(1)
    assert out == [
        DigitWord(2, 1, ()),
        DigitWord(2, 1, ((0,),)),
        DigitWord(2, 1, ((1,),)),
    ]


def test_enumerate_agrees_with_accepts():
    a = first_letter((1,)).union(lambda_only())
    listed = set(a.enumerate_words(4))
    for w in words_up_to(2, 1, 4):
        assert (w in listed) == a.accepts(w)


def test_enumerate_is_length_then_lex():
    out = all_accepting(3, 1).enumerate_words(2)
    lengths = [len(w) for w in out]
    assert lengths == sorted(lengths)
    by_len = [w.letters for w in out if len(w) == 2]
    assert by_len == sorted(by_len)


# ------------------------------------------------------------- minimization

def test_minimize_collapses_redundant_states():
    # two interchangeable accepting states
    a = Automaton(
        2, 1, ["s", "f1", "f2"],
        [[1, 2], [1, 2], [1, 2]],
        0, {1, 2},
    )
    m = a.minimize()
    assert m.num_states == 2
    for w in words_up_to(2, 1, 5):
        assert m.accepts(w) == a.accepts(w)


def test_minimize_preserves_language():
    a = first_letter((1,)).union(first_letter((0,)))
    m = a.minimize()
    assert m.num_states <= a.num_states
    for w in words_up_to(2, 1, 5):
        assert m.accepts(w) == a.accepts(w)


# ------------------------------------------------------------------ exports

def test_json_schema_and_determinism():
    a = first_letter((1,))
    text = a.to_json()
    assert text == a.to_json()
    doc = json.loads(text)
    assert list(doc) == ["p", "t", "states", "initial", "transitions"]
    assert doc["p"] == 2 and doc["t"] == 1
    assert [s["id"] for s in doc["states"]] == [0, 1, 2]
    assert all(set(s) == {"id", "final", "label"} for s in doc["states"])
    for tr in doc["transitions"]:
        assert set(tr) == {"from", "letter", "to"}
        assert isinstance(tr["letter"], list)
    # sorted by (from, letter)
    order = [(tr["from"], tr["letter"]) for tr in doc["transitions"]]
    assert order == sorted(order)
    assert text.endswith("\n")


def parse_dot(text):
    """Tiny DOT reader for round-trip checks: nodes, finality, edges."""
    finals = set(re.findall(r"(s\d+) \[shape=doublecircle", text))
    nodes = set(re.findall(r"(s\d+) \[shape=", text))
    edges = {}
    for src, dst, label in re.findall(r'(s\d+) -> (s\d+) \[label="([^"]*)"\]', text):
        for letter_text in label.split(" | "):
            letter = tuple(int(d) for d in letter_text.split(","))
            edges[src, letter] = dst
    initial = re.search(r"__start -> (s\d+);", text).group(1)
    return nodes, finals, edges, initial


def test_dot_round_trips_to_an_isomorphic_graph():
    a = first_letter((1,)).union(lambda_only())
    nodes, finals, edges, initial = parse_dot(a.to_dot())
    assert len(nodes) == a.num_states
    assert initial == f"s{a.initial}"
    assert finals == {f"s{q}" for q in a.finals}
    for q in range(a.num_states):
        for letter in a.letters:
            assert edges[f"s{q}", letter] == f"s{a.step(q, letter)}"


def test_dot_is_deterministic():
    a = first_letter((1,)).union(first_letter((0,)))
    assert a.to_dot() == a.to_dot()
