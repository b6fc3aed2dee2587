"""Complete deterministic automata over the width-t digit alphabet.

States are dense integer ids; the transition table is total, so every
automaton implicitly contains its own sink.  Construction is always by
breadth-first discovery in sorted-letter order, which makes state numbering
(and therefore the JSON and DOT exports) reproducible run to run.
"""

from __future__ import annotations

import itertools
import json
from collections import deque

from .digits import DigitWord, alphabet
from .errors import AlphabetError, CapacityError, StructureError

DEFAULT_STATE_CAP = 200_000


def explore_dfa(initial_key, successors, state_cap: int = DEFAULT_STATE_CAP):
    """Generic reachable-state closure.

    ``successors(key)`` must be a pure function on hashable state keys that
    returns the next keys in alphabet order.  Returns (keys, transitions)
    with keys[0] == initial_key and transitions a list of per-state lists,
    entry j the state reached by letter j.  A ``state_cap`` below 1 is a
    StructureError: it admits not even the initial state.
    """
    if state_cap < 1:
        raise StructureError(f"state cap must be at least 1, got {state_cap}")
    index = {initial_key: 0}
    keys = [initial_key]
    transitions = []
    queue = deque([initial_key])
    while queue:
        key = queue.popleft()
        row = []
        for nxt in successors(key):
            j = index.get(nxt)
            if j is None:
                if len(keys) >= state_cap:
                    raise CapacityError(
                        f"state cap {state_cap} exceeded", discovered=len(keys)
                    )
                j = len(keys)
                index[nxt] = j
                keys.append(nxt)
                queue.append(nxt)
            row.append(j)
        transitions.append(row)
    return keys, transitions


class Automaton:
    """A complete DFA over the p^t digit letters.

    ``labels`` name the states in the JSON export and DOT tooltips (the
    raw state ids of an engine build, the merged ids after ``minimize``);
    they play no role in the semantics.
    """

    def __init__(self, p, t, labels, transitions, initial, finals):
        self.p = p
        self.t = t
        self.letters = alphabet(p, t)
        self._letter_index = {l: i for i, l in enumerate(self.letters)}
        self.labels = tuple(str(l) for l in labels)
        n = len(self.labels)
        if len(transitions) != n:
            raise StructureError("transition table size mismatch")
        for row in transitions:
            if len(row) != len(self.letters):
                raise StructureError("transition row width mismatch")
            if any(not 0 <= q < n for q in row):
                raise StructureError("transition target out of range")
        self.transitions = tuple(tuple(row) for row in transitions)
        if not 0 <= initial < n:
            raise StructureError("initial state out of range")
        self.initial = initial
        self.finals = frozenset(finals)
        if any(not 0 <= q < n for q in self.finals):
            raise StructureError("final state out of range")

    @property
    def num_states(self) -> int:
        return len(self.labels)

    def _letters_of(self, word):
        if isinstance(word, DigitWord):
            if word.p != self.p or word.width != self.t:
                raise AlphabetError(
                    f"word over p={word.p}, width={word.width} fed to automaton "
                    f"with p={self.p}, t={self.t}"
                )
            return word.letters
        return tuple(tuple(l) for l in word)

    def step(self, state: int, letter) -> int:
        idx = self._letter_index.get(tuple(letter))
        if idx is None:
            raise AlphabetError(f"letter {letter} not in alphabet")
        return self.transitions[state][idx]

    def run(self, word) -> int:
        state = self.initial
        for letter in self._letters_of(word):
            state = self.step(state, letter)
        return state

    def accepts(self, word) -> bool:
        return self.run(word) in self.finals

    def _check_same_alphabet(self, other: "Automaton"):
        if self.p != other.p or self.t != other.t:
            raise StructureError("automata over different alphabets")

    def _product(self, other: "Automaton", combine) -> "Automaton":
        self._check_same_alphabet(other)

        def successors(pair):
            a, b = pair
            return zip(self.transitions[a], other.transitions[b])

        keys, trans = explore_dfa((self.initial, other.initial), successors)
        finals = {
            i
            for i, (a, b) in enumerate(keys)
            if combine(a in self.finals, b in other.finals)
        }
        labels = [f"({self.labels[a]},{other.labels[b]})" for a, b in keys]
        return Automaton(self.p, self.t, labels, trans, 0, finals)

    def intersect(self, other: "Automaton") -> "Automaton":
        return self._product(other, lambda a, b: a and b)

    def union(self, other: "Automaton") -> "Automaton":
        return self._product(other, lambda a, b: a or b)

    def prepend_letter(self, letter) -> "Automaton":
        """Automaton for { letter . w : w accepted }.

        The fresh initial state has in-degree zero; all other first letters
        fall into a fresh sink.
        """
        letter = tuple(letter)
        if letter not in self._letter_index:
            raise AlphabetError(f"letter {letter} not in alphabet")
        n = self.num_states
        fresh, sink = n, n + 1
        trans = [list(row) for row in self.transitions]
        trans.append([self.initial if l == letter else sink for l in self.letters])
        trans.append([sink] * len(self.letters))
        labels = list(self.labels) + ["pre", "sink"]
        return Automaton(self.p, self.t, labels, trans, fresh, self.finals)

    def is_empty(self) -> bool:
        """True when no word at all is accepted: no final state is reachable."""
        reachable, _ = explore_dfa(self.initial, self.transitions.__getitem__, self.num_states)
        return self.finals.isdisjoint(reachable)

    def enumerate_words(self, max_len: int) -> list:
        """Accepted words of length <= max_len, shortest first, lex within."""
        out = []
        for length in range(max_len + 1):
            for combo in itertools.product(self.letters, repeat=length):
                state = self.initial
                for letter in combo:
                    state = self.transitions[state][self._letter_index[letter]]
                if state in self.finals:
                    out.append(DigitWord(self.p, self.t, combo))
        return out

    def minimize(self) -> "Automaton":
        """Language-equivalent automaton with the minimal state count.

        Partition refinement on the complete DFA, then canonical BFS
        renumbering from the initial block.
        """
        n = self.num_states
        block = [1 if q in self.finals else 0 for q in range(n)]
        while True:
            signatures = {}
            new_block = [0] * n
            for q in range(n):
                sig = (block[q], tuple(block[t] for t in self.transitions[q]))
                if sig not in signatures:
                    signatures[sig] = len(signatures)
                new_block[q] = signatures[sig]
            if new_block == block:
                break
            block = new_block

        reps: dict = {}
        members: dict = {}
        for q in range(n):
            reps.setdefault(block[q], q)
            members.setdefault(block[q], []).append(q)

        def successors(b):
            return [block[q] for q in self.transitions[reps[b]]]

        keys, trans = explore_dfa(block[self.initial], successors)
        finals = set()
        labels = []
        for i, b in enumerate(keys):
            labels.append("m:" + ",".join(str(q) for q in members[b]))
            if reps[b] in self.finals:
                finals.add(i)
        return Automaton(self.p, self.t, labels, trans, 0, finals)

    def to_json(self) -> str:
        """Canonical JSON export; byte-identical for equal automata."""
        obj = {
            "p": self.p,
            "t": self.t,
            "states": [
                {"id": i, "final": i in self.finals, "label": self.labels[i]}
                for i in range(self.num_states)
            ],
            "initial": self.initial,
            "transitions": [
                {"from": i, "letter": list(letter), "to": self.transitions[i][j]}
                for i in range(self.num_states)
                for j, letter in enumerate(self.letters)
            ],
        }
        return json.dumps(obj, indent=2) + "\n"

    def to_dot(self) -> str:
        """Graphviz source with parallel edges merged per target."""
        def esc(s):
            return s.replace("\\", "\\\\").replace('"', '\\"')

        lines = ["digraph automaton {", "  rankdir=LR;", '  __start [shape=point, label=""];']
        lines.append(f"  __start -> s{self.initial};")
        for i in range(self.num_states):
            shape = "doublecircle" if i in self.finals else "circle"
            lines.append(
                f'  s{i} [shape={shape}, label="s{i}", tooltip="{esc(self.labels[i])}"];'
            )
        for i in range(self.num_states):
            by_target: dict = {}
            for j, letter in enumerate(self.letters):
                by_target.setdefault(self.transitions[i][j], []).append(letter)
            for target in sorted(by_target):
                tag = " | ".join(
                    ",".join(str(d) for d in letter) for letter in by_target[target]
                )
                lines.append(f'  s{i} -> s{target} [label="{tag}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return (
            f"Automaton(p={self.p}, t={self.t}, states={self.num_states}, "
            f"finals={len(self.finals)})"
        )
