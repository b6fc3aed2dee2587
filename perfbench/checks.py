"""Correctness checks that do not rest on a stored copy of earlier output.

Every check compares an automaton with an independent verdict: the oracle's
(``oracle.compare`` run against a machine that accepts nothing, so its
mismatches are exactly the solution words), another automaton already
checked against the oracle, or the literal evaluator of ``literal.py``.
Each returns a list of failure messages; an empty list means it passed,
and ``check`` runs all of them on one solved instance.
An automaton is anything with ``p``, ``t`` and ``accepts(word)``; ``Dfa``
below is the benchmark's own runner for the JSON that ``edesolver build``
prints.
"""

from __future__ import annotations

import itertools
import json
import random

from edesolver import oracle
from edesolver.digits import DigitWord
from edesolver.scalar import ScalarEde

import literal
import workloads

PADDED_WORDS = 24
LITERAL_TUPLES = 12
LITERAL_DIGITS = 3


class Dfa:
    """A complete DFA read from the JSON export, run without ``edesolver.fsa``."""

    def __init__(self, p: int, t: int, initial: int, finals, delta: dict):
        self.p, self.t = p, t
        self.initial = initial
        self.finals = frozenset(finals)
        self.delta = delta  # (state, letter tuple) -> state

    @classmethod
    def from_json(cls, text: str) -> "Dfa":
        obj = json.loads(text)
        finals = [s["id"] for s in obj["states"] if s["final"]]
        delta = {(e["from"], tuple(e["letter"])): e["to"] for e in obj["transitions"]}
        return cls(obj["p"], obj["t"], obj["initial"], finals, delta)

    def accepts(self, word) -> bool:
        letters = word.letters if isinstance(word, DigitWord) else word
        state = self.initial
        for letter in letters:
            state = self.delta[state, tuple(letter)]
        return state in self.finals


class _Nothing:
    """Accepts no word, so ``oracle.compare`` lists exactly the solutions."""

    def __init__(self, p: int, t: int):
        self.p, self.t = p, t

    def accepts(self, word) -> bool:
        return False


def letters_of(p: int, t: int) -> list:
    return list(itertools.product(range(p), repeat=t))


def all_words(p: int, t: int, max_len: int):
    letters = letters_of(p, t)
    for length in range(max_len + 1):
        yield from itertools.product(letters, repeat=length)


def oracle_solutions(spec, p: int, t: int, max_len: int) -> frozenset:
    """Letter tuples of every word up to ``max_len`` that the oracle calls a solution."""
    report = oracle.compare(spec, _Nothing(p, t), max_len)
    return frozenset(m.word.letters for m in report.mismatches)


def check_oracle(aut, solutions: frozenset, max_len: int) -> list:
    """``aut`` accepts exactly the oracle's solution words up to ``max_len``."""
    bad = [w for w in all_words(aut.p, aut.t, max_len) if aut.accepts(w) != (w in solutions)]
    return [f"{len(bad)} words disagree with the oracle, first {bad[0]}"] if bad else []


def check_same_language(aut, reference, max_len: int) -> list:
    """``aut`` and ``reference`` accept the same words up to ``max_len``."""
    bad = [w for w in all_words(aut.p, aut.t, max_len) if aut.accepts(w) != reference.accepts(w)]
    return [f"{len(bad)} words differ from the raw automaton, first {bad[0]}"] if bad else []


def sample_words(rng: random.Random, p: int, t: int, max_len: int, count: int) -> list:
    letters = letters_of(p, t)
    return [
        tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
        for _ in range(count)
    ]


def check_zero_padding(aut, solutions: frozenset, words, pad: int = 3) -> list:
    """Appending 1..pad zero letters to ``w`` keeps the oracle's verdict on ``w``."""
    zero = ((0,) * aut.t,)
    bad = [
        (w, k)
        for w in words
        for k in range(1, pad + 1)
        if aut.accepts(w + zero * k) != (w in solutions)
    ]
    return [f"{len(bad)} zero-padded words change verdict, first {bad[0]}"] if bad else []


def sample_tuples(rng: random.Random, p: int, t: int, max_digits: int, count: int) -> list:
    top = p**max_digits
    return [(0,) * t] + [tuple(rng.randrange(top) for _ in range(t)) for _ in range(count)]


def check_literal(aut, system, tuples) -> list:
    """``aut`` accepts the spelling of ``n`` exactly when the literal sum vanishes."""
    bad = [
        n for n in tuples
        if aut.accepts(DigitWord.encode(n, aut.p, aut.t)) != system.solves(n)
    ]
    return [f"{len(bad)} exponent tuples disagree with the literal evaluator, first {bad[0]}"] if bad else []


def literal_system(inst):
    """The literal evaluator of a scalar-ring instance; None on companion rings."""
    if isinstance(inst, workloads.CliInstance):
        obj = json.loads(inst.path.read_text())
        return literal.ScalarSystem.from_spec_json(obj) if obj.get("ring", "scalar") == "scalar" else None
    ede = inst.spec
    if not isinstance(ede, ScalarEde):
        return None
    return literal.ScalarSystem.from_terms(
        ede.field.p, ede.r, ede.t,
        [q.terms for q in ede.q],
        [[b.terms for b in row] for row in ede.bases],
    )


def check(inst, out, answer, seed: int) -> list:
    """Every check of one solved instance; failures as messages."""
    rng = random.Random(f"{seed}:{inst.name}")
    p, t, max_len = answer.p, answer.t, inst.max_len
    machines = {"raw": inst.raw(out), "answer": answer}
    if isinstance(inst, workloads.CliInstance):
        machines["json"] = Dfa.from_json(out)  # read back without edesolver.fsa
    solutions = oracle_solutions(inst.spec, p, t, max_len)
    words = sample_words(rng, p, t, max_len, PADDED_WORDS)
    problems = []
    for name, aut in machines.items():
        problems += [f"{name}: {m}" for m in check_oracle(aut, solutions, max_len)]
        problems += [f"{name}: {m}" for m in check_zero_padding(aut, solutions, words)]
    problems += check_same_language(answer, machines["raw"], max_len)
    system = literal_system(inst)
    if system is not None:
        tuples = sample_tuples(rng, p, t, min(max_len, LITERAL_DIGITS), LITERAL_TUPLES)
        for name in ("answer", "json"):
            if name in machines:
                problems += [f"{name}: {m}" for m in check_literal(machines[name], system, tuples)]
    return [f"{inst.name}: {msg}" for msg in problems]
