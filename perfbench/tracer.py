"""Spans and counts around the program's public functions, from outside ``src``.

``Tracer.install`` replaces module attributes and class methods of
``edesolver`` with wrappers and ``uninstall`` puts the originals back.  The
program looks those names up at call time (``fsa.explore_dfa``,
``scalar.build_automaton``, ...), so its internal calls pass through the
wrappers too.  A span is ``[name, start, end, parent, round, instance,
phase]``; spans and counts stay in memory until ``dump``.

Only spans and counts taken in the ``solve`` phase and in the first
``verify`` pass of each round feed the metrics; repeated verify passes and
the correctness checks (phase ``check``) are recorded but not counted.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from edesolver import cli, companion, fsa, gfpoly, oracle, scalar, systems

# Poly methods called millions of times: counted with itertools.count, no span.
HOT_COUNTS = {
    "gfpoly.mul_calls": ("__mul__", "__rmul__"),
    "gfpoly.section_calls": ("section",),
    "gfpoly.eq_calls": ("__eq__",),
}

# (owner, attribute, span name)
SPANS = [
    (scalar, "build_automaton", "scalar.build_automaton"),
    (scalar, "explore", "scalar.explore"),
    (companion, "build_automaton", "companion.build_automaton"),
    (companion, "explore", "companion.explore"),
    (companion, "conjugator", "companion.conjugator"),
    (systems, "solve_system", "systems.solve_system"),
    (systems, "equation_language", "systems.equation_language"),
    (systems, "peel_equation", "systems.peel_equation"),
    (fsa, "explore_dfa", "fsa.explore_dfa"),
    (fsa.Automaton, "union", "fsa.union"),
    (fsa.Automaton, "intersect", "fsa.intersect"),
    (fsa.Automaton, "prepend_letter", "fsa.prepend_letter"),
    (fsa.Automaton, "minimize", "fsa.minimize"),
    (fsa.Automaton, "to_json", "fsa.to_json"),
    (cli, "load_spec", "cli.load_spec"),
    (oracle, "compare", "oracle.compare"),
    (oracle, "evaluate", "oracle.evaluate"),
]

# per-layer time metric -> the span whose durations it sums
TIMED = {
    "scalar.explore_s": "scalar.explore",
    "companion.conjugator_s": "companion.conjugator",
    "companion.explore_s": "companion.explore",
    "systems.peel_s": "systems.peel_equation",
    "fsa.union_s": "fsa.union",
    "fsa.intersect_s": "fsa.intersect",
    "fsa.minimize_s": "fsa.minimize",
    "fsa.to_json_s": "fsa.to_json",
    "cli.load_spec_s": "cli.load_spec",
    "oracle.compare_s": "oracle.compare",
}
SELF_TIMED = {
    "scalar.build_self_s": "scalar.build_automaton",
    "companion.build_self_s": "companion.build_automaton",
}
COUNTED = [
    "gfpoly.mul_calls", "gfpoly.section_calls", "gfpoly.eq_calls",
    "scalar.states", "scalar.members", "scalar.distinct_members",
    "companion.states", "companion.members", "companion.distinct_members",
    "systems.sub_builds", "fsa.product_states", "fsa.label_chars",
    "fsa.explored_states", "fsa.minimal_states",
    "oracle.words", "oracle.evaluate_calls",
]
METRIC_PHASES = ("solve", "verify")


def _scalar_member(tau):
    return tuple(frozenset(f.terms.items()) for f in tau)


def _matrix_member(tau):
    return tuple(
        tuple(frozenset(f.terms.items()) for row in m.rows for f in row) for m in tau
    )


def src_lines(src: Path) -> int:
    return sum(len(path.read_text().splitlines()) for path in sorted(src.rglob("*.py")))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._open: list = []  # indices of the spans not yet ended
        self.counts: dict = defaultdict(int)  # (round, phase, name) -> count
        self.context = (0, "", "setup")
        self._hot = {name: itertools.count() for name in HOT_COUNTS}
        self._hot_seen = {name: 0 for name in HOT_COUNTS}
        self._patches: list = []
        self._explores: list = []

    # -- recording ---------------------------------------------------------

    def enter(self, round_no: int, instance: str, phase: str):
        """Attribute everything from now on to one instance and phase."""
        self._flush_hot()
        self._count_states()
        self.context = (round_no, instance, phase)

    def add(self, name: str, value: int = 1, context=None):
        round_no, _, phase = context or self.context
        self.counts[round_no, phase, name] += value

    def _flush_hot(self):
        for name, counter in self._hot.items():
            now = next(counter)  # reading advances the counter by one
            self.add(name, now - self._hot_seen[name])
            self._hot_seen[name] = now + 1

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def _parent_name(self):
        return self.spans[self._open[-1]][0] if self._open else None

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_span(self, owner, attr, name, after=None):
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else -1
            record = [name, perf_counter(), None, parent, *tracer.context]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                out = orig(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer._open.pop()
            if after is not None:
                after(out)
            return out

        self._patch(owner, attr, wrapper)

    def _wrap_hot(self, owner, attr, counter):
        orig = getattr(owner, attr)
        tick = functools.partial(next, counter)

        @functools.wraps(orig)
        def wrapper(*args):
            tick()
            return orig(*args)

        self._patch(owner, attr, wrapper)

    def install(self):
        for name, attrs in HOT_COUNTS.items():
            for attr in attrs:
                self._wrap_hot(gfpoly.Poly, attr, self._hot[name])
        after = {
            "scalar.explore": lambda out: self._states("scalar", out[0], _scalar_member),
            "companion.explore": lambda out: self._states("companion", out[0], _matrix_member),
            "scalar.build_automaton": lambda out: self._sub_build(),
            "companion.build_automaton": lambda out: self._sub_build(),
            "fsa.explore_dfa": lambda out: self._explored(out[0]),
            "fsa.union": lambda out: self.add("fsa.product_states", out.num_states),
            "fsa.intersect": lambda out: self.add("fsa.product_states", out.num_states),
            "fsa.minimize": lambda out: self.add("fsa.minimal_states", out.num_states),
            "oracle.compare": lambda out: self.add("oracle.words", out.checked),
            "oracle.evaluate": lambda out: self.add("oracle.evaluate_calls"),
        }
        for owner, attr, name in SPANS:
            self._wrap_span(owner, attr, name, after.get(name))
        init = fsa.Automaton.__init__

        @functools.wraps(init)
        def counted_init(aut, *args, **kwargs):
            init(aut, *args, **kwargs)
            self.add("fsa.label_chars", sum(map(len, aut.labels)))

        self._patch(fsa.Automaton, "__init__", counted_init)

    def uninstall(self):
        self._flush_hot()
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _states(self, engine, keys, member):
        # counted at the next phase change, outside every span
        self._explores.append((self.context, engine, keys, member))

    def _count_states(self):
        for context, engine, keys, member in self._explores:
            self.add(f"{engine}.states", len(keys), context)
            self.add(f"{engine}.members", sum(len(k) for k in keys), context)
            distinct = len({member(tau) for k in keys for tau in k})
            self.add(f"{engine}.distinct_members", distinct, context)
        self._explores.clear()

    def _sub_build(self):
        if self._inside("systems.solve_system"):
            self.add("systems.sub_builds")

    def _explored(self, keys):
        # minimize renumbers blocks through explore_dfa; that is not exploration
        if self._parent_name() != "fsa.minimize":
            self.add("fsa.explored_states", len(keys))

    # -- metrics -----------------------------------------------------------

    def round_metrics(self, round_no: int) -> dict:
        """Per-layer metric values of one round."""
        busy = defaultdict(float)
        self_time = defaultdict(float)
        for name, start, end, parent, rnd, _, phase in self.spans:
            if rnd != round_no or phase not in METRIC_PHASES:
                continue
            busy[name] += end - start
            self_time[name] += end - start
            if parent >= 0:
                self_time[self.spans[parent][0]] -= end - start
        out = {metric: busy[span] for metric, span in TIMED.items()}
        out.update({metric: self_time[span] for metric, span in SELF_TIMED.items()})
        for name in COUNTED:
            out[name] = sum(self.counts[round_no, phase, name] for phase in METRIC_PHASES)
        explored = out["fsa.explored_states"]
        out["fsa.minimal_per_explored"] = out["fsa.minimal_states"] / explored if explored else 0.0
        return out

    def metrics(self, rounds: int, src: Path) -> dict:
        """Median of every per-layer metric over the rounds, with its unit."""
        per_round = [self.round_metrics(r) for r in range(rounds)]
        values = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        values["src.lines"] = src_lines(src)
        out = {}
        for name, value in values.items():
            if name.endswith("_s"):
                unit = "s"
            elif name == "fsa.minimal_per_explored":
                unit = "ratio"
            elif name == "src.lines":
                unit = "lines"
            else:
                unit = "count"
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self, path: Path, extra: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "round", "instance", "phase"]
        counts = [[r, ph, name, v] for (r, ph, name), v in sorted(self.counts.items())]
        path.write_text(json.dumps({**extra, "span_fields": fields, "spans": self.spans, "counts": counts}))
