"""The three workloads and their instances.

Import this module only after ``program.load()`` has put the checkout's
``src`` on the path.  Each instance knows how to solve itself (the timed
work), what its answer automaton is and which automaton it was minimized
from; ``checks.check`` checks the answer.  Nothing here prepares the checks,
so set-up holds only the program's imports and the inputs.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from pathlib import Path

from edesolver import cli, companion, fsa, oracle, scalar, systems
from edesolver.companion import MatrixEde
from edesolver.digits import alphabet
from edesolver.scalar import ScalarEde

import gen_specs
from program import ROOT

SCALAR_MAX_LEN = 4
MATRIX_MAX_LEN = 6
SYSTEMS_MAX_LEN = 4
# oracle.compare passes per answer and round: a suite's verify work is short
# next to its solve, so it is sampled more often to steady its median
VERIFY_REPEATS = {"scalar-suite": 3, "matrix-suite": 3, "systems-cli": 1}


class EngineInstance:
    """One equation of a seeded test suite, solved by an engine's build_automaton."""

    def __init__(self, name: str, engine, ede, max_len: int):
        self.name, self.engine, self.ede, self.max_len = name, engine, ede, max_len
        self.spec = ede

    def _fresh(self):
        # a new object, so cached properties such as the conjugator are rebuilt
        e = self.ede
        if isinstance(e, MatrixEde):
            return MatrixEde(e.base, e.q, e.bases)
        return ScalarEde(e.field, e.r, e.t, e.q, e.bases)

    def solve(self):
        raw = self.engine.build_automaton(self._fresh())
        return raw, raw.minimize()

    def answer(self, out):
        return out[1]

    def signature(self, out):
        aut = out[1]
        return aut.transitions, aut.finals, aut.initial

    def raw(self, out):
        return out[0]


class CliInstance:
    """One spec file, solved by ``edesolver build`` through ``cli.main``."""

    def __init__(self, name: str, path: Path, max_len: int):
        self.name, self.path, self.max_len = name, path, max_len
        self.spec = None  # parsed by the program on first use, outside the timings

    def solve(self) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["build", str(self.path)])
        if code != 0:
            raise RuntimeError(f"edesolver build exited {code}")
        return buf.getvalue()

    def answer(self, out):
        if self.spec is None:
            self.spec = cli.load_spec(str(self.path))
        return automaton_from_json(out)

    def signature(self, out):
        return out

    def raw(self, out):
        return systems.solve_system(self.spec)


def automaton_from_json(text: str) -> fsa.Automaton:
    """The program's automaton for the JSON that ``edesolver build`` printed."""
    obj = json.loads(text)
    column = {letter: j for j, letter in enumerate(alphabet(obj["p"], obj["t"]))}
    table = [[0] * len(column) for _ in obj["states"]]
    for edge in obj["transitions"]:
        table[edge["from"]][column[tuple(edge["letter"])]] = edge["to"]
    labels = [state["label"] for state in obj["states"]]
    finals = [state["id"] for state in obj["states"] if state["final"]]
    return fsa.Automaton(obj["p"], obj["t"], labels, table, obj["initial"], finals)


def verify(inst, answer):
    return oracle.compare(inst.spec, answer, inst.max_len)


def _suites():
    path = ROOT / "tests" / "suites.py"
    spec = importlib.util.spec_from_file_location("perfbench_suites", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load(workload: str, seed: int, work_dir: Path) -> list:
    """The instances of one workload; ``work_dir`` receives generated spec files."""
    if workload == "scalar-suite":
        return [
            EngineInstance(f"scalar-{i:02d}", scalar, ede, SCALAR_MAX_LEN)
            for i, ede in enumerate(_suites().scalar_suite())
        ]
    if workload == "matrix-suite":
        return [
            EngineInstance(f"matrix-{i:02d}", companion, ede, MATRIX_MAX_LEN)
            for i, ede in enumerate(_suites().matrix_suite())
        ]
    if workload == "systems-cli":
        demos = sorted((ROOT / "demos" / "specs").glob("*.json"))
        paths = demos + gen_specs.write(seed, work_dir / "specs")
        return [CliInstance(path.stem, path, SYSTEMS_MAX_LEN) for path in paths]
    raise ValueError(f"unknown workload {workload!r}")
