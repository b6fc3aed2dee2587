"""Self-tests of the benchmark's checks and of the systems-cli spec generator.

    python3 perfbench/test_checks.py
    python3 -m pytest perfbench/test_checks.py

Every check must pass on the program's real answers and must reject the
same automaton with its final states complemented.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import program  # noqa: E402

program.load()

import checks  # noqa: E402
import gen_specs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from edesolver import cli, fsa, oracle, systems  # noqa: E402

SUITES = workloads._suites()


def complemented(aut: fsa.Automaton) -> fsa.Automaton:
    finals = set(range(aut.num_states)) - set(aut.finals)
    return fsa.Automaton(aut.p, aut.t, aut.labels, aut.transitions, aut.initial, finals)


def complemented_json(text: str) -> str:
    obj = json.loads(text)
    for state in obj["states"]:
        state["final"] = not state["final"]
    return json.dumps(obj)


def engine_cases():
    scalar_suite = SUITES.scalar_suite()
    # x^n + x = 0, a p=3 t=2 instance with a two-state answer, one matrix instance
    yield workloads.EngineInstance("scalar-26", workloads.scalar, scalar_suite[26], 4)
    yield workloads.EngineInstance("scalar-21", workloads.scalar, scalar_suite[21], 3)
    yield workloads.EngineInstance("matrix-00", workloads.companion, SUITES.matrix_suite()[0], 5)


def cli_cases():
    specs = program.ROOT / "demos" / "specs"
    for name in ("two_equations", "companion_power"):
        yield workloads.CliInstance(name, specs / f"{name}.json", 4)


def _rejections(inst, raw, answer, seed=0):
    """Which checks reject ``answer``; ``raw`` is the reference automaton."""
    rng = random.Random(seed)
    p, t, n = answer.p, answer.t, inst.max_len
    solutions = checks.oracle_solutions(inst.spec, p, t, n)
    words = checks.sample_words(rng, p, t, n, 24)
    found = {
        "oracle": checks.check_oracle(answer, solutions, n),
        "same_language": checks.check_same_language(answer, raw, n),
        "zero_padding": checks.check_zero_padding(answer, solutions, words),
        "verify": oracle.compare(inst.spec, answer, n).mismatches,
    }
    system = checks.literal_system(inst)
    if system is not None:
        tuples = checks.sample_tuples(rng, p, t, 3, 12)
        found["literal"] = checks.check_literal(answer, system, tuples)
    return found


def test_checks_pass_on_real_answers():
    for inst in [*engine_cases(), *cli_cases()]:
        out = inst.solve()
        assert checks.check(inst, out, inst.answer(out), seed=3) == [], inst.name


def test_every_check_rejects_complemented_finals():
    for inst in engine_cases():
        raw, aut = inst.solve()
        assert all(not v for v in _rejections(inst, raw, aut).values()), inst.name
        for name, problems in _rejections(inst, raw, complemented(aut)).items():
            assert problems, f"{inst.name}: check {name} accepted a complemented answer"
        solutions = checks.oracle_solutions(inst.spec, raw.p, raw.t, inst.max_len)
        assert checks.check_oracle(complemented(raw), solutions, inst.max_len)


def test_json_runner_rejects_complemented_finals():
    for inst in cli_cases():
        text = inst.solve()
        inst.answer(text)  # parses the spec
        raw = systems.solve_system(inst.spec)
        for read in (checks.Dfa.from_json, workloads.automaton_from_json):
            good = read(text)
            assert all(not v for v in _rejections(inst, raw, good).values()), inst.name
            bad = read(complemented_json(text))
            for name, problems in _rejections(inst, raw, bad).items():
                assert problems, f"{inst.name}: check {name} accepted complemented JSON"
        assert workloads.automaton_from_json(text).to_json() == text


def test_run_ends_when_every_solve_fails():
    class Broken:
        name = "broken"

        def solve(self):
            raise RuntimeError("no answer")

    result = run.measure([Broken(), Broken()], 0, 25, 1, None, verify=None, check=None)
    assert result["attempted"] == result["failed"] == 2


def test_generator_repeats_for_a_seed():
    assert gen_specs.generate(5) == gen_specs.generate(5)
    assert gen_specs.generate(5) != gen_specs.generate(6)
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        first = [p.read_bytes() for p in gen_specs.write(11, Path(a))]
        second = [p.read_bytes() for p in gen_specs.write(11, Path(b))]
    assert first == second


def test_rewritten_templates_keep_automaton_sizes():
    """The seed may not change the work a template costs."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, template in gen_specs.TEMPLATES.items():
            sizes = set()
            for seed in range(3):
                obj = template if seed == 0 else gen_specs.rewrite(template, random.Random(seed))
                path = Path(tmp) / f"{name}-{seed}.json"
                path.write_text(json.dumps(obj))
                spec = cli.load_spec(str(path))
                aut = systems.solve_system(spec)
                sizes.add((aut.num_states, aut.minimize().num_states))
            assert len(sizes) == 1, f"{name}: {sizes}"


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failures else 0)
