"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload scalar-suite --seed 1 --seconds 25 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A traced run also writes its spans
and counts to ``perfbench/out/trace-<workload>-<seed>.json``.  See
``perfbench/README.md`` for the workloads and what every metric means.
"""

import time

START = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import program  # noqa: E402

WORKLOADS = ("scalar-suite", "matrix-suite", "systems-cli")
SETUP_SAMPLES = 5  # this process plus four fresh ones
OUT = Path(__file__).resolve().parent / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="edesolver benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-setup", action="store_true",
        help="set up only and print the set-up time (used for the setup_s samples)",
    )
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, as that process measured it."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--probe-setup"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def measure(instances, seed, seconds, verify_repeats, tracer, verify, check):
    """Whole rounds over every instance until ``seconds`` of timed work are spent.

    A failed solve counts its time too, and a round in which every solve
    failed is the last, so a broken program still ends the run.
    """
    enter = tracer.enter if tracer else (lambda *a: None)
    solve_t = {inst.name: [] for inst in instances}
    verify_t = {inst.name: [] for inst in instances}
    first = {}
    problems, attempted, failed = [], 0, 0
    spent, rounds, solved = 0.0, 0, 1
    while rounds == 0 or (spent < seconds and solved):
        solved = 0
        for inst in instances:
            attempted += 1
            enter(rounds, inst.name, "solve")
            t = time.perf_counter()
            try:
                out = inst.solve()
            except Exception as exc:  # a failed operation is counted, not fatal
                spent += time.perf_counter() - t
                failed += 1
                print(f"{inst.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            dt = time.perf_counter() - t
            spent += dt
            solved += 1
            solve_t[inst.name].append(dt)
            enter(rounds, inst.name, "check")
            answer = inst.answer(out)
            for rep in range(verify_repeats):
                enter(rounds, inst.name, "verify" if rep == 0 else "verify-repeat")
                t = time.perf_counter()
                report = verify(inst, answer)
                dv = time.perf_counter() - t
                verify_t[inst.name].append(dv)
                spent += dv
                if not report.ok:
                    problems.append(f"{inst.name}: {len(report.mismatches)} oracle mismatches")
            enter(rounds, inst.name, "check")
            if inst.name not in first:
                first[inst.name] = inst.signature(out)
                problems += check(inst, out, answer, seed)
            elif inst.signature(out) != first[inst.name]:
                problems.append(f"{inst.name}: round {rounds} answer differs from the first")
        rounds += 1
    enter(rounds, "", "done")
    return {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        # per-instance medians, summed: one slow round of one instance moves little
        "solve_s": sum(statistics.median(v) for v in solve_t.values() if v),
        "verify_s": sum(statistics.median(v) for v in verify_t.values() if v),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    work_dir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        program.load()
        import workloads

        instances = workloads.load(args.workload, args.seed, work_dir)
        setup_s = time.perf_counter() - START
        if args.probe_setup:
            print(repr(setup_s))
            return 0
        import checks  # after the set-up: the checks are not the program's

        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        try:
            result = measure(
                instances, args.seed, args.seconds,
                workloads.VERIFY_REPEATS[args.workload], tracer,
                workloads.verify, checks.check,
            )
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for msg in result["problems"]:
        print(f"check failed: {msg}", file=sys.stderr)
    if tracer:
        metrics = tracer.metrics(result["rounds"], program.SRC)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(trace_path, {
            "workload": args.workload, "seed": args.seed, "rounds": result["rounds"],
            "solve_s": result["solve_s"], "verify_s": result["verify_s"],
        })
        print(f"trace written to {trace_path}; traced solve_s {result['solve_s']:.4f}", file=sys.stderr)
    else:
        setups = [setup_s] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "solve_s": {"value": result["solve_s"], "unit": "s"},
            "verify_s": {"value": result["verify_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"rounds {result['rounds']}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
