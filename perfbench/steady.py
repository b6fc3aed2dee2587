"""Run one workload N times with consecutive seeds and summarise every metric.

    python3 perfbench/steady.py --workload systems-cli --runs 10 --first-seed 1

Each run is ``perfbench/run.py`` in a fresh process, one after another.
For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  The bounds in
``BENCHMARK.json`` are set from this output.  A run lasts ``run_seconds`` of
``BENCHMARK.json``; each run's seed, wall time and result go to stderr as
one JSON line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return {"seed": seed, "wall_s": wall, "result": json.loads(proc.stdout.splitlines()[-1])}


def summarise(runs: list) -> list:
    rows = []
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        rows.append((name, med, q1, q3, (q3 - q1) / med if med else 0.0, min(values), max(values)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        run = one_run(args.workload, seed, seconds, args.trace)
        runs.append(run)
        print(json.dumps({"workload": args.workload, **run}), file=sys.stderr, flush=True)
    failed_shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
    print(f"{args.workload}: {len(runs)} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, all correct: "
          f"{all(r['result']['correct'] for r in runs)}, failed shares: {sorted(failed_shares)}")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'min':>12} {'max':>12}")
    for name, med, q1, q3, spread, lo, hi in summarise(runs):
        print(f"{name:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%} {lo:12.5g} {hi:12.5g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
