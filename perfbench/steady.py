"""Steadiness check: runs each workload several times, each run a fresh
process with its own seed, and prints every end-to-end metric's spread
against the bound in BENCHMARK.json.

    python3 perfbench/steady.py

Every workload of BENCHMARK.json runs RUNS times at its ``run_seconds``,
with seeds 1..RUNS.  The spread is the distance between the first and
third quartiles of a metric's values over the runs, as a share of their
median.  A metric is steady when its spread is within its bound.  Every
run must be correct, and the share of failed operations must be the same
in every run.  Raw results are written to ``perfbench/results/``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
RUNS = 10


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    steady = True
    record = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(1, RUNS + 1):
            result = run_once(bench["command"], workload, seed, bench["run_seconds"])
            runs.append(result)
            print(f"{workload} seed {seed}: {result['wall_s']:.1f}s "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        record[workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        if not all(r["correct"] for r in runs) or len(shares) != 1:
            steady = False
        print(f"{workload}: correct={all(r['correct'] for r in runs)} "
              f"failed shares={sorted(shares)} wall max={max(r['wall_s'] for r in runs):.1f}s")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            ok = s <= bound
            steady = steady and ok
            print(f"  {name:12s} median {statistics.median(values):12.6g} "
                  f"spread {s:7.4f}  bound {bound:5.3f}  {'ok' if ok else 'TOO WIDE'}"
                  f"{'  (< bound/3)' if s < bound / 3 else ''}")
    path = os.path.join(RESULTS, f"steady-{stamp}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"{'steady' if steady else 'NOT steady'}; raw results in {os.path.relpath(path, ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
