"""Benchmark entry point: runs one workload for a given time and prints
its metrics as a JSON object on the last line of standard output.

    python3 perfbench/run.py --workload verify|describe|queries \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` and needs nothing installed.  The run writes the workload's
obstruction files into a working directory under ``perfbench/.work/``,
which it removes at the end.  Then it makes a closed loop of rounds.
Each round is one fresh worker process (``worker.py``) that sets up the
workload's inputs, performs every operation once on one thread, then
checks the outputs outside the timed pass.  Rounds start
until ``--seconds`` have passed, and at least ``MIN_ROUNDS`` of them
(one pair when traced), so a run always holds whole rounds.  Untraced
runs also time set-ups alone, in workers that stop before the pass:
``SETUPS_PER_ROUND`` after each round, then more at the end until
``SETUP_SAMPLES`` set-ups have been timed.

With ``--trace 0`` the output holds the end-to-end metrics; with
``--trace 1`` rounds come in pairs, one untraced and one traced on the
same inputs, and the output holds the per-layer metrics, medians over
the traced rounds, plus ``trace.overhead_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(HERE, ".work")

WORKLOADS = ("verify", "describe", "queries")
MIN_ROUNDS = 3
# Set-up time is short and noisy, so runs add set-up-only workers until
# this many set-ups have been timed.  The machine's speed drifts over
# seconds, so most are spread between the rounds rather than taken in
# one burst: describe's median set-up spread by 0.33 over ten seeds when
# all were taken at the end of the run.
SETUP_SAMPLES = 11
SETUPS_PER_ROUND = 2
# A round takes 5-20 s; a run must end within three minutes.
ROUND_TIMEOUT_S = 120

UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "table_bits": "bits",
}


class RoundError(RuntimeError):
    """A worker process failed or printed no result."""


def run_round(workload: str, seed: int, workdir: str, round_index: int, trace: int,
              setup_only: bool = False) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--round", str(round_index), "--trace", str(trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def verdict(rounds) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems) over all rounds.  Rounds
    repeat the same inputs, so they must agree on every output and on
    the tables they synthesized."""
    problems = [p for r in rounds for p in r["problems"]]
    if len({r["table_bits"] for r in rounds} - {None}) != 1:
        problems.append(f"table_bits differ between rounds: {[r['table_bits'] for r in rounds]}")
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("rounds on the same inputs gave different outputs")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    return not problems, attempted, failed, problems


def end_to_end(rounds, setups) -> dict:
    """Pass and operation times are means over the rounds: the machine's
    speed drifts over seconds, which a mean evens out better than a
    median of a few rounds, and the percentiles are taken over each
    operation's mean, not over single samples that depend on the
    second each operation ran in."""
    op_s = [statistics.fmean(ts) for ts in zip(*(r["op_s"] for r in rounds))]
    values = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.fmean(r["pass_s"] for r in rounds),
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "op_p99_ms": statistics.quantiles(op_s, n=100, method="inclusive")[98] * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "table_bits": next(r["table_bits"] for r in rounds if r["table_bits"] is not None),
    }
    return {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}


def per_layer(untraced, traced) -> dict:
    names = traced[0]["layers"]
    out = {}
    for name in names:
        value = statistics.median(r["layers"][name] for r in traced)
        unit = "s" if name.endswith("_s") else ("bits" if name.endswith("_bits") else "count")
        out[name] = {"value": value, "unit": unit}
    overhead = statistics.median(t["pass_s"] - u["pass_s"] for u, t in zip(untraced, traced))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="spdesc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "spdesc", "__init__.py")):
        print(f"error: no package source at {os.path.join(ROOT, 'src', 'spdesc')}",
              file=sys.stderr)
        return 2

    start = perf_counter()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    untraced, traced = [], []
    round_index = 0
    try:
        for name, text in inputs.input_files(args.workload, args.seed).items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        min_rounds = 1 if args.trace else MIN_ROUNDS
        setups = []

        def time_setups(count: int) -> None:
            for _ in range(count):
                setups.append(run_round(args.workload, args.seed, workdir, 0, 0,
                                        setup_only=True)["setup_s"])

        while round_index < min_rounds or perf_counter() - start < args.seconds:
            untraced.append(run_round(args.workload, args.seed, workdir, round_index, 0))
            setups.append(untraced[-1]["setup_s"])
            if args.trace:
                traced.append(run_round(args.workload, args.seed, workdir, round_index, 1))
            else:
                time_setups(SETUPS_PER_ROUND)
            round_index += 1
        if not args.trace:
            time_setups(SETUP_SAMPLES - len(setups))
    except (RoundError, subprocess.TimeoutExpired) as exc:
        print(f"error: {args.workload} round {round_index}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct, attempted, failed, problems = verdict(untraced + traced)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced, setups)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
