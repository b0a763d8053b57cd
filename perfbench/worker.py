"""One round of a workload in a fresh process, so every memo cache of the
package starts cold.  Prints one JSON object as its last line.

    python3 perfbench/worker.py --workload NAME --seed N --round R \
        --trace 0|1 --workdir DIR [--setup-only]

Set-up time runs from the first statement of this file to the first
timed operation: it covers importing ``spdesc`` and building the inputs
(for ``queries``, parsing the terms and synthesizing the tables).  The
obstruction files are written once per run, before any round, so file
system writes stay out of it.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--workdir", required=True,
                        help="directory holding the input files; outputs go here too")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time alone")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        api = tracing.install(tracer)
        tracer.active = True
    else:
        api = tracing.plain_api()

    workload = workloads.WORKLOADS[args.workload]()
    ops = workload.setup(api, args.seed, args.workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": perf_counter() - STARTED}))
        return 0
    run = workload.run
    op_s = []
    outcomes = []
    first = perf_counter()
    for op in ops:
        start = perf_counter()
        outcomes.append(run(op))
        op_s.append(perf_counter() - start)
    pass_s = perf_counter() - first
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.active = False
    failed, digest, problems, bits = workload.check(outcomes, full=args.round == 0)

    result = {
        "setup_s": first - STARTED,
        "pass_s": pass_s,
        "op_s": op_s,
        "peak_rss_mb": rss_mb,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "table_bits": bits,
        "digest": digest,
        "layers": tracer.metrics() if tracer is not None else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
