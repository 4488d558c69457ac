"""The benchmark of the campaign -> analysis -> serve workflow.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload end to end through the public CLIs and
prints the end-to-end metrics; ``--trace 1`` runs the traced layer
breakdown instead and prints the per-layer metrics.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every correctness check
passed; it is 2, with no result line, when the benchmark cannot run
(for example when the program's sources are missing).
"""

from __future__ import annotations

import argparse
import json
import sys

import common
from common import BenchError, RunTree, Tally


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "analysis", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.import_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    tally = Tally()
    tree = RunTree()
    try:
        if args.trace:
            import layers

            metrics = layers.traced_run(args.workload, tree, args.seed, args.seconds, tally)
        else:
            metrics = workloads.WORKLOADS[args.workload](tree, args.seed, args.seconds, tally)
        stray = tree.stray_files()
        tally.check(not stray, f"files left outside the run's temp tree: {stray[:5]}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        tree.close()

    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload:9s} {name:34s} {value:14.6g} {unit}")
    correct = tally.failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
