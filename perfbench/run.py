#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload wordcount --seed 1 --seconds 20 --trace 0

Workloads: ``wordcount``, ``matvec``, ``session`` (see ``workloads.py``).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``metrics.py`` for both lists and ``harness.py`` for how a run
is organised).  Every metric is printed as ``name value unit``, then the
run's metadata, and last one JSON line::

    {"correct": true, "attempted": 24, "failed": 0, "metrics": {...}}

The program under test is imported from ``src/`` beside this directory;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("wordcount", "matvec", "session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the self-test runs tiny sizes)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import harness
    from metrics import UNITS

    report = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), scale=args.scale)
    for line in report.notes:
        print(f"# {line}")
    for problem in report.problems:
        print(f"# FAILED {problem}")
    for name, value in report.metrics.items():
        print(f"{name} {value!r} {UNITS[name]}")
    print("# meta " + json.dumps(report.meta, sort_keys=True))
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in report.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
