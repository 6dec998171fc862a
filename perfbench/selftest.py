#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny input sizes.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` is the catalogue in ``metrics.py``; that
every workload, untraced and traced, emits exactly the metrics the file
names, with their units, and passes its reference checks; that the
command line prints the result line the benchmark contract asks for and
refuses to run without the program; and that the tracer counts outermost
calls exactly under threads and restores every patched name.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import harness  # noqa: E402
import metrics  # noqa: E402
from tracer import LayerTracer  # noqa: E402

#: Input size factor per workload: seconds, not minutes.
TINY = {"wordcount": 0.05, "matvec": 0.1, "session": 0.1}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    check(manifest == metrics.manifest(),
          "BENCHMARK.json is stale: python3 perfbench/metrics.py > BENCHMARK.json")
    return manifest


def check_workloads(manifest: dict) -> None:
    end_to_end = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    for workload in manifest["workloads"]:
        name = workload["name"]
        for trace, wanted in ((False, end_to_end), (True, per_layer)):
            report = harness.run(name, seed=3, seconds=0, trace=trace,
                                 scale=TINY[name], setups=1)
            label = f"{name} trace={int(trace)}"
            check(report.correct and report.failed == 0 and report.attempted > 0,
                  f"{label}: reference checks failed: {report.problems}")
            check(set(report.metrics) == set(wanted),
                  f"{label}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(report.metrics) ^ set(wanted))}")
            for metric, value in report.metrics.items():
                check(metrics.UNITS[metric] == wanted[metric], f"{label}: unit of {metric}")
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      f"{label}: {metric} = {value!r}")
                if not trace:
                    check(value > 0, f"{label}: end-to-end {metric} is {value!r}")
            if trace and name == "session":
                check(report.metrics["m3r.core.cache.entries"] > 0, "session: empty cache")
            print(f"ok  {label}: {len(report.metrics)} metrics, "
                  f"{report.attempted} operations checked")


def check_command_line() -> None:
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
               "session", "--seed", "5", "--seconds", "0", "--trace", "0",
               "--scale", str(TINY["session"])]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"result keys: {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0, "command line run failed")
    for name, entry in result["metrics"].items():
        check(set(entry) == {"value", "unit"} and entry["unit"] == metrics.UNITS[name],
              f"result entry {name}: {entry}")
    print("ok  command line result line")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(command, cwd=bare, capture_output=True, text=True,
                              timeout=180)
        check(done.returncode != 0 and not done.stdout.strip(),
              "without src/ the benchmark must fail and print no result")
    print("ok  refuses to run without the program")


def check_tracer() -> None:
    from repro import engine_common

    original = engine_common.pair_bytes
    tracer = LayerTracer()
    tracer.patch_function("pair_bytes", original)
    check(engine_common.pair_bytes is not original, "pair_bytes not patched")

    def nested(depth: int) -> int:
        return depth if depth == 0 else traced_nested(depth - 1)

    traced_nested = tracer._wrap("nested", nested, wait=False)

    def worker() -> None:
        for _ in range(500):
            engine_common.pair_bytes(1, 2)
            traced_nested(3)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        check(not thread.is_alive(), "tracer worker hung")
    totals = tracer.drain()
    check(totals["pair_bytes"][0] == 2000, f"pair_bytes calls {totals['pair_bytes'][0]}")
    check(totals["nested"][0] == 2000, f"nested calls {totals['nested'][0]}")
    check(tracer.drain() == {}, "drain did not reset the buffers")
    tracer.uninstall()
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro") and module is not None:
            bound = vars(module).get("pair_bytes")
            check(bound is None or bound is original, f"{module_name} still patched")
    print("ok  tracer: outermost calls, threads, uninstall")


def main() -> int:
    check_tracer()
    manifest = check_manifest()
    check_workloads(manifest)
    check_command_line()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
