"""The benchmark's metric catalogue and the statistics behind it.

:func:`manifest` renders the catalogue as ``BENCHMARK.json``; run
``python3 perfbench/metrics.py > BENCHMARK.json`` after changing it.  The
self-test checks that the file, the catalogue and the emitted metrics
agree.

End-to-end metrics come from untraced operations.  Per-layer metrics come
from the traced run and are named ``<engine>.<module>.<quantity>``; each
is the median over traced operations of its per-operation value, except
``core.cache.entries`` and ``core.cache.bytes`` (the cache at the end of
the traced operations), ``session.late_over_early`` (untraced operations,
per round), ``trace.overhead`` (traced over untraced median) and
``failed_frac`` (every operation of the run).
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Sequence, Tuple

#: ``(name, unit, better, bound)``.  ``bound`` is the share of the parent
#: commit's median by which the metric may worsen before a change is
#: rejected.  The wall-clock bounds are sized from the host's noise: on
#: the shared 2-core host the benchmark was built on, process CPU time
#: tracks wall time, yet the same operation's time drifts by 15-25% over
#: minutes (host speed, not scheduling), so medians of 20-second runs
#: spread by about a tenth across runs.  Simulated seconds vary only with
#: the seeded inputs and the hash seed (under 0.5%); peak memory by a
#: few percent.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("m3r.op_s", "s", "lower", 0.25),
    ("hadoop.op_s", "s", "lower", 0.25),
    ("m3r.op_p90_s", "s", "lower", 0.25),
    ("hadoop.op_p90_s", "s", "lower", 0.25),
    ("m3r.sim_s", "s", "lower", 0.02),
    ("hadoop.sim_s", "s", "lower", 0.02),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

#: Lifecycle stages each engine's pipeline runs (restore stages stay off).
STAGES = {
    "m3r": ("setup", "plan_splits", "map", "shuffle", "reduce", "commit",
            "cache-admit", "teardown"),
    "hadoop": ("setup", "plan_splits", "map", "reduce", "commit"),
}

#: Simulated-time categories each engine's cost model charges on these
#: workloads (``result.metrics`` ``time``).
SIM_CATEGORIES = {
    "m3r": ("alloc", "barrier", "deserialize", "disk_read", "disk_write",
            "framework", "job_submit", "merge", "namenode", "network",
            "reduce_compute", "serialize", "sort"),
    "hadoop": ("alloc", "deserialize", "disk_read", "disk_write", "framework",
               "job_submit", "jvm_startup", "merge", "namenode", "network",
               "reduce_compute", "scheduling", "serialize", "sort"),
}

#: Where the engine's task dispatcher lives, for ``*.dispatch_wait_s``.
DISPATCHER = {"m3r": "x10", "hadoop": "tasktracker"}


def _per_engine(kind: str) -> List[Tuple[str, str, str]]:
    # Each group notes the end-to-end metric it should move, and where.
    # Stage wall times and the time outside stages (compilers, sequence
    # glue): ``*.op_s`` on every workload.
    rows: List[Tuple[str, str, str]] = []
    for stage in STAGES[kind]:
        rows.append((f"lifecycle.stage.{stage}_s", "s", "lower"))
    rows += [
        ("lifecycle.outside_stages_s", "s", "lower"),
        # Task bodies and dispatch: ``*.op_s`` and ``m3r.op_p90_s`` on
        # session and matvec; small on wordcount.
        ("lifecycle.map_task.calls", "count", "lower"),
        ("lifecycle.map_task.busy_s", "s", "lower"),
        ("lifecycle.reduce_task.calls", "count", "lower"),
        ("lifecycle.reduce_task.busy_s", "s", "lower"),
        (f"{DISPATCHER[kind]}.dispatch_wait_s", "s", "lower"),
        # Per-record framework work (wire sizing, comparator sort,
        # counters, combine): ``*.op_s`` on wordcount; flat on matvec.
        ("engine_common.pair_bytes.calls", "count", "lower"),
        ("engine_common.pair_bytes.busy_s", "s", "lower"),
        ("x10.serializer.estimate_size.calls", "count", "lower"),
        ("x10.serializer.estimate_size.busy_s", "s", "lower"),
        ("api.writables.compare_to.calls", "count", "lower"),
        ("api.writables.compare_to.busy_s", "s", "lower"),
        ("api.counters.increment.calls", "count", "lower"),
        ("api.counters.increment.busy_s", "s", "lower"),
        ("engine_common.run_combiner_if_any.busy_s", "s", "lower"),
        ("combine.ratio", "ratio", "lower"),
        # Per-job overhead of the front-ends: ``*.op_s`` on session.
        ("lifecycle.events.emit_calls", "count", "lower"),
        ("pig.compile.busy_s", "s", "lower"),
        ("jaql.compile.busy_s", "s", "lower"),
        # User code: the floor no framework change removes.
        ("user.map.busy_s", "s", "lower"),
        ("user.reduce.busy_s", "s", "lower"),
        ("fs.read_bytes", "B", "lower"),
        ("fs.write_bytes", "B", "lower"),
        ("shuffle.remote_bytes", "B", "lower"),
    ]
    if kind == "m3r":
        rows += [
            # Shuffle plan/transport, size cache and de-duplication:
            # ``m3r.op_s`` on matvec.  Bytes, local share and skew pin
            # ``m3r.sim_s`` on matvec (partition stability).
            ("shuffle.build_plan.busy_s", "s", "lower"),
            ("shuffle.execute.busy_s", "s", "lower"),
            ("shuffle.merge.merged.busy_s", "s", "lower"),
            ("shuffle.local_bytes", "B", "higher"),
            ("shuffle.local_share", "ratio", "higher"),
            ("shuffle.place_skew", "ratio", "lower"),
            ("x10.serializer.measure_pairs.calls", "count", "lower"),
            ("x10.serializer.measure_pairs.busy_s", "s", "lower"),
            ("x10.serializer.size_cache_hit_ratio", "ratio", "higher"),
            ("x10.serializer.dedup_saved_bytes", "B", "higher"),
            # Cache and CacheFS metadata scans: ``m3r.op_s``,
            # ``m3r.op_p90_s`` and ``peak_rss_mb`` on session; flat on
            # wordcount.
            ("core.cache.contains_path.calls", "count", "lower"),
            ("core.cache.contains_path.busy_s", "s", "lower"),
            ("core.cache.paths_under.calls", "count", "lower"),
            ("core.cache.paths_under.busy_s", "s", "lower"),
            ("core.cachefs.get_file_status.calls", "count", "lower"),
            ("core.cachefs.get_file_status.busy_s", "s", "lower"),
            ("core.cachefs.list_status.calls", "count", "lower"),
            ("core.cachefs.list_status.busy_s", "s", "lower"),
            ("core.cache.hit_ratio", "ratio", "higher"),
            ("core.cache.entries", "count", "lower"),
            ("core.cache.bytes", "B", "lower"),
        ]
    rows += [
        ("session.late_over_early", "ratio", "lower"),
        ("trace.overhead", "ratio", "lower"),
        ("failed_frac", "ratio", "lower"),
    ]
    # The cost model's terms: they pin ``*.sim_s`` and show which term a
    # model change moved.
    for category in SIM_CATEGORIES[kind]:
        rows.append((f"sim.{category}_s", "s", "lower"))
    return [(f"{kind}.{name}", unit, better) for name, unit, better in rows]


PER_LAYER: List[Tuple[str, str, str]] = _per_engine("m3r") + _per_engine("hadoop")

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

WORKLOAD_WHY = {
    "wordcount": "Figure 8 WordCount, 64k words on a warm engine: per-record map,"
                 " wire sizing, sort, counters and combine dominate",
    "matvec": "Figure 7 iterative blocked sparse matvec, 5 iterations (10 jobs):"
              " few large records, so cache hits, dedup shuffle and per-job cost"
              " dominate",
    "session": "BigSheets-style session of 100 Pig and Jaql queries: per-job"
               " overhead and an M3R cache that grows as outputs are kept",
}

RUN_SECONDS = 20


def manifest() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def p90(values: Sequence[float]) -> float:
    """The 90th percentile (linear interpolation between order statistics)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


def late_over_early(values: Sequence[float]) -> float:
    """Median of the last tenth of ``values`` over that of the first tenth."""
    if not values:
        return 0.0
    k = max(1, len(values) // 10)
    early = median(values[:k])
    return median(values[-k:]) / early if early else 0.0


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
