"""The benchmark harness: set-up, the closed-loop measurement, tracing and
the metrics of one run.

One run serves one workload.  A single client thread runs one operation
at a time, alternating engines (M3R first on even operations, Hadoop
first on odd ones), in rounds; it starts no threads of its own.

``seconds`` sizes the run as a number of rounds: ``seconds`` over the
workload's nominal round duration (measured on a 2-core host), rounded,
at least one, and for an untraced run at least ``workload.min_rounds``
so that every p90 is taken over at least eight operations per engine
(wordcount and matvec therefore measure longer than ``seconds``).  The
work of a run is fixed for a given length, so runs on different commits
and hosts gather the same samples and the same memory high-water mark;
a faster program finishes sooner.

* **Set-up** (``setup_s``): generate the inputs, build both engines, load
  the inputs and run one cold operation on each (the M3R input cache
  fills here; its output is checked after the clock stops).  An untraced
  run sets up ``workload.setups`` times, keeps the last pair of engines
  and reports the median.
* **Untraced run** (``--trace 0``): the end-to-end metrics.
* **Traced run** (``--trace 1``): half the time untraced, then fresh
  engines replay the same operations with :class:`tracer.LayerTracer`
  installed; the per-layer metrics come from the traced half, and every
  traced operation must reproduce its untraced output and simulated
  seconds exactly.

Every operation's output is checked against the workload's reference and
against the other engine's output; a failed, refused or wrong operation
counts in ``failed``.
"""

from __future__ import annotations

import os
import platform
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import scipy

from repro import engine_common
from repro.api.counters import Counters, TaskCounter
from repro.api.mapred import Mapper, Reducer
from repro.api.writables import WritableComparable
from repro.core.cache import KeyValueCache
from repro.core.cachefs import M3RFileSystem
from repro.core.engine import M3REngine
from repro.fs.instrumented import FsTally
from repro.hadoop_engine import HadoopEngine
from repro.jaql import JaqlRunner
from repro.lifecycle import hadoop_stages, m3r_stages
from repro.lifecycle.events import EventBus
from repro.pig import PigRunner
from repro.shuffle import plan as shuffle_plan
from repro.shuffle.executor import ShuffleExecutor
from repro.shuffle.merge import ShuffleInput
from repro.sim.metrics import Metrics, shuffle_skew
from repro.x10 import serializer
from repro.x10.serializer import DedupSerializer

import metrics as catalogue
from tracer import LayerTracer, StageSink
from workloads import ENGINES, WORKLOADS, EngineState, OpSample, Workload

_perf = time.perf_counter

#: User code whose map/reduce time is the floor no framework change removes.
USER_MODULES = ("repro.apps.", "repro.pig.", "repro.jaql.")


# ---------------------------------------------------------------------- #
# bookkeeping
# ---------------------------------------------------------------------- #


@dataclass
class Book:
    """Operations attempted and failed per engine, with a line per failure."""

    attempted: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(ENGINES, 0))
    failed: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(ENGINES, 0))
    problems: List[str] = field(default_factory=list)
    _bad: set = field(default_factory=set)

    def fail(self, sample: OpSample, why: str) -> None:
        if id(sample) not in self._bad:
            self._bad.add(id(sample))
            self.failed[sample.engine] += 1
        self.problems.append(f"{sample.engine} op {sample.index}: {why}")

    def settle(self, workload: Workload, pair: Dict[str, OpSample]) -> None:
        """Check one operation's samples (one per engine)."""
        good = True
        for sample in pair.values():
            self.attempted[sample.engine] += 1
            if sample.error is not None:
                self.fail(sample, sample.error)
                good = False
            elif not workload.check(sample):
                self.fail(sample, "output differs from the reference")
                good = False
        if good and not workload.same(pair["m3r"], pair["hadoop"]):
            for sample in pair.values():
                self.fail(sample, "engines disagree")


#: Per engine, the samples of one measured phase in run order.
Samples = Dict[str, List[OpSample]]


# ---------------------------------------------------------------------- #
# set-up and measurement
# ---------------------------------------------------------------------- #


def open_engines(workload: Workload, inputs: Any, sinks: Tuple[Any, ...] = ()
                 ) -> Tuple[Dict[str, EngineState], Dict[str, OpSample]]:
    """Both engines with the inputs loaded, and their cold operations
    (left for the caller to check, outside any timing)."""
    states = {kind: workload.open(kind, inputs) for kind in ENGINES}
    for state in states.values():
        state.engine.trace_sinks.extend(sinks)
    return states, {kind: workload.cold(states[kind]) for kind in ENGINES}


def close_engines(workload: Workload, states: Optional[Dict[str, EngineState]]) -> None:
    for state in (states or {}).values():
        workload.close(state)


def rounds_for(workload: Workload, seconds: float, trace: bool) -> int:
    rounds = max(1, round(seconds / workload.nominal_round_s))
    return rounds if trace else max(rounds, workload.min_rounds)


def measure(workload: Workload, inputs: Any, states: Dict[str, EngineState],
            rounds: int, book: Book, tracer: Optional[LayerTracer] = None,
            sinks: Tuple[Any, ...] = ()) -> Tuple[Samples, Dict[str, EngineState]]:
    """``rounds`` closed-loop rounds of operations on both engines."""
    samples: Samples = {kind: [] for kind in ENGINES}
    for round_no in range(rounds):
        if round_no and workload.fresh_engines_per_round:
            close_engines(workload, states)
            states, cold = open_engines(workload, inputs, sinks)
            book.settle(workload, cold)
            if tracer is not None:
                tracer.drain()  # the cold operation is not measured
        for i in range(workload.ops_per_round):
            index = i if workload.fresh_engines_per_round else (
                round_no * workload.ops_per_round + i)
            order = ENGINES if index % 2 == 0 else ENGINES[::-1]
            pair: Dict[str, OpSample] = {}
            for kind in order:
                sample = workload.run_op(states[kind], index)
                if tracer is not None:
                    sample.layers = tracer.drain()
                pair[kind] = sample
                samples[kind].append(sample)
            book.settle(workload, pair)
    return samples, states


def _late_over_early(workload: Workload, samples: List[OpSample]) -> float:
    """Late-over-early latency per session (each round on fresh engines),
    or over the whole run when the engines stay up."""
    walls = [s.wall_s for s in samples]
    size = workload.ops_per_round if workload.fresh_engines_per_round else len(walls)
    return catalogue.median([catalogue.late_over_early(walls[i:i + size])
                             for i in range(0, len(walls), size)])


def install_tracer(tracer: LayerTracer) -> None:
    """Wrap every layer boundary the per-layer metrics name."""
    fn = tracer.patch_function
    fn("lifecycle.map_task", m3r_stages.run_m3r_map_task, wait=True)
    fn("lifecycle.map_task", hadoop_stages.run_hadoop_map_task, wait=True)
    fn("lifecycle.reduce_task", m3r_stages.run_m3r_reduce_task, wait=True)
    fn("lifecycle.reduce_task", hadoop_stages.run_hadoop_reduce_task, wait=True)
    fn("engine_common.pair_bytes", engine_common.pair_bytes)
    fn("engine_common.run_combiner_if_any", engine_common.run_combiner_if_any)
    fn("x10.serializer.estimate_size", serializer.estimate_size)
    fn("shuffle.build_plan", shuffle_plan.build_plan)
    method = tracer.patch_method
    method("shuffle.execute", ShuffleExecutor, "execute")
    method("shuffle.merge.merged", ShuffleInput, "merged")
    method("x10.serializer.measure_pairs", DedupSerializer, "measure_pairs")
    method("api.counters.increment", Counters, "increment")
    method("core.cache.contains_path", KeyValueCache, "contains_path")
    method("core.cache.paths_under", KeyValueCache, "paths_under")
    method("core.cachefs.get_file_status", M3RFileSystem, "get_file_status")
    method("core.cachefs.list_status", M3RFileSystem, "list_status")
    method("lifecycle.events.emit", EventBus, "emit")
    method("engine.run_job", M3REngine, "run_job")
    method("engine.run_job", HadoopEngine, "run_job")
    tracer.patch_amount("fs.read", FsTally, "add_read")
    tracer.patch_amount("fs.write", FsTally, "add_write")
    method("pig.run", PigRunner, "run")
    method("jaql.run", JaqlRunner, "run")
    tracer.patch_subclass_methods("api.writables.compare_to", WritableComparable,
                                  "compare_to")
    tracer.patch_subclass_methods("user.map", Mapper, "map", USER_MODULES)
    tracer.patch_subclass_methods("user.reduce", Reducer, "reduce", USER_MODULES)


# ---------------------------------------------------------------------- #
# per-operation layer values
# ---------------------------------------------------------------------- #


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_values(kind: str, sample: OpSample) -> Dict[str, float]:
    """One traced operation's per-layer values, keyed without the engine."""
    layers = sample.layers

    def col(name: str, i: int) -> float:
        row = layers.get(name)
        return float(row[i]) if row else 0.0

    values: Dict[str, float] = {}
    for stage in catalogue.STAGES[kind]:
        values[f"lifecycle.stage.{stage}_s"] = col(f"stage.{stage}", 1)
    stage_total = sum(row[1] for name, row in layers.items() if name.startswith("stage."))
    values["lifecycle.outside_stages_s"] = sample.wall_s - stage_total
    for task in ("map_task", "reduce_task"):
        values[f"lifecycle.{task}.calls"] = col(f"lifecycle.{task}", 0)
        values[f"lifecycle.{task}.busy_s"] = col(f"lifecycle.{task}", 1)
    values[f"{catalogue.DISPATCHER[kind]}.dispatch_wait_s"] = (
        col("lifecycle.map_task", 3) + col("lifecycle.reduce_task", 3))
    for name in ("engine_common.pair_bytes", "x10.serializer.estimate_size",
                 "api.writables.compare_to", "api.counters.increment",
                 "x10.serializer.measure_pairs", "core.cache.contains_path",
                 "core.cache.paths_under", "core.cachefs.get_file_status",
                 "core.cachefs.list_status"):
        values[f"{name}.calls"] = col(name, 0)
        values[f"{name}.busy_s"] = col(name, 1)
    for name in ("engine_common.run_combiner_if_any", "shuffle.build_plan",
                 "shuffle.execute", "shuffle.merge.merged", "user.map", "user.reduce"):
        values[f"{name}.busy_s"] = col(name, 1)
    values["lifecycle.events.emit_calls"] = col("lifecycle.events.emit", 0)
    # Front-end compile time: the runners' own time, outside the jobs
    # they submit and the other traced layers they call.
    values["pig.compile.busy_s"] = col("pig.run", 2)
    values["jaql.compile.busy_s"] = col("jaql.run", 2)

    counters: Dict[str, float] = {}
    job_metrics = Metrics()
    for result in sample.results:
        for group in result.counters.as_dict().values():
            for name, value in group.items():
                counters[name] = counters.get(name, 0) + value
        job_metrics.merge(result.metrics)
    get = job_metrics.get
    values["combine.ratio"] = _ratio(
        counters.get(TaskCounter.COMBINE_OUTPUT_RECORDS.value, 0),
        counters.get(TaskCounter.COMBINE_INPUT_RECORDS.value, 0))
    values["fs.read_bytes"] = col("fs.read", 0)
    values["fs.write_bytes"] = col("fs.write", 0)
    if kind == "m3r":
        remote, local = get("shuffle_remote_bytes"), get("shuffle_local_bytes")
        values["shuffle.remote_bytes"] = remote
        values["shuffle.local_bytes"] = local
        values["shuffle.local_share"] = _ratio(local, local + remote)
        values["shuffle.place_skew"] = shuffle_skew(job_metrics)["skew_ratio"]
        hits = get("size_cache_hits")
        values["x10.serializer.size_cache_hit_ratio"] = _ratio(
            hits, hits + get("size_cache_misses"))
        values["x10.serializer.dedup_saved_bytes"] = get("dedup_saved_bytes")
        hits = get("cache_hits")
        values["core.cache.hit_ratio"] = _ratio(hits, hits + get("cache_misses"))
    else:
        values["shuffle.remote_bytes"] = counters.get(
            TaskCounter.REDUCE_SHUFFLE_BYTES.value, 0)
    for category in catalogue.SIM_CATEGORIES[kind]:
        values[f"sim.{category}_s"] = job_metrics.time.get(category)
    return values


def _cache_footprint(state: EngineState) -> Tuple[int, int]:
    """(entries, resident bytes) of an M3R engine's key/value cache."""
    stats = state.engine.cache.stats()
    resident = sum(place["resident_bytes"] for place in stats["places"].values())
    return len(state.engine.cache), resident


# ---------------------------------------------------------------------- #
# one run
# ---------------------------------------------------------------------- #


@dataclass
class Report:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]
    meta: Dict[str, Any]
    #: Human-readable extra lines (sample counts, untraced figures).
    notes: List[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def run_meta(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "random"),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, setups: Optional[int] = None) -> Report:
    workload = WORKLOADS[workload_name](seed, scale)
    rounds = rounds_for(workload, seconds / 2 if trace else seconds, trace)
    book = Book()
    notes: List[str] = []
    states: Optional[Dict[str, EngineState]] = None
    setup_times: List[float] = []
    try:
        for _ in range(1 if trace else setups or workload.setups):
            close_engines(workload, states)
            states = None
            start = _perf()
            inputs = workload.generate()
            states, cold = open_engines(workload, inputs)
            setup_times.append(_perf() - start)
            book.settle(workload, cold)
        plain, states = measure(workload, inputs, states, rounds, book)
        close_engines(workload, states)
        states = None

        values: Dict[str, float] = {}
        for kind in ENGINES:
            walls = [s.wall_s for s in plain[kind]]
            values[f"{kind}.op_s"] = catalogue.median(walls)
            values[f"{kind}.op_p90_s"] = catalogue.p90(walls)
            values[f"{kind}.sim_s"] = catalogue.median([s.sim_s for s in plain[kind]])
            notes.append(f"{kind}: {len(walls)} untraced operations in "
                         f"{rounds} round(s)")
        values["setup_s"] = catalogue.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not trace:
            metrics = {name: values[name] for name, *_ in catalogue.END_TO_END}
        else:
            for name in sorted(values):
                notes.append(f"untraced {name} = {values[name]!r}")
            metrics = _traced_metrics(workload, inputs, rounds, book,
                                      plain, values, notes)
    finally:
        close_engines(workload, states)
    if trace:
        for kind in ENGINES:
            metrics[f"{kind}.failed_frac"] = _ratio(book.failed[kind],
                                                   book.attempted[kind])
    return Report(metrics, sum(book.attempted.values()),
                  sum(book.failed.values()), book.problems,
                  run_meta(workload_name, seed, seconds, trace), notes)


def _traced_metrics(workload: Workload, inputs: Any, rounds: int, book: Book,
                    plain: Samples, untraced: Dict[str, float],
                    notes: List[str]) -> Dict[str, float]:
    tracer = LayerTracer()
    sinks = (StageSink(tracer),)
    states, cold = open_engines(workload, inputs, sinks)
    book.settle(workload, cold)
    try:
        install_tracer(tracer)
        tracer.drain()
        try:
            traced, states = measure(workload, inputs, states, rounds, book,
                                     tracer=tracer, sinks=sinks)
        finally:
            tracer.uninstall()
        footprint = _cache_footprint(states["m3r"])
    finally:
        close_engines(workload, states)

    # The traced replay must reproduce the untraced outputs and seconds.
    first: Dict[Tuple[str, int], OpSample] = {}
    for kind in ENGINES:
        for sample in plain[kind]:
            first.setdefault((kind, sample.index), sample)
        for sample in traced[kind]:
            before = first.get((kind, sample.index))
            if before is None or before.error or sample.error:
                continue
            if sample.sim_s != before.sim_s:
                book.fail(sample, f"traced sim_s {sample.sim_s!r} != "
                                  f"untraced {before.sim_s!r}")
            elif not workload.same(before, sample):
                book.fail(sample, "traced output differs from untraced")

    metrics: Dict[str, float] = {}
    for kind in ENGINES:
        samples = traced[kind]
        notes.append(f"{kind}: {len(samples)} traced operations")
        per_op = [_layer_values(kind, s) for s in samples]
        for name in per_op[0]:
            metrics[f"{kind}.{name}"] = catalogue.median([v[name] for v in per_op])
        metrics[f"{kind}.session.late_over_early"] = _late_over_early(
            workload, plain[kind])
        metrics[f"{kind}.trace.overhead"] = _ratio(
            catalogue.median([s.wall_s for s in samples]), untraced[f"{kind}.op_s"])
    metrics["m3r.core.cache.entries"], metrics["m3r.core.cache.bytes"] = footprint
    wanted = [name for name, *_ in catalogue.PER_LAYER
              if not name.endswith(".failed_frac")]
    return {name: metrics[name] for name in wanted}
