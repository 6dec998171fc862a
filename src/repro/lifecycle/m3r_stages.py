"""The M3R engine's stage provider: in-memory execution as pipeline stages.

This is the body of the old monolithic ``M3REngine._execute`` (paper
Section 3.2), decomposed onto the shared :class:`~repro.lifecycle.pipeline.JobPipeline`:

    setup → plan_splits → map → [shuffle → reduce] → commit →
    cache-admit → teardown

(map-only jobs skip shuffle/reduce; the combiner is a per-task sub-phase
of ``map`` and the sort/k-way-merge a per-task sub-phase of ``reduce`` —
they run inside task bodies, so surfacing them as barrier stages would
change the simulation).

Every ``ctx.advance`` below reproduces one ``clock +=`` of the original
``_execute``, with compound additions (``shuffle_time + barrier``,
``makespan + barrier``) kept as single expressions — float addition is
order-sensitive and the refactor's invariant is byte-identical simulated
seconds.  The memory governor and sanitizers are NOT wired here: they
ride the event bus (see :mod:`repro.lifecycle.subscriptions`).

Task bodies are **module-level functions over an explicit**
:class:`~repro.lifecycle.envelopes.TaskContext` — not closures over
provider methods.  That is the place-portability refactor (DESIGN.md
§16): ``analyze --report portability`` counts every capture a provider
method's closures would have to ship to another process, and this module
keeps that inventory at zero by construction.  Each task body splits as

    driver prologue  (cache/filesystem/placement — needs the engine)
    → kernel         (pure user code; offloadable to a place worker)
    → driver epilogue (cost-model charges from the kernel outcome,
                       applied in exactly the original order)

with the kernel either run inline (thread backend, or any fallback) or
shipped to a per-place worker process as a picklable envelope
(:mod:`repro.lifecycle.envelopes`) — identical outputs, counters and
simulated seconds either way.
"""

from __future__ import annotations

import copy
import functools
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.api.conf import NUM_MAPS_HINT_KEY, JobConf
from repro.api.counters import JobCounter
from repro.api.extensions import is_immutable_output, is_temporary_output
from repro.api.formats import FileOutputFormat
from repro.api.mapred import Reporter
from repro.api.multiple_io import TASK_FS_KEY, TASK_PARTITION_KEY
from repro.api.splits import InputSplit
from repro.engine_common import (
    MaterializedReader,
    PartitionBuffer,
    batch_size_for,
    bounded_task_fn,
    imc_armed,
    imc_max_entries_for,
)
from repro.fs.instrumented import FsTally, InstrumentedFileSystem
from repro.hadoop_engine.scheduler import SlotLanes
from repro.lifecycle.envelopes import (
    MapKernelEnvelope,
    ReduceKernelEnvelope,
    TaskContext,
    _offload_enabled,
    dispatch_kernel,
    make_task_reader,
    map_kernel_eligible,
    merge_counter_groups,
    reduce_kernel_eligible,
    run_map_kernel,
    run_reduce_kernel,
    wire_task_conf,
)
from repro.lifecycle.pipeline import JobContext, StageFn, StageProvider
from repro.lifecycle.subscriptions import (
    GovernorSubscription,
    SanitizerSubscription,
)
from repro.restore import admission as restore
from repro.shuffle import ShuffleExecutor, ShuffleInput
from repro.x10.runtime import ActivityError
from repro.x10.serializer import FALLBACK_TALLY

__all__ = ["M3RStageProvider", "run_m3r_map_task", "run_m3r_reduce_task"]


class M3RStageProvider(StageProvider):
    """Supplies the M3R engine's cache/co-location/handoff stages."""

    engine_name = "m3r"
    #: No resilience: a lost node kills the job with JobFailedError.
    raise_node_failure = True

    def __init__(self, engine: Any):
        self.engine = engine

    # ------------------------------------------------------------------ #
    # pipeline contract
    # ------------------------------------------------------------------ #

    def subscriptions(self, ctx: JobContext) -> Sequence[Callable[[Any], None]]:
        # Governor first: pins must exist before any stage can evict.
        return (GovernorSubscription(self.engine, ctx), SanitizerSubscription(ctx))

    def stages(self, ctx: JobContext) -> Iterable[Tuple[str, StageFn]]:
        # Partials, not lambdas: stage thunks must not be closures over
        # this method (the portability inventory counts every capture).
        st: Dict[str, Any] = {}
        reuse = restore.restore_enabled(ctx.conf)
        if reuse:
            # Admission runs before any stage touches the filesystem; the
            # generator resumes after the pipeline executed it, so a hit
            # replaces the whole stage list with one serve stage.
            yield "admission", functools.partial(restore.admit, ctx, self.engine, st)
            if st.get(restore.HIT_KEY) is not None:
                yield "serve", functools.partial(
                    restore.serve_m3r, ctx, self.engine, st
                )
                return
        yield "setup", functools.partial(self._setup, ctx, st)
        yield "plan_splits", functools.partial(self._plan_splits, ctx, st)
        yield "map", functools.partial(self._map_stage, ctx, st)
        if ctx.spec.is_map_only:
            yield "commit", functools.partial(self._commit_map_only, ctx, st)
        else:
            yield "shuffle", functools.partial(self._shuffle_stage, ctx, st)
            yield "reduce", functools.partial(self._reduce_stage, ctx, st)
            yield "commit", functools.partial(self._commit, ctx, st)
        yield "cache-admit", functools.partial(self._cache_admit, ctx)
        yield "teardown", functools.partial(self._teardown, ctx, st)
        if reuse:
            yield "restore-record", functools.partial(
                restore.record, ctx, self.engine, st
            )

    # ------------------------------------------------------------------ #
    # stages
    # ------------------------------------------------------------------ #

    def _setup(self, ctx: JobContext, st: Dict[str, Any]) -> None:
        engine = self.engine
        model = engine.cost_model
        spec, conf = ctx.spec, ctx.conf
        # Engine-lifetime tallies snapshotted up front so teardown can
        # report per-job deltas (size cache, serializer fallbacks).
        st["size_cache_before"] = engine.runtime.size_cache.snapshot()  # noqa: M3R001 - driver-thread stage scratch
        st["fallbacks_before"] = FALLBACK_TALLY.snapshot()  # noqa: M3R001 - driver-thread stage scratch

        spec.output_format.check_output_specs(engine.filesystem, conf)
        st["committer"] = spec.output_format.get_output_committer()  # noqa: M3R001 - driver-thread stage scratch
        st["job_is_temp"] = spec.output_path is not None and is_temporary_output(  # noqa: M3R001 - driver-thread stage scratch
            spec.output_path, conf
        )
        if not (st["job_is_temp"] and engine.enable_cache):
            st["committer"].setup_job(engine.filesystem, conf)

        ctx.advance(model.m3r_job_submit)
        ctx.metrics.time.charge("job_submit", model.m3r_job_submit)

    def _plan_splits(self, ctx: JobContext, st: Dict[str, Any]) -> None:
        engine = self.engine
        spec, conf = ctx.spec, ctx.conf
        hint = conf.get_int(NUM_MAPS_HINT_KEY, 0) or (
            engine.num_places * engine.workers_per_place
        )
        splits = spec.input_format.get_splits(engine.filesystem, conf, hint)
        ctx.metrics.incr("map_tasks", len(splits))
        ctx.counters.increment(JobCounter.TOTAL_LAUNCHED_MAPS, len(splits))
        st["splits"] = splits  # noqa: M3R001 - driver-thread stage scratch
        st["placements"] = [  # noqa: M3R001 - driver-thread stage scratch
            engine._place_for_split(split, index, spec)
            for index, split in enumerate(splits)
        ]

    def _map_stage(
        self, ctx: JobContext, st: Dict[str, Any]
    ) -> Dict[int, float]:
        engine = self.engine
        splits: List[InputSplit] = st["splits"]
        placements: List[int] = st["placements"]

        tctx = TaskContext(ctx, engine, st)
        map_results = run_m3r_phase(
            engine, ctx.conf, placements,
            functools.partial(run_m3r_map_task, tctx),
        )
        # Virtual-clock accounting happens after the phase returns, in
        # task-index order, so the makespan is the same whether the tasks
        # ran inline or concurrently.
        map_lanes = SlotLanes(engine.num_places, engine.workers_per_place)
        map_outputs: List[List[PartitionBuffer]] = []
        map_places: List[int] = []
        for index, (duration, buffers) in enumerate(map_results):
            map_lanes.add_task(placements[index], duration)
            map_outputs.append(buffers)
            map_places.append(placements[index])
        ctx.advance(map_lanes.makespan())
        for index, (duration, buffers) in enumerate(map_results):
            ctx.emit_task(
                "map", index, placements[index], duration,
                records=sum(len(b.pairs) for b in buffers),
                nbytes=sum(b.bytes for b in buffers),
            )
        st["map_outputs"] = map_outputs  # noqa: M3R001 - driver-thread stage scratch
        st["map_places"] = map_places  # noqa: M3R001 - driver-thread stage scratch
        return map_lanes.node_busy_seconds()

    def _commit_map_only(self, ctx: JobContext, st: Dict[str, Any]) -> None:
        engine = self.engine
        model = engine.cost_model
        ctx.advance(model.m3r_barrier)
        ctx.metrics.time.charge("barrier", model.m3r_barrier)
        if not (st["job_is_temp"] and engine.enable_cache):
            st["committer"].commit_job(engine.filesystem.inner, ctx.conf)

    def _shuffle_stage(self, ctx: JobContext, st: Dict[str, Any]) -> None:
        engine = self.engine
        model = engine.cost_model
        spec = ctx.spec
        ctx.counters.increment(JobCounter.TOTAL_LAUNCHED_REDUCES, spec.num_reducers)
        shuffle_time, reduce_inputs = self._shuffle(
            ctx, st["map_outputs"], st["map_places"]
        )
        ctx.advance(shuffle_time + model.m3r_barrier)
        ctx.metrics.time.charge("barrier", model.m3r_barrier)
        st["reduce_inputs"] = reduce_inputs  # noqa: M3R001 - driver-thread stage scratch

    def _reduce_stage(
        self, ctx: JobContext, st: Dict[str, Any]
    ) -> Dict[int, float]:
        engine = self.engine
        model = engine.cost_model
        spec = ctx.spec
        reduce_inputs: List[ShuffleInput] = st["reduce_inputs"]
        reduce_places = [
            engine.partition_place(partition)
            for partition in range(spec.num_reducers)
        ]
        st["reduce_places"] = reduce_places  # noqa: M3R001 - driver-thread stage scratch

        tctx = TaskContext(ctx, engine, st)
        durations = run_m3r_phase(
            engine, ctx.conf, reduce_places,
            functools.partial(run_m3r_reduce_task, tctx),
        )
        reduce_lanes = SlotLanes(engine.num_places, engine.workers_per_place)
        for partition, duration in enumerate(durations):
            reduce_lanes.add_task(reduce_places[partition], duration)
        ctx.advance(reduce_lanes.makespan() + model.m3r_barrier)
        ctx.metrics.time.charge("barrier", model.m3r_barrier)
        for partition, duration in enumerate(durations):
            ctx.emit_task(
                "reduce", partition, reduce_places[partition], duration,
                records=reduce_inputs[partition].records,
                nbytes=reduce_inputs[partition].bytes,
            )
        return reduce_lanes.node_busy_seconds()

    def _commit(self, ctx: JobContext, st: Dict[str, Any]) -> None:
        engine = self.engine
        if not (st["job_is_temp"] and engine.enable_cache):
            st["committer"].commit_job(engine.filesystem.inner, ctx.conf)

    def _cache_admit(self, ctx: JobContext) -> None:
        # Spill/rehydration I/O charged by the governor during the job
        # lands on the job clock here.
        ctx.advance(self.engine.governor.drain_seconds())

    def _teardown(self, ctx: JobContext, st: Dict[str, Any]) -> None:
        engine = self.engine
        # How much re-measurement the memoized size cache saved this job
        # (the cache is engine-lifetime; metrics report per-job deltas).
        cache_hits, cache_misses = st["size_cache_before"]
        hits, misses = engine.runtime.size_cache.snapshot()
        ctx.metrics.incr("size_cache_hits", hits - cache_hits)
        ctx.metrics.incr("size_cache_misses", misses - cache_misses)
        # Size estimates that fell back to a fixed pickle guess this job
        # (see x10.serializer.FALLBACK_TALLY) — ideally always zero.
        ctx.metrics.incr(
            "serializer_fallbacks",
            FALLBACK_TALLY.snapshot() - st["fallbacks_before"],
        )

    # ------------------------------------------------------------------ #
    # shuffle
    # ------------------------------------------------------------------ #

    def _shuffle(
        self,
        ctx: JobContext,
        map_outputs: List[List[PartitionBuffer]],
        map_places: List[int],
    ) -> Tuple[float, List[ShuffleInput]]:
        """Route map output to reducer places; returns (time, reduce inputs).

        Co-located traffic is a pointer hand-off.  Cross-place messages pay
        (de-duplicated) serialization, wire time and deserialization, and
        are deep-copied *with a shared memo* so aliasing survives transport
        exactly as X10 reconstructs it on the receiving place.

        The heavy lifting lives in :mod:`repro.shuffle`: a deterministic
        plan, inline execution of one work item per place-to-place message
        (runs sorted map-side, so reducers stream a k-way merge), and a
        replay of all charges in plan order.  The replay also narrates
        each message as a ``shuffle`` TaskEnd event.
        """
        engine = self.engine
        spec = ctx.spec
        executor = ShuffleExecutor(
            runtime=engine.runtime,
            cost_model=engine.cost_model,
            num_places=engine.num_places,
            partition_place=engine.partition_place,
            enable_dedup=engine.enable_dedup,
        )
        plan = executor.plan(spec.num_reducers, map_outputs, map_places)
        results = executor.execute(plan, spec.sort_key())
        reduce_inputs = [ShuffleInput() for _ in range(spec.num_reducers)]
        seconds = executor.replay(
            plan, results, reduce_inputs, ctx.counters, ctx.metrics, bus=ctx.bus
        )
        return seconds, reduce_inputs


# ---------------------------------------------------------------------- #
# phase running
# ---------------------------------------------------------------------- #


def run_m3r_phase(
    engine: Any,
    conf: JobConf,
    placements: Sequence[int],
    task_fn: Callable[[int], Any],
) -> List[Any]:
    """Run one barrier-delimited phase: ``task_fn(i)`` at place
    ``placements[i]`` for every task index, results in task-index order.

    Tasks run inline, in task order, on the calling thread — unless the
    engine's place backend offloads kernels to worker processes
    (:func:`_offload_enabled`).  Then the phase is one ``finish`` block
    spawning one ``async`` activity per task at its place, bounded to
    ``workers_per_place`` per place, so every worker process has a
    kernel in flight at once.  The first task exception is re-raised
    exactly as the inline loop would raise it (unwrapped from
    :class:`ActivityError`), preserving the fail-fast "no resilience"
    semantics — a :class:`JobFailedError` from a task still reaches
    the pipeline as a :class:`JobFailedError`.
    """
    if len(placements) <= 1 or not _offload_enabled(engine, conf):
        return [task_fn(index) for index in range(len(placements))]
    bounded = bounded_task_fn(placements, engine.workers_per_place, task_fn)

    def spawn(scope: Any) -> None:
        for index, place_id in enumerate(placements):
            scope.async_at(engine.runtime.place(place_id), bounded, index)

    try:
        return engine.runtime.finish_collect(spawn)
    except ActivityError as error:
        raise error.first from error


# ---------------------------------------------------------------------- #
# map task bodies
# ---------------------------------------------------------------------- #


def run_m3r_map_task(
    tctx: TaskContext, index: int
) -> Tuple[float, List[PartitionBuffer]]:
    """One map task at its planned place.  The cached input (if any) is
    pinned for the task's duration — a concurrent task's eviction wave
    must not spill the sequence this task is actively reading."""
    split = tctx.st["splits"][index]
    place = tctx.st["placements"][index]
    pinned: List[str] = []
    try:
        return _m3r_map_task_body(tctx, split, index, place, pinned)
    finally:
        for name in pinned:
            tctx.engine.cache.unpin(name)


def _m3r_map_task_body(
    tctx: TaskContext,
    split: InputSplit,
    task_index: int,
    place: int,
    pinned: List[str],
) -> Tuple[float, List[PartitionBuffer]]:
    ctx, engine = tctx.ctx, tctx.engine
    model = engine.cost_model
    spec, conf = ctx.spec, ctx.conf
    counters, metrics = ctx.counters, ctx.metrics
    duration = 0.0
    node = engine.place_node(place)

    tally = FsTally()
    task_fs = InstrumentedFileSystem(engine.filesystem, tally, at_node=node)
    task_conf = JobConf(conf)
    task_conf.set(TASK_FS_KEY, task_fs)
    task_conf.set(TASK_PARTITION_KEY, task_index)
    reporter = Reporter(counters)

    mapper_class = spec.resolve_mapper_class(split)
    mapper_immutable = is_immutable_output(mapper_class)

    batch_size = batch_size_for(conf)
    use_batched = batch_size > 0 and spec.supports_batched_map(split)
    use_imc = use_batched and imc_armed(spec, conf)

    # --- input: cache, or filesystem + cache insert ------------------- #
    # ``pairs`` set (materialized input) means the kernel can run in a
    # place worker; a streaming reader pins the kernel to the driver.
    pairs = None
    inner_reader = None
    entry = engine._cache_lookup(split, pin=True)
    if entry is not None:
        pinned.append(entry.name)  # noqa: M3R001 - per-task private list
        metrics.incr("cache_hits")
        pairs = entry.pairs
        nbytes = entry.nbytes
        if entry.place_id != place:
            # A PlacedSplit overrode the cache's location: the sequence
            # crosses places once, with full serialization cost.
            wire = engine.runtime.serializer.measure_pairs(pairs)
            cost = (
                model.serialize_time(wire.wire_bytes, len(pairs))
                + model.net_transfer_time(wire.wire_bytes)
                + model.deserialize_time(wire.wire_bytes, len(pairs))
            )
            metrics.time.charge("network", cost)
            duration += cost
            pairs = copy.deepcopy(pairs)
        if mapper_immutable:
            feed = model.handoff_time(len(pairs))
            metrics.time.charge("framework", feed)
        else:
            feed = model.clone_time(nbytes, len(pairs))
            metrics.time.charge("clone", feed)
            metrics.incr("cloned_records", len(pairs))
        duration += feed
    else:
        metrics.incr("cache_misses")
        raw_reader = spec.input_format.get_record_reader(
            task_fs, split, task_conf, reporter
        )
        identity = engine._split_cache_identity(split)
        if identity is not None and engine.enable_cache:
            pairs = [pair for pair in iter(raw_reader.next_pair, None)]
            nbytes = tally.bytes_read
            engine._cache_insert(identity, place, pairs, nbytes)
            metrics.incr("cache_inserts")
            if mapper_immutable:
                feed = model.handoff_time(len(pairs))
                metrics.time.charge("framework", feed)
            else:
                feed = model.clone_time(nbytes, len(pairs))
                metrics.time.charge("clone", feed)
                metrics.incr("cloned_records", len(pairs))
            duration += feed
        else:
            # Unknown split type (or cache disabled): stream straight
            # through without caching.
            inner_reader = raw_reader
        read_time = model.disk_read_time(
            tally.bytes_read, seeks=max(1, tally.read_ops)
        )
        metrics.time.charge("disk_read", read_time)
        duration += read_time
        if not engine._is_local_read(split, node) and tally.bytes_read:
            net = model.net_transfer_time(tally.bytes_read)
            metrics.time.charge("network", net)
            duration += net
            metrics.incr("remote_map_reads")

    # --- run the user code (the kernel: worker process, or inline) ---- #
    policy = (
        "alias" if spec.map_output_immutable(split, fresh_runner=True) else "clone"
    )
    imc_entries = imc_max_entries_for(conf)
    outcome = None
    if pairs is not None and map_kernel_eligible(engine, conf, spec, mapper_class):
        envelope = MapKernelEnvelope(
            wire_task_conf(task_conf),
            split,
            pairs,
            clone_input=not mapper_immutable,
            use_batched=use_batched,
            batch_size=batch_size,
            use_imc=use_imc,
            imc_max_entries=imc_entries,
            policy=policy,
            map_only=spec.is_map_only,
        )
        outcome = dispatch_kernel(engine, place, envelope)
        if outcome is not None:
            merge_counter_groups(counters, outcome.counter_groups)
            if outcome.error is not None:
                raise outcome.error
    if outcome is None:
        inner = (
            inner_reader
            if inner_reader is not None
            else MaterializedReader(pairs, clone=not mapper_immutable)
        )
        reader = make_task_reader(inner, counters, use_batched, batch_size)
        outcome = run_map_kernel(
            spec, split, reader, counters, reporter, task_conf,
            use_batched=use_batched,
            use_imc=use_imc,
            imc_max_entries=imc_entries,
            policy=policy,
            map_only=spec.is_map_only,
        )
    if use_batched:
        metrics.incr("batch_batches", outcome.reader_batches)
        metrics.incr("batch_records", outcome.reader_records)

    # Deserialization is paid only when records actually came off the
    # filesystem; cache hits skip it entirely (the paper's point).
    if entry is None:
        deser = model.deserialize_time(tally.bytes_read, outcome.reader_records)
        metrics.time.charge("deserialize", deser)
        duration += deser
        nn = model.namenode_op * max(1, tally.metadata_ops)
        metrics.time.charge("namenode", nn)
        duration += nn

    compute = outcome.compute_user
    metrics.time.charge("map_compute", compute)
    duration += compute
    framework = model.map_framework_time(outcome.reader_records)
    metrics.time.charge("framework", framework)
    duration += framework
    if mapper_immutable:
        alloc = model.alloc_time(outcome.records) + model.gc_churn_time(
            outcome.records
        )
        metrics.time.charge("alloc", alloc)
        duration += alloc
    if outcome.copied_records:
        clone = model.clone_time(outcome.copied_bytes, outcome.copied_records)
        metrics.time.charge("clone", clone)
        metrics.incr("cloned_records", outcome.copied_records)
        duration += clone

    if spec.is_map_only:
        part_path = FileOutputFormat.part_path(conf, task_index)
        temp = spec.output_path is not None and is_temporary_output(
            spec.output_path, conf
        )
        buffer = outcome.buffers[0]
        duration += emit_m3r_output(
            tctx, task_conf, part_path, task_index, place,
            buffer.pairs, buffer.bytes, temp, reporter,
        )
        return duration, []

    if use_imc:
        # The hash aggregate replaced buffer-sort-combine, but the
        # simulated cost of the avoided sort is still charged from the
        # same pre-combine totals — identical simulated seconds, the
        # win is wall-clock only (DESIGN.md §14).
        sort_time = model.sort_time(outcome.records, outcome.bytes)
        metrics.time.charge("sort", sort_time)
        duration += sort_time
        compute = outcome.compute_finish
        metrics.time.charge("map_compute", compute)
        duration += compute
        metrics.incr("imc_input_records", outcome.records)
        metrics.incr("imc_output_records", outcome.output_records)
        metrics.incr("imc_folded_records", outcome.imc_folds)
        metrics.incr("imc_spills", outcome.imc_spills)
        return duration, outcome.buffers

    if spec.combiner_class is not None:
        sort_time = model.sort_time(outcome.records, outcome.bytes)
        metrics.time.charge("sort", sort_time)
        duration += sort_time
        compute = outcome.compute_finish
        metrics.time.charge("map_compute", compute)
        duration += compute
    return duration, outcome.buffers


# ---------------------------------------------------------------------- #
# reduce task bodies
# ---------------------------------------------------------------------- #


def run_m3r_reduce_task(tctx: TaskContext, partition: int) -> float:
    ctx, engine, st = tctx.ctx, tctx.engine, tctx.st
    model = engine.cost_model
    spec, conf = ctx.spec, ctx.conf
    counters, metrics = ctx.counters, ctx.metrics
    place = st["reduce_places"][partition]
    shuffle_input: ShuffleInput = st["reduce_inputs"][partition]
    temp_output = st["job_is_temp"]
    duration = 0.0
    node = engine.place_node(place)

    tally = FsTally()
    task_fs = InstrumentedFileSystem(engine.filesystem, tally, at_node=node)
    task_conf = JobConf(conf)
    task_conf.set(TASK_FS_KEY, task_fs)
    task_conf.set(TASK_PARTITION_KEY, partition)
    reporter = Reporter(counters)

    # Bytes and records were accounted while the runs accumulated — no
    # re-walk of the pairs through the size estimator here.  The charge
    # needs only the counts, so it lands before the kernel does the
    # actual merge.  Runs arrived pre-sorted: the kernel streams a k-way
    # merge instead of re-sorting the concatenation.
    records = shuffle_input.records
    nbytes = shuffle_input.bytes
    merge_t = model.merge_time(records, nbytes, len(shuffle_input.runs))
    metrics.time.charge("merge", merge_t)
    duration += merge_t

    policy = "alias" if spec.reduce_output_immutable() else "clone"
    deferred = batch_size_for(conf) > 0
    outcome = None
    if reduce_kernel_eligible(engine, conf, spec):
        envelope = ReduceKernelEnvelope(
            wire_task_conf(task_conf), shuffle_input,
            policy=policy, deferred=deferred,
        )
        outcome = dispatch_kernel(engine, place, envelope)
        if outcome is not None:
            merge_counter_groups(counters, outcome.counter_groups)
            if outcome.error is not None:
                raise outcome.error
    if outcome is None:
        outcome = run_reduce_kernel(
            spec, shuffle_input, counters, reporter, task_conf,
            policy=policy, deferred=deferred,
        )

    compute = outcome.compute_user
    metrics.time.charge("reduce_compute", compute)
    duration += compute
    framework = model.reduce_framework_time(records)
    metrics.time.charge("framework", framework)
    duration += framework
    if spec.reduce_output_immutable():
        alloc = model.alloc_time(outcome.records) + model.gc_churn_time(
            outcome.records
        )
        metrics.time.charge("alloc", alloc)
        duration += alloc
    if outcome.copied_records:
        clone = model.clone_time(outcome.copied_bytes, outcome.copied_records)
        metrics.time.charge("clone", clone)
        metrics.incr("cloned_records", outcome.copied_records)
        duration += clone

    # Filesystem writes made directly by user code during the reduce
    # (e.g. MultipleOutputs) are charged at disk rate.  Snapshot before
    # emit_m3r_output so the part-file flush is not double-counted.
    user_bytes_written = tally.bytes_written
    if user_bytes_written:
        write = model.disk_write_time(user_bytes_written, seeks=1)
        metrics.time.charge("disk_write", write)
        duration += write

    part_path = FileOutputFormat.part_path(conf, partition)
    duration += emit_m3r_output(
        tctx, task_conf, part_path, partition, place,
        outcome.pairs, outcome.bytes, temp_output, reporter,
    )
    return duration


# ---------------------------------------------------------------------- #
# output
# ---------------------------------------------------------------------- #


def emit_m3r_output(
    tctx: TaskContext,
    task_conf: JobConf,
    part_path: str,
    partition: int,
    place: int,
    pairs: List[Tuple[Any, Any]],
    nbytes: int,
    temp_output: bool,
    reporter: Reporter,
) -> float:
    """Cache the output at this place; flush to the filesystem unless
    the output is temporary.  Returns the simulated cost."""
    ctx, engine = tctx.ctx, tctx.engine
    model = engine.cost_model
    metrics = ctx.metrics
    duration = 0.0
    if not (temp_output and engine.enable_cache):
        # Flush to the real filesystem first: writing through the
        # M3RFileSystem invalidates any cache entry for the path, so the
        # cache insert must come after the flush.
        writer = ctx.spec.output_format.get_record_writer(
            task_conf.get(TASK_FS_KEY), task_conf,
            FileOutputFormat.part_name(partition), reporter,
        )
        write = writer.write
        for key, value in pairs:
            write(key, value)
        writer.close()
        ser = model.serialize_time(nbytes, len(pairs))
        metrics.time.charge("serialize", ser)
        duration += ser
        duration += engine._charge_fs_write(nbytes, metrics)
        nn = model.namenode_op
        metrics.time.charge("namenode", nn)
        duration += nn
    else:
        metrics.incr("temp_outputs_skipped")
    if engine.enable_cache:
        # A temp output exists ONLY here — mark it non-durable so
        # eviction must spill it (never drop it).
        engine.cache.put_file(
            part_path, place, pairs, nbytes, durable=not temp_output
        )
        cost = model.handoff_time(len(pairs))
        metrics.time.charge("framework", cost)
        duration += cost
        metrics.incr("cache_outputs")
    duration += engine._replicate_output(part_path, place, pairs, nbytes, metrics)
    return duration
