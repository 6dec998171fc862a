"""Machinery shared by the Hadoop baseline engine and the M3R engine.

Both engines execute the same user code through the same
:class:`~repro.api.job.JobSpec` drivers; they differ in *what they simulate
around it*.  This module holds the parts that are engine-agnostic:

* :class:`EngineResult` — what a run returns (success, simulated seconds,
  counters, metrics, output paths);
* :class:`CountingReader` / :class:`MaterializedReader` — record sources that
  keep the system counters honest regardless of which MapRunnable drives the
  task;
* :class:`CollectorSink` — the engine-side OutputCollector that partitions
  map output, applies the engine's per-record policy (serialize-now for
  Hadoop, clone-or-alias for M3R) and tallies bytes per partition;
* byte accounting helpers over the de-duplicating size estimator.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.analysis.sanitizers import MUTATION_SANITIZER
from repro.api.conf import (
    BATCH_ENABLED_KEY,
    BATCH_ENV,
    BATCH_SIZE_KEY,
    DEFAULT_BATCH_SIZE,
    DEFAULT_IMC_MAX_ENTRIES,
    IMC_ENABLED_KEY,
    IMC_ENV,
    IMC_MAX_ENTRIES_KEY,
    JobConf,
    conf_bool,
)
from repro.api.counters import Counters, TaskCounter
from repro.api.formats import RecordReader
from repro.api.job import JobSpec
from repro.api.mapred import OutputCollector, Reporter
from repro.api.partitioner import Partitioner
from repro.api.vectorized import is_associative_reducer
from repro.sim.metrics import Metrics
from repro.x10.serializer import deep_copy_value, estimate_size


class JobFailedError(RuntimeError):
    """Raised when a job cannot complete (M3R raises this on node failure —
    the engine "does not recover from node failure", paper Section 1)."""


class PlaceFailure(JobFailedError):
    """A place's worker process died mid-task (process backend only).

    Process places make the paper's fail-fast story literal: losing a
    worker process is losing the place, and M3R "does not recover from
    node failure" — the running job fails with this error while the
    backend respawns a fresh worker so the *next* job finds a healthy
    place (warm restart, cold cache)."""

    def __init__(self, place_id: int, reason: str = "worker process died"):
        super().__init__(f"place {place_id}: {reason}")
        self.place_id = place_id


def bounded_task_fn(
    lanes: Sequence[int], lane_width: int, task_fn: Callable[[int], Any]
) -> Callable[[int], Any]:
    """Wrap ``task_fn`` so at most ``lane_width`` tasks run concurrently per
    lane (a place).

    Task bodies never block on each other's *results*, only on lane slots,
    so a blocked pool thread always unblocks once some running task at its
    lane finishes — the bounding cannot deadlock.
    """
    limiters = {
        lane: threading.Semaphore(lane_width) for lane in sorted(set(lanes))
    }

    def bounded(index: int) -> Any:
        with limiters[lanes[index]]:
            return task_fn(index)

    return bounded


@dataclass
class EngineResult:
    """The outcome of one job (or job sequence step) on either engine."""

    job_name: str
    engine: str
    succeeded: bool
    simulated_seconds: float
    counters: Counters
    metrics: Metrics
    output_path: Optional[str] = None
    error: Optional[str] = None
    #: Lifecycle identity: the job id stamped on this run's bus events
    #: (``m3r-<n>`` / ``hadoop-<n>``), correlating results with traces.
    job_id: Optional[str] = None

    def __repr__(self) -> str:
        status = "ok" if self.succeeded else f"FAILED({self.error})"
        return (
            f"EngineResult({self.job_name!r}, engine={self.engine}, {status}, "
            f"t={self.simulated_seconds:.2f}s)"
        )


def batch_size_for(conf: Optional[JobConf]) -> int:
    """Resolved batch size for a task: 0 when the batched path is off."""
    if not conf_bool(conf, BATCH_ENABLED_KEY, env=BATCH_ENV, default=False):
        return 0
    if conf is None:
        return DEFAULT_BATCH_SIZE
    return max(1, conf.get_int(BATCH_SIZE_KEY, DEFAULT_BATCH_SIZE))


def imc_armed(spec: JobSpec, conf: Optional[JobConf]) -> bool:
    """Should this job's map tasks fold through an InMapperCombineSink?

    Conservative by construction: requires the batched path, a reduce
    phase, a combiner that carries the associativity license, and the
    natural key ordering (dict-equality grouping must agree with the
    sort/group comparators — custom comparators fall back per-record).
    """
    return (
        conf_bool(conf, IMC_ENABLED_KEY, env=IMC_ENV, default=False)
        and not spec.is_map_only
        and spec.combiner_class is not None
        and is_associative_reducer(spec.combiner_class)
        and spec.uses_natural_ordering()
    )


def imc_max_entries_for(conf: Optional[JobConf]) -> int:
    """Bound on live keys in one task's in-mapper aggregate."""
    if conf is None:
        return DEFAULT_IMC_MAX_ENTRIES
    return max(1, conf.get_int(IMC_MAX_ENTRIES_KEY, DEFAULT_IMC_MAX_ENTRIES))


def pair_bytes(key: Any, value: Any) -> int:
    """Wire size of one key/value pair, ignoring cross-record sharing."""
    return estimate_size(key) + estimate_size(value)


def pairs_bytes(pairs: List[Tuple[Any, Any]]) -> int:
    """Total wire size of a pair list, ignoring cross-record sharing."""
    return sum(estimate_size(k) + estimate_size(v) for k, v in pairs)


class CountingReader(RecordReader):
    """Wraps a reader so MAP_INPUT_RECORDS is counted by the engine, not by
    whichever MapRunnable happens to drive the task."""

    def __init__(self, inner: RecordReader, counters: Counters):
        self._inner = inner
        self._counters = counters
        self.records = 0

    def next_pair(self) -> Optional[Tuple[Any, Any]]:
        pair = self._inner.next_pair()
        if pair is not None:
            self.records += 1
            self._counters.increment(TaskCounter.MAP_INPUT_RECORDS, 1)
        return pair

    def get_progress(self) -> float:
        return self._inner.get_progress()

    def close(self) -> None:
        self._inner.close()


class MaterializedReader(RecordReader):
    """A reader over an in-memory pair list (cache hits, reduce feeds).

    With ``clone=True`` each record is defensively copied before being handed
    out — M3R does this when serving cached data to a job that has not
    promised ImmutableOutput behaviour.
    """

    def __init__(self, pairs: List[Tuple[Any, Any]], clone: bool = False):
        self._pairs = pairs
        self._index = 0
        self._clone = clone

    def next_pair(self) -> Optional[Tuple[Any, Any]]:
        if self._index >= len(self._pairs):
            return None
        key, value = self._pairs[self._index]
        self._index += 1
        if self._clone:
            return deep_copy_value(key), deep_copy_value(value)
        return key, value

    def take_batch(self, n: int) -> List[Tuple[Any, Any]]:
        """Native batch slice (same records, same order as ``next_pair``)."""
        chunk = self._pairs[self._index : self._index + n]
        self._index += len(chunk)
        if self._clone:
            copy = deep_copy_value
            return [(copy(key), copy(value)) for key, value in chunk]
        return chunk

    def get_progress(self) -> float:
        if not self._pairs:
            return 1.0
        return self._index / len(self._pairs)


class BatchingReader(RecordReader):
    """Batched replacement for :class:`CountingReader`.

    ``next_batch`` pulls up to ``batch_size`` records (via the inner
    reader's native ``take_batch`` when it has one) and bumps
    MAP_INPUT_RECORDS once per batch — identical totals, one counter
    round-trip per batch instead of per record.  ``next_pair`` stays
    available for drivers that fall back to the per-record loop.
    """

    def __init__(self, inner: RecordReader, counters: Counters, batch_size: int):
        self._inner = inner
        self._counters = counters
        self._batch_size = batch_size
        self._take = getattr(inner, "take_batch", None)
        self.records = 0
        self.batches = 0

    def next_batch(self) -> Optional[List[Tuple[Any, Any]]]:
        if self._take is not None:
            batch = self._take(self._batch_size)
        else:
            batch = []
            append = batch.append
            next_pair = self._inner.next_pair
            for _ in range(self._batch_size):
                pair = next_pair()
                if pair is None:
                    break
                append(pair)
        if not batch:
            return None
        self.records += len(batch)
        self.batches += 1
        self._counters.increment(TaskCounter.MAP_INPUT_RECORDS, len(batch))
        return batch

    def next_pair(self) -> Optional[Tuple[Any, Any]]:
        pair = self._inner.next_pair()
        if pair is not None:
            self.records += 1
            self._counters.increment(TaskCounter.MAP_INPUT_RECORDS, 1)
        return pair

    def get_progress(self) -> float:
        return self._inner.get_progress()

    def close(self) -> None:
        self._inner.close()


@dataclass
class PartitionBuffer:
    """Map output destined for one reduce partition."""

    pairs: List[Tuple[Any, Any]] = field(default_factory=list)
    bytes: int = 0

    def append(self, key: Any, value: Any, nbytes: int) -> None:
        self.pairs.append((key, value))
        self.bytes += nbytes


class CollectorSink(OutputCollector):
    """The engine-side map/reduce output collector.

    ``record_policy`` is the engine's per-record treatment, applied *before*
    buffering (``"serialize"`` → snapshot via clone, the moral equivalent of
    Hadoop's immediate serialization; ``"clone"`` → M3R defensive copy;
    ``"alias"`` → M3R with ImmutableOutput: keep the reference).  The sink
    counts records and exact wire bytes either way, because the engines
    charge time from those tallies.
    """

    def __init__(
        self,
        num_partitions: int,
        partitioner: Optional[Partitioner],
        counters: Counters,
        record_policy: str = "serialize",
        output_counter: TaskCounter = TaskCounter.MAP_OUTPUT_RECORDS,
        deferred_counters: bool = False,
    ):
        if record_policy not in ("serialize", "clone", "alias"):
            raise ValueError(f"unknown record policy {record_policy!r}")
        if num_partitions <= 0:
            raise ValueError("need at least one partition")
        self.partitions: List[PartitionBuffer] = [
            PartitionBuffer() for _ in range(num_partitions)
        ]
        self._partitioner = partitioner
        self._counters = counters
        self._policy = record_policy
        self._output_counter = output_counter
        # Hot-loop hoists: collect() runs once per record, so the policy
        # test, partition-count len() and the per-emission counter choice
        # are all resolved here instead of there.
        self._copies = record_policy in ("serialize", "clone")
        self._num_partitions = num_partitions
        self._get_partition = (
            partitioner.get_partition if partitioner is not None else None
        )
        self._map_bytes = output_counter is TaskCounter.MAP_OUTPUT_RECORDS
        # With deferred_counters the per-emission increments are published
        # in one flush_counters() call at end of task: identical totals and
        # identical counter *presence* (nothing is created for an empty
        # task), minus two lock round-trips per record.
        self._deferred = deferred_counters
        self._flushed = False
        self.records = 0
        self.bytes = 0
        self.copied_records = 0
        self.copied_bytes = 0

    def collect(self, key: Any, value: Any) -> None:
        nbytes = pair_bytes(key, value)
        if self._copies:
            key = deep_copy_value(key)
            value = deep_copy_value(value)
            self.copied_records += 1
            self.copied_bytes += nbytes
        elif MUTATION_SANITIZER.enabled:
            # Aliased records are covered by the ImmutableOutput contract
            # from the moment they are collected: fingerprint them here so
            # a later mutation is caught at the next send or cache read.
            MUTATION_SANITIZER.observe(key, site="CollectorSink.collect")
            MUTATION_SANITIZER.observe(value, site="CollectorSink.collect")
        get_partition = self._get_partition
        if get_partition is not None:
            partition = get_partition(key, value, self._num_partitions)
            if not 0 <= partition < self._num_partitions:
                raise ValueError(
                    f"partitioner returned {partition} outside "
                    f"[0, {self._num_partitions})"
                )
        else:
            partition = 0
        self.partitions[partition].append(key, value, nbytes)
        self.records += 1
        self.bytes += nbytes
        if self._deferred:
            return
        self._counters.increment(self._output_counter, 1)
        if self._map_bytes:
            self._counters.increment(TaskCounter.MAP_OUTPUT_BYTES, nbytes)

    def flush_counters(self) -> None:
        """Publish deferred per-emission counters (idempotent)."""
        if not self._deferred or self._flushed or self.records == 0:
            return
        self._flushed = True
        self._counters.increment(self._output_counter, self.records)
        if self._map_bytes:
            self._counters.increment(TaskCounter.MAP_OUTPUT_BYTES, self.bytes)


class WriterCollector(OutputCollector):
    """Adapts a RecordWriter to the OutputCollector interface (reduce side),
    applying the engine's record policy before the write."""

    def __init__(
        self,
        writer: Any,
        counters: Counters,
        record_policy: str = "serialize",
        on_write: Optional[Callable[[Any, Any, int], None]] = None,
        deferred_counters: bool = False,
    ):
        self._writer = writer
        self._write = writer.write
        self._counters = counters
        self._policy = record_policy
        self._copies = record_policy in ("serialize", "clone")
        self._on_write = on_write
        self._deferred = deferred_counters
        self._flushed = False
        self.records = 0
        self.bytes = 0
        self.copied_records = 0
        self.copied_bytes = 0

    def collect(self, key: Any, value: Any) -> None:
        nbytes = pair_bytes(key, value)
        if self._copies:
            key = deep_copy_value(key)
            value = deep_copy_value(value)
            self.copied_records += 1
            self.copied_bytes += nbytes
        elif MUTATION_SANITIZER.enabled:
            MUTATION_SANITIZER.observe(key, site="WriterCollector.collect")
            MUTATION_SANITIZER.observe(value, site="WriterCollector.collect")
        self.records += 1
        self.bytes += nbytes
        if not self._deferred:
            self._counters.increment(TaskCounter.REDUCE_OUTPUT_RECORDS, 1)
        if self._on_write is not None:
            self._on_write(key, value, nbytes)
        self._write(key, value)

    def flush_counters(self) -> None:
        """Publish the deferred output-record counter (idempotent)."""
        if not self._deferred or self._flushed or self.records == 0:
            return
        self._flushed = True
        self._counters.increment(TaskCounter.REDUCE_OUTPUT_RECORDS, self.records)


def run_combiner_if_any(
    spec: JobSpec,
    buffer: PartitionBuffer,
    counters: Counters,
    reporter: Reporter,
    record_policy: str,
) -> PartitionBuffer:
    """Apply the job's combiner to one partition buffer (sorted first,
    as Hadoop sorts spills before combining).  Returns the combined buffer
    (or the input unchanged when no combiner is configured)."""
    if spec.combiner_class is None or not buffer.pairs:
        return buffer
    ordered = sorted(buffer.pairs, key=spec.sort_key())
    groups = spec.group_sorted_pairs(ordered)
    combined = CollectorSink(
        num_partitions=1,
        partitioner=None,
        counters=counters,
        record_policy=record_policy,
        output_counter=TaskCounter.COMBINE_OUTPUT_RECORDS,
    )
    counters.increment(TaskCounter.COMBINE_INPUT_RECORDS, len(ordered))
    spec.run_combine(groups, combined, reporter)
    return combined.partitions[0]


class _FoldSlot(OutputCollector):
    """Captures the single pair a conforming associative combiner emits."""

    __slots__ = ("key", "value", "emitted")

    def __init__(self) -> None:
        self.key: Any = None
        self.value: Any = None
        self.emitted = 0

    def collect(self, key: Any, value: Any) -> None:
        self.key = key
        self.value = value
        self.emitted += 1


class InMapperCombineSink(OutputCollector):
    """Map-output collector that folds duplicate keys as they arrive.

    The per-record path buffers every emission, sorts each partition and
    runs the combiner over the sorted groups.  This sink produces the
    byte-identical result without the full buffer or the full sort: a
    bounded per-partition hash aggregate folds each key incrementally via
    the combiner itself, and ``finish()`` sorts only the surviving
    (already-combined) pairs.  Identity holds because (see DESIGN.md §14):

    * the stable sort in the per-record path preserves arrival order
      within equal keys, so its per-key fold order *is* arrival order —
      exactly the order the incremental fold uses;
    * the combiner carries the :class:`~repro.api.vectorized.\
AssociativeReducer` license (fold associativity covers the spill-to-emit
      re-merge), emits exactly one fresh pair per call and charges
      nothing — enforced structurally via :class:`_FoldSlot` and a
      private throwaway reporter;
    * counters are published from tracked totals at ``finish()``: every
      original record counts once as COMBINE_INPUT_RECORDS, every
      surviving pair once as COMBINE_OUTPUT_RECORDS, per non-empty
      partition, matching the per-record path's increments exactly.

    Unhashable keys degrade the sink to plain buffering (the ``finish``
    pass then is the classic sort+combine, still counter-silent until the
    flush), so arming the sink is never a correctness gamble.
    """

    def __init__(
        self,
        spec: JobSpec,
        num_partitions: int,
        counters: Counters,
        record_policy: str,
        max_entries: int,
        task_conf: Optional[JobConf] = None,
    ):
        if record_policy not in ("serialize", "clone", "alias"):
            raise ValueError(f"unknown record policy {record_policy!r}")
        if num_partitions <= 0:
            raise ValueError("need at least one partition")
        self._spec = spec
        self._counters = counters
        self._policy = record_policy
        self._copies = record_policy in ("serialize", "clone")
        self._max_entries = max(1, max_entries)
        self._num_partitions = num_partitions
        self._get_partition = spec.partitioner.get_partition
        self._aggregates: List[dict] = [{} for _ in range(num_partitions)]
        self._partials: List[List[Tuple[Any, Any]]] = [
            [] for _ in range(num_partitions)
        ]
        self._pre_records: List[int] = [0] * num_partitions
        self._entries = 0
        self._degraded = False
        self._finished = False
        # One combiner instance folds for the whole task; its emissions are
        # captured by the slot and its (contractually absent) charges and
        # counter updates land in a private reporter, never the task's.
        self._combiner = spec.combiner_class()
        self._combiner.configure(
            task_conf if task_conf is not None else JobConf(spec.conf)
        )
        self._slot = _FoldSlot()
        self._fold_reporter = Reporter()
        # Pre-combine totals (what the per-record CollectorSink would have
        # tallied): the stage charges sort/serialize time from these.
        self.records = 0
        self.bytes = 0
        self.copied_records = 0
        self.copied_bytes = 0
        # Post-combine totals, available after finish().
        self.output_records = 0
        self.output_bytes = 0
        self.imc_folds = 0
        self.imc_spills = 0

    # -- record intake -------------------------------------------------- #

    def collect(self, key: Any, value: Any) -> None:
        nbytes = pair_bytes(key, value)
        if self._copies:
            # Mirror the per-record clone *accounting* exactly; physical
            # copies happen only for pairs that are actually retained
            # (first occurrences and final emissions) — folded values are
            # consumed inside this call, so mutation-after-collect cannot
            # reach them.
            self.copied_records += 1
            self.copied_bytes += nbytes
        elif MUTATION_SANITIZER.enabled:
            MUTATION_SANITIZER.observe(key, site="InMapperCombineSink.collect")
            MUTATION_SANITIZER.observe(value, site="InMapperCombineSink.collect")
        partition = self._get_partition(key, value, self._num_partitions)
        if not 0 <= partition < self._num_partitions:
            raise ValueError(
                f"partitioner returned {partition} outside "
                f"[0, {self._num_partitions})"
            )
        self._pre_records[partition] += 1
        self.records += 1
        self.bytes += nbytes
        if self._degraded:
            self._buffer_raw(partition, key, value)
            return
        aggregate = self._aggregates[partition]
        try:
            accumulator = aggregate.get(key)
        except TypeError:  # unhashable key: fold nothing, buffer everything
            self._degrade()
            self._buffer_raw(partition, key, value)
            return
        if accumulator is None:
            if self._entries >= self._max_entries:
                self._spill_all()
                aggregate = self._aggregates[partition]
            if self._copies:
                key = deep_copy_value(key)
                value = deep_copy_value(value)
            aggregate[key] = value
            self._entries += 1
        else:
            aggregate[key] = self._fold(key, accumulator, value)
            self.imc_folds += 1

    def _fold(self, key: Any, accumulator: Any, value: Any) -> Any:
        """One combiner call over [accumulator, value] (arrival order)."""
        return self._reduce_values(key, (accumulator, value))

    def _fold_one(self, key: Any, value: Any) -> Any:
        """One combiner call over [value] — the unit fold.

        Every surviving entry passes through this at ``finish`` so the
        output object graph matches the per-record path exactly: the
        classic combiner rewrites *every* group (singletons included) with
        a fresh output object, so a mapper-shared value object never
        reaches the shuffle — and the de-duplicating wire measurement —
        on either path.  The AssociativeReducer unit law (a one-value
        reduce emits that value unchanged) makes this a no-op value-wise.
        """
        return self._reduce_values(key, (value,))

    def _reduce_values(self, key: Any, values: Tuple[Any, ...]) -> Any:
        slot = self._slot
        slot.emitted = 0
        self._combiner.reduce(key, iter(values), slot, self._fold_reporter)
        if slot.emitted != 1:
            raise ValueError(
                f"{type(self._combiner).__name__} emitted {slot.emitted} "
                "pairs in one reduce call; an AssociativeReducer must emit "
                "exactly one"
            )
        folded = slot.value
        if not self._copies and MUTATION_SANITIZER.enabled:
            # The fold result is retained under the aliasing policy: a
            # combiner that recycles its emitted object (a contract lie)
            # trips the sanitizer on the next fold of the same key.
            MUTATION_SANITIZER.observe(folded, site="InMapperCombineSink.fold")
        return folded

    def _buffer_raw(self, partition: int, key: Any, value: Any) -> None:
        if self._copies:
            key = deep_copy_value(key)
            value = deep_copy_value(value)
        self._partials[partition].append((key, value))

    def _degrade(self) -> None:
        """Fall back to buffering: move live aggregates to the partials."""
        self._degraded = True
        self._flush_aggregates()

    def _spill_all(self) -> None:
        """Spill-to-emit on overflow: demote every live entry to a partial
        (arrival-order prefix folds; associativity covers the re-merge)."""
        self.imc_spills += 1
        self._flush_aggregates()

    def _flush_aggregates(self) -> None:
        for partition, aggregate in enumerate(self._aggregates):
            if aggregate:
                self._partials[partition].extend(aggregate.items())
                aggregate.clear()
        self._entries = 0

    # -- end of task ----------------------------------------------------- #

    def finish(self) -> List[PartitionBuffer]:
        """Close out the task: merge spills, sort the combined pairs, apply
        the record policy, publish the deferred counters, and hand back
        per-partition buffers shaped exactly like the per-record path's."""
        if self._finished:
            raise RuntimeError("InMapperCombineSink.finish called twice")
        self._finished = True
        try:
            buffers = [self._finish_partition(p) for p in range(self._num_partitions)]
        finally:
            self._combiner.close()
        counters = self._counters
        if self.records:
            counters.increment(TaskCounter.MAP_OUTPUT_RECORDS, self.records)
            counters.increment(TaskCounter.MAP_OUTPUT_BYTES, self.bytes)
        for partition, buffer in enumerate(buffers):
            if self._pre_records[partition]:
                counters.increment(
                    TaskCounter.COMBINE_INPUT_RECORDS, self._pre_records[partition]
                )
                counters.increment(
                    TaskCounter.COMBINE_OUTPUT_RECORDS, len(buffer.pairs)
                )
            self.output_records += len(buffer.pairs)
            self.output_bytes += buffer.bytes
        return buffers

    def _finish_partition(self, partition: int) -> PartitionBuffer:
        live = list(self._aggregates[partition].items())
        partials = self._partials[partition]
        buffer = PartitionBuffer()
        if not live and not partials:
            return buffer
        fold_one = self._fold_one
        if partials:
            # Spilled/degraded pairs precede the live aggregate in arrival
            # order for every key, so the stable sort reconstructs exactly
            # the per-record path's per-key value order before re-folding.
            ordered = sorted(partials + live, key=self._spec.sort_key())
            pairs = []
            fold = self._fold
            for key, values in self._spec.group_sorted_pairs(ordered):
                if len(values) == 1:
                    accumulator = fold_one(key, values[0])
                else:
                    accumulator = values[0]
                    for value in values[1:]:
                        accumulator = fold(key, accumulator, value)
                pairs.append((key, accumulator))
        else:
            pairs = [
                (key, fold_one(key, value))
                for key, value in sorted(live, key=self._spec.sort_key())
            ]
        observe = MUTATION_SANITIZER.enabled and not self._copies
        for key, value in pairs:
            nbytes = pair_bytes(key, value)
            if self._copies:
                key = deep_copy_value(key)
                value = deep_copy_value(value)
            elif observe:
                MUTATION_SANITIZER.observe(key, site="InMapperCombineSink.finish")
                MUTATION_SANITIZER.observe(value, site="InMapperCombineSink.finish")
            buffer.append(key, value, nbytes)
        return buffer
