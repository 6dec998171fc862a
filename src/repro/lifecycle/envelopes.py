"""Self-contained task envelopes and the shared map/reduce kernels.

DESIGN.md §16.  A task body used to be one closure over the engine; this
module is the refactor that split it into three layers:

* **prologue** (driver-side, in the stage provider): cache lookup,
  filesystem reads, placement, feed/network/disk charges — everything
  that must see engine state;
* **kernel** (this module): the pure user-code middle — drive the mapper
  over the materialized records into the engine's collector (or
  merge/group and drive the reducer), consume the user's compute
  charges.  :func:`run_map_kernel` / :func:`run_reduce_kernel` are the
  *only* implementation, executed either inline on the driver (thread
  backend, or any fallback) or inside a place's worker process via a
  picklable envelope;
* **epilogue** (driver-side): every remaining cost-model charge, derived
  from the kernel outcome's tallies in exactly the order the monolithic
  body applied them — float addition is order-sensitive and the
  invariant is byte-identical simulated seconds.

A :class:`TaskContext` carries the driver-side handles a task body needs
(the explicit replacement for the ``engine``/``self`` captures that the
portability inventory flagged as the 25 advisory captures).

Offload is best-effort and never changes results: an unlicensed user
class (see :mod:`repro.api.portable`), an envelope that will not pickle,
or a kernel that touches the stub task filesystem inside the worker all
fall back to running the same kernel locally.  User exceptions raised in
the worker come back *with* the kernel's partial counters and re-raise in
the task body, so the fail-fast path is indistinguishable from the
thread backend's.  Only a dead worker surfaces differently — as
:class:`~repro.engine_common.PlaceFailure`.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.api.conf import (
    PLACES_BACKEND_KEY,
    TASK_FS_KEY,
    JobConf,
)
from repro.api.counters import Counters, TaskCounter
from repro.api.job import JobSpec
from repro.api.mapred import Reporter
from repro.api.portable import is_process_portable
from repro.engine_common import (
    IMC_MAX_ENTRIES,
    BatchingReader,
    CollectorSink,
    InMapperCombineSink,
    MaterializedReader,
    PartitionBuffer,
    imc_armed,
    run_combiner_if_any,
)
from repro.x10.backends import EnvelopeEncodingError, KernelUnsupported

__all__ = [
    "MapKernelEnvelope",
    "MapKernelOutcome",
    "ReduceKernelEnvelope",
    "ReduceKernelOutcome",
    "TaskContext",
    "dispatch_kernel",
    "map_kernel_eligible",
    "merge_counter_groups",
    "reduce_kernel_eligible",
    "run_map_kernel",
    "run_reduce_kernel",
    "wire_task_conf",
]


@dataclass
class TaskContext:
    """Driver-side handles one task body needs: the job context (conf,
    spec, counters, metrics, bus), the engine, and the provider's stage
    scratch.  Task bodies are module-level functions taking one of these —
    never closures over a provider method's scope."""

    ctx: Any
    engine: Any
    st: Dict[str, Any]


# --------------------------------------------------------------------- #
# worker-side stand-ins
# --------------------------------------------------------------------- #


class _KernelTaskFileSystem:
    """The task filesystem slot inside a worker process.

    Kernels are licensed pure compute; user code that actually touches
    the filesystem (MultipleOutputs, side reads) trips this stub, the
    worker replies "unsupported", and the driver re-runs the kernel
    locally with the real instrumented filesystem.  Results are identical
    — the worker's partial run is discarded wholesale.
    """

    def __getattr__(self, name: str) -> Any:
        raise KernelUnsupported(
            f"task filesystem touched inside a place worker ({name!r})"
        )


def wire_task_conf(task_conf: JobConf) -> JobConf:
    """The envelope's conf: a copy with the driver-only filesystem handle
    stripped (workers get the stub installed by the envelope instead)."""
    wire = JobConf(task_conf)
    wire.set(TASK_FS_KEY, None)
    return wire


def _portable_error(error: BaseException) -> BaseException:
    """The exception as it should cross the pipe: itself when picklable,
    else a faithful RuntimeError rendering."""
    try:
        pickle.loads(pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL))
        return error
    except Exception:  # noqa: M3R004 - any pickle failure downgrades to the rendered form
        return RuntimeError(f"{type(error).__name__}: {error}")


def merge_counter_groups(
    counters: Counters, groups: Optional[Dict[str, Dict[str, int]]]
) -> None:
    """Fold a kernel's counter snapshot into the job counters — the same
    cells the thread path would have incremented directly, in the
    worker's insertion order (:meth:`Counters.merge` semantics)."""
    if not groups:
        return
    for group, cells in groups.items():
        for name, value in cells.items():
            counters.find_counter(group, name).increment(value)


# --------------------------------------------------------------------- #
# map kernel
# --------------------------------------------------------------------- #


@dataclass
class MapKernelOutcome:
    """Everything the driver epilogue charges from, in driver objects
    after the response codec resolved input back-references."""

    reader_records: int = 0
    #: Collector pre-finish totals (records/bytes as collected).
    records: int = 0
    bytes: int = 0
    copied_records: int = 0
    copied_bytes: int = 0
    #: The user's charge_compute seconds, split exactly as the monolithic
    #: body consumed them: during the map drive, and during finish/combine.
    compute_user: float = 0.0
    compute_finish: float = 0.0
    output_records: int = 0
    imc_folds: int = 0
    imc_spills: int = 0
    buffers: List[PartitionBuffer] = field(default_factory=list)
    counter_groups: Optional[Dict[str, Dict[str, int]]] = None
    #: A user exception raised mid-kernel (worker side only): the driver
    #: merges the partial counters, then re-raises this in the task body.
    error: Optional[BaseException] = None


def run_map_kernel(
    spec: JobSpec,
    split: Any,
    reader: Any,
    counters: Counters,
    reporter: Reporter,
    task_conf: JobConf,
    *,
    policy: str,
) -> MapKernelOutcome:
    """The pure middle of a map task: user map (+ IMC fold / classic
    combiner) from a :class:`~repro.engine_common.BatchingReader` into
    the engine collector.  No engine, no filesystem, no cost model —
    callable identically on the driver or inside a worker."""
    use_imc = imc_armed(spec)
    if use_imc:
        collector: Any = InMapperCombineSink(
            spec,
            num_partitions=spec.num_reducers,
            counters=counters,
            record_policy=policy,
            max_entries=IMC_MAX_ENTRIES,
            task_conf=task_conf,
        )
    elif spec.is_map_only:
        collector = CollectorSink(
            num_partitions=1,
            partitioner=None,
            counters=counters,
            record_policy=policy,
        )
    else:
        collector = CollectorSink(
            num_partitions=spec.num_reducers,
            partitioner=spec.partitioner,
            counters=counters,
            record_policy=policy,
        )

    spec.run_map_task(
        split, reader, collector, reporter, task_conf, fresh_runner=True
    )
    if not use_imc:
        collector.flush_counters()

    outcome = MapKernelOutcome(
        reader_records=reader.records,
        records=collector.records,
        bytes=collector.bytes,
        copied_records=collector.copied_records,
        copied_bytes=collector.copied_bytes,
        compute_user=reporter.consume_compute_seconds(),
    )

    if spec.is_map_only:
        outcome.buffers = [collector.partitions[0]]
        return outcome

    if use_imc:
        outcome.buffers = collector.finish()
        outcome.compute_finish = reporter.consume_compute_seconds()
        outcome.output_records = collector.output_records
        outcome.imc_folds = collector.imc_folds
        outcome.imc_spills = collector.imc_spills
        return outcome

    buffers = collector.partitions
    if spec.combiner_class is not None:
        buffers = [
            run_combiner_if_any(spec, buffer, counters, reporter, policy)
            for buffer in buffers
        ]
        outcome.compute_finish = reporter.consume_compute_seconds()
    outcome.buffers = buffers
    return outcome


class MapKernelEnvelope:
    """A picklable map kernel: wire conf (fs handle stripped), split, the
    materialized input records, and the record policies the kernel needs."""

    def __init__(
        self,
        conf: JobConf,
        split: Any,
        pairs: List[Tuple[Any, Any]],
        *,
        clone_input: bool,
        policy: str,
    ):
        self.conf = conf
        self.split = split
        self.pairs = pairs
        self.clone_input = clone_input
        self.policy = policy

    def roots(self) -> List[Any]:
        """The input record objects, flattened in a fixed order — the
        response codec's canonical root list (identical structure on both
        sides of the pipe, so indexes resolve to the driver originals)."""
        roots: List[Any] = []
        for key, value in self.pairs:
            roots.append(key)
            roots.append(value)
        return roots

    def run(self) -> MapKernelOutcome:
        conf = JobConf(self.conf)
        conf.set(TASK_FS_KEY, _KernelTaskFileSystem())
        spec = JobSpec.from_conf(conf)
        counters = Counters()
        reporter = Reporter(counters)
        reader = BatchingReader(
            MaterializedReader(self.pairs, clone=self.clone_input), counters
        )
        try:
            outcome = run_map_kernel(
                spec, self.split, reader, counters, reporter, conf,
                policy=self.policy,
            )
        except KernelUnsupported:
            raise
        except BaseException as error:  # noqa: BLE001 - shipped to driver
            outcome = MapKernelOutcome(error=_portable_error(error))
        outcome.counter_groups = counters.as_dict()
        return outcome


# --------------------------------------------------------------------- #
# reduce kernel
# --------------------------------------------------------------------- #


@dataclass
class ReduceKernelOutcome:
    groups: int = 0
    #: Sink totals: output records/bytes as collected.
    records: int = 0
    bytes: int = 0
    copied_records: int = 0
    copied_bytes: int = 0
    compute_user: float = 0.0
    pairs: List[Tuple[Any, Any]] = field(default_factory=list)
    counter_groups: Optional[Dict[str, Dict[str, int]]] = None
    error: Optional[BaseException] = None


def run_reduce_kernel(
    spec: JobSpec,
    shuffle_input: Any,
    counters: Counters,
    reporter: Reporter,
    task_conf: JobConf,
    *,
    policy: str,
) -> ReduceKernelOutcome:
    """The pure middle of a reduce task: merge the pre-sorted runs, group,
    drive the reducer into a single-partition sink."""
    ordered = shuffle_input.merged(spec.sort_key())
    groups = list(spec.group_sorted_pairs(ordered))
    counters.increment(TaskCounter.REDUCE_INPUT_GROUPS, len(groups))
    counters.increment(TaskCounter.REDUCE_INPUT_RECORDS, shuffle_input.records)

    sink = CollectorSink(
        num_partitions=1,
        partitioner=None,
        counters=counters,
        record_policy=policy,
        output_counter=TaskCounter.REDUCE_OUTPUT_RECORDS,
    )
    spec.run_reduce_task(groups, sink, reporter, task_conf)
    sink.flush_counters()

    return ReduceKernelOutcome(
        groups=len(groups),
        records=sink.records,
        bytes=sink.partitions[0].bytes,
        copied_records=sink.copied_records,
        copied_bytes=sink.copied_bytes,
        compute_user=reporter.consume_compute_seconds(),
        pairs=sink.partitions[0].pairs,
    )


class ReduceKernelEnvelope:
    """A picklable reduce kernel: wire conf, the partition's shuffle input
    (runs of records), and the sink's record policy."""

    def __init__(self, conf: JobConf, shuffle_input: Any, *, policy: str):
        self.conf = conf
        self.shuffle_input = shuffle_input
        self.policy = policy

    def roots(self) -> List[Any]:
        roots: List[Any] = []
        for run in self.shuffle_input.runs:
            for key, value in run:
                roots.append(key)
                roots.append(value)
        return roots

    def run(self) -> ReduceKernelOutcome:
        conf = JobConf(self.conf)
        conf.set(TASK_FS_KEY, _KernelTaskFileSystem())
        spec = JobSpec.from_conf(conf)
        counters = Counters()
        reporter = Reporter(counters)
        try:
            outcome = run_reduce_kernel(
                spec,
                self.shuffle_input,
                counters,
                reporter,
                conf,
                policy=self.policy,
            )
        except KernelUnsupported:
            raise
        except BaseException as error:  # noqa: BLE001 - shipped to driver
            outcome = ReduceKernelOutcome(error=_portable_error(error))
        outcome.counter_groups = counters.as_dict()
        return outcome


# --------------------------------------------------------------------- #
# eligibility + dispatch
# --------------------------------------------------------------------- #


def _offload_enabled(engine: Any, conf: JobConf) -> bool:
    """Does this job ship kernels to worker processes?  The one switch
    between inline and concurrent task dispatch in an M3R phase."""
    backend = getattr(getattr(engine, "runtime", None), "backend", None)
    if backend is None or not backend.supports_offload:
        return False
    # Per-job escape hatch: a job conf naming a different backend than
    # the engine's pins its kernels to the driver.
    override = conf.get(PLACES_BACKEND_KEY)
    if override is not None and str(override) != backend.name:
        return False
    return True


def map_kernel_eligible(
    engine: Any, conf: JobConf, spec: JobSpec, mapper_class: Any
) -> bool:
    """May this map kernel run in a worker process?  Requires a backend
    that offloads, and process-portability licenses for every user class
    the kernel would drive (mapper, combiner, partitioner)."""
    if not _offload_enabled(engine, conf):
        return False
    if spec.map_runner_class is not None:
        return False  # custom runners are unlicensed by definition
    if not is_process_portable(mapper_class):
        return False
    if spec.combiner_class is not None and not is_process_portable(
        spec.combiner_class
    ):
        return False
    if not spec.is_map_only and not is_process_portable(type(spec.partitioner)):
        return False
    return True


def reduce_kernel_eligible(engine: Any, conf: JobConf, spec: JobSpec) -> bool:
    if not _offload_enabled(engine, conf):
        return False
    return spec.reducer_class is not None and is_process_portable(
        spec.reducer_class
    )


def dispatch_kernel(engine: Any, place_id: int, envelope: Any) -> Any:
    """Ship one kernel envelope to ``place_id``'s worker.  Returns its
    outcome, or ``None`` when the kernel must run locally instead (the
    envelope would not pickle, or the worker declared it unsupported).
    A dead worker raises :class:`~repro.engine_common.PlaceFailure`."""
    try:
        return engine.runtime.backend.offload(place_id, envelope)
    except (KernelUnsupported, EnvelopeEncodingError):
        return None
