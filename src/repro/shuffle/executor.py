"""Shuffle execution: place-to-place messages, then an ordered replay.

The executor runs a :class:`~repro.shuffle.plan.ShufflePlan` in two strictly
separated stages:

* :meth:`ShuffleExecutor.execute` does the *work* — per-run sorting,
  single-pass de-duplicated measurement and shared-memo transport copies —
  inline on the calling thread, one plan item at a time, in plan order.
* :meth:`ShuffleExecutor.replay` does the *accounting* — simulated-time
  charges, counters and per-place skew metrics — in plan order, from the
  already-computed results, so every simulated number (including the
  order-sensitive float sums inside :class:`PhaseTimer`) is a pure
  function of the plan.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.api.counters import Counters, TaskCounter
from repro.shuffle.merge import ShuffleInput
from repro.shuffle.plan import (
    LocalHandoff,
    RemoteMessage,
    ShufflePlan,
    build_plan,
)
from repro.sim.clock import PhaseTimer
from repro.sim.cost_model import CostModel
from repro.sim.metrics import Metrics, shuffle_place_key
from repro.x10.runtime import X10Runtime
from repro.x10.serializer import SerializedMessage

Pair = Tuple[Any, Any]
SortKey = Callable[[Pair], Any]


@dataclass
class LocalResult:
    """Executed :class:`LocalHandoff`: the sorted run."""

    sort_seconds: float
    run: List[Pair]


@dataclass
class RemoteResult:
    """Executed :class:`RemoteMessage`: measurement plus transported runs."""

    #: Per partition (parallel to the item's ``partitions``).
    sort_seconds: List[float]
    message: SerializedMessage
    #: Per partition: the deep-copied pairs as they exist at ``dst``.
    transported: List[List[Pair]]


class ShuffleExecutor:
    """Plans, executes and replays the in-memory shuffle for one job."""

    def __init__(
        self,
        runtime: X10Runtime,
        cost_model: CostModel,
        num_places: int,
        partition_place: Callable[[int], int],
        enable_dedup: bool,
    ):
        self.runtime = runtime
        self.cost_model = cost_model
        self.num_places = num_places
        self.partition_place = partition_place
        self.enable_dedup = enable_dedup

    # -- planning --------------------------------------------------------- #

    def plan(
        self,
        num_partitions: int,
        map_outputs: List[List[Any]],
        map_places: List[int],
    ) -> ShufflePlan:
        return build_plan(
            num_partitions, map_outputs, map_places, self.partition_place
        )

    # -- execution --------------------------------------------------------- #

    def execute(self, plan: ShufflePlan, sort_key: SortKey) -> List[Any]:
        """Run every plan item inline, in plan order; results in plan order.

        Runs are sorted on the map side by ``sort_key``, so reducers
        k-way merge them; a failing item (say, a comparator raising)
        fails the shuffle right there.
        """
        return [
            self._prepare_local(item, sort_key)
            if isinstance(item, LocalHandoff)
            else self._prepare_remote(item, sort_key)
            for item in plan.items
        ]

    def _prepare_local(self, item: LocalHandoff, sort_key: SortKey) -> LocalResult:
        run = sorted(item.pairs, key=sort_key)
        return LocalResult(
            sort_seconds=self.cost_model.sort_time(len(run), item.nbytes),
            run=run,
        )

    def _prepare_remote(self, item: RemoteMessage, sort_key: SortKey) -> RemoteResult:
        model = self.cost_model
        runs = [sorted(run, key=sort_key) for run in item.runs]
        sort_seconds = [
            model.sort_time(len(run), nbytes)
            for run, nbytes in zip(runs, item.run_bytes)
        ]
        all_pairs = [pair for run in runs for pair in run]
        # Single-pass wire+raw measurement, memoized via the size cache; the
        # sorted order does not change the totals because de-duplication is
        # insensitive to which occurrence of an object comes first.
        message = self.runtime.serializer.measure_pairs(all_pairs)
        # One deepcopy memo per message: duplicates become aliases again on
        # the receiving side, as with X10 deserialization.
        flat = iter(copy.deepcopy(all_pairs))
        transported = [
            [next(flat) for _ in range(len(run))] for run in runs
        ]
        return RemoteResult(
            sort_seconds=sort_seconds, message=message, transported=transported
        )

    # -- deterministic replay ----------------------------------------------- #

    def replay(
        self,
        plan: ShufflePlan,
        results: List[Any],
        reduce_inputs: List[ShuffleInput],
        counters: Counters,
        metrics: Metrics,
        bus: Optional[Any] = None,
    ) -> float:
        """Charge simulated time and account every byte, in plan order.

        Returns the shuffle phase duration (the straggler place's lane).
        Local hand-offs count toward ``REDUCE_LOCAL_HANDOFF_BYTES`` (they
        never cross the wire); only cross-place messages count toward
        ``REDUCE_SHUFFLE_BYTES``, so on M3R
        ``hadoop.REDUCE_SHUFFLE_BYTES == m3r.REDUCE_SHUFFLE_BYTES +
        m3r.REDUCE_LOCAL_HANDOFF_BYTES`` holds for any placement.

        With ``bus`` set, each plan item is also narrated as a ``shuffle``
        TaskEnd lifecycle event (local hand-offs at their place, remote
        messages at the receiving place) — pure observation, emitted from
        the driver in plan order, charging nothing.
        """
        model = self.cost_model
        timer = PhaseTimer(self.num_places)
        for item_index, (item, result) in enumerate(zip(plan.items, results)):
            if isinstance(item, LocalHandoff):
                if result.sort_seconds:
                    timer.charge(item.src, result.sort_seconds)
                    metrics.time.charge("sort", result.sort_seconds)
                cost = model.handoff_time(len(item.pairs))
                timer.charge(item.src, cost)
                metrics.time.charge("framework", cost)
                counters.increment(
                    TaskCounter.REDUCE_LOCAL_HANDOFF_BYTES, item.nbytes
                )
                metrics.incr("shuffle_local_bytes", item.nbytes)
                metrics.incr("shuffle_local_records", len(item.pairs))
                metrics.incr(shuffle_place_key(item.src), item.nbytes)
                reduce_inputs[item.partition].add_run(result.run, item.nbytes)
                if bus is not None:
                    self._emit_item(
                        bus, item_index, item.src,
                        result.sort_seconds + cost,
                        len(item.pairs), item.nbytes,
                    )
            else:
                for seconds in result.sort_seconds:
                    if seconds:
                        timer.charge(item.src, seconds)
                        metrics.time.charge("sort", seconds)
                counters.increment(
                    TaskCounter.REDUCE_SHUFFLE_BYTES, item.buffer_bytes
                )
                message = result.message
                wire = (
                    message.wire_bytes
                    if self.enable_dedup
                    else message.raw_bytes
                )
                send = model.serialize_time(wire, message.records)
                net = model.net_transfer_time(wire)
                recv = model.deserialize_time(wire, message.records)
                timer.charge(item.src, send + net)
                timer.charge(item.dst, recv)
                metrics.time.charge("serialize", send)
                metrics.time.charge("network", net)
                metrics.time.charge("deserialize", recv)
                metrics.incr("shuffle_remote_bytes", wire)
                metrics.incr("shuffle_remote_records", message.records)
                if self.enable_dedup:
                    metrics.incr("dedup_saved_bytes", message.dedup_savings)
                metrics.incr(shuffle_place_key(item.dst), wire)
                for partition, run, nbytes in zip(
                    item.partitions, result.transported, item.run_bytes
                ):
                    reduce_inputs[partition].add_run(run, nbytes)
                if bus is not None:
                    self._emit_item(
                        bus, item_index, item.dst,
                        sum(result.sort_seconds) + send + net + recv,
                        message.records, wire,
                    )
        return timer.barrier()

    @staticmethod
    def _emit_item(
        bus: Any, task: int, place: int, seconds: float, records: int, nbytes: int
    ) -> None:
        from repro.lifecycle.events import TaskEnd, TaskStart

        base = dict(
            job_id=bus.job_id, engine=bus.engine, stage="shuffle",
            task=task, place=place,
        )
        bus.emit(TaskStart(**base))
        bus.emit(TaskEnd(seconds=seconds, records=records, nbytes=nbytes, **base))
