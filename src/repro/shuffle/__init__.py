"""The M3R shuffle subsystem (paper Section 3.2.2).

The shuffle is M3R's headline mechanism: in-memory routing, co-location
pointer hand-off, de-duplicated X10 serialization and partition stability.
This package factors it out of the engine into three deterministic stages:

1. **plan** (:mod:`repro.shuffle.plan`) — walk the map outputs on the
   driver thread and produce an ordered list of shuffle items: a
   :class:`~repro.shuffle.plan.LocalHandoff` per co-located partition and a
   :class:`~repro.shuffle.plan.RemoteMessage` per (source place →
   destination place) pair, covering every partition that lives there;
2. **execute** (:class:`~repro.shuffle.executor.ShuffleExecutor`) — the
   expensive work per item (per-run sorting, single-pass de-duplicated
   measurement, shared-memo transport copies) runs inline, in plan order;
3. **replay** — simulated-time charges, counters and skew metrics are
   applied in plan order from the executed results, so the virtual clock
   and every metric are a pure function of the plan.

Reducers receive a :class:`~repro.shuffle.merge.ShuffleInput`: per-mapper
runs in arrival order, sorted map-side so the reduce side streams a
``heapq.merge`` instead of re-sorting the concatenation.
"""

from repro.shuffle.executor import ShuffleExecutor
from repro.shuffle.merge import ShuffleInput
from repro.shuffle.plan import LocalHandoff, RemoteMessage, ShufflePlan

__all__ = [
    "LocalHandoff",
    "RemoteMessage",
    "ShuffleExecutor",
    "ShuffleInput",
    "ShufflePlan",
]
