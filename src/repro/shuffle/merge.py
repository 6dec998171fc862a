"""Reduce-side shuffle input: per-mapper runs, streamed through a k-way merge.

Each run arrives already sorted by the job's key order, so the reducer
consumes a ``heapq.merge`` instead of re-sorting the concatenation —
O(n log k) comparisons over k runs instead of O(n log n).  The order is the
one a stable sort of the concatenated runs would give, because Timsort and
the heap merge are both stable: ties keep run order, and runs are added in
map-index order.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Tuple

Pair = Tuple[Any, Any]


class ShuffleInput:
    """Everything one reduce task receives from the shuffle: the sorted
    runs, appended in plan order (ascending map index)."""

    __slots__ = ("runs", "records", "bytes")

    def __init__(self) -> None:
        self.runs: List[List[Pair]] = []
        self.records = 0
        self.bytes = 0

    def add_run(self, pairs: List[Pair], nbytes: int) -> None:
        """Append one mapper's contribution (skips empty runs)."""
        if not pairs:
            return
        self.runs.append(pairs)
        self.records += len(pairs)
        self.bytes += nbytes

    def merged(self, key: Callable[[Pair], Any]) -> List[Pair]:
        """K-way merge of the pre-sorted runs."""
        if not self.runs:
            return []
        if len(self.runs) == 1:
            return list(self.runs[0])
        return list(heapq.merge(*self.runs, key=key))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShuffleInput(runs={len(self.runs)}, records={self.records}, "
            f"bytes={self.bytes})"
        )
