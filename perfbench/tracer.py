"""Layer-boundary tracer for the benchmark's traced run.

The tracer times calls into the engines' public layer functions from the
outside: it swaps each named function or method for a timing wrapper,
runs the traced operations, and puts every original back.  Nothing under
``src/`` is edited, and an untraced run never installs it.

* **Where a name is called, not only where it is defined.**  A module
  that did ``from repro.engine_common import pair_bytes`` holds its own
  binding; :meth:`LayerTracer.patch_function` rebinds every loaded
  ``repro`` module attribute that refers to the original function object.
* **Outermost calls only.**  A call of a traced name made while the same
  name is already active on the thread (recursion, or a subclass method
  chaining to its base) is neither counted nor timed again.
* **Per-thread buffers.**  Task bodies run on the engines' worker pools;
  each thread accumulates into its own dict, and :meth:`LayerTracer.drain`
  merges and resets all of them.  Call it only between operations, when
  no traced call is in flight.
* **Self time.**  Each span also records the time not covered by traced
  spans it made on the same thread (``self_s``); the front-end compile
  time is the self time of ``PigRunner.run`` / ``JaqlRunner.run`` once
  ``engine.run_job`` is traced too.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Per-name totals: ``[calls, busy_s, self_s, wait_s]``.
Totals = Dict[str, List[float]]

_perf = time.perf_counter


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stats: Optional[Totals] = None
        self.active: Dict[str, bool] = {}
        #: Open spans on this thread: ``[name, child_seconds]``.
        self.stack: List[List[Any]] = []


class LayerTracer:
    """Counts and times outermost calls of named layer functions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = _ThreadState()
        self._buffers: List[Totals] = []
        #: ``(owner, attribute, original)`` in install order.
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Wall clock of the latest StageStart (set by :class:`StageSink`);
        #: names registered with ``wait=True`` add ``start - stage_start``.
        self.stage_started_at = 0.0

    # -- recording --------------------------------------------------------- #

    def _row(self, name: str) -> List[float]:
        """This thread's ``[calls, busy_s, self_s, wait_s]`` for ``name``."""
        local = self._local
        stats = local.stats
        if stats is None:
            stats = local.stats = {}
            with self._lock:
                self._buffers.append(stats)
        row = stats.get(name)
        if row is None:
            row = stats[name] = [0, 0.0, 0.0, 0.0]
        return row

    def _wrap(self, name: str, fn: Callable, wait: bool) -> Callable:
        local = self._local
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            active = local.active
            if active.get(name):
                return fn(*args, **kwargs)
            active[name] = True
            span = [name, 0.0]
            stack = local.stack
            stack.append(span)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                active[name] = False
                row = tracer._row(name)
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - span[1]
                if wait:
                    row[3] += max(0.0, start - tracer.stage_started_at)

        return traced

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add a bare count to ``name`` (no timing)."""
        self._row(name)[0] += amount

    def add_time(self, name: str, seconds: float) -> None:
        """Add one timed span measured elsewhere (the stage sink)."""
        row = self._row(name)
        row[0] += 1
        row[1] += seconds
        row[2] += seconds

    def drain(self) -> Totals:
        """Merge every thread's buffer into one dict and reset them."""
        merged: Totals = {}
        with self._lock:
            for buffer in self._buffers:
                for name, row in list(buffer.items()):
                    into = merged.setdefault(name, [0, 0.0, 0.0, 0.0])
                    for i in range(4):
                        into[i] += row[i]
                buffer.clear()
        return merged

    # -- patching ---------------------------------------------------------- #

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, name: str, fn: Callable, wait: bool = False) -> None:
        """Trace ``fn`` under ``name`` at every ``repro`` module binding of it."""
        traced = self._wrap(name, fn, wait)
        patched = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, traced)
                    patched += 1
        if not patched:
            raise LookupError(f"{name}: no module binds {fn!r}")

    def patch_method(self, name: str, cls: type, attr: str, wait: bool = False) -> None:
        """Trace ``cls.attr`` (defined on ``cls`` itself) under ``name``."""
        self._set(cls, attr, self._wrap(name, cls.__dict__[attr], wait))

    def patch_amount(self, name: str, cls: type, attr: str) -> None:
        """Add the first argument of every ``cls.attr(amount)`` call to
        ``name``'s count (byte tallies; no timing)."""
        raw = cls.__dict__[attr]
        tracer = self

        @functools.wraps(raw)
        def counted(obj, amount, *args, **kwargs):
            tracer.count(name, amount)
            return raw(obj, amount, *args, **kwargs)

        self._set(cls, attr, counted)

    def patch_subclass_methods(self, name: str, base: type, attr: str,
                               module_prefixes: Tuple[str, ...] = ("repro.",)) -> None:
        """Trace ``attr`` on every loaded subclass of ``base`` that defines
        it itself (nested calls chaining to a base method count once)."""
        seen = set()
        todo = [base]
        while todo:
            cls = todo.pop()
            for sub in cls.__subclasses__():
                if sub in seen:
                    continue
                seen.add(sub)
                todo.append(sub)
                if attr in sub.__dict__ and sub.__module__.startswith(module_prefixes):
                    self.patch_method(name, sub, attr)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class StageSink:
    """A lifecycle event sink timing stages on the wall clock.

    Subscribed through the engines' public ``trace_sinks`` list; StageStart
    and StageEnd are emitted on the driver thread around each stage body,
    so the interval between them is the stage's wall time.
    """

    def __init__(self, tracer: LayerTracer):
        self.tracer = tracer
        self._lock = threading.Lock()
        self._open: Dict[Tuple[str, str], float] = {}

    def __call__(self, event: Any) -> None:
        kind = type(event).__name__
        if kind == "StageStart":
            now = _perf()
            with self._lock:
                self._open[(event.job_id, event.stage)] = now
            self.tracer.stage_started_at = now
        elif kind == "StageEnd":
            now = _perf()
            with self._lock:
                start = self._open.pop((event.job_id, event.stage), None)
            if start is not None:
                self.tracer.add_time(f"stage.{event.stage}", now - start)
