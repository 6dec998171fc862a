"""The X10 serialization protocol: measurement, de-duplication, cloning.

X10's ``at (p) S`` serializes the captured lexical scope.  Because heap
graphs can contain cycles, the protocol keeps a memo of already-serialized
objects and emits a back-reference for repeats.  M3R gets broadcast
de-duplication "for free" from this: if the mappers at place P emit the same
value object many times toward place Q, only one copy crosses the wire
(Section 3.2.2.3 of the paper).

In this reproduction places share one Python process, so no bytes actually
move — but the *accounting* must be exact, because the cost model charges
network and CPU time per serialized byte and record.  This module measures
object graphs the way X10 would serialize them:

* :func:`estimate_size` — the encoded size of a single object (Writables
  report their exact wire size; containers and numpy/scipy payloads are
  walked; anything else falls back to ``pickle``);
* :class:`SizeCache` — memoized leaf measurement: payloads that expose a
  ``size_token()`` (block Writables) are measured once and revalidated with
  a cheap token, so iteration N of a partition-stable job never re-measures
  the blocks iteration N-1 already saw;
* :class:`DedupSerializer` — per-message measurement with a memo, so each
  distinct object costs its full size once and a small back-reference for
  every repeat.  Wire and raw (sharing-ignored) bytes come out of a single
  traversal;
* :func:`deep_copy_value` — the defensive clone M3R performs when a job does
  *not* implement ``ImmutableOutput``.
"""

from __future__ import annotations

import copy
import pickle
import threading
import weakref
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.sanitizers import MUTATION_SANITIZER

#: Wire cost of a back-reference to an already-serialized object.
BACKREF_BYTES = 5

#: Fixed per-object envelope (type tag + length header).
OBJECT_HEADER_BYTES = 4


class _FallbackTally:
    """Thread-safe lifetime count of pickle-fallback size estimates.

    An object that reaches the final ``pickle.dumps`` path and still fails
    gets a fixed 64-byte guess; that used to happen silently.  Engines
    snapshot this tally around each job and surface the delta as the
    ``serializer_fallbacks`` metric, so a job whose accounting leans on
    guessed sizes says so.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0

    def record(self) -> None:
        with self._lock:
            self._count += 1

    def snapshot(self) -> int:
        with self._lock:
            return self._count


#: Process-wide tally shared by every serializer instance.
FALLBACK_TALLY = _FallbackTally()


class SizeCache:
    """Memoized ``serialized_size`` measurements, keyed by identity + token.

    Only objects that expose a ``size_token()`` method participate: the
    token is a cheap, size-determining fingerprint (e.g. ``(cols, nnz)``
    for a CSC matrix block) that acts as the entry's version tick — any
    mutation that could change the wire size changes the token and misses.
    Entries hold weak references, so a recycled ``id()`` can never alias a
    dead object's measurement and the cache never keeps payloads alive.

    Thread-safe: concurrently dispatched task bodies measure through it.  The hit/miss
    tallies are monotonic lifetime totals; engines snapshot them around a
    job to report per-job deltas (they are *not* part of the deterministic
    byte accounting — a cache hit returns exactly the bytes a fresh
    measurement would).
    """

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[weakref.ref, Any, int]] = {}
        # RLock: the weakref death callback can fire re-entrantly while the
        # same thread is mutating the table.
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0

    def measure(self, obj: Any, size_fn: Any) -> int:
        """``size_fn()``, memoized when ``obj`` carries a size token."""
        token_fn = getattr(obj, "size_token", None)
        if not callable(token_fn):
            return int(size_fn())
        token = token_fn()
        if token is None:  # the object declares itself uncacheable
            return int(size_fn())
        key = id(obj)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                ref, cached_token, size = entry
                if ref() is obj and cached_token == token:
                    self._hits += 1
                    return size
        size = int(size_fn())
        with self._lock:
            try:
                ref = weakref.ref(obj, lambda _, key=key: self._forget(key))
            except TypeError:  # not weakref-able (e.g. __slots__ scalars)
                self._misses += 1
                return size
            self._entries[key] = (ref, token, size)
            self._misses += 1
        return size

    def _forget(self, key: int) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def snapshot(self) -> Tuple[int, int]:
        """Lifetime ``(hits, misses)`` so far."""
        with self._lock:
            return self._hits, self._misses

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


#: The process-wide default cache: every engine's serializer and the
#: module-level :func:`estimate_size` share it, so a block measured at
#: ``collect()`` time is already warm when the shuffle measures the message.
DEFAULT_SIZE_CACHE = SizeCache()


def estimate_size(obj: Any, size_cache: Optional[SizeCache] = None) -> int:
    """Estimate the serialized size of one object, ignoring sharing.

    Writables (anything with a ``serialized_size()`` method) report their
    exact Hadoop wire size.  Containers are walked recursively *without*
    de-duplication — use :class:`DedupSerializer` when sharing matters.
    Heap cycles are encoded as back-references (the X10 protocol "must
    handle cycles in the heap", paper Section 5.1), so estimation always
    terminates.
    """
    if size_cache is None:
        size_cache = DEFAULT_SIZE_CACHE
    return _size_of(obj, memo=None, size_cache=size_cache)


def _size_of(
    obj: Any,
    memo: "Dict[int, Any] | None",
    visiting: "set | None" = None,
    size_cache: Optional[SizeCache] = None,
) -> int:
    """Size of ``obj``; when ``memo`` is given, repeats cost a back-ref.

    ``visiting`` tracks the ids on the *current* descent path: even without
    a memo (raw, sharing-ignored measurement) a cycle must terminate, and a
    back-reference is what a cycle-capable wire protocol emits for it.
    """
    if obj is None:
        return 1
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        # Hadoop VInt-style encoding: small ints are small on the wire.
        magnitude = abs(obj)
        nbytes = 1
        while magnitude >= 0x80:
            magnitude >>= 8
            nbytes += 1
        return nbytes
    if isinstance(obj, float):
        return 8

    if memo is not None:
        key = id(obj)
        if key in memo:
            return BACKREF_BYTES
        memo[key] = obj  # noqa: M3R001 - per-message memo; ref keeps ids unique
    elif isinstance(obj, (list, tuple, set, frozenset, dict)) or hasattr(
        obj, "__dict__"
    ):
        if visiting is None:
            visiting = set()
        if id(obj) in visiting:
            return BACKREF_BYTES
        visiting = visiting | {id(obj)}

    size_fn = getattr(obj, "serialized_size", None)
    if callable(size_fn):
        if size_cache is not None:
            return OBJECT_HEADER_BYTES + size_cache.measure(obj, size_fn)
        return OBJECT_HEADER_BYTES + int(size_fn())

    if isinstance(obj, (bytes, bytearray, memoryview)):
        return OBJECT_HEADER_BYTES + len(obj)
    if isinstance(obj, str):
        return OBJECT_HEADER_BYTES + len(obj.encode("utf-8"))
    if isinstance(obj, (list, tuple, set, frozenset)):
        return OBJECT_HEADER_BYTES + sum(
            _size_of(item, memo, visiting, size_cache) for item in obj
        )
    if isinstance(obj, dict):
        return OBJECT_HEADER_BYTES + sum(
            _size_of(k, memo, visiting, size_cache)
            + _size_of(v, memo, visiting, size_cache)
            for k, v in obj.items()
        )

    nbytes_attr = getattr(obj, "nbytes", None)
    if isinstance(nbytes_attr, int):  # numpy arrays
        return OBJECT_HEADER_BYTES + nbytes_attr

    # scipy sparse matrices expose .data/.indices/.indptr numpy arrays
    data = getattr(obj, "data", None)
    if data is not None and hasattr(data, "nbytes"):
        total = data.nbytes
        for attr in ("indices", "indptr", "row", "col"):
            arr = getattr(obj, attr, None)
            if arr is not None and hasattr(arr, "nbytes"):
                total += arr.nbytes
        return OBJECT_HEADER_BYTES + int(total)

    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        return OBJECT_HEADER_BYTES + sum(
            _size_of(v, memo, visiting, size_cache) for v in attrs.values()  # noqa: M3R002 - __dict__ order fixed at construction
        )

    try:
        return OBJECT_HEADER_BYTES + len(pickle.dumps(obj, protocol=4))
    except (pickle.PicklingError, TypeError):  # unpicklable exotic object
        FALLBACK_TALLY.record()
        return OBJECT_HEADER_BYTES + 64


def _dual_size_of(
    obj: Any,
    memo: Dict[int, List[Any]],
    size_cache: Optional[SizeCache],
) -> Tuple[int, int]:
    """``(wire, raw)`` size of ``obj`` in one traversal.

    ``memo`` maps ``id(obj) -> [obj, raw_size]``; ``raw_size`` is ``None``
    while the object's walk is still in progress (i.e. the hit is a cycle,
    which both accountings encode as a back-reference).  A completed-walk
    hit costs a back-reference on the wire but its full, sharing-ignored
    size in the raw total — exactly what the former second
    ``_size_of(value, memo=None)`` pass computed.
    """
    if obj is None or isinstance(obj, bool):
        return 1, 1
    if isinstance(obj, int):
        magnitude = abs(obj)
        nbytes = 1
        while magnitude >= 0x80:
            magnitude >>= 8
            nbytes += 1
        return nbytes, nbytes
    if isinstance(obj, float):
        return 8, 8

    key = id(obj)
    entry = memo.get(key)
    if entry is not None:
        raw_size = entry[1]
        if raw_size is None:  # cycle: raw measurement back-references too
            return BACKREF_BYTES, BACKREF_BYTES
        return BACKREF_BYTES, raw_size
    entry = [obj, None]  # hold a reference so ids stay unique
    memo[key] = entry  # noqa: M3R001 - per-message memo; ref keeps ids unique

    size_fn = getattr(obj, "serialized_size", None)
    if callable(size_fn):
        if size_cache is not None:
            size = OBJECT_HEADER_BYTES + size_cache.measure(obj, size_fn)
        else:
            size = OBJECT_HEADER_BYTES + int(size_fn())
        entry[1] = size
        return size, size

    if isinstance(obj, (bytes, bytearray, memoryview)):
        size = OBJECT_HEADER_BYTES + len(obj)
        entry[1] = size
        return size, size
    if isinstance(obj, str):
        size = OBJECT_HEADER_BYTES + len(obj.encode("utf-8"))
        entry[1] = size
        return size, size

    if isinstance(obj, (list, tuple, set, frozenset)):
        wire = raw = OBJECT_HEADER_BYTES
        for item in obj:
            w, r = _dual_size_of(item, memo, size_cache)
            wire += w
            raw += r
        entry[1] = raw
        return wire, raw
    if isinstance(obj, dict):
        wire = raw = OBJECT_HEADER_BYTES
        for k, v in obj.items():
            w, r = _dual_size_of(k, memo, size_cache)
            wire += w
            raw += r
            w, r = _dual_size_of(v, memo, size_cache)
            wire += w
            raw += r
        entry[1] = raw
        return wire, raw

    nbytes_attr = getattr(obj, "nbytes", None)
    if isinstance(nbytes_attr, int):  # numpy arrays
        size = OBJECT_HEADER_BYTES + nbytes_attr
        entry[1] = size
        return size, size

    data = getattr(obj, "data", None)
    if data is not None and hasattr(data, "nbytes"):
        total = data.nbytes
        for attr in ("indices", "indptr", "row", "col"):
            arr = getattr(obj, attr, None)
            if arr is not None and hasattr(arr, "nbytes"):
                total += arr.nbytes
        size = OBJECT_HEADER_BYTES + int(total)
        entry[1] = size
        return size, size

    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        wire = raw = OBJECT_HEADER_BYTES
        for v in attrs.values():  # noqa: M3R002 - __dict__ order fixed at construction
            w, r = _dual_size_of(v, memo, size_cache)
            wire += w
            raw += r
        entry[1] = raw
        return wire, raw

    try:
        size = OBJECT_HEADER_BYTES + len(pickle.dumps(obj, protocol=4))
    except (pickle.PicklingError, TypeError):  # unpicklable exotic object
        FALLBACK_TALLY.record()
        size = OBJECT_HEADER_BYTES + 64
    entry[1] = size
    return size, size


@dataclass(frozen=True)
class SerializedMessage:
    """The measured result of serializing one message to one place."""

    #: Bytes on the wire with de-duplication applied.
    wire_bytes: int
    #: Bytes that would have been sent without de-duplication.
    raw_bytes: int
    #: Number of top-level records in the message.
    records: int
    #: Distinct objects actually serialized.
    unique_objects: int
    #: References resolved from the memo instead of re-serialized.
    duplicate_refs: int

    @property
    def dedup_savings(self) -> int:
        """Bytes saved by de-duplication."""
        return self.raw_bytes - self.wire_bytes


class DedupSerializer:
    """Measures messages with X10's de-duplicating protocol.

    One instance can be shared; every :meth:`measure_message` call uses a
    fresh memo, matching X10's per-message de-duplication scope.  Leaf
    measurements go through the (shared, thread-safe) :class:`SizeCache`.
    """

    def __init__(self, size_cache: Optional[SizeCache] = None):
        self.size_cache = (
            size_cache if size_cache is not None else DEFAULT_SIZE_CACHE
        )

    def measure_message(self, values: Sequence[Any]) -> SerializedMessage:
        """Measure serializing ``values`` as one message.

        Each distinct object (by identity) costs its full encoded size the
        first time and :data:`BACKREF_BYTES` on every repeat.  The
        de-duplicated (wire) and sharing-ignored (raw) totals come out of
        one traversal of the object graph.
        """
        if MUTATION_SANITIZER.enabled:
            MUTATION_SANITIZER.observe_all(
                values, site="DedupSerializer.measure_message"
            )
        memo: Dict[int, List[Any]] = {}
        wire = 0
        raw = 0
        duplicates = 0
        for value in values:
            before = len(memo)
            w, r = _dual_size_of(value, memo, self.size_cache)
            wire += w
            raw += r
            if len(memo) == before and not _is_inline(value):
                duplicates += 1
        return SerializedMessage(
            wire_bytes=wire,
            raw_bytes=raw,
            records=len(values),
            unique_objects=len(memo),
            duplicate_refs=duplicates,
        )

    def measure_pairs(
        self, pairs: Iterable[Tuple[Any, Any]]
    ) -> SerializedMessage:
        """Measure a message of key/value pairs (the shuffle's unit)."""
        flat: list = []
        for key, value in pairs:
            flat.append(key)
            flat.append(value)
        message = self.measure_message(flat)
        return SerializedMessage(
            wire_bytes=message.wire_bytes,
            raw_bytes=message.raw_bytes,
            records=len(flat) // 2,
            unique_objects=message.unique_objects,
            duplicate_refs=message.duplicate_refs,
        )


def _is_inline(value: Any) -> bool:
    """True for scalars that serialize inline and never enter the memo."""
    return value is None or isinstance(value, (bool, int, float))


def deep_copy_value(value: Any) -> Any:
    """The defensive clone M3R applies without ``ImmutableOutput``.

    Writables implement ``clone()`` (matching Hadoop's
    ``WritableUtils.clone``); anything else is deep-copied.
    """
    clone_fn = getattr(value, "clone", None)
    if callable(clone_fn):
        return clone_fn()
    return copy.deepcopy(value)
