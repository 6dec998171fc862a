"""Place backends: the execution substrate behind an X10Runtime.

DESIGN.md §16.  The runtime's task dispatch (``async_at`` inside a
``finish``) always lands on a :class:`PlaceBackend`:

* :class:`ThreadPlaceBackend` — everything runs in-process.  The engines
  run their task phases inline on it (the pool only serves direct
  ``finish``/``async`` callers); CPU-bound kernels share one GIL.
* :class:`ProcessPlaceBackend` — one persistent daemon worker *process*
  per place (:class:`~repro.x10.places.PlaceWorker`).  Task **bodies**
  still run on the driver's pool (they are accounting prologue/epilogue —
  cache, filesystem, cost-model charges, all of which must see driver
  state); the pure user-code **kernel** in the middle is pickled into a
  task envelope, shipped over the worker's pipe, executed there, and its
  outcome shipped back.  Large contiguous arrays cross via POSIX
  shared-memory blocks instead of inline bytes.

Byte-identity between the two backends rests on the response codec: every
object the kernel emits that *is* (``id``-wise) one of the shipped input
records is encoded as a back-reference to that input root, and the driver
resolves it to its **original** object.  Aliasing between inputs and
outputs — which the M3R cache path deliberately preserves and the
serializer's de-dup accounting observes — therefore survives the process
hop; objects born inside the kernel keep their within-response sharing
through the pickle memo.

Wire protocol (framed by ``Connection.send_bytes``):

======  =======================================================
``Q``   request: pickled task envelope (SHM refs for big arrays)
``P``   ping                                  → ``R`` pong
``S``   stop sentinel (graceful drain)        → no reply
``K``   reply: pickled outcome (input back-references resolved)
``U``   reply: kernel unsupported — driver reruns it locally
``E``   reply: pickled user exception — re-raised in the task body
======  =======================================================
"""

from __future__ import annotations

import io
import os
import pickle
import signal
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.x10.places import PlaceWorker

try:  # optional: only the shared-memory fast path needs it
    import numpy as _numpy
except Exception:  # noqa: M3R004 - import guard: any failure means "no numpy"
    _numpy = None

__all__ = [
    "EnvelopeEncodingError",
    "KernelUnsupported",
    "PlaceBackend",
    "ProcessPlaceBackend",
    "ThreadPlaceBackend",
    "resolve_backend",
    "resolve_backend_name",
]


def _place_failure(place_id: int, reason: str = "worker process died"):
    # Lazy: the x10 layer loads before engine_common (which sits on the
    # API layer), so the exception type cannot be imported at module scope.
    from repro.engine_common import PlaceFailure

    return PlaceFailure(place_id, reason)


class KernelUnsupported(Exception):
    """This kernel cannot run where it was asked to (worker touched the
    stub filesystem, backend cannot offload, …).  Never fatal: the driver
    falls back to running the kernel locally."""


class EnvelopeEncodingError(Exception):
    """The task envelope could not be pickled for the wire.  Also a
    fall-back-to-local signal, distinct from exceptions the *user code*
    raised inside the worker (which must propagate)."""


# --------------------------------------------------------------------- #
# wire codecs
# --------------------------------------------------------------------- #

_SHM_KIND = "shm"
_ROOT_KIND = "root"


def _untrack_shm(shm: Any) -> None:
    """Attach-side tracker hygiene — a deliberate no-op here.

    Fork-started workers share the driver's resource_tracker process, and
    the tracker's registry is a *set*: the attach-side registration
    collapses into the driver's own entry, so double-unlink at exit is
    already impossible, and unregistering here would strip the driver's
    entry (losing leak protection and making the driver's own unlink warn
    with a tracker KeyError).  A spawn-context port — separate trackers
    per process — is the one case that would need a real unregister."""


class SharedValueArena:
    """Driver-side registry of shared-memory blocks exported for one
    request.  ``release()`` closes and unlinks every block — safe while
    the worker is still attached (POSIX keeps the segment alive until the
    last close)."""

    def __init__(self) -> None:
        self._blocks: List[Any] = []

    def export_array(self, array: Any) -> Tuple[str, str, Tuple[int, ...]]:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
        view = _numpy.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        del view
        self._blocks.append(shm)
        return (shm.name, array.dtype.str, tuple(array.shape))

    def __len__(self) -> int:
        return len(self._blocks)

    def release(self) -> None:
        for shm in self._blocks:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - lingering local view
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._blocks = []


def shm_exportable(value: Any, threshold: int) -> bool:
    """Is this value a large contiguous array worth a shared-memory hop?"""
    return (
        _numpy is not None
        and threshold > 0
        and isinstance(value, _numpy.ndarray)
        and value.nbytes >= threshold
        and value.flags["C_CONTIGUOUS"]
        and not value.dtype.hasobject
    )


class _RequestPickler(pickle.Pickler):
    """Envelope pickler: diverts big arrays into the arena's SHM blocks."""

    def __init__(self, file: Any, arena: SharedValueArena, threshold: int):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._arena = arena
        self._threshold = threshold

    def persistent_id(self, obj: Any) -> Optional[Tuple]:
        if shm_exportable(obj, self._threshold):
            return (_SHM_KIND,) + self._arena.export_array(obj)
        return None


class _WorkerUnpickler(pickle.Unpickler):
    """Worker-side envelope unpickler: attaches the driver's SHM blocks."""

    def __init__(self, file: Any, attachments: List[Any]):
        super().__init__(file)
        self._attachments = attachments

    def persistent_load(self, pid: Tuple) -> Any:
        if pid[0] != _SHM_KIND:  # pragma: no cover - protocol guard
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        from multiprocessing import shared_memory

        name, dtype, shape = pid[1], pid[2], pid[3]
        shm = shared_memory.SharedMemory(name=name)
        _untrack_shm(shm)
        self._attachments.append(shm)
        return _numpy.ndarray(shape, dtype=_numpy.dtype(dtype), buffer=shm.buf)


def kernel_root_ids(roots: Sequence[Any]) -> Dict[int, int]:
    """``id(root) -> index`` over the envelope's input records.

    Both sides compute this over structurally identical root lists, so an
    index minted in the worker resolves to the *original* driver object.
    Interned singletons (None/True/False) are excluded: mapping, say,
    every ``None`` an output carries back to an input root would be
    wrong-by-identity even though it is right-by-value.  Other interned
    smalls (ints, short strings) are safe either way — when the worker's
    output "aliases" an input only because CPython interned the value,
    the driver-side run would have produced the same sharing.
    """
    ids: Dict[int, int] = {}
    for index, obj in enumerate(roots):
        if obj is None or obj is True or obj is False:
            continue
        ids.setdefault(id(obj), index)
    return ids


class _ResponsePickler(pickle.Pickler):
    """Outcome pickler: canonicalizes emitted objects that *are* input
    records into root back-references (identity, not equality)."""

    def __init__(self, file: Any, root_ids: Dict[int, int]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._root_ids = root_ids

    def persistent_id(self, obj: Any) -> Optional[Tuple]:
        index = self._root_ids.get(id(obj))
        if index is not None:
            return (_ROOT_KIND, index)
        return None


class _ResponseUnpickler(pickle.Unpickler):
    """Driver-side outcome unpickler: resolves root back-references to the
    original input objects, restoring input→output aliasing."""

    def __init__(self, file: Any, roots: Sequence[Any]):
        super().__init__(file)
        self._roots = roots

    def persistent_load(self, pid: Tuple) -> Any:
        if pid[0] != _ROOT_KIND:  # pragma: no cover - protocol guard
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        return self._roots[pid[1]]


def encode_request(request: Any, threshold: int) -> Tuple[bytes, SharedValueArena]:
    arena = SharedValueArena()
    buffer = io.BytesIO()
    try:
        _RequestPickler(buffer, arena, threshold).dump(request)
    except Exception as error:
        arena.release()
        raise EnvelopeEncodingError(str(error)) from error
    return buffer.getvalue(), arena


def decode_request(payload: bytes) -> Tuple[Any, List[Any]]:
    attachments: List[Any] = []
    request = _WorkerUnpickler(io.BytesIO(payload), attachments).load()
    return request, attachments


def encode_response(outcome: Any, roots: Sequence[Any]) -> bytes:
    buffer = io.BytesIO()
    _ResponsePickler(buffer, kernel_root_ids(roots)).dump(outcome)
    return buffer.getvalue()


def decode_response(payload: bytes, roots: Sequence[Any]) -> Any:
    return _ResponseUnpickler(io.BytesIO(payload), list(roots)).load()


def _pickle_exception(error: BaseException) -> bytes:
    try:
        return pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # noqa: M3R004 - any pickle failure downgrades to the rendered form
        fallback = RuntimeError(f"{type(error).__name__}: {error}")
        return pickle.dumps(fallback, protocol=pickle.HIGHEST_PROTOCOL)


def _unpickle_exception(payload: bytes) -> BaseException:
    try:
        error = pickle.loads(payload)
    except Exception as decode_error:  # pragma: no cover - defensive
        return RuntimeError(f"undecodable worker exception: {decode_error}")
    if isinstance(error, BaseException):
        return error
    return RuntimeError(repr(error))  # pragma: no cover - defensive


# --------------------------------------------------------------------- #
# worker main loop
# --------------------------------------------------------------------- #


def _worker_main(place_id: int, conn: Any) -> None:
    """The body of one place worker: recv envelope, run kernel, reply.

    SIGINT is ignored — a ^C on the driver must not take the workers down
    mid-protocol; the driver's shutdown path stops them deliberately.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    while True:
        try:
            message = conn.recv_bytes()
        except (EOFError, OSError):
            return
        tag, payload = message[:1], message[1:]
        if tag == b"S":
            return
        if tag == b"P":
            try:
                conn.send_bytes(b"R")
            except (BrokenPipeError, OSError):
                return
            continue
        request = outcome = None
        attachments: List[Any] = []
        try:
            request, attachments = decode_request(payload)
            outcome = request.run()
            reply = b"K" + encode_response(outcome, request.roots())
        except KernelUnsupported as error:
            reply = b"U" + str(error).encode("utf-8", "replace")
        except BaseException as error:  # noqa: BLE001 - shipped to driver
            reply = b"E" + _pickle_exception(error)
        try:
            conn.send_bytes(reply)
        except (BrokenPipeError, OSError):
            return
        # Drop every reference into the SHM buffers before closing them;
        # a still-exported view just leaves the close to process exit.
        request = outcome = reply = None  # noqa: F841
        for shm in attachments:
            try:
                shm.close()
            except BufferError:
                pass


# --------------------------------------------------------------------- #
# backends
# --------------------------------------------------------------------- #


class PlaceBackend:
    """Owns the task-execution substrate behind one :class:`X10Runtime`.

    Every backend owns the bounded driver-side thread pool task *bodies*
    run on (sized exactly as the historical runtime pool); subclasses add
    where task *kernels* may execute.
    """

    name = "abstract"
    #: May :meth:`offload` ship kernels somewhere? (Gates envelope builds.)
    supports_offload = False

    def __init__(self, num_places: int, workers_per_place: int):
        self.num_places = num_places
        self.workers_per_place = workers_per_place
        self._pool = ThreadPoolExecutor(
            max_workers=max(4, num_places * min(workers_per_place, 4)),
            thread_name_prefix="x10-worker",
        )
        self._shutdown_started = False

    def submit(self, fn: Any, *args: Any) -> Any:
        """Schedule one task body on the driver-side pool."""
        return self._pool.submit(fn, *args)

    def offload(self, place_id: int, request: Any) -> Any:
        """Run one kernel envelope at ``place_id``; returns its outcome."""
        raise KernelUnsupported(f"{self.name} backend cannot offload kernels")

    def ping(self, place_id: int) -> bool:
        return False

    def ensure_workers(self) -> None:
        """Respawn any place whose worker died (no-op for backends with
        nothing to respawn).  Only called between jobs — see the process
        backend's override for why never mid-job."""

    def shutdown(self) -> None:
        """Idempotent, KeyboardInterrupt-safe teardown.  A second call
        after an interrupted first finishes reaping the workers."""
        if self._shutdown_started:
            self._shutdown_workers()
            return
        self._shutdown_started = True
        try:
            self._pool.shutdown(wait=True)
        finally:
            self._shutdown_workers()

    def _shutdown_workers(self) -> None:
        pass


class ThreadPlaceBackend(PlaceBackend):
    """Everything in-process: engine task phases run inline on the
    calling thread, and only direct ``finish``/``async`` callers use the
    shared pool."""

    name = "thread"


def _reap_workers(workers: List[Optional[PlaceWorker]]) -> None:
    # weakref.finalize safety net: must not reference the backend itself.
    for worker in workers:
        if worker is not None:
            worker.kill()


class ProcessPlaceBackend(PlaceBackend):
    """Persistent per-place worker processes executing task kernels.

    Workers spawn eagerly at construction — engine init runs on the main
    thread, so the ``fork`` happens before any task threads exist — and
    stay warm across every job of the engine's sequence (the paper's
    long-lived places).  A worker found dead mid-request is reaped
    immediately and the in-flight task fails with :class:`PlaceFailure`;
    the place is respawned at the *next* job's admission
    (:meth:`ensure_workers`), never mid-job: forking while task threads
    are live risks snapshotting a held lock (import machinery, logging)
    into the child, which then deadlocks on first use.
    """

    name = "process"
    supports_offload = True

    def __init__(
        self,
        num_places: int,
        workers_per_place: int,
        shm_threshold_bytes: Optional[int] = None,
    ):
        super().__init__(num_places, workers_per_place)
        if shm_threshold_bytes is None:
            from repro.api.conf import DEFAULT_PLACES_SHM_THRESHOLD

            shm_threshold_bytes = int(DEFAULT_PLACES_SHM_THRESHOLD)
        self.shm_threshold_bytes = shm_threshold_bytes
        #: Kernels actually executed in worker processes (driver-side
        #: observability stat, deliberately NOT a job metric — job metrics
        #: stay byte-identical across backends).
        self.offload_count = 0
        self._stats_lock = threading.Lock()
        self._workers: List[Optional[PlaceWorker]] = [
            PlaceWorker(place_id, _worker_main) for place_id in range(num_places)
        ]
        self._finalizer = weakref.finalize(self, _reap_workers, self._workers)

    def ping(self, place_id: int) -> bool:
        worker = self._workers[place_id]
        if worker is None or not worker.alive():
            return False
        with worker.lock:
            try:
                return worker.call_bytes(b"P") == b"R"
            except (EOFError, BrokenPipeError, OSError):
                return False

    def offload(self, place_id: int, request: Any) -> Any:
        worker = self._workers[place_id]
        if worker is None:
            raise KernelUnsupported(
                f"place {place_id} has no live worker (retired or shut down)"
            )
        payload, arena = encode_request(request, self.shm_threshold_bytes)
        try:
            with worker.lock:
                reply = worker.call_bytes(b"Q" + payload)
        except (EOFError, BrokenPipeError, OSError) as error:
            self._retire(place_id, worker)
            raise _place_failure(place_id) from error
        finally:
            arena.release()
        tag, body = reply[:1], reply[1:]
        if tag == b"K":
            with self._stats_lock:
                self.offload_count += 1
            return decode_response(body, request.roots())
        if tag == b"U":
            raise KernelUnsupported(body.decode("utf-8", "replace"))
        if tag == b"E":
            raise _unpickle_exception(body)
        raise _place_failure(place_id, f"malformed reply tag {tag!r}")

    def _retire(self, place_id: int, dead: PlaceWorker) -> None:
        """Reap a dead worker and leave its slot empty.  Offloads to an
        empty slot raise :class:`KernelUnsupported` (local fallback) until
        :meth:`ensure_workers` refills it between jobs."""
        dead.kill()
        if self._workers[place_id] is dead:
            self._workers[place_id] = None

    def ensure_workers(self) -> None:
        """Refill retired slots.  Runs at job admission, when no task
        threads are live, so the ``fork`` sees a single-threaded(-enough)
        driver — the same safety argument as the eager spawn at init."""
        if self._shutdown_started:
            return
        for place_id, worker in enumerate(self._workers):
            if worker is None:
                self._workers[place_id] = PlaceWorker(place_id, _worker_main)

    def _shutdown_workers(self) -> None:
        self._finalizer.detach()
        for place_id, worker in enumerate(self._workers):
            if worker is not None:
                worker.stop()
                self._workers[place_id] = None


def resolve_backend_name(value: Optional[str]) -> str:
    """Backend choice with the canonical knob precedence:
    explicit argument > ``M3R_PLACES`` environment > registry default."""
    from repro.api.conf import DEFAULT_PLACES_BACKEND, PLACES_ENV

    name = value
    if name is None:
        name = (os.environ.get(PLACES_ENV) or "").strip().lower() or None
    if name is None:
        name = str(DEFAULT_PLACES_BACKEND)
    if name not in ("thread", "process"):
        raise ValueError(
            f"unknown place backend {name!r}: expected 'thread' or 'process'"
        )
    return name


def resolve_backend(
    backend: Any, num_places: int, workers_per_place: int
) -> PlaceBackend:
    """Build (or pass through) the backend an X10Runtime should use."""
    if isinstance(backend, PlaceBackend):
        return backend
    name = resolve_backend_name(backend)
    if name == "process":
        return ProcessPlaceBackend(num_places, workers_per_place)
    return ThreadPlaceBackend(num_places, workers_per_place)
