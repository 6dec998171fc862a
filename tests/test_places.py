"""Process place backend (DESIGN.md §16): backend-equivalence differentials,
worker fault injection, wire-codec units, and the shared kvstore view.

The load-bearing contract: `m3r.places.backend` selects *where* kernels
execute, never *what* they produce — outputs, counters and simulated
seconds must be byte-identical between the thread and process backends
(the Hadoop engine has no places; its one path must repeat exactly).  The
three excluded metric keys are engine-lifetime
driver-side serializer/size-cache state, documented in DESIGN.md §16.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading

import pytest

from repro.api.conf import DEFAULT_PLACES_BACKEND, PLACES_ENV
from repro.api.mapred import Mapper
from repro.api.portable import ProcessPortable, is_process_portable
from repro.api.writables import IntWritable, Text
from repro.engine_common import PlaceFailure
from repro.kvstore.store import BlockInfo, KeyValueStore
from repro.x10.backends import (
    EnvelopeEncodingError,
    ProcessPlaceBackend,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    kernel_root_ids,
    resolve_backend_name,
)
from repro.x10.places import Place

from conftest import make_hadoop, make_m3r
from workloads import run_stress, stress_job, write_corpus

#: Driver-side engine-lifetime state (serializer de-dup table, size
#: cache); identical *totals* are not guaranteed when kernels run in a
#: worker heap, so these stay out of the byte-identity contract.
EXCLUDED_METRIC_KEYS = {
    "size_cache_hits",
    "size_cache_misses",
    "serializer_fallbacks",
}


def comparable(snap):
    """Everything the backend-equivalence contract covers."""
    metrics = snap["metrics"]
    counters = {
        k: v
        for k, v in dict(metrics.counters).items()
        if k not in EXCLUDED_METRIC_KEYS
    }
    return {
        "output": snap["output"],
        "counts": snap["counts"],
        "counters": snap["counters"],
        "seconds": snap["seconds"],
        "metric_counters": counters,
        "time": metrics.time.as_dict(),
    }


# --------------------------------------------------------------------- #
# backend-equivalence differential
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("engine_kind", ["m3r", "hadoop"])
def test_backend_differential(engine_kind, seed):
    """Thread and process backends must be byte-identical: same committed
    output, same user counters, same cost-model metrics, same simulated
    seconds — across 20 seeded corpora, with the Hadoop engine's one
    path run twice as the control."""
    factory = {"m3r": make_m3r, "hadoop": make_hadoop}[engine_kind]
    snapshots = {
        backend: run_stress(
            factory,
            seed,
            # The Hadoop engine has no places: its one path runs twice.
            backend=backend if engine_kind == "m3r" else None,
            parts=4,
        )
        for backend in ("thread", "process")
    }
    assert comparable(snapshots["thread"]) == comparable(snapshots["process"])


def test_process_backend_actually_offloads():
    """The differential above would pass vacuously if the process backend
    silently ran everything locally; pin the offload path as exercised."""
    engine = make_m3r(place_backend="process")
    try:
        write_corpus(engine.filesystem, "/in", 3, parts=4)
        result = engine.run_job(stress_job("/in", "/out", reducers=4))
        assert result.succeeded, result.error
        backend = engine.runtime.backend
        assert isinstance(backend, ProcessPlaceBackend)
        assert backend.offload_count > 0
    finally:
        engine.shutdown()


def test_offload_count_is_not_a_job_metric():
    """Offload accounting is driver observability only — it must never
    leak into counters or metrics (that would break byte-identity)."""
    snap = run_stress(make_m3r, 5, backend="process", parts=4)
    for group, names in snap["counters"].items():
        assert "offload" not in group.lower()
        for name in names:
            assert "offload" not in name.lower()
    assert not any("offload" in k for k in dict(snap["metrics"].counters))


# --------------------------------------------------------------------- #
# fault injection: worker loss is a PlaceFailure, then places respawn
# --------------------------------------------------------------------- #

_DRIVER_PID = os.getpid()


class WorkerKillerMapper(Mapper, ProcessPortable):
    """Dies abruptly when its hosting process is a forked place worker —
    the mid-kernel SIGKILL-equivalent.  In the driver process (thread
    backend, local fallback) it behaves as a plain identity-count map."""

    def map(self, key, value, output, reporter):
        if os.getpid() != _DRIVER_PID:
            os._exit(17)
        output.collect(Text(str(value)), IntWritable(1))


def test_worker_loss_is_place_failure_and_worker_respawns():
    from workloads import failing_job

    engine = make_m3r(place_backend="process")
    try:
        write_corpus(engine.filesystem, "/in", 7, parts=4)
        # Warm the cache so the killer job's map inputs are materialized
        # cache hits — the offloadable path (a streaming first read runs
        # the kernel locally, where the mapper is harmless by design).
        warm = engine.run_job(stress_job("/in", "/out-warm", reducers=4))
        assert warm.succeeded, warm.error

        conf = failing_job(WorkerKillerMapper)
        conf.set_output_path("/out-killed")
        with pytest.raises(PlaceFailure):
            engine.run_job(conf)

        # The backend respawned the dead worker(s): the same engine runs
        # the next job to completion (warm restart of the place).
        retry = engine.run_job(stress_job("/in", "/out-retry", reducers=4))
        assert retry.succeeded, retry.error
    finally:
        engine.shutdown()


def test_shutdown_is_idempotent_and_leak_free():
    for backend in ("thread", "process"):
        engine = make_m3r(place_backend=backend)
        write_corpus(engine.filesystem, "/in", 2, parts=2)
        result = engine.run_job(stress_job("/in", "/out", reducers=2))
        assert result.succeeded, result.error
        engine.shutdown()
        engine.shutdown()  # double-close must be a no-op
    assert not multiprocessing.active_children()


def test_unknown_backend_is_rejected():
    with pytest.raises(ValueError):
        make_m3r(place_backend="fiber")


def test_backend_name_precedence(monkeypatch):
    """Explicit argument > M3R_PLACES environment > registry default."""
    monkeypatch.delenv(PLACES_ENV, raising=False)
    assert resolve_backend_name(None) == str(DEFAULT_PLACES_BACKEND)
    monkeypatch.setenv(PLACES_ENV, "process")
    assert resolve_backend_name(None) == "process"
    assert resolve_backend_name("thread") == "thread"
    monkeypatch.setenv(PLACES_ENV, "bogus")
    with pytest.raises(ValueError):
        resolve_backend_name(None)


# --------------------------------------------------------------------- #
# licensing
# --------------------------------------------------------------------- #


def test_portability_licensing():
    from repro.api.mapred import IdentityMapper, IdentityReducer
    from repro.apps.wordcount import SumReducer

    class Unlicensed(Mapper):
        def map(self, key, value, output, reporter):  # pragma: no cover
            pass

    class Marked(Unlicensed, ProcessPortable):
        pass

    class SubclassOfMarked(Marked):
        pass

    assert not is_process_portable(Unlicensed)
    assert is_process_portable(Marked)
    assert is_process_portable(SubclassOfMarked)  # marker is inherited
    assert is_process_portable(IdentityMapper)  # allowlisted
    assert is_process_portable(IdentityReducer)
    assert is_process_portable(SumReducer)
    assert not is_process_portable(Unlicensed())  # instances never qualify
    assert not is_process_portable("repro.api.mapred.IdentityMapper")


# --------------------------------------------------------------------- #
# wire codecs
# --------------------------------------------------------------------- #


def test_response_codec_restores_input_aliasing():
    """An output object that IS an input record must come back as the
    driver's original object, not a worker-heap copy."""
    key, value = Text("alias"), IntWritable(41)
    roots = [key, value]
    # Simulate the worker: a structurally identical clone of the roots.
    worker_roots = pickle.loads(pickle.dumps(roots))
    outcome = [
        (worker_roots[0], worker_roots[1]),  # aliases an input pair
        (Text("fresh"), IntWritable(1)),  # born inside the kernel
    ]
    payload = encode_response(outcome, worker_roots)
    resolved = decode_response(payload, roots)
    assert resolved[0][0] is key
    assert resolved[0][1] is value
    assert resolved[1][0] is not key
    assert str(resolved[1][0]) == "fresh"
    assert resolved[1][1].get() == 1


def test_response_codec_preserves_within_response_sharing():
    shared = IntWritable(9)
    outcome = [(Text("a"), shared), (Text("b"), shared)]
    resolved = decode_response(encode_response(outcome, []), [])
    assert resolved[0][1] is resolved[1][1]


def test_interned_singletons_are_never_back_referenced():
    ids = kernel_root_ids([None, True, False, Text("x")])
    assert id(None) not in ids
    assert id(True) not in ids
    assert id(False) not in ids
    assert len(ids) == 1


def test_duplicate_roots_resolve_to_first_index():
    obj = Text("dup")
    assert kernel_root_ids([obj, obj]) == {id(obj): 0}


def test_unpicklable_envelope_raises_encoding_error():
    with pytest.raises(EnvelopeEncodingError):
        encode_request({"bad": threading.Lock()}, 0)


def test_request_codec_small_values_stay_inline():
    payload, arena = encode_request({"k": [1, 2, 3]}, 1 << 20)
    assert len(arena) == 0
    request, attachments = decode_request(payload)
    assert request == {"k": [1, 2, 3]}
    assert attachments == []
    arena.release()


def test_request_codec_diverts_large_arrays_through_shm():
    numpy = pytest.importorskip("numpy")
    array = numpy.arange(4096, dtype=numpy.float64)  # 32 KiB
    payload, arena = encode_request(
        {"big": array, "small": numpy.arange(4)}, 1024
    )
    assert len(arena) == 1  # only the big array crossed via SHM
    request, attachments = decode_request(payload)
    assert len(attachments) == 1
    assert numpy.array_equal(request["big"], array)
    assert numpy.array_equal(request["small"], numpy.arange(4))
    del request
    for shm in attachments:
        shm.close()
    arena.release()


# --------------------------------------------------------------------- #
# shared kvstore view
# --------------------------------------------------------------------- #


def test_shared_store_view_roundtrip():
    numpy = pytest.importorskip("numpy")
    store = KeyValueStore([Place(i) for i in range(2)])
    big = numpy.arange(8192, dtype=numpy.float64)  # 64 KiB
    store.put_block(
        "/m", BlockInfo(place_id=0), [(Text("blk"), big), (Text("n"), 7)]
    )
    view = store.shared_view(["/m"], threshold_bytes=1024)
    try:
        assert view.paths() == ["/m"]
        assert view.exported_blocks() == 1
        # The view pickles small: payload stays in the SHM block, only
        # the reference crosses the wire.
        clone = pickle.loads(pickle.dumps(view))
        try:
            pairs = clone.pairs("/m")
            assert str(pairs[0][0]) == "blk"
            assert numpy.array_equal(pairs[0][1], big)
            assert pairs[1] == (Text("n"), 7) or pairs[1][1] == 7
            del pairs
        finally:
            clone.release()
    finally:
        view.release()


def test_shared_store_view_release_is_idempotent():
    store = KeyValueStore([Place(0)])
    store.put_block("/p", BlockInfo(place_id=0), [(Text("k"), 1)])
    with store.shared_view(["/p"]) as view:
        assert view.pairs("/p")[0][1] == 1
    view.release()  # second release after the context exit: no-op
