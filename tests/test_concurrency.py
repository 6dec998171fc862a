"""Concurrency stress tests: the two place backends' dispatch paths.

On the thread place backend every task body and every shuffle message runs
inline, in task order, on the calling thread.  On the process backend the
M3R engine dispatches each map/reduce phase as one X10 ``finish`` block
spawning an ``async`` per task on driver threads, with
``workers_per_place`` bounding per-place concurrency, so every place's
worker process has a kernel in flight at once.  These tests pin down the
contract that makes the concurrent path safe:

* **Determinism** — with ``workers_per_place >= 4`` over up to 64 splits,
  the committed output, every counter total, the shuffle byte metrics,
  the cached blocks and the simulated seconds are byte-identical between
  the process backend (concurrent dispatch) and the thread backend
  (inline), across many seeded datasets.
* **No lost updates** — per-record counters (system and user) are exact,
  not merely close, under concurrently dispatched tasks.
* **Fail-fast** — a mapper raising at an arbitrary task index fails the
  whole job (``JobFailedError`` propagates; plain exceptions surface as a
  failed :class:`EngineResult`), the ``finish`` never hangs, no output is
  committed, and the engine stays usable afterwards.
* **One path per backend** — the thread backend starts no task threads
  on either engine; the process backend spreads M3R map task bodies over
  several driver threads.
"""

from __future__ import annotations

import threading
from collections import Counter as PyCounter

import numpy as np
import pytest

from repro.api.counters import TaskCounter
from repro.apps import matvec
from repro.apps.wordcount import generate_text, wordcount_job
from repro.engine_common import JobFailedError
from repro.lifecycle import hadoop_stages, m3r_stages
from repro.shuffle import ShuffleExecutor
from repro.sim.metrics import SHUFFLE_PLACE_PREFIX

from workloads import (
    NodeLossMapper,
    PoisonedMapper,
    failing_job,
    make_hadoop,
    make_m3r,
    poison_corpus,
    run_stress,
    stress_job,
    write_corpus,
)

SHUFFLE_METRICS = (
    "shuffle_remote_bytes",
    "shuffle_remote_records",
    "shuffle_local_bytes",
    "shuffle_local_records",
    "dedup_saved_bytes",
)


def backend_for(process_places: bool) -> str:
    return "process" if process_places else "thread"


class TestM3RStress:
    def test_threaded_matches_serial_on_64_splits(self):
        """workers_per_place=4, 64 splits: the process backend's
        concurrently dispatched tasks are byte-identical to the thread
        backend's inline, serial ones."""
        threaded = run_stress(make_m3r, seed=1, backend="process",
                              engine_kwargs={"workers_per_place": 4})
        serial = run_stress(make_m3r, seed=1, backend="thread",
                            engine_kwargs={"workers_per_place": 4})
        assert threaded["output"] == serial["output"]
        assert threaded["counters"] == serial["counters"]
        assert threaded["cached"] == serial["cached"]
        assert threaded["seconds"] == serial["seconds"]
        # And the answer itself is right.
        expected = PyCounter(threaded["corpus"].split())
        assert dict(threaded["counts"]) == dict(expected)

    def test_counters_exact_under_threads(self):
        """Per-record system and user counters: exact totals, no lost
        updates, across 64 concurrently dispatched splits."""
        run = run_stress(make_m3r, seed=2, backend="process",
                         engine_kwargs={"workers_per_place": 4})
        words = len(run["corpus"].split())
        lines = sum(1 for line in run["corpus"].splitlines() if line)
        counters = run["counters_obj"]
        assert counters.value("stress", "words") == words
        assert counters.value("stress", "records") == lines
        assert counters.value(TaskCounter.MAP_INPUT_RECORDS) == lines
        assert counters.value(TaskCounter.MAP_OUTPUT_RECORDS) == words

    @pytest.mark.parametrize("seed", range(20))
    def test_twenty_seeded_runs_deterministic(self, seed):
        """Acceptance sweep: 20 seeded corpora, process == thread backend
        on output, counters, cached blocks, shuffle byte metrics and
        (exactly, not approximately) simulated seconds."""
        process = run_stress(make_m3r, seed=seed, backend="process", parts=16,
                             engine_kwargs={"workers_per_place": 4})
        thread = run_stress(make_m3r, seed=seed, backend="thread", parts=16,
                            engine_kwargs={"workers_per_place": 4})
        assert process["output"] == thread["output"]
        assert process["counters"] == thread["counters"]
        assert process["cached"] == thread["cached"]
        for name in SHUFFLE_METRICS:
            assert process["metrics"].get(name) == thread["metrics"].get(name), name
        # Charges are applied in task and plan order after each phase, so
        # the float sums are bitwise identical — no approx needed.
        assert process["seconds"] == thread["seconds"]

    def test_single_worker_forces_serial_path_same_answer(self):
        """workers_per_place=1 runs one task at a time per place; the
        job's answer is unchanged (the split *hint* scales with workers,
        so task counts differ legitimately — the committed counts must
        not)."""
        serial = run_stress(make_m3r, seed=3, backend="process", parts=16,
                            engine_kwargs={"workers_per_place": 1})
        threaded = run_stress(make_m3r, seed=3, backend="process", parts=16,
                              engine_kwargs={"workers_per_place": 8})
        assert dict(threaded["counts"]) == dict(serial["counts"])
        assert dict(serial["counts"]) == dict(PyCounter(serial["corpus"].split()))


class TestShuffleConcurrency:
    """The shuffle after concurrently dispatched map tasks (process
    backend) must be observationally identical to the shuffle after
    inline ones (thread backend): every byte metric, every per-place skew
    counter, every shuffle counter, every committed record, and the
    simulated clock."""

    @pytest.mark.parametrize("seed", range(20))
    def test_twenty_seeded_runs_parallel_shuffle_deterministic(self, seed):
        """Acceptance sweep: map outputs finishing in any order still give
        one shuffle plan — identical shuffle byte metrics, per-place
        bytes, shuffle counters, sort/serialize time, outputs and
        (exactly, not approximately) simulated seconds."""
        parallel = run_stress(make_m3r, seed=seed, backend="process", parts=16,
                              engine_kwargs={"workers_per_place": 4})
        inline = run_stress(make_m3r, seed=seed, backend="thread", parts=16,
                            engine_kwargs={"workers_per_place": 4})
        assert parallel["output"] == inline["output"]
        for name in SHUFFLE_METRICS:
            assert parallel["metrics"].get(name) == inline["metrics"].get(name), name

        def per_place(run):
            counters = run["metrics"].as_dict()["counters"]
            return {k: v for k, v in counters.items()
                    if k.startswith(SHUFFLE_PLACE_PREFIX)}

        assert per_place(parallel) == per_place(inline)
        assert per_place(parallel)  # the sweep does shuffle across places
        for counter in (TaskCounter.REDUCE_SHUFFLE_BYTES,
                        TaskCounter.REDUCE_LOCAL_HANDOFF_BYTES):
            assert (parallel["counters_obj"].value(counter)
                    == inline["counters_obj"].value(counter)), counter
        for category in ("sort", "serialize"):
            assert (parallel["metrics"].time.get(category)
                    == inline["metrics"].time.get(category)), category
        assert parallel["seconds"] == inline["seconds"]

    def test_local_handoff_bytes_split_from_shuffle_bytes(self):
        """Co-located partitions are counted as local hand-offs, not as
        REDUCE_SHUFFLE_BYTES; the two cover all map-output traffic."""
        run = run_stress(make_m3r, seed=5, parts=16,
                         engine_kwargs={"workers_per_place": 4})
        counters = run["counters_obj"]
        remote = counters.value(TaskCounter.REDUCE_SHUFFLE_BYTES)
        local = counters.value(TaskCounter.REDUCE_LOCAL_HANDOFF_BYTES)
        assert local > 0  # partition % num_places guarantees co-location
        assert remote > 0
        assert local == run["metrics"].get("shuffle_local_bytes")


class PoisonKeyComparator:
    """Sort comparator that fails when the poison key reaches a shuffle
    sort — the fault-injection hook for the shuffle's run sorting."""

    def compare(self, a, b):
        if "POISON" in str(a) or "POISON" in str(b):
            raise RuntimeError("injected shuffle failure")
        return (str(a) > str(b)) - (str(a) < str(b))


class TestShuffleFaultInjection:
    @pytest.mark.parametrize("process_places", [True, False])
    def test_shuffle_async_failure_fails_job_cleanly(self, process_places):
        """Runs are sorted inside the shuffle.  A comparator blowing up
        there must fail the job cleanly on either backend: a failed
        EngineResult, nothing committed, engine usable afterwards."""
        engine = make_m3r(num_nodes=4, workers_per_place=4,
                          place_backend=backend_for(process_places))
        try:
            for part in range(8):
                text = generate_text(4, seed=900 + part)
                if part == 3:
                    text += "\nPOISON\n"
                engine.filesystem.write_text(f"/in/part-{part:05d}", text)
            conf = stress_job("/in", "/out")
            # No combiner: the combiner would sort (and trip the poison)
            # already in the map phase — the point here is the shuffle.
            conf.unset("mapred.combiner.class")
            conf.set_output_key_comparator_class(PoisonKeyComparator)
            result = engine.run_job(conf)
            assert not result.succeeded
            assert "injected shuffle failure" in result.error
            assert not engine.filesystem.exists("/out/_SUCCESS")
            # The engine takes the next job.
            follow_up = engine.run_job(
                wordcount_job("/in/part-00000", "/out2", 2)
            )
            assert follow_up.succeeded, follow_up.error
        finally:
            engine.shutdown()


class TestMatvecStress:
    def test_matvec_iteration_threaded_matches_serial_and_numpy(self):
        """An iteration on the process backend (concurrent dispatch) is
        bit-identical to the thread backend's inline run."""
        rows, block = 256, 32
        num_blocks = rows // block
        g = matvec.generate_blocked_matrix(rows, block, sparsity=0.05, seed=21)
        v = matvec.generate_blocked_vector(rows, block, seed=22)
        reference = matvec.reference_multiply(g, v, rows, block)
        vectors = {}
        for backend in ("process", "thread"):
            engine = make_m3r(num_nodes=4, workers_per_place=4,
                              place_backend=backend)
            try:
                matvec.write_partitioned(engine.filesystem, "/G", g, num_blocks, 8)
                matvec.write_partitioned(engine.filesystem, "/v0", v, num_blocks, 8)
                sequence = matvec.iteration_jobs(
                    "/G", "/v0", "/v1", "/tmp", 0, num_blocks, 8
                )
                results = engine.run_sequence(sequence)
                assert all(r.succeeded for r in results)
                pairs = engine.filesystem.read_kv_pairs("/v1")
                vectors[backend] = matvec.blocked_vector_to_array(pairs, rows)
            finally:
                engine.shutdown()
        # process vs thread: bit-identical floats, not just close
        assert np.array_equal(vectors["process"], vectors["thread"])
        assert np.allclose(vectors["process"], reference)


class TestFaultInjection:
    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_job_failed_error_propagates_under_threads(self, seed):
        """A task simulating node loss fails the whole concurrently
        dispatched job: JobFailedError reaches the caller, the finish does
        not hang, nothing is committed."""
        engine = make_m3r(num_nodes=4, workers_per_place=4,
                          place_backend="process")
        try:
            poison_corpus(engine.filesystem, seed)
            with pytest.raises(JobFailedError):
                engine.run_job(failing_job(NodeLossMapper))
            # No partially committed output: the failure struck in the map
            # phase, so no reducer ever wrote a part file, and the success
            # marker never appeared.
            assert not engine.filesystem.exists("/out/_SUCCESS")
            assert engine.filesystem.read_kv_pairs("/out") == []
        finally:
            engine.shutdown()

    @pytest.mark.parametrize("seed", [3, 11])
    def test_user_exception_reported_same_as_serial(self, seed):
        """A plain user exception surfaces as a failed EngineResult with the
        same error string on the process backend as on the thread
        backend's serial path — and the engine (and its cache) stays
        usable for the next job."""
        results = {}
        for process_places in (True, False):
            engine = make_m3r(num_nodes=4, workers_per_place=4,
                              place_backend=backend_for(process_places))
            try:
                poison_corpus(engine.filesystem, seed)
                result = engine.run_job(failing_job(PoisonedMapper))
                assert not result.succeeded
                assert "ValueError" in result.error
                results[process_places] = result.error
                assert not engine.filesystem.exists("/out/_SUCCESS")
                # Engine survives the failure: a clean job runs fine and the
                # cache is still consistent (registrations from the failed
                # map phase must not wedge later lookups).
                follow_up = engine.run_job(
                    wordcount_job("/in/part-00000", "/out2", 2)
                )
                assert follow_up.succeeded, follow_up.error
                assert engine.filesystem.exists("/out2/_SUCCESS")
                for entry in engine.cache.entries():
                    assert entry.nbytes >= 0 and entry.pairs is not None
            finally:
                engine.shutdown()
        assert results[True] == results[False]


# --------------------------------------------------------------------- #
# which threads run the tasks
# --------------------------------------------------------------------- #

TASK_THREAD_PREFIXES = ("x10-worker", "hadoop-task")


def record_task_threads(monkeypatch):
    """Patch every task body (map, reduce, shuffle message) on both
    engines to note ``(kind, name of the thread it runs on)``."""
    seen = []

    def recording(kind, fn):
        def recorded(*args, **kwargs):
            seen.append((kind, threading.current_thread().name))
            return fn(*args, **kwargs)
        return recorded

    for kind, owner, attr in (
        ("map", m3r_stages, "run_m3r_map_task"),
        ("reduce", m3r_stages, "run_m3r_reduce_task"),
        ("map", hadoop_stages, "run_hadoop_map_task"),
        ("reduce", hadoop_stages, "run_hadoop_reduce_task"),
        ("shuffle", ShuffleExecutor, "_prepare_local"),
        ("shuffle", ShuffleExecutor, "_prepare_remote"),
    ):
        monkeypatch.setattr(owner, attr, recording(kind, getattr(owner, attr)))
    return seen


def task_threads_alive():
    return {
        thread.ident for thread in threading.enumerate()
        if thread.name.startswith(TASK_THREAD_PREFIXES)
    }


class TestDispatchThreads:
    @pytest.mark.parametrize("engine_kind", ["m3r", "hadoop"])
    def test_thread_backend_starts_no_task_threads(self, engine_kind, monkeypatch):
        """16 splits on the thread backend: every task body and shuffle
        message runs on the calling thread, and no task thread starts."""
        seen = record_task_threads(monkeypatch)
        before = task_threads_alive()
        if engine_kind == "m3r":
            engine = make_m3r(workers_per_place=4, place_backend="thread")
        else:
            engine = make_hadoop()
        try:
            write_corpus(engine.filesystem, "/in", 4, parts=16)
            result = engine.run_job(stress_job("/in", "/out"))
            assert result.succeeded, result.error
            kinds = PyCounter(kind for kind, _ in seen)
            assert kinds["map"] == result.metrics.get("map_tasks") >= 16
            assert kinds["reduce"] == 8
            assert {name for _, name in seen} == {threading.current_thread().name}
            assert task_threads_alive() <= before
        finally:
            engine.shutdown()

    def test_process_backend_dispatches_map_tasks_concurrently(self, monkeypatch):
        """The process backend keeps concurrent dispatch: M3R map task
        bodies spread over more than one driver thread."""
        seen = record_task_threads(monkeypatch)
        engine = make_m3r(workers_per_place=4, place_backend="process")
        try:
            write_corpus(engine.filesystem, "/in", 4, parts=16)
            result = engine.run_job(stress_job("/in", "/out"))
            assert result.succeeded, result.error
            map_threads = [name for kind, name in seen if kind == "map"]
            assert len(map_threads) == result.metrics.get("map_tasks") >= 16
            assert len(set(map_threads)) > 1
        finally:
            engine.shutdown()
