"""Process-based places — wall-clock gate for true multi-core execution.

The process place backend (DESIGN.md §16) ships task kernels — the pure
user-code middle of each map/reduce task — to persistent per-place worker
processes, so CPU-bound kernels escape the GIL.  This benchmark checks the
design's two promises:

* **byte-identity** — the same job on the thread and process backends
  commits identical output, identical counters and identical *simulated*
  seconds (exact equality; the backend knob decides where kernels run,
  never what they produce);
* **wall-clock** — with 4 places on a 4+-core host, kernels running in
  four worker processes in parallel beat the thread backend, which runs
  every task inline on the driver; the ≥2x assertion arms on non-smoke
  hosts with 4+ cores.

The measured job runs over a cache-warm input (a first job populates the
M3R cache), because materialized map inputs are what the offload path
ships; the warm run also amortizes worker spawn out of the measurement.
Results land in ``benchmarks/results/BENCH_places.json`` with the host
core count and whether the gate was armed, so a 1-core archive is honest
about what it could and could not assert.

Set ``BENCH_SMOKE=1`` to shrink the run for CI smoke jobs.
"""

from __future__ import annotations

import os
import time

from common import format_table, fresh_engine, publish, scaled_cost_model
from repro.apps.wordcount import generate_text, wordcount_job
from repro.x10.backends import ProcessPlaceBackend

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

PLACES = 4
LINES_PER_PART = 60 if SMOKE else 1500
PARTS_PER_PLACE = 2 if SMOKE else 4
REDUCERS = PLACES * 2

BACKENDS = ("thread", "process")


def _digest(fs, path: str):
    return tuple(
        (repr(k), repr(v))
        for status in fs.list_status(path)
        if not status.path.endswith("_SUCCESS")
        for k, v in fs.read_kv_pairs(status.path)
    )


def _wordcount_conf(tag: str):
    return wordcount_job("/in", f"/out-{tag}", num_reducers=REDUCERS)


def _run(backend: str) -> dict:
    engine = fresh_engine(
        "m3r",
        num_nodes=PLACES,
        cost_model=scaled_cost_model(),
        place_backend=backend,
    )
    try:
        for part in range(PLACES * PARTS_PER_PLACE):
            engine.filesystem.write_text(
                f"/in/part-{part:05d}",
                generate_text(LINES_PER_PART, seed=9000 + part),
            )
        # Warm run: populates the cache so the measured job's map inputs
        # are materialized (the offloadable path) on both backends.
        warm = engine.run_job(_wordcount_conf("warm"))
        assert warm.succeeded, warm.error

        started = time.perf_counter()
        result = engine.run_job(_wordcount_conf("hot"))
        wall = time.perf_counter() - started
        assert result.succeeded, result.error

        offloads = 0
        runtime_backend = engine.runtime.backend
        if isinstance(runtime_backend, ProcessPlaceBackend):
            offloads = runtime_backend.offload_count
        return {
            "wall": wall,
            "simulated": result.simulated_seconds,
            "counters": result.counters.as_dict(),
            "digest": _digest(engine.filesystem, "/out-hot"),
            "offloaded_kernels": offloads,
        }
    finally:
        engine.shutdown()


def test_places_backends(capfd):
    runs = {backend: _run(backend) for backend in BACKENDS}
    thread, process = runs["thread"], runs["process"]

    # Identity: the knob decides where kernels execute, nothing else.
    assert process["digest"] == thread["digest"]
    assert process["counters"] == thread["counters"]
    assert process["simulated"] == thread["simulated"]
    # And the process run must actually have exercised the offload path —
    # otherwise the identity above is vacuous.
    assert process["offloaded_kernels"] > 0
    assert thread["offloaded_kernels"] == 0

    speedup = thread["wall"] / max(process["wall"], 1e-9)
    cores = os.cpu_count() or 1
    armed = not SMOKE and cores >= 4

    rows = [
        (backend, runs[backend]["wall"], runs[backend]["simulated"],
         runs[backend]["offloaded_kernels"])
        for backend in BACKENDS
    ]
    text = format_table(
        f"wordcount, {PLACES} places, {PLACES * PARTS_PER_PLACE} parts "
        f"({cores} host cores, gate {'armed' if armed else 'disarmed'}, "
        f"process speedup {speedup:.2f}x)",
        ["backend", "wall (s)", "simulated (s)", "offloaded kernels"],
        rows,
    )
    publish("places", text, capfd=capfd, data={
        "smoke": SMOKE,
        "host_cores": cores,
        "places": PLACES,
        "gate_armed": armed,
        "speedup": speedup,
        "backends": {
            backend: {
                "wall": runs[backend]["wall"],
                "simulated": runs[backend]["simulated"],
                "offloaded_kernels": runs[backend]["offloaded_kernels"],
            }
            for backend in BACKENDS
        },
    })

    if armed:
        assert speedup >= 2.0, (
            f"process places speedup {speedup:.2f}x at {PLACES} places on "
            f"{cores} cores — expected >=2x once kernels escape the GIL"
        )
