"""Shuffle memoized measurement — what the size cache saves an iterative job.

The M3R shuffle measures every cross-place message with the
de-duplicating serializer, memoized per object identity by the size cache
(DESIGN.md §9).  A partition-stable iterative workload (matvec) keeps its
matrix blocks cached and placed between jobs, so iteration 2+ should
re-measure nothing: that shows up as size-cache hits and no more misses
than the first iteration.  The run also reports the shuffle's per-place
skew ratio.

Set ``BENCH_SMOKE=1`` to shrink the run for CI smoke jobs.
"""

from __future__ import annotations

import os

import pytest

from common import format_table, fresh_engine, publish, scaled_cost_model
from repro.apps import matvec
from repro.sim.metrics import shuffle_skew

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

WORKERS_PER_PLACE = 4

MATVEC_ROWS = 400 if SMOKE else 2000
MATVEC_BLOCK = 100 if SMOKE else 200
MATVEC_ITERATIONS = 2 if SMOKE else 3


def _matvec_run():
    """Iterative matvec; returns per-iteration size-cache (hits, misses)
    and the final skew summary."""
    engine = fresh_engine(
        "m3r",
        cost_model=scaled_cost_model(),
        workers_per_place=WORKERS_PER_PLACE,
        num_nodes=8,
    )
    try:
        num_blocks = (MATVEC_ROWS + MATVEC_BLOCK - 1) // MATVEC_BLOCK
        g = matvec.generate_blocked_matrix(MATVEC_ROWS, MATVEC_BLOCK, sparsity=0.05)
        v = matvec.generate_blocked_vector(MATVEC_ROWS, MATVEC_BLOCK)
        matvec.write_partitioned(engine.filesystem, "/G", g, num_blocks, 8)
        matvec.write_partitioned(engine.filesystem, "/V0", v, num_blocks, 8)
        engine.warm_cache_from("/G")
        engine.warm_cache_from("/V0")
        per_iteration = []
        skew = None
        current = "/V0"
        for iteration in range(MATVEC_ITERATIONS):
            nxt = f"/V{iteration + 1}"
            sequence = matvec.iteration_jobs(
                "/G", current, nxt, "/scratch", iteration, num_blocks, 8
            )
            hits = misses = 0
            for result in sequence.run_all(engine):
                assert result.succeeded, result.error
                hits += result.metrics.get("size_cache_hits")
                misses += result.metrics.get("size_cache_misses")
                skew = shuffle_skew(result.metrics)
            per_iteration.append((hits, misses))
            current = nxt
        return per_iteration, skew
    finally:
        engine.shutdown()


@pytest.mark.benchmark(group="shuffle")
def test_memoized_measurement(benchmark, capfd):
    data = {}

    def run():
        data["matvec"] = _matvec_run()

    benchmark.pedantic(run, rounds=1, iterations=1)

    per_iteration, matvec_skew = data["matvec"]
    lines = [format_table(
        f"Memoized measurement: matvec {MATVEC_ROWS} rows x "
        f"{MATVEC_ITERATIONS} iterations, size-cache traffic per iteration",
        ["iteration", "hits", "misses"],
        [(i + 1, h, m) for i, (h, m) in enumerate(per_iteration)],
    )]
    lines.append(f"matvec shuffle skew ratio: {matvec_skew['skew_ratio']:.3f}")
    publish("shuffle", "\n".join(lines), capfd)

    # --- memoization: iteration 2+ re-measures nothing ------------------ #
    first_hits, first_misses = per_iteration[0]
    for hits, misses in per_iteration[1:]:
        assert hits > 0
        assert misses <= first_misses
    assert per_iteration[-1][0] >= first_hits
