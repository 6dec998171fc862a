"""The one map driver and its oracles (DESIGN.md §14).

Every map task is fed from a :class:`BatchingReader` a batch at a time and,
when the job's combiner is licensed, folds its output through an
:class:`InMapperCombineSink`.  The contract under test is byte-identity
with two oracles that need no knob:

* the **per-record oracle** — the same job with ``map_runner_class`` set
  to the engine's stock per-record MapRunnable
  (:class:`FreshObjectMapRunnable` on M3R, so the alias/clone policy is
  unchanged; :class:`DefaultMapRunnable` on Hadoop), which pulls the
  reader record by record;
* the **classic-combine oracle** — the same job with an unlicensed twin
  of its combiner, which takes the sort-then-combine path.

Both must match the default path exactly on output, counters and
simulated seconds, on both engines.  Directed unit tests cover the batch
boundaries (batch size 1, 2, larger than any split, an empty split) and
the aggregate-overflow spill against the per-record driver and
``run_combiner_if_any``; the enforcement tests check that a lying
"associative" combiner is caught, not believed.
"""

from __future__ import annotations

import math

import pytest
from conftest import make_hadoop, make_m3r
from workloads import (
    SumValuesReducer,
    enable_restore,
    histogram_job,
    seeded_histogram_dataset,
)

from repro.api.conf import SANITIZE_MUTATION_KEY, JobConf
from repro.api.counters import Counters, TaskCounter
from repro.api.extensions import ImmutableOutput
from repro.api.formats import RecordReader
from repro.api.job import JobSpec
from repro.api.mapred import (
    DefaultMapRunnable,
    FreshObjectMapRunnable,
    Mapper,
    MapRunnable,
    OutputCollector,
    Reducer,
    Reporter,
)
from repro.api.mapreduce import NewMapper
from repro.api.portable import ProcessPortable
from repro.api.splits import FileSplit
from repro.api.vectorized import (
    AssociativeReducer,
    VectorizedMapper,
    is_associative_reducer,
    is_vectorized,
    pack_batch,
)
from repro.api.writables import IntWritable, LongWritable, Text
from repro.apps.wordcount import (
    SumReducer,
    WordCountMapperImmutable,
    generate_text,
    wordcount_job,
)
from repro.engine_common import (
    BATCH_SIZE,
    IMC_MAX_ENTRIES,
    BatchingReader,
    CollectorSink,
    InMapperCombineSink,
    MaterializedReader,
    run_combiner_if_any,
)

#: The default path and its two oracles.
VARIANTS = ("default", "per-record", "classic-combine")


class UnlicensedSumValuesReducer(Reducer, ProcessPortable):
    """``SumValuesReducer`` without the AssociativeReducer marker: the same
    fold, so it must take (and agree with) the sort-then-combine path."""

    reduce = SumValuesReducer.reduce


class UnlicensedSumReducer(SumReducer):
    """The allowlisted wordcount ``SumReducer`` under another name: the
    allowlist is exact-name, so this twin is unlicensed."""


def stock_runnable(kind: str) -> type:
    """The engine's per-record MapRunnable (what the default path stands
    in for when no custom runner is configured)."""
    return FreshObjectMapRunnable if kind == "m3r" else DefaultMapRunnable


def apply_variant(conf: JobConf, kind: str, variant: str) -> None:
    """Turn a default-path job into one of its oracles."""
    if variant == "per-record":
        conf.set_map_runner_class(stock_runnable(kind))
    elif variant == "classic-combine":
        combiner = conf.get_combiner_class()
        if combiner is SumValuesReducer:
            conf.set_combiner_class(UnlicensedSumValuesReducer)
        elif combiner is SumReducer:
            conf.set_combiner_class(UnlicensedSumReducer)
        else:
            assert combiner is None, combiner
    else:
        assert variant == "default", variant


def snapshot(result, engine, decode) -> dict:
    assert result.succeeded, result.error
    return {
        "output": sorted(decode(k, v) for k, v in engine.filesystem.read_kv_pairs("/out")),
        "counters": result.counters.as_dict(),
        "seconds": result.simulated_seconds,
        "metrics": dict(result.metrics.counters),
    }


def run_histogram(kind: str, seed: int, variant: str) -> dict:
    pairs, params = seeded_histogram_dataset(seed)
    num_parts = params["num_parts"]
    engine = make_hadoop() if kind == "hadoop" else make_m3r()
    try:
        for part in range(num_parts):
            engine.filesystem.write_pairs(
                f"/in/part-{part:05d}", pairs[part::num_parts]
            )
        conf = histogram_job(
            "/in", "/out", params["reducers"],
            use_combiner=params["use_combiner"],
            # NB: variant-independent name — Hadoop's reduce placement
            # hashes the job name, and placement must match across runs.
            name=f"batching-{seed}",
        )
        apply_variant(conf, kind, variant)
        return snapshot(
            engine.run_job(conf), engine, lambda k, v: (k.get(), v.get())
        )
    finally:
        if hasattr(engine, "shutdown"):
            engine.shutdown()


def assert_identical(base, other, context):
    assert other["output"] == base["output"], context
    assert other["counters"] == base["counters"], (
        context,
        {
            group: (base["counters"].get(group), other["counters"].get(group))
            for group in set(base["counters"]) | set(other["counters"])
            if base["counters"].get(group) != other["counters"].get(group)
        },
    )
    assert other["seconds"] == base["seconds"], (
        context, base["seconds"], other["seconds"],
    )


# --------------------------------------------------------------------- #
# the 20-seed sweep: default path vs both oracles, two engines
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", ["hadoop", "m3r"])
@pytest.mark.parametrize("seed", range(20))
def test_three_mode_differential(kind, seed):
    base = run_histogram(kind, seed, "default")
    _, params = seeded_histogram_dataset(seed)
    # The default path folds in the mapper exactly when there is a
    # (licensed) combiner; the classic-combine oracle never does.
    assert (base["metrics"].get("imc_input_records", 0) > 0) == params[
        "use_combiner"
    ], (kind, seed)
    for variant in VARIANTS[1:]:
        other = run_histogram(kind, seed, variant)
        assert_identical(base, other, (kind, seed, variant))
        if variant == "classic-combine":
            assert "imc_input_records" not in other["metrics"], (kind, seed)


def test_imc_folds_on_a_combiner_seed():
    """At least one sweep seed must actually exercise the fold path (the
    histogram combiner is marked AssociativeReducer)."""
    for seed in range(20):
        _, params = seeded_histogram_dataset(seed)
        if not params["use_combiner"]:
            continue
        run = run_histogram("m3r", seed, "default")
        assert run["metrics"].get("imc_input_records", 0) > 0
        assert (
            run["metrics"]["imc_output_records"]
            + run["metrics"]["imc_folded_records"]
            == run["metrics"]["imc_input_records"]
        )
        return
    pytest.fail("no sweep seed enables the combiner")


# --------------------------------------------------------------------- #
# the reader and the driver, unit by unit
# --------------------------------------------------------------------- #

SPLIT = FileSplit("/in/part-00000", 0, 64)

#: Two splits of text lines, one of them empty.
TEXT_SPLITS = [
    [],
    ["alpha beta alpha", "beta beta gamma", "alpha gamma beta"],
]


def text_records(lines):
    """Fresh (offset, line) records — Hadoop's object-reuse loop writes
    into the first record it is handed, so no two drives may share them."""
    records, offset = [], 0
    for line in lines:
        records.append((LongWritable(offset), Text(line)))
        offset += len(line) + 1
    return records


class RecordingReader(BatchingReader):
    """Notes every batch and every per-record pull a driver makes."""

    def __init__(self, inner, counters, batch_size=BATCH_SIZE):
        super().__init__(inner, counters, batch_size)
        self.batch_sizes = []
        self.pair_calls = 0

    def next_batch(self):
        batch = super().next_batch()
        if batch is not None:
            self.batch_sizes.append(len(batch))
        return batch

    def next_pair(self):
        self.pair_calls += 1
        return super().next_pair()


class ReuseProbeMapper(WordCountMapperImmutable):
    """WordCount plus one probe pair per record: was this value object
    the previous record's (Hadoop's object reuse) or a fresh one?"""

    _last = None

    def map(self, key, value, output, reporter):
        super().map(key, value, output, reporter)
        output.collect(Text("~reused"), IntWritable(int(value is self._last)))
        self._last = value


def drive_split(kind, pairs, batch_size, runner=None):
    """One map task's user code over ``pairs`` the way ``kind``'s engine
    drives it, through the default driver or ``runner``."""
    conf = wordcount_job("/in", "/out", num_reducers=3)
    conf.set_mapper_class(ReuseProbeMapper)
    if runner is not None:
        conf.set_map_runner_class(runner)
    spec = JobSpec.from_conf(conf)
    counters = Counters()
    reader = RecordingReader(MaterializedReader(pairs), counters, batch_size)
    sink = CollectorSink(
        3, spec.partitioner, counters,
        record_policy="alias" if kind == "m3r" else "serialize",
    )
    spec.run_map_task(
        SPLIT, reader, sink, Reporter(counters), fresh_runner=kind == "m3r"
    )
    sink.flush_counters()
    return reader, {
        "partitions": [
            [(str(k), v.get()) for k, v in part.pairs] for part in sink.partitions
        ],
        "counters": counters.as_dict(),
    }


@pytest.mark.parametrize("kind", ["hadoop", "m3r"])
@pytest.mark.parametrize("batch_size", [1, 2, 10_000])
def test_batch_boundaries_with_empty_split(kind, batch_size):
    """Batch size 1 (degenerate), 2 (mid-split boundaries) and one far
    larger than any split, over an empty split and a non-empty one: the
    batched driver emits exactly what the engine's per-record MapRunnable
    emits from the same records, object-reuse semantics included."""
    totals = {}
    for lines in TEXT_SPLITS:
        oracle_reader, oracle = drive_split(
            kind, text_records(lines), batch_size, runner=stock_runnable(kind)
        )
        reader, batched = drive_split(kind, text_records(lines), batch_size)
        assert batched == oracle, (kind, batch_size, len(lines))
        assert reader.records == oracle_reader.records == len(lines)
        # The default driver only pulls batches; the oracle only records.
        assert reader.pair_calls == 0 and oracle_reader.batch_sizes == []
        assert oracle_reader.pair_calls == len(lines) + 1
        assert reader.batch_sizes == [
            min(batch_size, len(lines) - start)
            for start in range(0, len(lines), batch_size)
        ]
        for part in batched["partitions"]:
            for word, count in part:
                totals[word] = totals.get(word, 0) + count
    # Hadoop hands every record the same reused value object; M3R a
    # fresh one (two reuses in the three-record split, none otherwise).
    reuses = totals.pop("~reused")
    assert reuses == (2 if kind == "hadoop" else 0)
    assert totals == {"alpha": 3, "beta": 4, "gamma": 2}


def test_batching_reader_per_record_protocol():
    """The fused reader serves both drivers: per-record ``next_pair``
    counts like ``next_batch`` does, and progress/close reach the inner
    reader."""

    records = text_records(TEXT_SPLITS[1])

    class Inner(RecordReader):
        def __init__(self):
            self.inner = MaterializedReader(records)
            self.closed = False

        def next_pair(self):
            return self.inner.next_pair()

        def get_progress(self):
            return self.inner.get_progress()

        def close(self):
            self.closed = True

    counters = Counters()
    inner = Inner()  # no take_batch: next_batch falls back to next_pair
    reader = BatchingReader(inner, counters, 2)
    assert reader.get_progress() == 0.0
    key, value = reader.next_pair()
    assert key is records[0][0] and value is records[0][1]
    assert counters.value(TaskCounter.MAP_INPUT_RECORDS) == 1
    assert reader.next_batch() == records[1:]
    assert reader.get_progress() == 1.0
    assert reader.next_pair() is None and reader.next_batch() is None
    assert reader.records == 3
    assert counters.value(TaskCounter.MAP_INPUT_RECORDS) == 3
    reader.close()
    assert inner.closed


WORDS = "alpha beta alpha beta beta gamma alpha gamma beta delta epsilon".split()


@pytest.mark.parametrize("kind", ["hadoop", "m3r"])
def test_imc_overflow_spills_to_emit(kind):
    """A two-entry aggregate overflows constantly; its buffers and counters
    must still be exactly those of the classic sort+combine path, and the
    spills must be visible.  At the default bound nothing spills."""
    policy = "alias" if kind == "m3r" else "serialize"
    spec = JobSpec.from_conf(wordcount_job("/in", "/out", num_reducers=3))

    def classic():
        counters = Counters()
        sink = CollectorSink(3, spec.partitioner, counters, record_policy=policy)
        for word in WORDS:
            sink.collect(Text(word), IntWritable(1))
        sink.flush_counters()
        buffers = [
            run_combiner_if_any(spec, part, counters, Reporter(counters), policy)
            for part in sink.partitions
        ]
        return sink, buffers, counters

    def folded(max_entries):
        counters = Counters()
        sink = InMapperCombineSink(
            spec, 3, counters, record_policy=policy, max_entries=max_entries
        )
        for word in WORDS:
            sink.collect(Text(word), IntWritable(1))
        return sink, sink.finish(), counters

    def shape(buffers):
        return [
            ([(str(k), v.get()) for k, v in buf.pairs], buf.bytes) for buf in buffers
        ]

    base_sink, base_buffers, base_counters = classic()
    for max_entries, spills in ((2, True), (IMC_MAX_ENTRIES, False)):
        sink, buffers, counters = folded(max_entries)
        assert shape(buffers) == shape(base_buffers), max_entries
        assert counters.as_dict() == base_counters.as_dict(), max_entries
        assert (sink.records, sink.bytes, sink.copied_records) == (
            base_sink.records, base_sink.bytes, base_sink.copied_records
        )
        assert (sink.imc_spills > 0) is spills, max_entries


# --------------------------------------------------------------------- #
# fallback drivers: shapes that own their read loop
# --------------------------------------------------------------------- #


class ReadLoopRunnable(MapRunnable, ImmutableOutput):
    """A custom MapRunnable: pulls the engine's reader record by record."""

    def __init__(self, mapper):
        self.mapper = mapper

    def run(self, reader, output, reporter):
        for key, value in iter(reader.next_pair, None):
            self.mapper.map(key, value, output, reporter)


class NewApiWordCountMapper(NewMapper, ImmutableOutput, ProcessPortable):
    """A new-API mapper: reads through its context's record iterator
    (and, being portable, runs inside place workers)."""

    def map(self, key, value, context):
        for token in value.to_string().split():
            context.write(Text(token), IntWritable(1))


@pytest.mark.parametrize("shape", ["custom-runnable", "new-api"])
def test_fallback_drivers_read_the_fused_reader(shape):
    """A custom MapRunnable and a new-API mapper both pull the default
    reader's ``next_pair``: exact MAP_INPUT_RECORDS, the same output on
    both engines, and identical output, counters and seconds on the
    thread and process backends."""
    text = generate_text(60, seed=3)
    records = len(text.splitlines())
    runs = {}
    for name, factory in (
        ("hadoop", make_hadoop),
        ("m3r-thread", lambda: make_m3r(place_backend="thread")),
        ("m3r-process", lambda: make_m3r(place_backend="process")),
    ):
        engine = factory()
        try:
            engine.filesystem.write_text("/in/part-00000", text)
            conf = wordcount_job("/in", "/out", num_reducers=3)
            if shape == "custom-runnable":
                conf.set_map_runner_class(ReadLoopRunnable)
            else:
                conf.set_mapper_class(NewApiWordCountMapper)
            runs[name] = snapshot(
                engine.run_job(conf), engine, lambda k, v: (str(k), v.get())
            )
        finally:
            engine.shutdown()
    for name, run in runs.items():
        task = run["counters"]["org.apache.hadoop.mapreduce.TaskCounter"]
        assert task["MAP_INPUT_RECORDS"] == records, name
        assert run["output"] == runs["hadoop"]["output"], name
    assert_identical(runs["m3r-thread"], runs["m3r-process"], shape)


# --------------------------------------------------------------------- #
# enforcement: contract liars are caught, not believed
# --------------------------------------------------------------------- #


class RecyclingSumReducer(Reducer, AssociativeReducer):
    """Claims associativity but recycles its emitted object across calls —
    the classic object-reuse lie the mutation sanitizer exists to catch."""

    def __init__(self) -> None:
        self.result = IntWritable(0)

    def reduce(self, key, values, output: OutputCollector, reporter: Reporter):
        self.result.set(sum(v.get() for v in values))
        output.collect(key, self.result)


class DoubleEmitReducer(Reducer, AssociativeReducer):
    """Claims associativity but emits twice per reduce call."""

    def reduce(self, key, values, output: OutputCollector, reporter: Reporter):
        total = sum(v.get() for v in values)
        output.collect(key, IntWritable(total))
        output.collect(key, IntWritable(total))


def _lying_combiner_job(combiner_class) -> JobConf:
    conf = wordcount_job("/in", "/out", num_reducers=2, immutable=True)
    conf.set_mapper_class(WordCountMapperImmutable)
    conf.set_combiner_class(combiner_class)
    return conf


def test_recycling_associative_reducer_caught_by_sanitizer():
    engine = make_m3r()
    try:
        engine.filesystem.write_text("/in/part-00000", "word word word word\n")
        conf = _lying_combiner_job(RecyclingSumReducer)
        conf.set_boolean(SANITIZE_MUTATION_KEY, True)
        result = engine.run_job(conf)
        assert not result.succeeded
        assert "ImmutableViolation" in result.error
    finally:
        engine.shutdown()


def test_double_emit_associative_reducer_rejected():
    engine = make_m3r()
    try:
        engine.filesystem.write_text("/in/part-00000", "word word word word\n")
        result = engine.run_job(_lying_combiner_job(DoubleEmitReducer))
        assert not result.succeeded
        assert "exactly one" in result.error
    finally:
        engine.shutdown()


# --------------------------------------------------------------------- #
# the VectorizedMapper protocol
# --------------------------------------------------------------------- #


class DoublingVectorMapper(Mapper, VectorizedMapper):
    """Emits (key, 2*value) — map and map_batch must agree exactly.  Each
    entry point counts its calls so the test can see which one ran."""

    batch_arrays = True

    def map(self, key, value, output, reporter):
        reporter.incr_counter("vectorized", "records", 1)
        output.collect(key, IntWritable(value.get() * 2))

    def map_batch(self, keys, values, output, reporter):
        reporter.incr_counter("vectorized", "batches", 1)
        collect = output.collect
        for i in range(len(keys)):
            collect(keys[i], IntWritable(values[i].get() * 2))


def test_pack_batch_containers():
    keys, values = [Text("a"), Text("b")], [IntWritable(1), IntWritable(2)]
    same_k, same_v = pack_batch(keys, values, as_arrays=False)
    assert same_k is keys and same_v is values
    arr_k, arr_v = pack_batch(keys, values, as_arrays=True)
    assert arr_k.dtype == object and list(arr_k) == keys
    assert arr_v.dtype == object and list(arr_v) == values


def test_markers():
    assert is_vectorized(DoublingVectorMapper)
    assert not is_vectorized(RecyclingSumReducer)
    assert is_associative_reducer(RecyclingSumReducer)  # marker (a lie, but opt-in)
    assert is_associative_reducer(SumReducer)  # allowlist
    assert is_associative_reducer(SumValuesReducer)  # marker
    # The classic-combine oracles' twins: same folds, no license.
    assert not is_associative_reducer(UnlicensedSumReducer)
    assert not is_associative_reducer(UnlicensedSumValuesReducer)


@pytest.mark.parametrize("kind", ["hadoop", "m3r"])
def test_vectorized_mapper_batches(kind):
    """A batch_arrays VectorizedMapper runs via map_batch, once per batch,
    and produces byte-identical results to its per-record map."""
    records = 600

    def run(variant):
        engine = make_hadoop() if kind == "hadoop" else make_m3r()
        try:
            engine.filesystem.write_pairs(
                "/in/part-00000",
                [(IntWritable(i), IntWritable(i * i)) for i in range(records)],
            )
            conf = histogram_job("/in", "/out", 2)
            conf.set_mapper_class(DoublingVectorMapper)
            apply_variant(conf, kind, variant)
            return snapshot(
                engine.run_job(conf), engine, lambda k, v: (k.get(), v.get())
            )
        finally:
            if hasattr(engine, "shutdown"):
                engine.shutdown()

    base = run("per-record")
    batched = run("default")
    assert base["counters"].pop("vectorized") == {"records": records}
    assert batched["counters"].pop("vectorized") == {
        "batches": math.ceil(records / BATCH_SIZE)
    }
    assert_identical(base, batched, kind)


# --------------------------------------------------------------------- #
# the driver × restore: the reuse store sees identical artifacts
# --------------------------------------------------------------------- #


def test_batched_run_matches_per_record_under_restore():
    outputs = {}
    for variant in ("per-record", "default"):
        engine = make_m3r()
        try:
            engine.filesystem.write_text(
                "/in/part-00000", "reuse the plan reuse the store\n"
            )
            conf = wordcount_job("/in", "/out", num_reducers=2)
            enable_restore(conf)
            apply_variant(conf, "m3r", variant)
            first = engine.run_job(conf)
            assert first.succeeded, first.error
            conf2 = wordcount_job("/in", "/out2", num_reducers=2)
            enable_restore(conf2)
            apply_variant(conf2, "m3r", variant)
            second = engine.run_job(conf2)
            assert second.succeeded, second.error
            outputs[variant] = [
                sorted(
                    (str(k), v.get())
                    for k, v in engine.filesystem.read_kv_pairs(path)
                )
                for path in ("/out", "/out2")
            ]
        finally:
            engine.shutdown()
    assert outputs["per-record"] == outputs["default"]
