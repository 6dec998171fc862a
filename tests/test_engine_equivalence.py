"""Engine equivalence: the paper's core compatibility claim.

"We ran these Hadoop programs in both the standard Hadoop engine and in our
M3R engine, on the same input, and verified that they produced equivalent
output."  These tests do exactly that, across API generations, comparators,
combiners, map-only jobs and adversarial object-reuse code — plus a
hypothesis sweep over random datasets.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.conf import JobConf
from repro.api.counters import TaskCounter
from repro.api.formats import SequenceFileInputFormat, SequenceFileOutputFormat
from repro.api.mapred import IdentityMapper, IdentityReducer, Mapper, Reducer
from repro.api.mapreduce import NewMapper, NewReducer
from repro.api.writables import IntWritable, Text
from repro.apps.grep import grep_sequence
from repro.apps.sortapp import is_sorted, read_globally_sorted, sample_and_build_job
from repro.apps.wordcount import generate_text, wordcount_job

from workloads import (
    DATA,
    histogram_job,
    make_hadoop,
    make_m3r,
    run_both,
    seeded_histogram_dataset,
)


class TestWordCountEquivalence:
    @pytest.mark.parametrize("immutable", [True, False])
    @pytest.mark.parametrize("use_combiner", [True, False])
    def test_all_variants(self, immutable, use_combiner):
        text = generate_text(150)
        expected = dict(Counter(text.split()))
        for factory in (make_hadoop, make_m3r):
            engine = factory()
            engine.filesystem.write_text("/in.txt", text)
            result = engine.run_job(
                wordcount_job("/in.txt", "/out", 4, immutable=immutable,
                              use_combiner=use_combiner)
            )
            assert result.succeeded, result.error
            counts = {
                str(k): v.get() for k, v in engine.filesystem.read_kv_pairs("/out")
            }
            assert counts == expected, (factory, immutable, use_combiner)


class OldApiSwap(Mapper):
    """Old-API mapper emitting (value, key) — exercises re-keying."""

    def map(self, key, value, output, reporter):
        output.collect(value, key)


class NewApiSwap(NewMapper):
    def map(self, key, value, context):
        context.write(value, key)


class OldApiConcat(Reducer):
    def reduce(self, key, values, output, reporter):
        output.collect(key, Text("+".join(sorted(str(v) for v in values))))


class NewApiConcat(NewReducer):
    def reduce(self, key, values, context):
        context.write(key, Text("+".join(sorted(str(v) for v in values))))


class TestApiGenerations:
    @pytest.mark.parametrize("mapper_cls", [OldApiSwap, NewApiSwap])
    @pytest.mark.parametrize("reducer_cls", [OldApiConcat, NewApiConcat])
    def test_any_combination_of_old_and_new(self, mapper_cls, reducer_cls):
        """Paper Section 5.3: 'any combination of old (mapred) and new
        (mapreduce) style mapper, combiner, and reducer'."""

        def build(engine):
            conf = JobConf()
            conf.set_input_paths("/in")
            conf.set_input_format(SequenceFileInputFormat)
            conf.set_mapper_class(mapper_cls)
            conf.set_reducer_class(reducer_cls)
            conf.set_output_format(SequenceFileOutputFormat)
            conf.set_output_path("/out")
            conf.set_num_reduce_tasks(3)
            assert engine.run_job(conf).succeeded

        outputs = run_both(build, {"/in": DATA})
        assert outputs["hadoop"] == outputs["m3r"]
        assert outputs["hadoop"]  # non-empty


class DescendingComparator:
    def compare(self, a, b):
        return -a.compare_to(b)


class EvenOddGrouping:
    """Groups IntWritable keys by parity — a custom grouping comparator."""

    def compare(self, a, b):
        return (a.get() % 2) - (b.get() % 2)


class GroupSizeReducer(Reducer):
    def reduce(self, key, values, output, reporter):
        output.collect(key, IntWritable(sum(1 for _ in values)))


class TestComparators:
    def test_custom_sort_comparator_equivalent(self):
        def build(engine):
            conf = JobConf()
            conf.set_input_paths("/in")
            conf.set_input_format(SequenceFileInputFormat)
            conf.set_mapper_class(IdentityMapper)
            conf.set_reducer_class(IdentityReducer)
            conf.set_output_key_comparator_class(DescendingComparator)
            conf.set_output_format(SequenceFileOutputFormat)
            conf.set_output_path("/out")
            conf.set_num_reduce_tasks(1)
            assert engine.run_job(conf).succeeded

        outputs = run_both(build, {"/in": DATA})
        assert outputs["hadoop"] == outputs["m3r"]
        # And the single partition is genuinely descending.
        engine = make_hadoop()
        for part, chunk in ((0, DATA),):
            engine.filesystem.write_pairs(f"/in/part-{part:05d}", chunk)
        conf = JobConf()
        conf.set_input_paths("/in")
        conf.set_input_format(SequenceFileInputFormat)
        conf.set_mapper_class(IdentityMapper)
        conf.set_reducer_class(IdentityReducer)
        conf.set_output_key_comparator_class(DescendingComparator)
        conf.set_output_format(SequenceFileOutputFormat)
        conf.set_output_path("/out")
        conf.set_num_reduce_tasks(1)
        engine.run_job(conf)
        keys = [k.get() for k, _ in engine.filesystem.read_kv_pairs("/out")]
        assert keys == sorted(keys, reverse=True)

    def test_grouping_comparator_equivalent(self):
        def build(engine):
            conf = JobConf()
            conf.set_input_paths("/in")
            conf.set_input_format(SequenceFileInputFormat)
            conf.set_mapper_class(IdentityMapper)
            conf.set_reducer_class(GroupSizeReducer)
            conf.set_output_value_grouping_comparator(EvenOddGrouping)
            conf.set_output_key_comparator_class(EvenOddGrouping)
            conf.set_output_format(SequenceFileOutputFormat)
            conf.set_output_path("/out")
            conf.set_num_reduce_tasks(1)
            assert engine.run_job(conf).succeeded

        outputs = run_both(build, {"/in": DATA})
        assert outputs["hadoop"] == outputs["m3r"]
        # With a parity grouping there are at most two reduce groups.
        engine = make_m3r()
        engine.filesystem.write_pairs("/in/part-00000", DATA)
        conf = JobConf()
        conf.set_input_paths("/in")
        conf.set_input_format(SequenceFileInputFormat)
        conf.set_mapper_class(IdentityMapper)
        conf.set_reducer_class(GroupSizeReducer)
        conf.set_output_value_grouping_comparator(EvenOddGrouping)
        conf.set_output_key_comparator_class(EvenOddGrouping)
        conf.set_output_format(SequenceFileOutputFormat)
        conf.set_output_path("/out")
        conf.set_num_reduce_tasks(1)
        engine.run_job(conf)
        sizes = [v.get() for _, v in engine.filesystem.read_kv_pairs("/out")]
        assert sum(sizes) == len(DATA)
        assert len(sizes) <= 2


class TestShuffleByteAccounting:
    def test_local_handoffs_not_counted_as_shuffle_bytes(self):
        """Hadoop's REDUCE_SHUFFLE_BYTES counts every fetched byte.  M3R
        never fetches co-located partitions — those bytes land in
        REDUCE_LOCAL_HANDOFF_BYTES instead, and the two counters together
        must equal Hadoop's total (map-output bytes are placement- and
        split-independent for the same output multiset)."""
        counters = {}
        for kind, factory in (("hadoop", make_hadoop), ("m3r", make_m3r)):
            engine = factory()
            for part in range(4):
                engine.filesystem.write_pairs(
                    f"/in/part-{part:05d}", DATA[part::4]
                )
            conf = JobConf()
            conf.set_input_paths("/in")
            conf.set_input_format(SequenceFileInputFormat)
            conf.set_mapper_class(IdentityMapper)
            conf.set_reducer_class(IdentityReducer)
            conf.set_output_format(SequenceFileOutputFormat)
            conf.set_output_path("/out")
            conf.set_num_reduce_tasks(4)
            result = engine.run_job(conf)
            assert result.succeeded, result.error
            counters[kind] = result.counters
            if hasattr(engine, "shutdown"):
                engine.shutdown()
        hadoop_shuffled = counters["hadoop"].value(TaskCounter.REDUCE_SHUFFLE_BYTES)
        m3r_remote = counters["m3r"].value(TaskCounter.REDUCE_SHUFFLE_BYTES)
        m3r_local = counters["m3r"].value(TaskCounter.REDUCE_LOCAL_HANDOFF_BYTES)
        assert counters["hadoop"].value(
            TaskCounter.REDUCE_LOCAL_HANDOFF_BYTES
        ) == 0
        assert m3r_local > 0  # partition stability guarantees co-location
        assert m3r_remote + m3r_local == hadoop_shuffled


class ReusingVandalMapper(Mapper):
    """Adversarial Hadoop-legal code: reuses and mutates emitted objects."""

    def __init__(self):
        self.key = IntWritable()
        self.value = Text()

    def map(self, key, value, output, reporter):
        self.key.set(key.get() % 3)
        self.value.set(str(value))
        output.collect(self.key, self.value)
        # mutate AFTER emitting — engines must have snapshotted/cloned
        self.value.set("GARBAGE")


class TestAdversarialReuse:
    def test_object_reuse_cannot_corrupt_either_engine(self):
        def build(engine):
            conf = JobConf()
            conf.set_input_paths("/in")
            conf.set_input_format(SequenceFileInputFormat)
            conf.set_mapper_class(ReusingVandalMapper)
            conf.set_reducer_class(IdentityReducer)
            conf.set_output_format(SequenceFileOutputFormat)
            conf.set_output_path("/out")
            conf.set_num_reduce_tasks(2)
            assert engine.run_job(conf).succeeded

        outputs = run_both(build, {"/in": DATA})
        assert outputs["hadoop"] == outputs["m3r"]
        assert all("GARBAGE" not in v for _, v in outputs["m3r"])


class TestPipelines:
    def test_grep_pipeline_equivalent(self):
        text = "alpha beta\nbeta gamma beta\nalpha\n" * 5
        results = {}
        for kind, factory in (("hadoop", make_hadoop), ("m3r", make_m3r)):
            engine = factory()
            engine.filesystem.write_text("/corpus.txt", text)
            sequence = grep_sequence("/corpus.txt", "/out", r"beta|alpha")
            run = engine.run_sequence(sequence)
            assert all(r.succeeded for r in run)
            results[kind] = [
                (k.get(), str(v)) for k, v in engine.filesystem.read_kv_pairs("/out")
            ]
        assert results["hadoop"] == results["m3r"]
        assert results["m3r"][0] == (15, "beta")  # hottest first

    def test_total_order_sort_equivalent_and_sorted(self):
        import random

        rng = random.Random(5)
        pairs = [(IntWritable(rng.randrange(1000)), Text("x")) for _ in range(60)]
        results = {}
        for kind, factory in (("hadoop", make_hadoop), ("m3r", make_m3r)):
            engine = factory()
            engine.filesystem.write_pairs("/in/part-00000", pairs)
            conf = sample_and_build_job(engine.filesystem, "/in", "/out", 4)
            assert engine.run_job(conf).succeeded
            ordered = read_globally_sorted(engine.filesystem, "/out")
            assert is_sorted(ordered), kind
            results[kind] = [(k.get(), str(v)) for k, v in ordered]
        assert results["hadoop"] == results["m3r"]
        assert [k for k, _ in results["m3r"]] == sorted(k.get() for k, _ in pairs)


@pytest.mark.parametrize("seed", range(20))
def test_seeded_random_jobs_differential(seed):
    """Seeded-random differential sweep (both engines at their defaults):
    random key skew, split count, reducer count and combiner choice — M3R's
    committed output must equal Hadoop's, pair for pair."""
    pairs, params = seeded_histogram_dataset(seed)
    num_parts = params["num_parts"]
    reference = Counter(k.get() for k, _ in pairs)

    outputs = {}
    combines = {}
    for kind, factory in (("hadoop", make_hadoop), ("m3r", make_m3r)):
        engine = factory()
        for part in range(num_parts):
            engine.filesystem.write_pairs(
                f"/in/part-{part:05d}", pairs[part::num_parts]
            )
        conf = histogram_job(
            "/in", "/out", params["reducers"],
            use_combiner=params["use_combiner"],
            name=f"differential-{seed}",
        )
        result = engine.run_job(conf)
        assert result.succeeded, result.error
        outputs[kind] = sorted(
            (k.get(), v.get()) for k, v in engine.filesystem.read_kv_pairs("/out")
        )
        combines[kind] = {
            name: value
            for name, value in result.counters.as_dict()
            .get("org.apache.hadoop.mapreduce.TaskCounter", {})
            .items()
            if name.startswith("COMBINE_")
        }
        if hasattr(engine, "shutdown"):
            engine.shutdown()
    assert outputs["hadoop"] == outputs["m3r"]
    assert dict(outputs["m3r"]) == dict(reference)
    # Hadoop counter-name parity for the combiner: both engines must agree
    # on COMBINE_INPUT_RECORDS / COMBINE_OUTPUT_RECORDS (and on their
    # absence when the job has no combiner or it never ran).
    assert combines["hadoop"] == combines["m3r"]
    if params["use_combiner"] and combines["m3r"]:
        assert set(combines["m3r"]) == {
            "COMBINE_INPUT_RECORDS", "COMBINE_OUTPUT_RECORDS"
        }
        assert (
            combines["m3r"]["COMBINE_INPUT_RECORDS"]
            >= combines["m3r"]["COMBINE_OUTPUT_RECORDS"]
        )
    else:
        assert not params["use_combiner"] or combines["m3r"]


@given(
    st.lists(
        st.tuples(st.integers(0, 20), st.text(max_size=6)),
        min_size=1,
        max_size=60,
    ),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=25, deadline=None)
def test_random_datasets_property(raw_pairs, reducers):
    """Both engines equal each other AND a reference group-by, for random
    data and reducer counts."""
    pairs = [(IntWritable(k), Text(v)) for k, v in raw_pairs]

    class CountReducer(Reducer):
        def reduce(self, key, values, output, reporter):
            output.collect(key, IntWritable(sum(1 for _ in values)))

    reference = Counter(k for k, _ in raw_pairs)
    for factory in (make_hadoop, make_m3r):
        engine = factory()
        engine.filesystem.write_pairs("/in/part-00000", pairs)
        conf = JobConf()
        conf.set_input_paths("/in")
        conf.set_input_format(SequenceFileInputFormat)
        conf.set_mapper_class(IdentityMapper)
        conf.set_reducer_class(CountReducer)
        conf.set_output_format(SequenceFileOutputFormat)
        conf.set_output_path("/out")
        conf.set_num_reduce_tasks(reducers)
        result = engine.run_job(conf)
        assert result.succeeded, result.error
        got = {k.get(): v.get() for k, v in engine.filesystem.read_kv_pairs("/out")}
        assert got == dict(reference)
