"""The Hadoop MapReduce ("HMR") API clone.

The paper's first contribution is the distinction between the HMR *APIs* and
the HMR *engine*: M3R reimplements the engine while keeping the APIs, so
existing jobs (including compiler-generated ones) run unchanged.  This
package is the API half of that story: a Python rendering of the Hadoop
0.22-era surface that both our engines (:mod:`repro.hadoop_engine` and
:mod:`repro.core`) execute.

It covers, per the paper's compatibility list (Section 1): the old-style
``mapred`` and new-style ``mapreduce`` interfaces, counters, user-specified
sorting and grouping comparators, user-defined input/output formats, the
distributed cache, and MultipleInputs/MultipleOutputs — plus the
backward-compatible M3R extensions of Section 4 (``ImmutableOutput``,
``NamedSplit``/``DelegatingSplit``/``PlacedSplit``, ``CacheFS``).
"""

from repro.api.writables import (
    Writable,
    WritableComparable,
    IntWritable,
    LongWritable,
    VIntWritable,
    FloatWritable,
    DoubleWritable,
    BooleanWritable,
    Text,
    BytesWritable,
    NullWritable,
    ArrayWritable,
    PairWritable,
    BlockIndexWritable,
    MatrixBlockWritable,
    VectorBlockWritable,
)
from repro.api.conf import Configuration, JobConf
from repro.api.counters import Counters, TaskCounter, JobCounter, FileSystemCounter
from repro.api.partitioner import Partitioner, HashPartitioner, TotalOrderPartitioner
from repro.api.splits import InputSplit, FileSplit
from repro.api.extensions import (
    ImmutableOutput,
    NamedSplit,
    DelegatingSplit,
    PlacedSplit,
    CacheFS,
    TEMP_OUTPUT_PREFIX_KEY,
    DEFAULT_TEMP_OUTPUT_PREFIX,
    is_immutable_output,
)
from repro.api.mapred import (
    Mapper,
    Reducer,
    MapRunnable,
    DefaultMapRunnable,
    OutputCollector,
    Reporter,
    IdentityMapper,
    IdentityReducer,
    Closeable,
)
from repro.api.mapreduce import (
    NewMapper,
    NewReducer,
    TaskContext,
    MapContext,
    ReduceContext,
    Job,
)
from repro.api.formats import (
    RecordReader,
    RecordWriter,
    InputFormat,
    OutputFormat,
    FileInputFormat,
    FileOutputFormat,
    TextInputFormat,
    TextOutputFormat,
    KeyValueTextInputFormat,
    SequenceFileInputFormat,
    SequenceFileOutputFormat,
    NullOutputFormat,
    OutputCommitter,
)
from repro.api.multiple_io import (
    MultipleInputs,
    MultipleOutputs,
    TaggedInputSplit,
    DelegatingInputFormat,
    DelegatingMapper,
)
from repro.api.distcache import DistributedCache
from repro.api.job import JobSpec, JobSequence
from repro.api.vectorized import (
    AssociativeReducer,
    VectorizedMapper,
    is_associative_reducer,
    is_vectorized,
)

__all__ = [
    # writables
    "Writable",
    "WritableComparable",
    "IntWritable",
    "LongWritable",
    "VIntWritable",
    "FloatWritable",
    "DoubleWritable",
    "BooleanWritable",
    "Text",
    "BytesWritable",
    "NullWritable",
    "ArrayWritable",
    "PairWritable",
    "BlockIndexWritable",
    "MatrixBlockWritable",
    "VectorBlockWritable",
    # conf
    "Configuration",
    "JobConf",
    # counters
    "Counters",
    "TaskCounter",
    "JobCounter",
    "FileSystemCounter",
    # partitioning
    "Partitioner",
    "HashPartitioner",
    "TotalOrderPartitioner",
    # splits & extensions
    "InputSplit",
    "FileSplit",
    "ImmutableOutput",
    "NamedSplit",
    "DelegatingSplit",
    "PlacedSplit",
    "CacheFS",
    "TEMP_OUTPUT_PREFIX_KEY",
    "DEFAULT_TEMP_OUTPUT_PREFIX",
    "is_immutable_output",
    # mapred (old API)
    "Mapper",
    "Reducer",
    "MapRunnable",
    "DefaultMapRunnable",
    "OutputCollector",
    "Reporter",
    "IdentityMapper",
    "IdentityReducer",
    "Closeable",
    # mapreduce (new API)
    "NewMapper",
    "NewReducer",
    "TaskContext",
    "MapContext",
    "ReduceContext",
    "Job",
    # formats
    "RecordReader",
    "RecordWriter",
    "InputFormat",
    "OutputFormat",
    "FileInputFormat",
    "FileOutputFormat",
    "TextInputFormat",
    "TextOutputFormat",
    "KeyValueTextInputFormat",
    "SequenceFileInputFormat",
    "SequenceFileOutputFormat",
    "NullOutputFormat",
    "OutputCommitter",
    # multiple IO
    "MultipleInputs",
    "MultipleOutputs",
    "TaggedInputSplit",
    "DelegatingInputFormat",
    "DelegatingMapper",
    # the map driver (DESIGN.md §14)
    "AssociativeReducer",
    "VectorizedMapper",
    "is_associative_reducer",
    "is_vectorized",
    # misc
    "DistributedCache",
    "JobSpec",
    "JobSequence",
]
