"""The benchmark's three workloads, each run on both engines.

A workload turns the benchmark seed into inputs, loads them into a fresh
engine, runs one operation at a time and checks every output against a
reference computed here in plain Python or NumPy.  The engines see only
the generated inputs.

* ``wordcount`` -- the paper's Figure 8 job on a warm engine: per-record
  work on ``Text`` keys (map, wire sizing, sort, counters, combine).
* ``matvec`` -- the paper's Figure 7 iterative blocked sparse matrix x
  vector: few large records, cache hits and the de-duplicated shuffle.
* ``session`` -- a BigSheets-style front-end alternating short Pig and
  Jaql queries over one events table; per-job overhead, and outputs kept
  so the M3R cache grows through the session.

Every engine runs at its defaults over an 8-node simulated cluster; the
opt-in features (batching, in-mapper combining, ReStore, process places,
cache capacity) stay off.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import hadoop_engine, m3r_engine
from repro.api.writables import BlockIndexWritable, VectorBlockWritable
from repro.apps import matvec
from repro.apps.wordcount import wordcount_job
from repro.fs import SimulatedHDFS
from repro.jaql import JaqlRunner
from repro.pig import PigRunner
from repro.sim import Cluster

ENGINES = ("m3r", "hadoop")
NODES = 8

_perf = time.perf_counter


def make_engine(kind: str):
    """An engine at its default settings over a fresh 8-node cluster."""
    filesystem = SimulatedHDFS(Cluster(NODES))
    factory = m3r_engine if kind == "m3r" else hadoop_engine
    return factory(filesystem=filesystem)


@dataclass
class OpSample:
    """One timed operation on one engine."""

    engine: str
    index: int
    wall_s: float
    sim_s: float
    results: List[Any]
    output: Any
    error: Optional[str] = None
    #: Workload-specific detail the reference check needs.
    detail: Any = None
    #: Per-layer totals drained from the tracer after this operation.
    layers: Dict[str, List[float]] = field(default_factory=dict)


@dataclass
class EngineState:
    kind: str
    engine: Any
    extra: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """Protocol shared by the workloads (see the module docstring)."""

    name = "?"
    #: Operations per round on each engine.
    ops_per_round = 1
    #: Whether each round starts from freshly set-up engines.
    fresh_engines_per_round = False
    #: Wall seconds of one round on both engines on a 2-core host; sizes
    #: a run (see ``harness.rounds_for``).
    nominal_round_s = 1.0
    #: Set-ups per untraced run (``setup_s`` is their median).
    setups = 3
    #: Fewest rounds of an untraced run, so that each engine's p90 is not
    #: simply its slowest operation.
    min_rounds = 8

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self._reference: Dict[Any, Any] = {}

    def generate(self) -> Any:
        raise NotImplementedError

    def open(self, kind: str, inputs: Any) -> EngineState:
        raise NotImplementedError

    def cold(self, state: EngineState) -> OpSample:
        """The set-up's unmeasured first operation."""
        return self.run_op(state, -1)

    def run_op(self, state: EngineState, index: int) -> OpSample:
        raise NotImplementedError

    def check(self, sample: OpSample) -> bool:
        """Does ``sample.output`` match the reference?"""
        raise NotImplementedError

    def same(self, a: OpSample, b: OpSample) -> bool:
        """Do two engines' outputs for one operation agree?"""
        return a.output == b.output

    def close(self, state: EngineState) -> None:
        state.engine.shutdown()


def _timed(state: EngineState, index: int, body) -> OpSample:
    """Run ``body()`` -> (results, output) and wrap it as a sample."""
    start = _perf()
    try:
        results, output = body()
        error = next((r.error for r in results if not r.succeeded), None)
        if error is None and not results:
            error = "no job ran"
    except Exception as exc:  # noqa: BLE001 - a failed operation is a sample
        results, output, error = [], None, f"{type(exc).__name__}: {exc}"
    wall = _perf() - start
    return OpSample(
        engine=state.kind,
        index=index,
        wall_s=wall,
        sim_s=math.fsum(r.simulated_seconds for r in results),
        results=results,
        output=output,
        error=error,
    )


# ---------------------------------------------------------------------- #
# wordcount
# ---------------------------------------------------------------------- #

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _vocabulary(size: int) -> List[str]:
    """A fixed vocabulary of distinct words, 3 to 10 letters long."""
    rng = random.Random(0x5EED)
    words: List[str] = []
    seen = set()
    while len(words) < size:
        word = "".join(rng.choice(_LETTERS) for _ in range(rng.randint(3, 10)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class WordCount(Workload):
    """Figure 8 WordCount: 16 parts x 400 lines x 10 words, 8 reducers,
    combiner on, ``WordCountMapperImmutable``."""

    name = "wordcount"
    nominal_round_s = 3.8
    PARTS = 16
    LINES = 400
    WORDS_PER_LINE = 10
    VOCABULARY = 500
    REDUCERS = 8

    def generate(self) -> List[str]:
        lines = max(2, int(self.LINES * self.scale))
        vocabulary = _vocabulary(self.VOCABULARY)
        # Zipf-like word frequencies, as in natural text.
        weights = [1.0 / (rank + 1) for rank in range(len(vocabulary))]
        rng = random.Random(self.seed)
        parts = []
        for _ in range(self.PARTS):
            words = rng.choices(vocabulary, weights, k=lines * self.WORDS_PER_LINE)
            step = self.WORDS_PER_LINE
            parts.append(
                "\n".join(" ".join(words[i:i + step])
                          for i in range(0, len(words), step)) + "\n"
            )
        self._reference["parts"] = parts
        self._reference.pop("counts", None)
        return parts

    def open(self, kind: str, inputs: List[str]) -> EngineState:
        engine = make_engine(kind)
        for part, text in enumerate(inputs):
            engine.filesystem.write_text(f"/corpus/part-{part:05d}", text)
        return EngineState(kind, engine)

    def run_op(self, state: EngineState, index: int) -> OpSample:
        engine = state.engine
        out = f"/out/wordcount-{index}"

        def body():
            conf = wordcount_job("/corpus", out, self.REDUCERS,
                                 immutable=True, use_combiner=True)
            result = engine.run_job(conf)
            pairs = engine.filesystem.read_kv_pairs(out) if result.succeeded else []
            return [result], {str(k): v.get() for k, v in pairs}

        sample = _timed(state, index, body)
        engine.filesystem.delete(out, recursive=True)
        return sample

    def check(self, sample: OpSample) -> bool:
        if "counts" not in self._reference:
            self._reference["counts"] = dict(Counter(
                word for text in self._reference["parts"] for word in text.split()
            ))
        return self._reference["counts"] == sample.output


# ---------------------------------------------------------------------- #
# matvec
# ---------------------------------------------------------------------- #


class MatVec(Workload):
    """Figure 7 iterative blocked sparse matrix x vector: 16,000 rows in a
    32 x 32 grid of blocks at sparsity 0.002; one operation is a
    5-iteration solve (10 jobs)."""

    name = "matvec"
    nominal_round_s = 3.0
    ROWS = 16000
    GRID = 32
    SPARSITY = 0.002
    ITERATIONS = 5
    #: Relative max-norm error allowed against the NumPy reference (and
    #: between engines): the engines sum partial products in another
    #: order than ``scipy`` does, so results agree to rounding only.
    RTOL = 1e-9

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.rows = max(self.GRID * 4, int(self.ROWS * scale))
        self.block = -(-self.rows // self.GRID)

    def generate(self) -> Tuple[list, list]:
        g = matvec.generate_blocked_matrix(
            self.rows, self.block, sparsity=self.SPARSITY, seed=2 * self.seed + 1
        )
        v = matvec.generate_blocked_vector(self.rows, self.block, seed=2 * self.seed + 2)
        self._reference["inputs"] = (g, v)
        self._reference.pop("result", None)
        return g, v

    def _expected(self) -> np.ndarray:
        if "result" not in self._reference:
            g, v = self._reference["inputs"]
            x = matvec.blocked_vector_to_array(v, self.rows)
            for _ in range(self.ITERATIONS):
                x = matvec.reference_multiply(
                    g, [(BlockIndexWritable(j, 0),
                         VectorBlockWritable(x[j * self.block:(j + 1) * self.block]))
                        for j in range(self.GRID)],
                    self.rows, self.block,
                )
            self._reference["result"] = x
        return self._reference["result"]

    def open(self, kind: str, inputs: Tuple[list, list]) -> EngineState:
        g, v = inputs
        engine = make_engine(kind)
        matvec.write_partitioned(engine.filesystem, "/G", g, self.GRID, NODES)
        matvec.write_partitioned(engine.filesystem, "/V0", v, self.GRID, NODES)
        return EngineState(kind, engine)

    def run_op(self, state: EngineState, index: int) -> OpSample:
        engine = state.engine
        root = f"/solve-{index}"

        def body():
            results = []
            v_in = "/V0"
            for it in range(1, self.ITERATIONS + 1):
                v_out = f"{root}/V{it}"
                sequence = matvec.iteration_jobs(
                    "/G", v_in, v_out, f"{root}/tmp", it, self.GRID, NODES
                )
                ran = engine.run_sequence(sequence)
                results.extend(ran)
                if len(ran) != len(sequence) or not all(r.succeeded for r in ran):
                    return results, None
                v_in = v_out
            pairs = engine.filesystem.read_kv_pairs(v_in)
            return results, matvec.blocked_vector_to_array(pairs, self.rows)

        sample = _timed(state, index, body)
        engine.filesystem.delete(root, recursive=True)
        return sample

    def _close(self, got: Any, want: np.ndarray) -> bool:
        if not isinstance(got, np.ndarray) or got.shape != want.shape:
            return False
        scale = float(np.max(np.abs(want))) or 1.0
        return float(np.max(np.abs(got - want))) <= self.RTOL * scale

    def check(self, sample: OpSample) -> bool:
        return self._close(sample.output, self._expected())

    def same(self, a: OpSample, b: OpSample) -> bool:
        return isinstance(b.output, np.ndarray) and self._close(a.output, b.output)


# ---------------------------------------------------------------------- #
# session
# ---------------------------------------------------------------------- #

_USERS = 40
_ACTIONS = ("view", "buy", "click", "share")


@dataclass(frozen=True)
class Query:
    language: str  # "pig" or "jaql"
    action: str
    threshold: int


class Session(Workload):
    """A BigSheets-style session: Pig and Jaql queries alternate, each
    filter -> group -> aggregate -> order over a 500-row events table,
    through one PigRunner and one JaqlRunner per engine.  Outputs are
    kept; each round is a whole session on fresh engines."""

    name = "session"
    ROWS = 500
    QUERIES = 100
    fresh_engines_per_round = True
    nominal_round_s = 14.0
    #: A session's set-up takes a fraction of a second; more repeats
    #: steady its median.
    setups = 7
    #: One session already has 100 operations per engine.
    min_rounds = 1

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.ops_per_round = max(4, int(self.QUERIES * scale))
        rng = random.Random(self.seed * 7919 + 1)
        self.queries = [
            Query("pig" if i % 2 == 0 else "jaql", rng.choice(_ACTIONS),
                  rng.randrange(0, 80))
            for i in range(self.ops_per_round)
        ]
        self.cold_query = Query("pig", rng.choice(_ACTIONS), rng.randrange(0, 80))

    def generate(self) -> List[Tuple[str, str, int]]:
        rng = random.Random(self.seed)
        rows = [
            (f"u{rng.randrange(_USERS):02d}", rng.choice(_ACTIONS), rng.randrange(100))
            for _ in range(self.ROWS)
        ]
        self._reference["rows"] = rows
        return rows

    def open(self, kind: str, rows: List[Tuple[str, str, int]]) -> EngineState:
        engine = make_engine(kind)
        engine.filesystem.write_text(
            "/data/events.txt", "".join(f"{u}\t{a}\t{x}\n" for u, a, x in rows)
        )
        engine.filesystem.write_text(
            "/data/events.json",
            "".join(json.dumps({"user": u, "action": a, "amount": x}) + "\n"
                    for u, a, x in rows),
        )
        return EngineState(kind, engine, {
            "pig": PigRunner(engine, num_reducers=NODES),
            "jaql": JaqlRunner(engine, num_reducers=NODES),
        })

    def cold(self, state: EngineState) -> OpSample:
        return self._query(state, -1, self.cold_query)

    def run_op(self, state: EngineState, index: int) -> OpSample:
        return self._query(state, index, self.queries[index])

    def _query(self, state: EngineState, index: int, query: Query) -> OpSample:
        tag = str(index).replace("-", "m")
        out = f"/out/q{tag}"
        runner = state.extra[query.language]

        def body():
            before = len(runner.results)
            if query.language == "pig":
                runner.run(
                    "logs = LOAD '/data/events.txt' AS (user, action, amount);\n"
                    f"f{tag} = FILTER logs BY action == '{query.action}'"
                    f" AND amount > {query.threshold};\n"
                    f"g{tag} = GROUP f{tag} BY user;\n"
                    f"s{tag} = FOREACH g{tag} GENERATE group,"
                    f" COUNT(f{tag}) AS n, SUM(f{tag}.amount) AS total;\n"
                    f"o{tag} = ORDER s{tag} BY total DESC;\n"
                    f"STORE o{tag} INTO '{out}';\n"
                )
                rows = []
                for line in runner.read_output(out):
                    user, n, total = line.split("\t")
                    rows.append((user, float(n), float(total)))
            else:
                runner.run(
                    'read("/data/events.json")\n'
                    f"  -> filter $.action == '{query.action}'"
                    f" and $.amount > {query.threshold}\n"
                    "  -> group by $.user into"
                    " { user: key, n: count($), total: sum($.amount) }\n"
                    "  -> sort by $.total desc\n"
                    f'  -> write("{out}")\n'
                )
                rows = [(r["user"], float(r["n"]), float(r["total"]))
                        for r in runner.read_output(out)]
            return runner.results[before:], rows

        sample = _timed(state, index, body)
        sample.detail = query
        return sample

    def _expected(self, query: Query) -> List[Tuple[str, float, float]]:
        groups: Dict[str, List[int]] = {}
        for user, action, amount in self._reference["rows"]:
            if action == query.action and amount > query.threshold:
                groups.setdefault(user, []).append(amount)
        return sorted((u, float(len(a)), float(sum(a))) for u, a in groups.items())

    @staticmethod
    def _ordered(rows: Sequence[Tuple[str, float, float]]) -> bool:
        return all(rows[i][2] >= rows[i + 1][2] for i in range(len(rows) - 1))

    def check(self, sample: OpSample) -> bool:
        rows = sample.output
        if rows is None:
            return False
        return self._ordered(rows) and sorted(rows) == self._expected(sample.detail)

    def same(self, a: OpSample, b: OpSample) -> bool:
        # ORDER BY leaves ties in an engine-specific order.
        return b.output is not None and sorted(a.output) == sorted(b.output)


WORKLOADS = {cls.name: cls for cls in (WordCount, MatVec, Session)}
