"""Tests for the static lint half of repro.analysis.

Each rule gets a fixture pair: a known-bad snippet it must fire on, and
the fixed version it must stay silent on.  The suite also covers the
``# noqa`` suppression convention, baseline write/diff, the reporters, and
the self-gate: the shipped ``src/repro`` tree must be clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    Analyzer,
    diff_baseline,
    findings_to_document,
    load_baseline,
    new_findings,
    render_json,
    render_text,
    write_baseline,
)
from repro.analysis.callgraph import build_call_graph
import ast


def run_lint(tmp_path: Path, source: str, name: str = "mod.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return Analyzer().run([path])


def rules_fired(findings, *, include_suppressed: bool = False):
    return {
        f.rule
        for f in findings
        if include_suppressed or not f.suppressed
    }


# --------------------------------------------------------------------- #
# M3R001: parameter mutation on an async-reachable path
# --------------------------------------------------------------------- #

M3R001_BAD = """
def task_body(shared, index):
    shared.append(index)

def driver(scope, items):
    for i in range(len(items)):
        scope.async_at(None, task_body, i)
"""

M3R001_FIXED = """
def task_body(shared, index, lock):
    with lock:
        shared.append(index)

def driver(scope, items):
    for i in range(len(items)):
        scope.async_at(None, task_body, i)
"""


def test_m3r001_fires_on_unlocked_mutation(tmp_path):
    findings = run_lint(tmp_path, M3R001_BAD)
    assert "M3R001" in rules_fired(findings)
    (finding,) = [f for f in findings if f.rule == "M3R001"]
    assert finding.symbol == "task_body"
    assert "shared" in finding.message


def test_m3r001_silent_when_lock_held(tmp_path):
    findings = run_lint(tmp_path, M3R001_FIXED)
    assert "M3R001" not in rules_fired(findings)


def test_m3r001_silent_for_driver_only_function(tmp_path):
    source = """
def helper(out, x):
    out.append(x)

def main(items):
    acc = []
    for x in items:
        helper(acc, x)
"""
    findings = run_lint(tmp_path, source)
    assert "M3R001" not in rules_fired(findings)


def test_m3r001_sees_through_spawn_forwarders(tmp_path):
    # bounded_task_fn-style wrapper: the body is spawned indirectly.
    source = """
def wrapper(task_fn):
    def bounded(i):
        return task_fn(i)
    return bounded

def body(shared, i):
    shared[i] = 1

def driver(scope):
    bounded = wrapper(body)
    scope.submit(bounded)
"""
    findings = run_lint(tmp_path, source)
    assert "M3R001" in rules_fired(findings)


# --------------------------------------------------------------------- #
# M3R002: unordered iteration feeding shuffle-plan/replay ordering
# --------------------------------------------------------------------- #

M3R002_BAD = """
def build_plan(destinations):
    order = []
    for dest in set(destinations):
        order.append(dest)
    return order
"""

M3R002_FIXED = """
def build_plan(destinations):
    order = []
    for dest in sorted(set(destinations)):
        order.append(dest)
    return order
"""


def test_m3r002_fires_on_set_iteration_in_plan(tmp_path):
    findings = run_lint(tmp_path, M3R002_BAD)
    assert "M3R002" in rules_fired(findings)


def test_m3r002_silent_when_sorted(tmp_path):
    findings = run_lint(tmp_path, M3R002_FIXED)
    assert "M3R002" not in rules_fired(findings)


def test_m3r002_covers_dict_values_reached_from_replay(tmp_path):
    source = """
def charge(by_place):
    total = 0
    for v in by_place.values():
        total += v
    return total

def replay(plan):
    return charge(plan)
"""
    findings = run_lint(tmp_path, source)
    assert "M3R002" in rules_fired(findings)


def test_m3r002_ignores_unrelated_code(tmp_path):
    source = """
def unrelated(d):
    return [v for v in d.values()]
"""
    findings = run_lint(tmp_path, source)
    assert "M3R002" not in rules_fired(findings)


# --------------------------------------------------------------------- #
# M3R003: ImmutableOutput attribute writes outside builders
# --------------------------------------------------------------------- #

M3R003_BAD = """
class ImmutableOutput:
    pass

class Mapper(ImmutableOutput):
    def __init__(self):
        self.count = 0

    def map(self, key, value, output, reporter):
        self.count += 1
        output.collect(key, value)
"""

M3R003_FIXED = """
class ImmutableOutput:
    pass

class Mapper(ImmutableOutput):
    def __init__(self):
        self.count = 0

    def map(self, key, value, output, reporter):
        output.collect(key, value)
"""


def test_m3r003_fires_on_post_construction_write(tmp_path):
    findings = run_lint(tmp_path, M3R003_BAD)
    assert "M3R003" in rules_fired(findings)
    (finding,) = [f for f in findings if f.rule == "M3R003"]
    assert finding.symbol == "Mapper.map"


def test_m3r003_silent_on_fixed_class(tmp_path):
    findings = run_lint(tmp_path, M3R003_FIXED)
    assert "M3R003" not in rules_fired(findings)


def test_m3r003_follows_transitive_subclassing(tmp_path):
    source = """
class ImmutableOutput:
    pass

class Base(ImmutableOutput):
    pass

class Leaf(Base):
    def poke(self):
        self.x = 1
"""
    findings = run_lint(tmp_path, source)
    fired = [f for f in findings if f.rule == "M3R003"]
    assert fired and fired[0].symbol == "Leaf.poke"


def test_m3r003_allows_init_and_configure(tmp_path):
    source = """
class ImmutableOutput:
    pass

class Mapper(ImmutableOutput):
    def __init__(self):
        self.a = 1

    def configure(self, conf):
        self.b = conf

    def with_limit(self, n):
        self.limit = n
        return self
"""
    findings = run_lint(tmp_path, source)
    assert "M3R003" not in rules_fired(findings)


# --------------------------------------------------------------------- #
# M3R004: swallowed broad exceptions
# --------------------------------------------------------------------- #

M3R004_BAD = """
def fragile():
    try:
        return compute()
    except Exception:
        return None
"""

M3R004_FIXED = """
def fragile(log):
    try:
        return compute()
    except Exception as exc:
        log.warning("compute failed: %s", exc)
        return None
"""


def test_m3r004_fires_on_swallowing_handler(tmp_path):
    findings = run_lint(tmp_path, M3R004_BAD)
    assert "M3R004" in rules_fired(findings)


def test_m3r004_silent_when_exception_is_reported(tmp_path):
    findings = run_lint(tmp_path, M3R004_FIXED)
    assert "M3R004" not in rules_fired(findings)


def test_m3r004_silent_on_reraise(tmp_path):
    source = """
def fragile():
    try:
        return compute()
    except Exception:
        raise
"""
    findings = run_lint(tmp_path, source)
    assert "M3R004" not in rules_fired(findings)


def test_m3r004_fires_on_bare_except(tmp_path):
    source = """
def fragile():
    try:
        return compute()
    except:
        pass
"""
    findings = run_lint(tmp_path, source)
    assert "M3R004" in rules_fired(findings)


# --------------------------------------------------------------------- #
# M3R005: package __init__ without __all__
# --------------------------------------------------------------------- #


def test_m3r005_fires_on_missing_all(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from math import pi\n")
    findings = Analyzer().run([pkg])
    assert "M3R005" in rules_fired(findings)


def test_m3r005_silent_with_all(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from math import pi\n__all__ = ['pi']\n")
    findings = Analyzer().run([pkg])
    assert "M3R005" not in rules_fired(findings)


# --------------------------------------------------------------------- #
# M3R006: unpicklable capture reaching a spawn/serialize boundary
# --------------------------------------------------------------------- #

M3R006_BAD = """
import threading

def run_stage(scope, items):
    lock = threading.Lock()
    def task(i):
        with lock:
            items[i] = 1
    scope.finish_collect(task)
"""

M3R006_FIXED = """
def run_stage(scope, items):
    def task(i):
        items[i] = 1
    scope.finish_collect(task)
"""


def test_m3r006_fires_on_lock_capture_crossing_spawn(tmp_path):
    findings = run_lint(tmp_path, M3R006_BAD)
    fired = [f for f in findings if f.rule == "M3R006"]
    assert fired
    assert "lock" in fired[0].message
    assert "finish_collect" in fired[0].message
    assert fired[0].symbol == "run_stage.task"


def test_m3r006_silent_without_fatal_capture(tmp_path):
    findings = run_lint(tmp_path, M3R006_FIXED)
    assert "M3R006" not in rules_fired(findings)


def test_m3r006_silent_when_closure_never_crosses_boundary(tmp_path):
    source = """
import threading

def local_only(items):
    lock = threading.Lock()
    def helper(i):
        with lock:
            items[i] = 1
    for i in range(3):
        helper(i)
"""
    findings = run_lint(tmp_path, source)
    assert "M3R006" not in rules_fired(findings)


def test_m3r006_sees_anonymous_lambda_argument(tmp_path):
    source = """
import threading

def run(scope):
    lock = threading.Lock()
    scope.submit(lambda: lock.acquire())
"""
    findings = run_lint(tmp_path, source)
    fired = [f for f in findings if f.rule == "M3R006"]
    assert fired and "<lambda>" in fired[0].symbol


def test_m3r006_taint_flows_through_call_edges(tmp_path):
    # The lock is created in the driver and *passed* to the stage; the
    # stage's task body captures the tainted parameter.
    source = """
import threading

def stage(scope, guard):
    def task(i):
        with guard:
            return i
    scope.finish_collect(task)

def driver(scope):
    lock = threading.Lock()
    stage(scope, lock)
"""
    findings = run_lint(tmp_path, source)
    fired = [f for f in findings if f.rule == "M3R006"]
    assert fired and "guard" in fired[0].message


def test_m3r006_serialize_boundary_counts(tmp_path):
    source = """
def measure_stage(serializer, handle_factory):
    fh = open("/tmp/x")
    task = lambda: fh.read()
    serializer.measure(task)
"""
    findings = run_lint(tmp_path, source)
    fired = [f for f in findings if f.rule == "M3R006"]
    assert fired and "file-handle" in fired[0].message


# --------------------------------------------------------------------- #
# M3R007: lambda / local callable registered on a JobSpec
# --------------------------------------------------------------------- #

M3R007_BAD = """
def build_job(conf):
    class LocalMapper:
        def map(self, k, v, out, rep):
            out.collect(k, v)
    conf.set_mapper_class(LocalMapper)
"""

M3R007_FIXED = """
class ModuleMapper:
    def map(self, k, v, out, rep):
        out.collect(k, v)

def build_job(conf):
    conf.set_mapper_class(ModuleMapper)
"""


def test_m3r007_fires_on_local_class(tmp_path):
    findings = run_lint(tmp_path, M3R007_BAD)
    fired = [f for f in findings if f.rule == "M3R007"]
    assert fired
    assert "LocalMapper" in fired[0].message
    assert "set_mapper_class" in fired[0].message


def test_m3r007_silent_on_module_level_class(tmp_path):
    findings = run_lint(tmp_path, M3R007_FIXED)
    assert "M3R007" not in rules_fired(findings)


def test_m3r007_fires_on_inline_lambda(tmp_path):
    source = """
def build_job(conf):
    conf.set_partitioner_class(lambda k, n: hash(k) % n)
"""
    findings = run_lint(tmp_path, source)
    fired = [f for f in findings if f.rule == "M3R007"]
    assert fired and "a lambda" in fired[0].message


def test_m3r007_fires_on_name_bound_lambda_and_nested_def(tmp_path):
    source = """
def build_job(conf):
    part = lambda k, n: 0
    def combiner():
        pass
    conf.set_partitioner_class(part)
    conf.set_combiner_class(combiner)
"""
    findings = run_lint(tmp_path, source)
    fired = sorted(f.message for f in findings if f.rule == "M3R007")
    assert len(fired) == 2
    assert any("lambda 'part'" in m for m in fired)
    assert any("local function 'combiner'" in m for m in fired)


def test_m3r007_ignores_non_setter_calls(tmp_path):
    source = """
def helper(conf):
    fn = lambda: 1
    conf.register_hook(fn)
"""
    findings = run_lint(tmp_path, source)
    assert "M3R007" not in rules_fired(findings)


# --------------------------------------------------------------------- #
# M3R008: order-sensitive float accumulation on an async path
# --------------------------------------------------------------------- #

M3R008_BAD = """
class Tracker:
    def on_task_done(self, dt):
        self.elapsed_seconds += dt

def driver(scope, tracker):
    scope.async_at(None, tracker.on_task_done, 0.5)
"""

M3R008_FIXED = """
import math

class Tracker:
    def on_task_done(self, dt):
        self.addends.append(dt)

    def finish(self):
        self.elapsed_seconds = math.fsum(self.addends)

def driver(scope, tracker):
    scope.async_at(None, tracker.on_task_done, 0.5)
"""


def test_m3r008_fires_on_float_augassign_in_async_reachable(tmp_path):
    findings = run_lint(tmp_path, M3R008_BAD)
    fired = [f for f in findings if f.rule == "M3R008"]
    assert fired
    assert "self.elapsed_seconds" in fired[0].message
    assert "fsum" in fired[0].message


def test_m3r008_silent_on_fsum_pattern(tmp_path):
    findings = run_lint(tmp_path, M3R008_FIXED)
    assert "M3R008" not in rules_fired(findings)


def test_m3r008_silent_on_driver_only_accumulation(tmp_path):
    source = """
class Clock:
    def advance(self, seconds):
        self.now_seconds += seconds

def main(clock):
    clock.advance(1.5)
"""
    findings = run_lint(tmp_path, source)
    assert "M3R008" not in rules_fired(findings)


def test_m3r008_silent_on_integer_counter(tmp_path):
    source = """
class Counter:
    def on_record(self, n):
        self.records += n

def driver(scope, counter):
    scope.async_at(None, counter.on_record, 1)
"""
    findings = run_lint(tmp_path, source)
    assert "M3R008" not in rules_fired(findings)


def test_m3r008_fires_on_time_source_fed_subscript(tmp_path):
    source = """
from time import perf_counter

def worker(stats, key):
    stats[key] += perf_counter()

def driver(scope):
    scope.submit(worker)
"""
    findings = run_lint(tmp_path, source)
    assert "M3R008" in rules_fired(findings)


# --------------------------------------------------------------------- #
# M3R009: associativity claims the reduce body belies
# --------------------------------------------------------------------- #

M3R009_BAD = """
class AssociativeReducer:
    pass

class BadSum(AssociativeReducer):
    def reduce(self, key, values, output, reporter):
        self.seen += 1
        output.collect(key, sum(values))
"""

M3R009_FIXED = """
class AssociativeReducer:
    pass

class GoodSum(AssociativeReducer):
    def reduce(self, key, values, output, reporter):
        total = 0
        for v in values:
            total += v
        output.collect(key, total)
"""


def test_m3r009_fires_on_cross_call_state(tmp_path):
    findings = run_lint(tmp_path, M3R009_BAD)
    fired = [f for f in findings if f.rule == "M3R009"]
    assert fired
    assert fired[0].symbol == "BadSum.reduce"
    assert "cross-call state" in fired[0].message


def test_m3r009_silent_on_pure_fold(tmp_path):
    findings = run_lint(tmp_path, M3R009_FIXED)
    assert "M3R009" not in rules_fired(findings)


def test_m3r009_fires_on_input_mutation(tmp_path):
    source = """
class AssociativeReducer:
    pass

class Mutator(AssociativeReducer):
    def reduce(self, key, values, output, reporter):
        values.sort()
        output.collect(key, values)
"""
    findings = run_lint(tmp_path, source)
    fired = [f for f in findings if f.rule == "M3R009"]
    assert fired and "mutates input 'values'" in fired[0].message


def test_m3r009_fires_on_arrival_order_branching(tmp_path):
    source = """
class AssociativeReducer:
    pass

class FirstWins(AssociativeReducer):
    def reduce(self, key, values, output, reporter):
        output.collect(key, values[0])
"""
    findings = run_lint(tmp_path, source)
    fired = [f for f in findings if f.rule == "M3R009"]
    assert fired and "arrival order" in fired[0].message


def test_m3r009_covers_transitive_subclasses_and_allowlist(tmp_path):
    source = """
class AssociativeReducer:
    pass

class Base(AssociativeReducer):
    pass

class Leaf(Base):
    def reduce(self, key, values, output, reporter):
        for i, v in enumerate(values):
            output.collect(key, v)
"""
    findings = run_lint(tmp_path, source)
    assert any(
        f.rule == "M3R009" and f.symbol == "Leaf.reduce" for f in findings
    )

    allow = """
ASSOCIATIVE_ALLOWLIST = frozenset({"reducers.Claimed"})

class Claimed:
    def reduce(self, key, values, output, reporter):
        self.state = key
"""
    findings = run_lint(tmp_path, allow, name="reducers.py")
    assert any(
        f.rule == "M3R009" and f.symbol == "Claimed.reduce" for f in findings
    )


def test_m3r009_unclaimed_reducer_is_free_to_do_anything(tmp_path):
    source = """
class Plain:
    def reduce(self, key, values, output, reporter):
        self.seen += 1
        output.collect(key, values[0])
"""
    findings = run_lint(tmp_path, source)
    assert "M3R009" not in rules_fired(findings)


# --------------------------------------------------------------------- #
# M3R010: m3r.* knob literal outside the KnobRegistry
# --------------------------------------------------------------------- #


def test_m3r010_fires_on_registered_key_literal(tmp_path):
    source = 'KEY = "m3r.cache.capacity-bytes"\n'
    findings = run_lint(tmp_path, source)
    fired = [f for f in findings if f.rule == "M3R010"]
    assert fired and "use the derived constant" in fired[0].message


def test_m3r010_fires_on_unknown_key_literal(tmp_path):
    source = 'KEY = "m3r.cache.capacty-bytes"\n'  # typo
    findings = run_lint(tmp_path, source)
    fired = [f for f in findings if f.rule == "M3R010"]
    assert fired and "not in the KnobRegistry" in fired[0].message


def test_m3r010_ignores_non_knob_strings(tmp_path):
    source = '\n'.join([
        'A = "m3r"',
        'B = "m3r."',
        'C = "the m3r.cache.spill knob"  # prose, not a bare key',
        'D = "M3R_BATCH"',
    ]) + '\n'
    findings = run_lint(tmp_path, source)
    assert "M3R010" not in rules_fired(findings)


def test_m3r010_exempts_the_registry_module(tmp_path):
    source = """
class KnobRegistry:
    pass

KEY = "m3r.cache.capacity-bytes"
"""
    findings = run_lint(tmp_path, source)
    assert "M3R010" not in rules_fired(findings)


def test_m3r010_src_tree_defines_keys_only_in_the_registry():
    """The acceptance criterion: every m3r.* literal in src/ lives in
    knobs.py (or carries a justified suppression)."""
    package_root = Path(repro.__file__).parent
    findings = Analyzer().run([package_root])
    active = [f for f in findings if f.rule == "M3R010" and not f.suppressed]
    assert active == [], "\n" + render_text(active)


# --------------------------------------------------------------------- #
# the 20-fixture true/false-positive matrix for the dataflow-era rules
# --------------------------------------------------------------------- #

_MATRIX = [
    # (rule, fires, source)
    ("M3R006", True, M3R006_BAD),
    ("M3R006", True, """
import threading

def stage(scope):
    t = threading.Thread(target=print)
    body = lambda: t.join()
    scope.async_at(None, body)
"""),
    ("M3R006", False, M3R006_FIXED),
    ("M3R006", False, """
def stage(scope, engine):
    def task(i):
        return engine.lookup(i)
    scope.finish_collect(task)
"""),  # engine-ref is advisory, not fatal
    ("M3R007", True, M3R007_BAD),
    ("M3R007", True, """
def build(conf):
    def fmt():
        pass
    conf.set_input_format(fmt)
"""),
    ("M3R007", False, M3R007_FIXED),
    ("M3R007", False, """
def build(conf, mapper_cls):
    conf.set_mapper_class(mapper_cls)
"""),  # a parameter has module-level identity at the call site
    ("M3R008", True, M3R008_BAD),
    ("M3R008", True, """
def body(metrics, dt):
    metrics.total_cost += dt / 2.0

def driver(scope):
    scope.submit(body)
"""),
    ("M3R008", False, M3R008_FIXED),
    ("M3R008", False, """
def body(out, i):
    local_seconds = 0.0
    local_seconds += 1.5
    out[i] = local_seconds

def driver(scope):
    scope.submit(body)
"""),  # local accumulator: single-task, order-free
    ("M3R009", True, M3R009_BAD),
    ("M3R009", True, """
class AssociativeReducer:
    pass

class Popper(AssociativeReducer):
    def reduce(self, key, values, output, reporter):
        values.pop()
"""),
    ("M3R009", False, M3R009_FIXED),
    ("M3R009", False, """
class AssociativeReducer:
    pass

class MaxReducer(AssociativeReducer):
    def reduce(self, key, values, output, reporter):
        best = None
        for v in values:
            if best is None or v > best:
                best = v
        output.collect(key, best)
"""),
    ("M3R010", True, 'KEY = "m3r.cache.spill"\n'),
    ("M3R010", True, 'conf = {"m3r.no.such.knob": 1}\n'),
    ("M3R010", False, 'ENV = "M3R_CONF_STRICT"\n'),
    ("M3R010", False, 'DOC = "set the m3r.cache.spill knob to false"\n'),
]


@pytest.mark.parametrize(
    "rule,fires,source",
    _MATRIX,
    ids=[
        f"{rule}-{'tp' if fires else 'fp'}-{i}"
        for i, (rule, fires, _) in enumerate(_MATRIX)
    ],
)
def test_rule_matrix(tmp_path, rule, fires, source):
    findings = run_lint(tmp_path, source)
    if fires:
        assert rule in rules_fired(findings)
    else:
        assert rule not in rules_fired(findings)


# --------------------------------------------------------------------- #
# the dataflow layer itself: capture summaries and taint
# --------------------------------------------------------------------- #


def _dataflow_for(source: str):
    from repro.analysis.dataflow import analyze_dataflow

    graph = build_call_graph([("mod.py", ast.parse(source))])
    return graph, analyze_dataflow(graph)


def _summary_of(graph, dataflow, qualname: str):
    for fn in graph.functions:
        if fn.qualname == qualname:
            return dataflow.summary(fn)
    raise AssertionError(f"no function {qualname!r}")


def test_dataflow_nested_closure_captures_through_levels():
    source = """
import threading

def outer():
    lock = threading.Lock()
    def middle():
        def inner():
            with lock:
                pass
        return inner
    return middle
"""
    graph, dataflow = _dataflow_for(source)
    outer = _summary_of(graph, dataflow, "outer")
    # `middle` transitively keeps `lock` alive: inner's loads count.
    (middle,) = [c for c in outer.closures if c.name == "middle"]
    assert "lock" in middle.free_names
    assert any(c.name == "lock" and c.kind == "lock" and c.fatal
               for c in middle.captures)
    # One level down: `lock` is free in `inner` too (raw free-variable
    # math), but it is not a *capture from middle's scope* — middle never
    # binds it, so the classified capture correctly lives on `middle`.
    from repro.analysis.dataflow import free_names as raw_free_names

    mid_summary = _summary_of(graph, dataflow, "outer.middle")
    (inner,) = [c for c in mid_summary.closures if c.name == "inner"]
    assert "lock" in raw_free_names(inner_node(graph))
    assert inner.free_names == set()


def inner_node(graph):
    for fn in graph.functions:
        if fn.qualname == "outer.middle.inner":
            return fn.node
    raise AssertionError("no inner")


def test_dataflow_factory_returned_callable_taints_caller():
    source = """
import threading

def make_task(guard):
    def task(i):
        with guard:
            return i
    return task

def driver(scope):
    lock = threading.Lock()
    t = make_task(lock)
    scope.submit(t)
"""
    graph, dataflow = _dataflow_for(source)
    factory = _summary_of(graph, dataflow, "make_task")
    assert "lock" in factory.tainted_params.get("guard", set())
    (task,) = [c for c in factory.closures if c.name == "task"]
    guard = [c for c in task.captures if c.name == "guard"]
    assert guard and guard[0].fatal and guard[0].kind.startswith("param:")


def test_dataflow_functools_partial_binding_is_a_plain_local():
    # functools.partial over a module-level function is picklable: the
    # summary must NOT classify the bound name as a fatal kind.
    source = """
import functools

def work(a, b):
    return a + b

def driver(scope):
    bound = functools.partial(work, 1)
    def task():
        return bound()
    scope.submit(task)
"""
    graph, dataflow = _dataflow_for(source)
    driver = _summary_of(graph, dataflow, "driver")
    assert "bound" not in driver.bindings  # not a recognized fatal kind
    (task,) = [c for c in driver.closures if c.name == "task"]
    bound = [c for c in task.captures if c.name == "bound"]
    assert bound and not bound[0].fatal and bound[0].kind == "local"


def test_dataflow_keyword_argument_taint_alignment():
    source = """
import threading

def stage(scope, guard=None):
    return guard

def driver(scope):
    lock = threading.Lock()
    stage(scope, guard=lock)
"""
    graph, dataflow = _dataflow_for(source)
    stage = _summary_of(graph, dataflow, "stage")
    assert "lock" in stage.tainted_params.get("guard", set())


def test_dataflow_self_offset_for_attribute_calls():
    source = """
import threading

class Runner:
    def launch(self, guard):
        return guard

def driver(runner):
    lock = threading.Lock()
    runner.launch(lock)
"""
    graph, dataflow = _dataflow_for(source)
    launch = _summary_of(graph, dataflow, "Runner.launch")
    assert "lock" in launch.tainted_params.get("guard", set())


def test_dataflow_free_names_exclude_locals_and_params():
    source = """
def outer(items):
    limit = 10
    def task(i):
        local = i * 2
        return local + limit + len(items)
    return task
"""
    graph, dataflow = _dataflow_for(source)
    outer = _summary_of(graph, dataflow, "outer")
    (task,) = outer.closures
    assert task.free_names == {"limit", "items"}
    kinds = {c.name: c.kind for c in task.captures}
    assert kinds["limit"] == "local"
    assert kinds["items"] == "param"
    assert not any(c.fatal for c in task.captures)


# --------------------------------------------------------------------- #
# the portability inventory
# --------------------------------------------------------------------- #


def test_portability_inventory_shape_and_verdicts(tmp_path):
    from repro.analysis import load_project, portability_inventory
    from repro.analysis.portability import PORTABILITY_SCHEMA_VERSION

    source = """
import threading

class DemoStageProvider:
    def _map_stage(self, scope, engine, items):
        lock = threading.Lock()
        def task_body(i):
            with lock:
                return engine.lookup(items[i])
        scope.finish_collect(task_body)
"""
    path = tmp_path / "stages.py"
    path.write_text(source, encoding="utf-8")
    project = load_project([path])
    document = portability_inventory(project)

    assert document["schema_version"] == PORTABILITY_SCHEMA_VERSION
    assert document["report"] == "portability"
    assert document["fatal_captures"] == 1
    (provider,) = document["providers"]
    assert provider["provider"] == "DemoStageProvider"
    (method,) = provider["methods"]
    assert method["method"] == "DemoStageProvider._map_stage"
    (body,) = method["task_bodies"]
    assert body["name"] == "task_body"
    verdicts = {c["name"]: c for c in body["captures"]}
    assert verdicts["lock"] == {
        "name": "lock", "kind": "lock", "portable": False, "advisory": False,
    }
    assert verdicts["engine"]["advisory"] is True
    assert verdicts["engine"]["portable"] is True
    assert json.dumps(document)  # machine-readable: JSON-serializable


def test_portability_inventory_on_shipped_tree_is_empty():
    # The process-places refactor moved every task body to module level
    # (DESIGN.md §16); the shipped providers define no closures at all,
    # so the whole inventory — fatal AND advisory — must stay at zero.
    # This is the regression gate `analyze --report portability --gate`
    # enforces in CI.
    from repro.analysis import load_project, portability_inventory

    project = load_project([Path(repro.__file__).parent])
    document = portability_inventory(project)
    assert document["fatal_captures"] == 0
    assert document["advisory_captures"] == 0
    assert document["providers"] == []


# --------------------------------------------------------------------- #
# the KnobRegistry
# --------------------------------------------------------------------- #


def test_knob_registry_names_are_unique_and_prefixed():
    from repro.analysis.knobs import KNOB_PREFIX, REGISTRY

    names = list(REGISTRY.names())
    assert len(names) == len(set(names))
    assert all(name.startswith(KNOB_PREFIX) for name in names)
    assert len(REGISTRY) == len(names)


def test_knob_registry_constants_cover_conf_constants():
    from repro.analysis.knobs import REGISTRY

    constants = REGISTRY.constants()
    assert constants["CACHE_SPILL_KEY"] == "m3r.cache.spill"  # noqa: M3R010 - asserting the literal mapping
    # Every constant maps to a registered key, and conf re-exports it.
    import repro.api.conf as conf

    for const_name, key in constants.items():
        assert key in REGISTRY
        assert getattr(conf, const_name) == key


def test_knob_registry_env_aliases_match_conf():
    from repro.analysis.knobs import REGISTRY
    import repro.api.conf as conf

    assert REGISTRY.get(conf.TRACE_PATH_KEY).env == conf.TRACE_PATH_ENV
    assert REGISTRY.get(conf.RESTORE_ENABLED_KEY).env == conf.RESTORE_ENV
    assert REGISTRY.get(conf.CONF_STRICT_KEY).env == conf.CONF_STRICT_ENV


def test_knob_registry_markdown_table_lists_public_knobs():
    from repro.analysis.knobs import REGISTRY, render_markdown_table

    table = render_markdown_table()
    lines = [l for l in table.splitlines() if l.startswith("|")]
    public = [k for k in REGISTRY if not k.internal]
    assert len(lines) == len(public) + 2  # header + separator
    for knob in public:
        assert f"`{knob.name}`" in table
    for knob in REGISTRY:
        if knob.internal:
            assert f"`{knob.name}`" not in table


# --------------------------------------------------------------------- #
# noqa suppression
# --------------------------------------------------------------------- #


def test_noqa_suppresses_specific_rule(tmp_path):
    source = M3R001_BAD.replace(
        "shared.append(index)",
        "shared.append(index)  # noqa: M3R001 - test justification",
    )
    findings = run_lint(tmp_path, source)
    m3r001 = [f for f in findings if f.rule == "M3R001"]
    assert m3r001 and all(f.suppressed for f in m3r001)


def test_bare_noqa_suppresses_everything_on_line(tmp_path):
    source = M3R001_BAD.replace(
        "shared.append(index)", "shared.append(index)  # noqa"
    )
    findings = run_lint(tmp_path, source)
    assert all(f.suppressed for f in findings if f.rule == "M3R001")


def test_noqa_for_other_rule_does_not_suppress(tmp_path):
    source = M3R001_BAD.replace(
        "shared.append(index)", "shared.append(index)  # noqa: M3R004"
    )
    findings = run_lint(tmp_path, source)
    assert any(
        f.rule == "M3R001" and not f.suppressed for f in findings
    )


def test_noqa_multi_code_suppresses_each_listed_rule(tmp_path):
    # One line firing two rules, both listed comma-separated.
    source = """
def fragile(shared, index):
    try:
        shared.append(index)  # noqa: M3R001, M3R004 - listed together
    except Exception:
        pass  # noqa: M3R004

def driver(scope):
    scope.async_at(None, fragile)
"""
    findings = run_lint(tmp_path, source)
    m3r001 = [f for f in findings if f.rule == "M3R001"]
    assert m3r001 and all(f.suppressed for f in m3r001)


def test_noqa_multi_code_with_trailing_prose(tmp_path):
    # The regression the old pattern had: the justification prose after
    # the last code must not corrupt the code list.
    from repro.analysis.linter import _suppressed_codes

    assert _suppressed_codes(
        "x = 1  # noqa: M3R001,M3R004 and a justification why"
    ) == ["M3R001", "M3R004"]
    assert _suppressed_codes("x = 1  # noqa: M3R001 - reason") == ["M3R001"]
    assert _suppressed_codes("x = 1  # noqa: m3r001") == ["M3R001"]
    assert _suppressed_codes("x = 1  # NOQA: M3R001 ,  M3R002") == [
        "M3R001", "M3R002",
    ]


def test_noqa_bare_and_edge_forms(tmp_path):
    from repro.analysis.linter import _suppressed_codes

    assert _suppressed_codes("x = 1") is None
    assert _suppressed_codes("x = 1  # noqa") == []
    assert _suppressed_codes("x = 1  # noqa - because") == []
    # A colon with no parseable code suppresses nothing (flake8
    # semantics) rather than degrading to suppress-all.
    assert _suppressed_codes("x = 1  # noqa: because reasons") == ["<invalid>"]
    # "noqald" or similar words must not count as a noqa comment.
    assert _suppressed_codes("x = 1  # noqald: M3R001") is None


def test_noqa_invalid_code_list_does_not_suppress(tmp_path):
    source = M3R001_BAD.replace(
        "shared.append(index)",
        "shared.append(index)  # noqa: not a code",
    )
    findings = run_lint(tmp_path, source)
    assert any(f.rule == "M3R001" and not f.suppressed for f in findings)


# --------------------------------------------------------------------- #
# reporters
# --------------------------------------------------------------------- #


def test_text_report_mentions_location_and_counts(tmp_path):
    findings = run_lint(tmp_path, M3R001_BAD)
    text = render_text(findings)
    assert "mod.py" in text and "M3R001" in text
    assert "active" in text and "suppressed" in text


def test_json_report_shape(tmp_path):
    from repro.analysis.report import REPORT_SCHEMA_VERSION

    findings = run_lint(tmp_path, M3R001_BAD)
    document = json.loads(render_json(findings))
    assert document["schema_version"] == REPORT_SCHEMA_VERSION == 2
    assert document["counts"]["total"] == len(findings)
    entry = document["findings"][0]
    for field in ("rule", "path", "line", "col", "symbol", "message",
                  "suppressed", "fingerprint"):
        assert field in entry
    assert document == findings_to_document(findings)


# --------------------------------------------------------------------- #
# baseline
# --------------------------------------------------------------------- #


def test_baseline_roundtrip_gates_only_new_findings(tmp_path):
    findings = run_lint(tmp_path, M3R001_BAD)
    baseline_file = tmp_path / "baseline.json"
    write_baseline(findings, baseline_file)
    baseline = load_baseline(baseline_file)
    assert new_findings(findings, baseline) == []

    # A new violation in another function is NOT covered by the baseline.
    worse = M3R001_BAD + (
        "\n\ndef second_body(out, i):\n"
        "    out[i] = 1\n\n"
        "def driver2(scope):\n"
        "    scope.submit(second_body)\n"
    )
    findings2 = run_lint(tmp_path, worse)
    fresh = new_findings(findings2, baseline)
    assert fresh and all(f.fingerprint not in baseline for f in fresh)

    added, removed = diff_baseline(findings2, baseline)
    assert added and not removed


def test_baseline_missing_file_is_empty():
    assert load_baseline(Path("/nonexistent/baseline.json")) == set()


def test_baseline_renamed_file_changes_fingerprint(tmp_path):
    """Fingerprints embed the relpath: renaming the file orphans the old
    entry and gates the finding afresh (the refresh workflow)."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "old_name.py").write_text(M3R001_BAD, encoding="utf-8")
    findings = Analyzer().run([pkg])
    assert {f.path for f in findings} == {"pkg/old_name.py"}
    baseline_file = tmp_path / "baseline.json"
    write_baseline(findings, baseline_file)
    baseline = load_baseline(baseline_file)

    (pkg / "old_name.py").rename(pkg / "new_name.py")
    renamed = Analyzer().run([pkg])
    fresh = new_findings(renamed, baseline)
    assert fresh and all(f.path == "pkg/new_name.py" for f in fresh)

    # ...and the old entries are now orphaned: their recorded file no
    # longer exists under the analyzed root.
    from repro.analysis import orphaned_fingerprints

    orphans = orphaned_fingerprints(baseline_file, [pkg])
    assert len(orphans) == len(baseline)
    assert all("old_name.py" in label for label in orphans.values())


def test_baseline_deleted_finding_shows_as_removed(tmp_path):
    findings = run_lint(tmp_path, M3R001_BAD)
    baseline_file = tmp_path / "baseline.json"
    write_baseline(findings, baseline_file)
    baseline = load_baseline(baseline_file)

    fixed = run_lint(tmp_path, M3R001_FIXED)
    added, removed = diff_baseline(
        [f for f in fixed if f.rule == "M3R001"], baseline
    )
    assert added == []
    assert removed == baseline  # the baselined debt was paid off


def test_baseline_reordered_entries_are_equivalent(tmp_path):
    """The baseline is a *set* of fingerprints: entry order in the JSON
    file must not affect gating, and writes are canonically sorted."""
    both = M3R001_BAD + M3R004_BAD
    findings = run_lint(tmp_path, both)
    assert len({f.fingerprint for f in findings}) >= 2
    baseline_file = tmp_path / "baseline.json"
    document = write_baseline(findings, baseline_file)

    shuffled = {
        "version": document["version"],
        "fingerprints": dict(
            reversed(list(document["fingerprints"].items()))
        ),
    }
    shuffled_file = tmp_path / "baseline-shuffled.json"
    shuffled_file.write_text(json.dumps(shuffled))
    assert load_baseline(shuffled_file) == load_baseline(baseline_file)
    assert new_findings(findings, load_baseline(shuffled_file)) == []

    # Writing is canonical: same findings in any order -> identical file.
    rewritten = write_baseline(list(reversed(findings)), shuffled_file)
    assert rewritten == document


def test_orphaned_fingerprints_detects_moved_files(tmp_path):
    from repro.analysis import orphaned_fingerprints

    root = tmp_path / "pkg"
    root.mkdir()
    (root / "alive.py").write_text("x = 1\n")
    baseline_file = tmp_path / "baseline.json"
    baseline_file.write_text(json.dumps({
        "version": 1,
        "fingerprints": {
            "aaaa": "M3R001 pkg/alive.py some_fn",
            "bbbb": "M3R001 pkg/deleted.py gone_fn",
        },
    }))
    orphans = orphaned_fingerprints(baseline_file, [root])
    assert list(orphans) == ["bbbb"]
    assert "deleted.py" in orphans["bbbb"]


def test_orphaned_fingerprints_empty_cases(tmp_path):
    from repro.analysis import orphaned_fingerprints

    assert orphaned_fingerprints(tmp_path / "missing.json", [tmp_path]) == {}
    baseline_file = tmp_path / "baseline.json"
    baseline_file.write_text(json.dumps({"version": 1, "fingerprints": {}}))
    assert orphaned_fingerprints(baseline_file, [tmp_path]) == {}


def test_shipped_baseline_has_no_orphans():
    """The committed baseline must only reference files that still exist
    (the CI analyze gate enforces this)."""
    import repro
    from repro.analysis import DEFAULT_BASELINE_PATH, orphaned_fingerprints

    repo_root = Path(repro.__file__).parent.parent.parent
    baseline_file = repo_root / DEFAULT_BASELINE_PATH
    assert baseline_file.exists()
    orphans = orphaned_fingerprints(
        baseline_file, [Path(repro.__file__).parent]
    )
    assert orphans == {}


# --------------------------------------------------------------------- #
# call graph
# --------------------------------------------------------------------- #


def test_call_graph_spawn_roots_and_reachability():
    tree = ast.parse(
        """
def leaf(x):
    return x

def body(i):
    return leaf(i)

def driver(scope):
    scope.async_at(None, body, 1)
"""
    )
    graph = build_call_graph([("mod.py", tree)])
    assert "body" in graph.spawn_roots
    reachable = graph.reachable_from(graph.spawn_roots)
    assert {"body", "leaf"} <= reachable
    assert "driver" not in reachable


def test_call_graph_lambda_argument_names_spawned_functions():
    tree = ast.parse(
        """
def body(i):
    return i

def driver(scope):
    scope.submit(lambda i: body(i))
"""
    )
    graph = build_call_graph([("mod.py", tree)])
    assert "body" in graph.spawn_roots


# --------------------------------------------------------------------- #
# the self-gate: the shipped tree must be clean
# --------------------------------------------------------------------- #


def test_shipped_source_tree_has_zero_unsuppressed_findings():
    package_root = Path(repro.__file__).parent
    findings = Analyzer().run([package_root])
    active = [f for f in findings if not f.suppressed]
    assert active == [], "\n" + render_text(active)
