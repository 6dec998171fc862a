"""A bare-name AST call graph with spawn-root detection.

The lint rules need two whole-project facts that no single-module pass can
provide:

* which functions are (transitively) **reachable from an async body** —
  i.e. run on X10 worker threads rather than the driver thread; and
* which functions feed **shuffle-plan / replay ordering**.

Python has no static types here, so the graph is built by *bare-name
matching*: a call ``foo(...)`` or ``anything.foo(...)`` is an edge to every
known function named ``foo``.  That over-approximates (two unrelated
``get`` methods alias), which is the right failure mode for a lint — a
false edge can only make the rules *more* suspicious, never blind.

Spawn roots are found in two steps.  First the set of *spawn-like*
callables is computed to a fixpoint: it seeds with the X10/threading spawn
APIs (``async_at``, ``submit``, ...), adds every *closure factory* — a
function whose nested def calls one of its own parameters, the way
``bounded_task_fn`` wraps its ``task_fn`` argument — and grows with every
function that forwards one of its own parameters into a spawn-like call
(e.g. ``run_m3r_phase`` forwards its ``task_fn`` into ``bounded_task_fn``).  Second, every function-valued
argument at a call site of a spawn-like callable — a bare name, an
attribute like ``self._map_task_body``, a ``functools.partial`` over one,
or the calls inside a ``lambda`` — marks the named functions as roots.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "SPAWN_APIS",
    "CallSite",
    "FunctionInfo",
    "CallGraph",
    "build_call_graph",
]

#: Callables that move their function-valued arguments onto worker threads.
SPAWN_APIS = frozenset(
    {
        "async_at",
        "async_local",
        "finish",
        "finish_collect",
        "submit",
        "Thread",
        "bounded_task_fn",
    }
)


@dataclass
class CallSite:
    """One call inside a function body: callee bare name + argument names."""

    callee: str
    #: Bare names of function-ish arguments (Name ids, Attribute attrs,
    #: ``partial``'s target, names called inside a lambda argument).
    arg_names: List[str] = field(default_factory=list)
    #: Arguments that are (syntactically) parameters of the enclosing
    #: function — used for the spawn-forwarder fixpoint.
    param_args: List[str] = field(default_factory=list)
    #: Structured view for the dataflow layer: the bare Name id of each
    #: positional argument (``None`` for anything more complex) ...
    pos_args: List[Optional[str]] = field(default_factory=list)
    #: ... and of each keyword argument, keyed by keyword.
    kw_args: Dict[str, Optional[str]] = field(default_factory=dict)
    #: ``obj.method(...)`` rather than ``fn(...)`` — the dataflow layer
    #: offsets positional→parameter alignment past ``self``/``cls``.
    is_attribute_call: bool = False
    #: The call expression itself (line/col for findings).
    node: Optional[ast.Call] = None


@dataclass
class FunctionInfo:
    """Everything the rules need to know about one function definition."""

    name: str
    qualname: str
    relpath: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    params: List[str]
    callees: Set[str] = field(default_factory=set)
    call_sites: List[CallSite] = field(default_factory=list)
    #: True when a *nested* def/lambda calls one of this function's own
    #: parameters — the closure-factory pattern (``bounded_task_fn`` wraps
    #: ``task_fn``); whatever is passed in may end up on a worker thread.
    wraps_params: bool = False


def _callee_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _function_arg_names(arg: ast.expr) -> List[str]:
    """Bare names an argument expression could contribute as a callable."""
    if isinstance(arg, ast.Name):
        return [arg.id]
    if isinstance(arg, ast.Attribute):
        return [arg.attr]
    if isinstance(arg, ast.Lambda):
        # The lambda body runs on the worker thread: every function it
        # calls is effectively spawned.
        names: List[str] = []
        for node in ast.walk(arg.body):
            if isinstance(node, ast.Call):
                name = _callee_name(node.func)
                if name:
                    names.append(name)
        return names
    if isinstance(arg, ast.Call) and _callee_name(arg.func) == "partial":
        names = []
        for inner in arg.args[:1]:
            names.extend(_function_arg_names(inner))
        return names
    return []


def _param_names(node: ast.AST) -> List[str]:
    args = node.args
    params = [a.arg for a in getattr(args, "posonlyargs", [])]
    params += [a.arg for a in args.args]
    if args.vararg:
        params.append(args.vararg.arg)
    params += [a.arg for a in args.kwonlyargs]
    if args.kwarg:
        params.append(args.kwarg.arg)
    return params


class _FunctionCollector(ast.NodeVisitor):
    """Collect every function definition in a module, with qualnames."""

    def __init__(self, relpath: str):
        self.relpath = relpath
        self.functions: List[FunctionInfo] = []
        self._scope: List[str] = []

    def _visit_function(self, node: ast.AST) -> None:
        qualname = ".".join(self._scope + [node.name])
        info = FunctionInfo(
            name=node.name,
            qualname=qualname,
            relpath=self.relpath,
            node=node,
            params=_param_names(node),
        )
        param_set = set(info.params)
        for child in ast.walk(node):
            if not isinstance(child, ast.Call):
                continue
            callee = _callee_name(child.func)
            if not callee:
                continue
            info.callees.add(callee)
            site = CallSite(
                callee=callee,
                is_attribute_call=isinstance(child.func, ast.Attribute),
                node=child,
            )
            for arg in list(child.args) + [kw.value for kw in child.keywords]:
                names = _function_arg_names(arg)
                site.arg_names.extend(names)
                if isinstance(arg, ast.Name) and arg.id in param_set:
                    site.param_args.append(arg.id)
            for arg in child.args:
                site.pos_args.append(arg.id if isinstance(arg, ast.Name) else None)
            for kw in child.keywords:
                if kw.arg is not None:
                    site.kw_args[kw.arg] = (
                        kw.value.id if isinstance(kw.value, ast.Name) else None
                    )
            info.call_sites.append(site)
        for child in ast.walk(node):
            if child is node or not isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            for inner in ast.walk(child):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id in param_set
                ):
                    info.wraps_params = True
                    break
            if info.wraps_params:
                break
        self.functions.append(info)
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()


class CallGraph:
    """All functions in the project plus spawn-root / reachability queries."""

    def __init__(self, functions: List[FunctionInfo]):
        self.functions = functions
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        for fn in functions:
            self.by_name.setdefault(fn.name, []).append(fn)
        self._spawn_like = self._compute_spawn_like()
        self._spawn_roots = self._compute_spawn_roots()

    # -- spawn analysis --------------------------------------------------- #

    def _compute_spawn_like(self) -> Set[str]:
        spawn_like = set(SPAWN_APIS)
        # Closure factories — a nested def calls one of the outer function's
        # parameters — wrap callables the way ``bounded_task_fn`` does; the
        # wrapped function may run wherever the closure is spawned.
        for fn in self.functions:
            if fn.wraps_params:
                spawn_like.add(fn.name)
        changed = True
        while changed:
            changed = False
            for fn in self.functions:
                if fn.name in spawn_like:
                    continue
                for site in fn.call_sites:
                    if site.callee in spawn_like and site.param_args:
                        spawn_like.add(fn.name)
                        changed = True
                        break
        return spawn_like

    def _compute_spawn_roots(self) -> Set[str]:
        roots: Set[str] = set()
        for fn in self.functions:
            for site in fn.call_sites:
                if site.callee not in self._spawn_like:
                    continue
                for name in site.arg_names:
                    if name in self.by_name:
                        roots.add(name)
        return roots

    @property
    def spawn_like(self) -> Set[str]:
        return set(self._spawn_like)

    @property
    def spawn_roots(self) -> Set[str]:
        return set(self._spawn_roots)

    # -- reachability ------------------------------------------------------ #

    def reachable_from(self, root_names: Iterable[str]) -> Set[str]:
        """Names of functions reachable from ``root_names`` via bare-name
        call edges (the roots themselves included when known)."""
        seen: Set[str] = set()
        frontier = [name for name in root_names if name in self.by_name]
        seen.update(frontier)
        while frontier:
            name = frontier.pop()
            for fn in self.by_name.get(name, []):
                for callee in fn.callees:
                    if callee in self.by_name and callee not in seen:
                        seen.add(callee)
                        frontier.append(callee)
        return seen

    def functions_named(self, names: Iterable[str]) -> List[FunctionInfo]:
        out: List[FunctionInfo] = []
        for name in names:
            out.extend(self.by_name.get(name, []))
        return out


def build_call_graph(
    modules: Sequence[Tuple[str, ast.Module]]
) -> CallGraph:
    """Build the project call graph from ``(relpath, tree)`` pairs."""
    functions: List[FunctionInfo] = []
    for relpath, tree in modules:
        collector = _FunctionCollector(relpath)
        collector.visit(tree)
        functions.extend(collector.functions)
    return CallGraph(functions)
