"""``resource-lifecycle``: shared resources must be released on all paths.

A leaked ``SharedMemory`` segment outlives the campaign as a file in
``/dev/shm``; a leaked memmap or file handle pins its descriptor for the
life of a long-running service process.  This rule checks, path-sensitively,
that every acquisition of such a resource is tied to a release that also
runs on exception paths.

**Acquisitions** are calls resolving to :data:`RESOURCE_FACTORIES`
(``SharedMemory``, ``open``/``gzip.open``, ``mmap.mmap``,
``numpy.memmap``, ``tempfile.*``), to the repo's own handle factories
(``export_shared_graph``, ``attach_shared_graph``,
``create_sharded_evaluator``), or — the interprocedural part — to any
function in the program whose return value is an acquired resource
(computed to a fixpoint, so a local
``def _open_segment(...)`` wrapper is tracked like ``SharedMemory``
itself).

An acquisition is **accounted for** when one of these holds:

* it is the context expression of a ``with`` block (its ``__exit__``
  releases on every path);
* it is returned or yielded (ownership transfers to the caller, which
  this rule then checks in turn);
* it escapes — passed into a call (``segments.append(shm)``, wrapped in a
  handle class), stored into a container or subscript;
* it is assigned to ``self.<attr>`` of a class that defines a release
  method (``close``/``shutdown``/``release``/``__exit__``…) — looked up
  program-wide through the symbol table;
* it is assigned to a local whose release call
  (``.close()``/``.unlink()``/``.shutdown()``/``.terminate()``/
  ``.release()``/``.join()``) sits inside a ``finally`` block, or the
  enclosing function *is itself* a release method (``close`` and friends
  releasing what ``__init__`` acquired).

A release found only on the fall-through path is flagged as the
distinct — and historically most common — bug: the happy path cleans up,
the exception path leaks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.flow.callgraph import resolve_call
from repro.analysis.flow.program import FlowRule, ProgramContext
from repro.analysis.flow.symbols import FunctionInfo
from repro.analysis.registry import register
from repro.analysis.violations import Violation

__all__ = ["ResourceLifecycleRule", "RESOURCE_FACTORIES"]

#: Resolved callables that acquire a shared resource needing release.
RESOURCE_FACTORIES = frozenset({
    "multiprocessing.shared_memory.SharedMemory",
    "multiprocessing.shared_memory.SharedMemory.__init__",
    "open",
    "io.open",
    "gzip.open",
    "bz2.open",
    "lzma.open",
    "tempfile.TemporaryFile",
    "tempfile.NamedTemporaryFile",
    "mmap.mmap",
    "numpy.memmap",
    "multiprocessing.Pool",
    "concurrent.futures.ProcessPoolExecutor",
    "repro.bigraph.shm.export_shared_graph",
    "repro.bigraph.shm.attach_shared_graph",
    "repro.parallel.create_sharded_evaluator",
    "repro.parallel.evaluator.create_sharded_evaluator",
})

#: Method names that release a resource.
_RELEASERS = frozenset({"close", "unlink", "shutdown", "release",
                        "terminate", "join", "__exit__", "cleanup"})

#: Functions that *are* release/teardown paths: acquisitions they hand to
#: locals are usually re-wraps during cleanup; still checked, but their
#: own name counts as the release context.
_RELEASE_METHOD_NAMES = _RELEASERS | {"__del__", "stop"}


@dataclass
class _Acquisition:
    """One resource-acquiring call site and what became of it."""

    node: ast.Call
    factory: str
    #: Local name it was bound to, when a plain ``name = acquire()``.
    name: Optional[str] = None
    accounted: bool = False
    #: Release calls on ``name``: (in_finally, in_except_handler).
    releases: List[Tuple[bool, bool]] = field(default_factory=list)
    escaped: bool = False


def _parent_map(root: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


class _FunctionLifecycle:
    """Lifecycle accounting for the acquisitions of one function."""

    def __init__(self, info: FunctionInfo, program: ProgramContext,
                 producers: Set[str]) -> None:
        self.info = info
        self.program = program
        self.producers = producers
        self.parents = _parent_map(info.node)
        self.acquisitions: List[_Acquisition] = []
        self.returns_resource = False
        self._collect()

    # -- classification of each acquiring call -------------------------

    def _factory_of(self, node: ast.Call) -> Optional[str]:
        resolved, text = resolve_call(node, self.info,
                                      self.program.symbols)
        qualified = resolved
        if qualified is None and text:
            qualified = self.program.symbols.resolve(self.info.module,
                                                     text) or text
        if qualified is None:
            return None
        for candidate in (qualified, qualified + ".__init__"):
            if candidate in RESOURCE_FACTORIES:
                return qualified
        if qualified.endswith(".__init__") \
                and qualified[:-len(".__init__")] in RESOURCE_FACTORIES:
            return qualified[:-len(".__init__")]
        if qualified in self.producers:
            return qualified
        return None

    def _collect(self) -> None:
        for node in ast.walk(self.info.node):
            if not isinstance(node, ast.Call):
                continue
            factory = self._factory_of(node)
            if factory is None:
                continue
            if self._inside_lambda(node):
                continue  # a factory thunk; its caller owns the handle
            acq = _Acquisition(node=node, factory=factory)
            self._classify(acq)
            self.acquisitions.append(acq)
        self._track_locals()

    def _inside_lambda(self, node: ast.AST) -> bool:
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, ast.Lambda):
                return True
            current = self.parents.get(current)
        return False

    def _classify(self, acq: _Acquisition) -> None:
        """Decide what syntactic context the acquiring call sits in."""
        node: ast.AST = acq.node
        parent = self.parents.get(node)
        # Walk up through value-preserving wrappers (``closing(open(p))``
        # counts as the inner call escaping into the outer one).
        if isinstance(parent, ast.withitem):
            acq.accounted = True
            return
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            acq.accounted = True
            self.returns_resource = True
            return
        if isinstance(parent, ast.Call) and node is not parent.func:
            acq.accounted = True  # escapes as an argument
            return
        if isinstance(parent, ast.keyword):
            acq.accounted = True
            return
        if isinstance(parent, (ast.List, ast.Tuple, ast.Dict, ast.Set)):
            acq.accounted = True  # escapes into a container literal
            return
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            targets = (parent.targets if isinstance(parent, ast.Assign)
                       else [parent.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    acq.name = target.id
                elif isinstance(target, ast.Attribute):
                    acq.accounted = self._releasing_class(target)
                elif isinstance(target, ast.Subscript):
                    acq.accounted = True  # stored into a container
            return
        # Bare expression statement, conditions, comprehensions: the
        # handle is dropped on the floor.

    def _releasing_class(self, target: ast.Attribute) -> bool:
        """``self.x = acquire()``: does the owning class release?"""
        if not (isinstance(target.value, ast.Name)
                and target.value.id in ("self", "cls")):
            return False
        owner = self.info.owner_class
        if owner is None:
            return False
        cls_info = self.program.symbols.class_of(owner)
        return cls_info is not None and cls_info.has_method(*_RELEASERS)

    # -- local-name release tracking ------------------------------------

    def _track_locals(self) -> None:
        named = [a for a in self.acquisitions
                 if not a.accounted and a.name is not None]
        if not named:
            return
        by_name: Dict[str, List[_Acquisition]] = {}
        for acq in named:
            by_name.setdefault(acq.name or "", []).append(acq)
        finally_spans, except_spans = self._protected_spans()

        for node in ast.walk(self.info.node):
            if isinstance(node, ast.withitem) and isinstance(
                    node.context_expr, ast.Name):
                for acq in by_name.get(node.context_expr.id, ()):
                    acq.accounted = True  # later managed by a with block
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) \
                        and func.attr in _RELEASERS \
                        and isinstance(func.value, ast.Name) \
                        and func.value.id in by_name:
                    line = node.lineno
                    in_finally = any(s <= line <= e
                                     for s, e in finally_spans)
                    in_except = any(s <= line <= e
                                    for s, e in except_spans)
                    for acq in by_name[func.value.id]:
                        acq.releases.append((in_finally, in_except))
                    continue
                for arg in list(node.args) + [kw.value
                                              for kw in node.keywords]:
                    if isinstance(arg, ast.Name) and arg.id in by_name:
                        for acq in by_name[arg.id]:
                            acq.escaped = True
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = node.value
                names: List[str] = []
                if isinstance(value, ast.Name):
                    names = [value.id]
                elif isinstance(value, (ast.Tuple, ast.List)):
                    names = [e.id for e in value.elts
                             if isinstance(e, ast.Name)]
                for name in names:
                    if name in by_name:
                        for acq in by_name[name]:
                            acq.escaped = True
                        self.returns_resource = True
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = getattr(node, "value", None)
                if isinstance(value, ast.Name) and value.id in by_name:
                    targets = (node.targets
                               if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        if isinstance(target, (ast.Attribute,
                                               ast.Subscript)):
                            for acq in by_name[value.id]:
                                acq.escaped = True

    def _protected_spans(self) -> Tuple[List[Tuple[int, int]],
                                        List[Tuple[int, int]]]:
        """Line spans of every ``finally`` body and except-handler body."""
        finally_spans: List[Tuple[int, int]] = []
        except_spans: List[Tuple[int, int]] = []
        for node in ast.walk(self.info.node):
            if isinstance(node, ast.Try):
                if node.finalbody:
                    first = node.finalbody[0]
                    last = node.finalbody[-1]
                    finally_spans.append(
                        (first.lineno,
                         getattr(last, "end_lineno", last.lineno)
                         or last.lineno))
                for handler in node.handlers:
                    if handler.body:
                        first = handler.body[0]
                        last = handler.body[-1]
                        except_spans.append(
                            (first.lineno,
                             getattr(last, "end_lineno", last.lineno)
                             or last.lineno))
        return finally_spans, except_spans

    # -- verdicts -------------------------------------------------------

    def findings(self) -> Iterator[Tuple[int, int, str]]:
        release_context = self.info.name in _RELEASE_METHOD_NAMES
        for acq in self.acquisitions:
            if acq.accounted or acq.escaped or release_context:
                continue
            if acq.name is None:
                yield (acq.node.lineno, acq.node.col_offset,
                       "%s acquired but never bound or released; use a "
                       "with block (or bind it and release in a "
                       "try/finally)" % acq.factory)
                continue
            if not acq.releases:
                yield (acq.node.lineno, acq.node.col_offset,
                       "%s bound to '%s' is never released on any path; "
                       "use a with block or close/unlink it in a "
                       "try/finally" % (acq.factory, acq.name))
                continue
            in_finally = any(f for f, _ in acq.releases)
            in_except = any(e for _, e in acq.releases)
            on_happy_path = any(not f and not e for f, e in acq.releases)
            if in_finally or (in_except and on_happy_path):
                continue
            yield (acq.node.lineno, acq.node.col_offset,
                   "%s bound to '%s' is released only on the "
                   "non-exception path; move the release into a finally "
                   "block or use a with block" % (acq.factory, acq.name))


@register
class ResourceLifecycleRule(FlowRule):
    """Path-sensitive release checking for shared resources."""

    name = "resource-lifecycle"
    description = ("SharedMemory/memmap/pool/file acquisitions must be "
                   "released on all paths (with block or try/finally)")

    def check_program(self,
                      program: ProgramContext) -> Iterator[Violation]:
        producers = self._producer_fixpoint(program)
        out: List[Violation] = []
        for info in program.symbols.iter_functions():
            checker = _FunctionLifecycle(info, program, producers)
            for line, col, message in checker.findings():
                out.append(Violation(path=str(info.ctx.path), line=line,
                                     col=col, rule=self.name,
                                     message=message))
        for v in sorted(set(out)):
            yield v

    @staticmethod
    def _producer_fixpoint(program: ProgramContext) -> Set[str]:
        """Functions whose return value is a tracked resource."""
        producers: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for info in program.symbols.iter_functions():
                if info.qualname in producers:
                    continue
                checker = _FunctionLifecycle(info, program, producers)
                if checker.returns_resource:
                    producers.add(info.qualname)
                    changed = True
        return producers
