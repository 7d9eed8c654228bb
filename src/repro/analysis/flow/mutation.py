"""``shared-mutation``: no writes to arrays borrowed from the graph.

``adjacency_arrays()`` and ``attach_shared_graph()`` hand out *views* of
the CSR buffers — in the parallel path literally the same ``/dev/shm``
pages every worker reads.  A write through such a view corrupts the graph
for every other consumer, silently and non-deterministically.  Ownership
stays with ``repro.bigraph``; everyone else borrows read-only.

The rule taints locals bound (directly or through the producer fixpoint)
to :data:`SHARED_SOURCES`, follows derivation through value-preserving
operations (``np.asarray``/``np.frombuffer``/``memoryview``, subscripts,
tuple unpacking, attribute access), and flags:

* subscript stores (``arr[i] = v``) and ``del arr[i]``;
* augmented assignment with a tainted target (``arr += x``, in-place);
* calls to mutating methods (:data:`MUTATING_METHODS`);
* ``setflags(write=True)`` — explicitly re-arming a borrowed view.

Copies break the taint: ``.copy()``, ``.astype()``, ``.tolist()``,
``list()``/``bytes()`` conversion, ``sorted()``, and arithmetic (numpy
binary ops allocate fresh output).  ``x.setflags(write=False)`` is the
sanctioned export idiom and is never flagged.

Modules under ``repro.bigraph`` are exempt — they own the buffers and
must write them during construction.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.flow.callgraph import resolve_call
from repro.analysis.flow.program import FlowRule, ProgramContext
from repro.analysis.flow.symbols import FunctionInfo
from repro.analysis.registry import register
from repro.analysis.violations import Violation

__all__ = ["SharedMutationRule", "SHARED_SOURCES", "MUTATING_METHODS"]

#: Resolved callables returning views of shared graph storage.
SHARED_SOURCES = frozenset({
    "repro.bigraph.csr.adjacency_arrays",
    "repro.bigraph.adjacency_arrays",
    "repro.bigraph.shm.attach_shared_graph",
})

#: ndarray / array.array / memoryview methods that mutate in place.
MUTATING_METHODS = frozenset({
    "fill", "put", "sort", "partition", "itemset", "setfield", "resize",
    "append", "extend", "insert", "remove", "pop", "clear", "reverse",
    "frombytes", "fromlist", "fromunicode", "byteswap",
})

#: Wrappers that preserve identity with the underlying buffer.
_VIEW_WRAPPERS = frozenset({
    "numpy.asarray", "numpy.frombuffer", "numpy.ascontiguousarray",
    "memoryview", "iter", "enumerate", "reversed", "zip",
})

#: Conversions/copies that detach from the shared buffer.
_COPYING_CALLS = frozenset({
    "numpy.array", "numpy.copy", "list", "tuple", "bytes", "bytearray",
    "sorted", "set", "frozenset", "sum", "min", "max", "len",
})

_COPYING_METHODS = frozenset({"copy", "astype", "tolist", "tobytes"})

_EXEMPT_PREFIX = "repro.bigraph"


class _FunctionMutation:
    """Taint + write detection for one function body."""

    def __init__(self, info: FunctionInfo, program: ProgramContext,
                 producers: Set[str]) -> None:
        self.info = info
        self.program = program
        self.producers = producers
        self.tainted: Set[str] = set()
        self.findings: List[Tuple[int, int, str]] = []
        self.returns_shared = False
        self._run()

    # -- call resolution ------------------------------------------------

    def _qualify(self, node: ast.Call) -> Optional[str]:
        resolved, text = resolve_call(node, self.info,
                                      self.program.symbols)
        if resolved is not None:
            return resolved
        if text:
            return self.program.symbols.resolve(self.info.module,
                                                text) or text
        return None

    def _is_source_call(self, node: ast.Call) -> bool:
        qualified = self._qualify(node)
        if qualified is None:
            return False
        return qualified in SHARED_SOURCES or qualified in self.producers

    # -- expression taint ----------------------------------------------

    def _is_shared(self, node: Optional[ast.expr]) -> bool:
        if node is None:
            return False
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Subscript):
            return self._is_shared(node.value)
        if isinstance(node, ast.Attribute):
            return self._is_shared(node.value)
        if isinstance(node, ast.Starred):
            return self._is_shared(node.value)
        if isinstance(node, ast.IfExp):
            return self._is_shared(node.body) or self._is_shared(
                node.orelse)
        if isinstance(node, (ast.Tuple, ast.List)):
            return any(self._is_shared(e) for e in node.elts)
        if isinstance(node, ast.NamedExpr):
            return self._is_shared(node.value)
        if isinstance(node, ast.Call):
            if self._is_source_call(node):
                return True
            qualified = self._qualify(node)
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in _COPYING_METHODS:
                return False
            if qualified in _COPYING_CALLS:
                return False
            if qualified in _VIEW_WRAPPERS:
                return any(self._is_shared(a) for a in node.args)
            return False
        return False

    # -- walk -----------------------------------------------------------

    def _run(self) -> None:
        body = self.info.node.body  # type: ignore[attr-defined]
        for stmt in body:
            self._statement(stmt)

    def _bind(self, target: ast.expr, shared: bool) -> None:
        if isinstance(target, ast.Name):
            if shared:
                self.tainted.add(target.id)
            else:
                self.tainted.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                inner = element.value if isinstance(
                    element, ast.Starred) else element
                self._bind(inner, shared)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes checked separately when indexed
        if isinstance(stmt, ast.Assign):
            shared = self._is_shared(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    self._check_store(target, stmt)
                else:
                    self._bind(target, shared)
            self._scan_calls(stmt.value)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                if isinstance(stmt.target, ast.Subscript):
                    self._check_store(stmt.target, stmt)
                else:
                    self._bind(stmt.target, self._is_shared(stmt.value))
                self._scan_calls(stmt.value)
            return
        if isinstance(stmt, ast.AugAssign):
            target = stmt.target
            if isinstance(target, ast.Subscript):
                self._check_store(target, stmt)
            elif isinstance(target, ast.Name) \
                    and target.id in self.tainted:
                self.findings.append(
                    (stmt.lineno, stmt.col_offset,
                     "in-place operator on '%s', a view of shared graph "
                     "storage; copy it first (.copy()) or compute into "
                     "a fresh array" % target.id))
            self._scan_calls(stmt.value)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript) \
                        and self._is_shared(target.value):
                    self.findings.append(
                        (stmt.lineno, stmt.col_offset,
                         "del through a view of shared graph storage"))
                elif isinstance(target, ast.Name):
                    self.tainted.discard(target.id)
            return
        if isinstance(stmt, (ast.Return,)):
            if stmt.value is not None and self._is_shared(stmt.value):
                self.returns_shared = True
            self._scan_calls(stmt.value)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._is_shared(stmt.iter))
            self._scan_calls(stmt.iter)
            for s in stmt.body + stmt.orelse:
                self._statement(s)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_calls(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars,
                               self._is_shared(item.context_expr))
            for s in stmt.body:
                self._statement(s)
            return
        if isinstance(stmt, ast.Try):
            for s in stmt.body:
                self._statement(s)
            for handler in stmt.handlers:
                for s in handler.body:
                    self._statement(s)
            for s in stmt.orelse + stmt.finalbody:
                self._statement(s)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._scan_calls(stmt.test)
            for s in stmt.body + stmt.orelse:
                self._statement(s)
            return
        if isinstance(stmt, ast.Expr):
            self._scan_calls(stmt.value)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._statement(child)
            elif isinstance(child, ast.expr):
                self._scan_calls(child)

    # -- write detection ------------------------------------------------

    def _check_store(self, target: ast.Subscript,
                     stmt: ast.stmt) -> None:
        if self._is_shared(target.value):
            name = target.value.id if isinstance(
                target.value, ast.Name) else "a shared view"
            self.findings.append(
                (stmt.lineno, stmt.col_offset,
                 "subscript store into '%s', a view of shared graph "
                 "storage owned by repro.bigraph; borrowed CSR arrays "
                 "are read-only" % name))

    def _scan_calls(self, node: Optional[ast.expr]) -> None:
        if node is None:
            return
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if not isinstance(func, ast.Attribute):
                continue
            if not self._is_shared(func.value):
                continue
            if func.attr in MUTATING_METHODS:
                self.findings.append(
                    (sub.lineno, sub.col_offset,
                     ".%s() mutates a view of shared graph storage; "
                     "copy before modifying" % func.attr))
            elif func.attr == "setflags" and self._rearms_write(sub):
                self.findings.append(
                    (sub.lineno, sub.col_offset,
                     "setflags(write=True) re-arms writes on a view of "
                     "shared graph storage"))

    @staticmethod
    def _rearms_write(node: ast.Call) -> bool:
        for kw in node.keywords:
            if kw.arg == "write" and isinstance(kw.value, ast.Constant):
                return bool(kw.value.value)
        if node.args and isinstance(node.args[0], ast.Constant):
            return bool(node.args[0].value)
        return False


@register
class SharedMutationRule(FlowRule):
    """Writes through borrowed CSR/shared-graph views are forbidden."""

    name = "shared-mutation"
    description = ("arrays from adjacency_arrays()/attach_shared_graph "
                   "are borrowed read-only; no in-place writes outside "
                   "repro.bigraph")

    def check_program(self,
                      program: ProgramContext) -> Iterator[Violation]:
        producers = self._producer_fixpoint(program)
        out: List[Violation] = []
        for info in program.symbols.iter_functions():
            if info.module.startswith(_EXEMPT_PREFIX):
                continue
            checker = _FunctionMutation(info, program, producers)
            for line, col, message in checker.findings:
                out.append(Violation(path=str(info.ctx.path), line=line,
                                     col=col, rule=self.name,
                                     message=message))
        for v in sorted(set(out)):
            yield v

    @staticmethod
    def _producer_fixpoint(program: ProgramContext) -> Set[str]:
        """Functions whose return value is a shared-storage view."""
        producers: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for info in program.symbols.iter_functions():
                if info.qualname in producers:
                    continue
                if info.module.startswith(_EXEMPT_PREFIX):
                    continue  # bigraph's own exports are the seed list
                checker = _FunctionMutation(info, program, producers)
                if checker.returns_shared:
                    producers.add(info.qualname)
                    changed = True
        return producers
