"""``ordering-flow``: unordered values must not reach ordered output.

The byte-identity contract — serial, parallel, memoized, and resumed
campaigns all export identical canonical JSON — only holds while nothing
hash-ordered or filesystem-ordered leaks into anchor selection,
tie-breaking, or the writers.  The per-module ``determinism`` rule catches
*local* bare-set iteration in the algorithm packages; this rule is the
whole-program generalization, a taint analysis over the project call
graph:

* **Sources** — values of arbitrary order: set displays/comprehensions,
  ``set()``/``frozenset()`` calls, set-algebra results, filesystem
  enumeration (``os.listdir``, ``os.scandir``, ``glob.glob``/``iglob``,
  ``Path.iterdir``/``Path.glob``), and the shared-context table accessors
  of the batch substrate (``base_core()``/``seed_tables()`` — the base
  core is a *set* of vertices with no defined order, and a seed is a
  side-keyed map, so a per-campaign loop over them must sanitize
  first).  Calls to *producer* functions — any function in the
  program whose return value is unordered, computed to a fixpoint across
  modules — are sources too; that is what makes the analysis
  interprocedural.
* **Sanitizers** — ``sorted()`` first of all, plus order-insensitive
  aggregations (``len``/``min``/``max``/``sum``/``any``/``all``) and the
  registered canonicalizers in :data:`CANONICALIZERS`, which sort or
  reduce internally (e.g. ``canonical_result_dict`` sorts follower sets
  before serializing).
* **Sinks** — a ``for`` loop over a tainted value inside the
  byte-identity-critical packages *when the loop body is
  order-sensitive* (appends to a list, selects/carries a value across
  iterations, returns, or calls anything not known to commute), and
  passing a tainted value into a registered byte-identity sink
  (:data:`SINKS`: the canonical JSON/CSV writers, checkpoint
  construction, ``json.dump(s)``, ``str.join``) anywhere in the tree.

Loops whose bodies only perform commuting work — keyed stores
(``numbers[v] = k``), ``set.add``/``discard``, ``|=``-style accumulation,
``count += 1`` — consume unordered values without observing their order
and are not flagged.  List/generator comprehensions over a tainted
source *propagate* the taint (the list's order is the set's order)
rather than flagging at the build site; ``pool.sort()`` or rebinding
through ``sorted()`` clears it.

Known imprecision (see ``docs/ANALYSIS.md``): parameters and attributes
are assumed clean, methods resolve only through ``self``, and dict
iteration is deliberately *not* a source — dicts preserve insertion order
on every supported Python, so a dict built deterministically iterates
deterministically.  The order-sensitivity classifier assumes keyed
writes hit distinct keys and that ``+=`` of non-constants may reorder
float accumulation (flagged).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.astutils import dotted_name
from repro.analysis.context import ModuleContext
from repro.analysis.flow.callgraph import resolve_call
from repro.analysis.flow.program import FlowRule, ProgramContext
from repro.analysis.flow.symbols import FunctionInfo
from repro.analysis.registry import register
from repro.analysis.violations import Violation

__all__ = ["OrderingFlowRule", "CANONICALIZERS", "SINKS"]

#: Qualified callables that may safely consume unordered values: they sort,
#: hash order-insensitively, or reduce before anything ordered escapes.
CANONICALIZERS = frozenset({
    "repro.experiments.export.result_to_dict",
    "repro.experiments.export.canonical_result_dict",
    "repro.resilience.checkpoint.graph_fingerprint",
    "repro.core.anchor_set.AnchorSetMaintainer.offer",
})

#: Qualified callables whose argument order becomes observable bytes.
SINKS = frozenset({
    "json.dump",
    "json.dumps",
    "repro.experiments.export.write_json",
    "repro.experiments.export.write_csv",
    "repro.resilience.atomic.atomic_write_text",
    "repro.resilience.checkpoint.CampaignCheckpoint.__init__",
})

#: Packages where *iterating* a tainted value is itself a violation (their
#: iteration order feeds deletion orders, reductions, or exports).
_ORDER_CRITICAL_PACKAGES = (
    "repro.abcore", "repro.core", "repro.parallel",
    "repro.experiments", "repro.resilience", "repro.bigraph",
)

#: Filesystem enumeration callables, by resolved name.
_FS_SOURCES = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
})
#: Unordered-returning method names (matched on any receiver).
_FS_SOURCE_METHODS = frozenset({"iterdir", "glob", "rglob"})
#: Shared-context table accessors (matched on any receiver): the batch
#: substrate's (α,β)-invariant tables — base core, seeded ranked lists
#: keyed by side — are a set and maps with no defined order.  A campaign
#: iterating one order-sensitively must sort first, exactly like any
#: other set (see ``repro.core.batch``).
_CONTEXT_SOURCE_METHODS = frozenset({"base_core", "seed_tables"})

#: Builtins whose result is a new set regardless of input.
_SET_BUILTINS = frozenset({"set", "frozenset"})
#: Builtins/calls that preserve their argument's (arbitrary) order.
_PROPAGATORS = frozenset({"list", "tuple", "iter", "enumerate", "zip",
                          "reversed", "filter", "map"})
#: Builtins that reduce an iterable order-insensitively.
_REDUCERS = frozenset({"sorted", "len", "min", "max", "sum", "any", "all"})
#: Set methods returning another unordered set.
_SET_METHODS = frozenset({"union", "intersection", "difference",
                          "symmetric_difference", "copy"})

#: AugAssign operators that commute (safe accumulation from any order).
_COMMUTATIVE_OPS = (ast.BitOr, ast.BitAnd, ast.BitXor)
#: Method calls allowed as bare statements in an order-insensitive loop.
_ACCUMULATOR_METHODS = frozenset({"add", "discard", "remove"})


def _target_names(target: ast.expr) -> set:
    """Plain names bound by an assignment/loop target."""
    names = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _references(node: Optional[ast.AST], names: set) -> bool:
    if node is None:
        return False
    return any(isinstance(sub, ast.Name) and sub.id in names
               for sub in ast.walk(node))


def _order_sensitive_stmt(loop: ast.stmt) -> Optional[ast.stmt]:
    """First statement making ``loop``'s body observe iteration order.

    ``None`` means every statement commutes: keyed stores, set
    accumulation, commutative aug-assignment, per-iteration temps, and
    control flow recursing into the same checks.  Anything else — list
    appends, conditional carries of the loop variable, returns/yields,
    arbitrary calls — makes the element order observable.
    """
    loop_vars = _target_names(loop.target)  # type: ignore[attr-defined]
    body = list(loop.body) + list(loop.orelse)  # type: ignore[attr-defined]
    return _scan_body(body, loop_vars, depth=0)


def _scan_body(stmts: List[ast.stmt], loop_vars: set,
               depth: int) -> Optional[ast.stmt]:
    known = set(loop_vars)
    for stmt in stmts:
        hit = _scan_stmt(stmt, known, depth)
        if hit is not None:
            return hit
    return None


def _scan_stmt(stmt: ast.stmt, loop_vars: set,
               depth: int) -> Optional[ast.stmt]:
    if isinstance(stmt, (ast.Pass, ast.Break, ast.Continue, ast.Raise,
                         ast.Assert, ast.Global, ast.Nonlocal)):
        return None
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        for target in targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                continue  # keyed/attribute store: commutes over keys
            names = _target_names(target)
            if not names:
                return stmt
            if depth == 0:
                # Re-assigned every iteration: a per-iteration temp.
                loop_vars |= names
            elif _references(getattr(stmt, "value", None), loop_vars):
                return stmt  # conditional carry: selection/tie-breaking
        return None
    if isinstance(stmt, ast.AugAssign):
        if isinstance(stmt.target, (ast.Subscript, ast.Attribute)):
            return None
        if isinstance(stmt.op, _COMMUTATIVE_OPS):
            return None
        if isinstance(stmt.value, ast.Constant):
            return None  # count += 1
        if not _references(stmt.value, loop_vars):
            return None  # accumulates the same value each round
        return stmt
    if isinstance(stmt, ast.Expr):
        value = stmt.value
        if isinstance(value, ast.Constant):
            return None
        if isinstance(value, ast.Call) \
                and isinstance(value.func, ast.Attribute) \
                and value.func.attr in _ACCUMULATOR_METHODS:
            return None
        return stmt
    if isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            if not isinstance(target, (ast.Subscript, ast.Name)):
                return stmt
        return None
    if isinstance(stmt, ast.If):
        return _scan_body(list(stmt.body) + list(stmt.orelse), loop_vars,
                          depth + 1)
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        inner = loop_vars | _target_names(stmt.target)
        return _scan_body(list(stmt.body) + list(stmt.orelse), inner,
                          depth + 1)
    if isinstance(stmt, ast.While):
        return _scan_body(list(stmt.body) + list(stmt.orelse), loop_vars,
                          depth + 1)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return _scan_body(list(stmt.body), loop_vars, depth)
    if isinstance(stmt, ast.Try):
        hit = _scan_body(list(stmt.body) + list(stmt.finalbody),
                         loop_vars, depth)
        if hit is not None:
            return hit
        handler_body: List[ast.stmt] = list(stmt.orelse)
        for handler in stmt.handlers:
            handler_body.extend(handler.body)
        return _scan_body(handler_body, loop_vars, depth + 1)
    return stmt  # Return/Yield/unknown: order observable


@dataclass
class _Taint:
    """Provenance of one unordered value, for messages."""

    origin: str

    def via(self, producer: str) -> "_Taint":
        return _Taint("%s (via %s)" % (self.origin, producer))


class _FunctionFlow:
    """Local taint evaluation for one function body."""

    def __init__(self, info: FunctionInfo, program: ProgramContext,
                 producers: Dict[str, _Taint]) -> None:
        self.info = info
        self.program = program
        self.producers = producers
        self.returns_taint: Optional[_Taint] = None
        self.violations: List[Tuple[int, int, str]] = []

    # -- expression-level taint ----------------------------------------

    def taint_of(self, node: Optional[ast.expr],
                 env: Dict[str, _Taint]) -> Optional[_Taint]:
        if node is None:
            return None
        if isinstance(node, (ast.Set, ast.SetComp)):
            return _Taint("a set built at line %d" % node.lineno)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            # A list/generator/dict built over an unordered source carries
            # the source's arbitrary order; propagate rather than flag.
            for gen in node.generators:
                hit = self.taint_of(gen.iter, env)
                if hit is not None:
                    return hit
            return None
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Call):
            return self._call_taint(node, env)
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return (self.taint_of(node.left, env)
                    or self.taint_of(node.right, env))
        if isinstance(node, ast.IfExp):
            return (self.taint_of(node.body, env)
                    or self.taint_of(node.orelse, env))
        if isinstance(node, ast.Starred):
            return self.taint_of(node.value, env)
        if isinstance(node, ast.NamedExpr):
            return self.taint_of(node.value, env)
        return None

    def _call_taint(self, node: ast.Call,
                    env: Dict[str, _Taint]) -> Optional[_Taint]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _SET_BUILTINS:
                return _Taint("%s() at line %d" % (func.id, node.lineno))
            if func.id in _REDUCERS:
                return None  # sanitized
            if func.id in _PROPAGATORS:
                for arg in node.args:
                    hit = self.taint_of(arg, env)
                    if hit is not None:
                        return hit
                return None
        if isinstance(func, ast.Attribute):
            # tainted.union(...) etc. stays tainted; x.keys() is NOT a
            # source (dicts iterate in insertion order on py>=3.7).
            if func.attr in _SET_METHODS:
                hit = self.taint_of(func.value, env)
                if hit is not None:
                    return hit
            if func.attr in _FS_SOURCE_METHODS:
                return _Taint("%s() at line %d (filesystem order)"
                              % (func.attr, node.lineno))
            if func.attr in _CONTEXT_SOURCE_METHODS:
                return _Taint("%s() at line %d (shared-context table)"
                              % (func.attr, node.lineno))
        resolved, text = resolve_call(node, self.info,
                                      self.program.symbols)
        qualified = resolved or self._resolved_text(text)
        if qualified in _FS_SOURCES:
            return _Taint("%s() at line %d (filesystem order)"
                          % (qualified, node.lineno))
        if qualified in CANONICALIZERS:
            return None
        if resolved is not None and resolved in self.producers:
            return self.producers[resolved].via(
                "%s()" % text if text else resolved)
        return None

    def _resolved_text(self, text: str) -> str:
        resolved = self.program.symbols.resolve(self.info.module, text)
        return resolved if resolved is not None else text

    # -- statement walk ------------------------------------------------

    def run(self, report: bool) -> None:
        """Walk the body once; collect returns and (optionally) findings."""
        body = self.info.node.body  # type: ignore[attr-defined]
        self._walk(list(body), {}, report)

    def _walk(self, body: List[ast.stmt], env: Dict[str, _Taint],
              report: bool) -> None:
        for stmt in body:
            self._statement(stmt, env, report)

    def _statement(self, stmt: ast.AST, env: Dict[str, _Taint],
                   report: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Closures see the enclosing taint but bind their own scope,
            # and what they return is not the enclosing function's return.
            returns_taint = self.returns_taint
            self._walk(list(stmt.body), dict(env), report)
            self.returns_taint = returns_taint
            return
        if isinstance(stmt, ast.ClassDef):
            self._walk(list(stmt.body), dict(env), report)
            return
        if isinstance(stmt, ast.Assign):
            taint = self.taint_of(stmt.value, env)
            self._check_expr(stmt.value, env, report)
            for target in stmt.targets:
                self._bind(target, taint, env)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                taint = self.taint_of(stmt.value, env)
                self._check_expr(stmt.value, env, report)
                self._bind(stmt.target, taint, env)
            return
        if isinstance(stmt, ast.AugAssign):
            taint = self.taint_of(stmt.value, env)
            self._check_expr(stmt.value, env, report)
            if isinstance(stmt.target, ast.Name) and taint is not None:
                env.setdefault(stmt.target.id, taint)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._check_expr(stmt.iter, env, report)
            taint = self.taint_of(stmt.iter, env)
            if taint is not None and report and self._order_critical():
                offender = _order_sensitive_stmt(stmt)
                if offender is not None:
                    self._flag(
                        stmt.iter, taint,
                        "iterated by an order-sensitive loop (line %d "
                        "observes element order)" % offender.lineno)
            # Loop variables inherit element-level order, not set-ness.
            self._bind(stmt.target, None, env)
            self._walk(list(stmt.body), env, report)
            self._walk(list(stmt.orelse), env, report)
            return
        if isinstance(stmt, ast.Expr):
            value = stmt.value
            if isinstance(value, ast.Call) \
                    and isinstance(value.func, ast.Attribute) \
                    and value.func.attr == "sort" \
                    and isinstance(value.func.value, ast.Name):
                # In-place sort canonicalizes the list.
                env.pop(value.func.value.id, None)
            self._check_expr(value, env, report)
            return
        if isinstance(stmt, ast.Return):
            self._check_expr(stmt.value, env, report)
            taint = self.taint_of(stmt.value, env)
            if taint is not None and self.returns_taint is None:
                self.returns_taint = taint
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._check_expr(item.context_expr, env, report)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars,
                               self.taint_of(item.context_expr, env), env)
            self._walk(list(stmt.body), env, report)
            return
        # Generic statement: recurse into child statements with the same
        # env and check any expressions hanging off this node.  Except
        # handlers are neither stmt nor expr; unwrap them explicitly.
        for field_value in ast.iter_child_nodes(stmt):
            if isinstance(field_value, ast.stmt):
                self._statement(field_value, env, report)
            elif isinstance(field_value, ast.expr):
                self._check_expr(field_value, env, report)
            elif isinstance(field_value, ast.excepthandler):
                self._walk(list(field_value.body), env, report)

    def _bind(self, target: ast.expr, taint: Optional[_Taint],
              env: Dict[str, _Taint]) -> None:
        if isinstance(target, ast.Name):
            if taint is None:
                env.pop(target.id, None)
            else:
                env[target.id] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, taint, env)

    # -- expression checks (iteration in comprehensions, sink calls) ---

    def _check_expr(self, node: Optional[ast.expr], env: Dict[str, _Taint],
                    report: bool) -> None:
        if node is None or not report:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._check_sink(sub, env)

    def _check_sink(self, node: ast.Call, env: Dict[str, _Taint]) -> None:
        func = node.func
        sink_name: Optional[str] = None
        if isinstance(func, ast.Attribute) and func.attr == "join":
            sink_name = "str.join"
        else:
            resolved, text = resolve_call(node, self.info,
                                          self.program.symbols)
            qualified = resolved or self._resolved_text(text)
            if qualified in SINKS:
                sink_name = text or qualified
        if sink_name is None:
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            taint = self.taint_of(arg, env)
            if taint is not None:
                self._flag(arg, taint,
                           "passed into byte-identity sink %s()"
                           % sink_name)

    def _order_critical(self) -> bool:
        return self.info.ctx.in_package(*_ORDER_CRITICAL_PACKAGES)

    def _flag(self, node: ast.expr, taint: _Taint, action: str) -> None:
        self.violations.append((
            node.lineno, node.col_offset,
            "unordered value — %s — %s without sorted() or a registered "
            "canonicalizer; hash/filesystem order would leak into "
            "byte-identical output" % (taint.origin, action)))


@register
class OrderingFlowRule(FlowRule):
    """Interprocedural determinism dataflow over the project call graph."""

    name = "ordering-flow"
    description = ("unordered values (sets, listdir/glob, unordered-"
                   "returning calls) must be sorted before iteration or "
                   "byte-identity sinks")

    def check_program(self,
                      program: ProgramContext) -> Iterator[Violation]:
        producers = self._producer_fixpoint(program)
        out: List[Violation] = []
        for info in program.symbols.iter_functions():
            flow = _FunctionFlow(info, program, producers)
            flow.run(report=True)
            for line, col, message in flow.violations:
                out.append(Violation(path=str(info.ctx.path), line=line,
                                     col=col, rule=self.name,
                                     message=message))
        for v in sorted(set(out)):
            yield v

    @staticmethod
    def _producer_fixpoint(program: ProgramContext) -> Dict[str, _Taint]:
        """Functions whose return value is unordered, to a fixpoint."""
        producers: Dict[str, _Taint] = {}
        changed = True
        while changed:
            changed = False
            for info in program.symbols.iter_functions():
                if info.qualname in producers:
                    continue
                flow = _FunctionFlow(info, program, producers)
                flow.run(report=False)
                if flow.returns_taint is not None:
                    producers[info.qualname] = _Taint(
                        "unordered return of %s" % info.qualname)
                    changed = True
        return producers
