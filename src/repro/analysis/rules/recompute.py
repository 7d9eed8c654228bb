"""No per-candidate whole-order recomputation inside ``# hot-loop`` loops.

``reachable_from``, ``reachable_counts`` and ``r_scores`` each walk a
whole deletion order: the first runs the order-respecting DFS behind
``rf(x)``, the second sweeps the order DAG once for a whole batch of
sources, the third fills the r-score DP table for every shell vertex.
Calling any of them *per iteration of a hot loop* multiplies an
order-sized cost by the loop's trip count — the exact pattern the batched
sweep and the per-side r-score table exist to remove.  Collect the
candidates in the loop and make one ``reachable_counts`` call for all of
them after it.

This rule flags calls to any of these functions (by name, bare or
attribute) whose call site sits inside a loop marked ``# hot-loop``.
Legitimate call sites — a loop whose trip count is provably tiny — opt out
with ``# repro: ignore[recompute]`` on the call line, which doubles as an
in-source marker that someone thought about the cost.

Like the hot-path rule, this is an opt-in contract: loops without the
pragma are never inspected.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.context import ModuleContext
from repro.analysis.registry import AnalysisRule, register
from repro.analysis.violations import Violation

__all__ = ["RecomputeRule"]

#: Whole-order functions: each call costs O(|order|) or worse.
_EXPENSIVE = ("reachable_from", "reachable_counts", "r_scores")


def _callee_name(node: ast.Call) -> str:
    """Terminal name of the callee: ``f(...)`` -> f, ``m.f(...)`` -> f."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


@register
class RecomputeRule(AnalysisRule):
    """Flag whole-order recomputation inside ``# hot-loop`` marked loops."""

    name = "recompute"
    description = ("no reachable_from / reachable_counts / r_scores calls "
                   "inside # hot-loop loops; batch the misses or hoist the "
                   "table")

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        if not ctx.hot_loop_spans:
            return
        out: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _callee_name(node)
            if name not in _EXPENSIVE:
                continue
            if not ctx.in_hot_loop(node.lineno):
                continue
            out.append(self.violation(
                ctx, node.lineno, node.col_offset,
                "%s() walks a whole deletion order and is called inside a "
                "# hot-loop; collect the candidates and make one "
                "reachable_counts call for all of them after the loop (or "
                "hoist the table), and mark a sanctioned call with "
                "'# repro: ignore[recompute]'" % name))
        for v in sorted(out):
            yield v
