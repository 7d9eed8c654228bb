"""Budget minimization — the dual objective from the paper's related work.

Liu et al. (ICDE'21, the paper's reference [15]) study the *anchored k-core
budget minimization* problem: instead of maximizing followers under a fixed
budget, find the smallest anchor set achieving a target.  The bipartite
version is a natural operational question ("how many sponsorships until the
community reaches N members / until these users are retained?") and falls
out of the same filter–verification machinery:

* :func:`minimize_anchors_for_growth` — smallest greedy anchor set whose
  followers reach a target count;
* :func:`minimize_anchors_for_targets` — smallest greedy anchor set pulling
  a given set of *specific* vertices into the anchored core.

Both are greedy (the exact problems inherit NP-hardness) and return the full
:class:`AnchoredCoreResult` trace, with anchors in placement order so any
prefix is itself a valid (smaller) plan.
"""

from __future__ import annotations

import time
from typing import Collection, Iterable, List, Optional, Set

from repro.bigraph.graph import BipartiteGraph
from repro.bigraph.validation import check_vertex
from repro.core.deletion_order import r_scores
from repro.core.followers import compute_followers
from repro.core.order_maintenance import OrderState
from repro.core.result import AnchoredCoreResult, IterationRecord
from repro.exceptions import InvalidParameterError

__all__ = ["minimize_anchors_for_growth", "minimize_anchors_for_targets"]


def minimize_anchors_for_growth(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    target_followers: int,
    max_anchors: Optional[int] = None,
) -> AnchoredCoreResult:
    """Place greedy anchors until ``target_followers`` vertices joined.

    Stops early (with ``timed_out=False`` and fewer followers) when no
    remaining candidate can make progress; ``max_anchors`` caps the budget
    outright (default: the number of non-core vertices).
    """
    if target_followers < 0:
        raise InvalidParameterError("target_followers must be >= 0")
    return _greedy_until(graph, alpha, beta,
                         goal=lambda state, base: len(state.core)
                         - len(base) - len(state.anchors) >= target_followers,
                         max_anchors=max_anchors,
                         algorithm="budget-min(growth>=%d)" % target_followers)


def minimize_anchors_for_targets(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    targets: Collection[int],
    max_anchors: Optional[int] = None,
) -> AnchoredCoreResult:
    """Place greedy anchors until every target vertex is in the anchored core.

    Targets already in the base core are satisfied from the start.  The
    greedy scores candidates by how many *unsatisfied targets* they rescue
    (ties by total followers), anchoring a remaining target directly when no
    candidate rescues any — so the loop always terminates with all targets
    in the core (a target that cannot be rescued becomes an anchor, which by
    definition is in the core).
    """
    target_set = set(targets)
    for t in sorted(target_set):
        check_vertex(graph, t)
    return _greedy_until(
        graph, alpha, beta,
        goal=lambda state, base: target_set <= state.core | state.anchors,
        max_anchors=max_anchors,
        algorithm="budget-min(targets)",
        targets=target_set)


def _greedy_until(graph, alpha, beta, goal, max_anchors, algorithm,
                  targets: Optional[Set[int]] = None) -> AnchoredCoreResult:
    start = time.perf_counter()
    # Without maintenance every apply rebuilds the orders, so the pristine
    # core set is never mutated and the last one is the anchored core.
    state = OrderState(graph, alpha, beta, maintain=False)
    base_core = state.core
    iterations: List[IterationRecord] = []
    limit = max_anchors if max_anchors is not None \
        else graph.n_vertices - len(base_core)

    while not goal(state, base_core) and len(state.anchors) < limit:
        iter_start = time.perf_counter()
        chosen = _best_anchor(graph, state, targets)
        if chosen is None:
            break
        before = len(state.core)
        state.apply_anchor(chosen)
        iterations.append(IterationRecord(
            anchors=[chosen],
            marginal_followers=len(state.core) - before - 1,
            candidates_total=len(state.upper.entries())
            + len(state.lower.entries()),
            candidates_after_filter=-1, verifications=-1,
            elapsed=time.perf_counter() - iter_start))

    anchors = sorted(state.anchors)
    final_core = state.core
    ordered_anchors = [a for record in iterations for a in record.anchors]
    return AnchoredCoreResult(
        algorithm=algorithm, alpha=alpha, beta=beta,
        b1=sum(1 for a in anchors if graph.is_upper(a)),
        b2=sum(1 for a in anchors if graph.is_lower(a)),
        anchors=ordered_anchors,
        followers=final_core - base_core - set(anchors),
        base_core_size=len(base_core), final_core_size=len(final_core),
        elapsed=time.perf_counter() - start, iterations=iterations)


def _best_anchor(graph, state: OrderState,
                 targets: Optional[Set[int]]) -> Optional[int]:
    """One greedy step: the candidate with the most valuable follower set.

    Ties go to the first candidate met: upper candidates before lower,
    each side in increasing id."""
    best = None
    best_key = (0, 0)
    for order in (state.upper, state.lower):
        scores = r_scores(graph, order)
        for x in order.candidates(graph):
            if scores.get(x, 0) == 0 and targets is None:
                continue
            followers = compute_followers(graph, order, x, core=state.core)
            if targets is not None:
                unsatisfied = targets - state.core - state.anchors
                key = (len(followers & unsatisfied), len(followers))
            else:
                key = (len(followers), 0)
            if key > best_key:
                best_key = key
                best = x
    if best is not None:
        return best
    if targets is not None:
        remaining = sorted(targets - state.core - state.anchors)
        if remaining:
            return remaining[0]  # anchor an unrescuable target directly
    return None
