"""The naive greedy algorithm (Section II-C).

``Naive`` runs ``b1 + b2`` iterations; in each one it considers *every*
vertex outside the current anchored (α,β)-core as a candidate, computes its
followers by a full anchored-core recomputation, and keeps the best.  This is
the ``O((b1+b2)·n·m)`` reference greedy: FILVER picks a follower-maximizing
anchor each round too, so the two agree on the objective whenever the greedy
choices are unambiguous (ties may break toward different anchors — Naive by
vertex id, FILVER by bound rank; ``tests/test_filver.py`` compares them
accordingly).
"""

from __future__ import annotations

import time
from typing import Collection, List, Optional, Set

from repro.abcore.decomposition import anchored_abcore, peel_with_order
from repro.bigraph.frontier import frontier_for
from repro.bigraph.graph import BipartiteGraph
from repro.bigraph.validation import validate_problem
from repro.core.result import AnchoredCoreResult, IterationRecord

__all__ = ["run_naive"]


def _scalar_peel(graph: BipartiteGraph, alpha: int, beta: int,
                 anchors: Collection[int]) -> Set[int]:
    """The pure-Python global peel.

    Not :func:`anchored_abcore`, which routes full-graph peels on CSR
    graphs through the vectorized peel.
    """
    return peel_with_order(graph, alpha, beta, anchors)[0]


def _select_peel(graph: BipartiteGraph, accel: str):
    """Pick the global-peel backend for this run."""
    if accel not in ("auto", "on", "off"):
        raise ValueError("accel must be 'auto', 'on' or 'off', got %r" % accel)
    if accel == "off":
        return _scalar_peel
    if accel == "auto" and graph.n_edges < 2000:
        return anchored_abcore
    # One frontier over the CSR buffers serves every peel of the run.
    walk = frontier_for(graph.to_csr())
    if walk is None:
        if accel == "on":
            raise RuntimeError("accel='on' requires numpy")
        return anchored_abcore
    peel_mask = walk.peel
    n_upper = graph.n_upper

    def vectorized_peel(graph: BipartiteGraph, alpha: int, beta: int,
                        anchors: Collection[int]) -> Set[int]:
        return set(peel_mask(alpha, beta, n_upper, anchors)
                   .nonzero()[0].tolist())

    return vectorized_peel


def run_naive(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    b1: int,
    b2: int,
    deadline: Optional[float] = None,
    accel: str = "auto",
) -> AnchoredCoreResult:
    """Solve the anchored (α,β)-core problem with the naive greedy.

    ``accel`` selects the global-peel backend: ``"auto"`` uses the numpy
    round-synchronous peel (:meth:`repro.bigraph.frontier.Frontier.peel`,
    over the graph's CSR form) when numpy is installed and the graph is
    non-trivial, ``"on"`` forces it, ``"off"`` sticks to the pure-Python
    peel on every backend, CSR included.  The
    base core, every trial, and the final core all go through the chosen
    peel.  Both compute identical cores; Naive's cost is one global peel
    per candidate per iteration, so this is where vectorization pays the
    most.
    """
    validate_problem(graph, alpha, beta, b1, b2)
    peel = _select_peel(graph, accel)
    start = time.perf_counter()
    base_core = peel(graph, alpha, beta, [])

    anchors: List[int] = []
    iterations: List[IterationRecord] = []
    timed_out = False
    current_core = set(base_core)

    while not timed_out:
        upper_used = sum(1 for a in anchors if graph.is_upper(a))
        upper_left = b1 - upper_used
        lower_left = b2 - (len(anchors) - upper_used)
        if upper_left <= 0 and lower_left <= 0:
            break
        iter_start = time.perf_counter()

        best_anchor = -1
        best_gain = -1
        verifications = 0
        candidates_total = 0
        for x in graph.vertices():
            if x in current_core or x in anchors:
                continue
            if graph.is_upper(x):
                if upper_left <= 0:
                    continue
            elif lower_left <= 0:
                continue
            candidates_total += 1
            if deadline is not None and time.perf_counter() > deadline:
                timed_out = True
                break
            trial = peel(graph, alpha, beta, anchors + [x])
            verifications += 1
            gain = len(trial) - len(current_core) - 1
            # Strict improvement keeps the first (lowest-id) maximizer; a
            # zero-gain anchor still gets placed (the budget is spent either
            # way, and anchors placed "for free" can combine with later ones).
            if gain > best_gain:
                best_gain = gain
                best_anchor = x

        if best_anchor < 0:
            iterations.append(IterationRecord(
                anchors=[], marginal_followers=0,
                candidates_total=candidates_total,
                candidates_after_filter=candidates_total,
                verifications=verifications,
                elapsed=time.perf_counter() - iter_start))
            break
        anchors.append(best_anchor)
        current_core = peel(graph, alpha, beta, anchors)
        iterations.append(IterationRecord(
            anchors=[best_anchor], marginal_followers=best_gain,
            candidates_total=candidates_total,
            candidates_after_filter=candidates_total,
            verifications=verifications,
            elapsed=time.perf_counter() - iter_start))

    final_core = peel(graph, alpha, beta, anchors)
    follower_set = final_core - base_core - set(anchors)
    return AnchoredCoreResult(
        algorithm="naive", alpha=alpha, beta=beta, b1=b1, b2=b2,
        anchors=anchors, followers=follower_set,
        base_core_size=len(base_core), final_core_size=len(final_core),
        elapsed=time.perf_counter() - start, iterations=iterations,
        timed_out=timed_out)
