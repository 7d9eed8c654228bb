"""Local follower computation for a single anchor (Algorithm 1).

Instead of re-peeling the whole graph per candidate anchor (what ``Naive``
does), the verification stage only examines the order-reachable set
``rf(x)``, which by Lemma 1 contains every follower of ``x``.  The candidate
set is then peeled locally: a candidate survives while its support — counted
over surviving candidates, the current anchored core, and the anchor ``x``
itself — meets its layer's degree constraint.  Survivors are *exactly*
``F(x)``:

* soundness: survivors plus the core plus ``x`` satisfy all constraints with
  ``x`` exempt, so by maximality of the anchored core they are followers;
* completeness: every follower lies in ``rf(x)`` and is supported within
  ``F(x) ∪ C ∪ {x}``, so the local peel never removes it.

``tests/test_followers.py`` checks this equivalence against the global
recomputation on randomized graphs.

This module is the *reference* implementation: dict/set based, readable,
backend-agnostic.  :class:`repro.bigraph.kernel.FollowerKernel`
re-implements the same DFS and local peel over flat epoch-stamped arrays
for CSR-backed graphs — set-identical, selected automatically by the
engine.  The result depends only on ``(adjacency, position, core, x)``,
which is what lets the parallel workers (:mod:`repro.parallel`) compute
it from a broadcast copy of that state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.bigraph.graph import BipartiteGraph
from repro.core.deletion_order import DeletionOrder, reachable_from

__all__ = ["compute_followers", "follower_count"]


def compute_followers(
    graph: BipartiteGraph,
    order: DeletionOrder,
    x: int,
    core: Optional[Set[int]] = None,
    candidates: Optional[Set[int]] = None,
) -> Set[int]:
    """Followers of anchor ``x`` under the deletion order ``order``.

    Parameters
    ----------
    graph:
        The input bipartite graph (never mutated).
    order:
        The deletion order for ``x``'s layer (``O_U`` for an upper anchor,
        ``O_L`` for a lower one), computed on the current anchored graph.
    x:
        The candidate anchor; must hold an entry in ``order.position``.
    core:
        The current anchored (α,β)-core vertex set; defaults to
        ``order.core``.  Vertices in it support their neighbors and never
        peel.
    candidates:
        Pre-computed ``rf(x)`` if the caller already has it (it is never
        mutated); otherwise
        :func:`~repro.core.deletion_order.reachable_from` derives it.
    """
    if core is None:
        core = order.core
    adjacency = graph.adjacency
    n_upper = graph.n_upper

    if candidates is None:
        candidates = reachable_from(graph, order, x)
    if not candidates:
        return set()

    # The thresholds come from the shell construction: every candidate is a
    # potential follower, i.e. a vertex of the relaxed core, and must meet its
    # own layer's (α,β) constraint to survive.  We recover α and β from the
    # order rather than passing them, keeping call sites small.
    alpha, beta = order.alpha, order.beta

    support: Dict[int, int] = {}
    row_of = adjacency.__getitem__  # hoisted: works for list and CSR rows
    for u in candidates:
        count = 0
        for w in row_of(u):
            if w == x or w in core or w in candidates:
                count += 1
        support[u] = count

    dead: List[int] = []
    alive: Set[int] = set(candidates)
    # Sorted so the worklist is seeded in vertex order: the surviving set
    # is order-free (peeling is confluent), but a deterministic queue keeps
    # traces and instrumentation reproducible.
    for u in sorted(candidates):  # hot-loop
        threshold = alpha if u < n_upper else beta
        if support[u] < threshold:
            dead.append(u)
            alive.discard(u)
    head = 0
    push = dead.append
    drop = alive.discard
    while head < len(dead):  # hot-loop
        u = dead[head]
        head += 1
        for w in row_of(u):
            if w not in alive:
                continue
            support[w] -= 1
            threshold = alpha if w < n_upper else beta
            if support[w] < threshold:
                drop(w)
                push(w)
    return alive


def follower_count(
    graph: BipartiteGraph,
    order: DeletionOrder,
    x: int,
    core: Optional[Set[int]] = None,
) -> int:
    """``|F(x)|`` without materializing the follower set for the caller."""
    return len(compute_followers(graph, order, x, core))

