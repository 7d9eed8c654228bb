"""Linear-time (anchored) (α,β)-core computation by iterative peeling.

The (α,β)-core (Definition 1 of the paper) is the maximal subgraph in which
every upper vertex has degree at least ``α`` and every lower vertex degree at
least ``β``.  *Anchored* vertices (Definition 2) are exempt from the degree
constraints — they are never peeled and keep supporting their neighbors, which
is how the anchored (α,β)-core ``C_{α,β}(G_A)`` is obtained.

Everything here works on a vertex *set* level: peeling never mutates the
graph; it tracks alive flags and residual degrees.  All functions accept an
optional ``subset`` restricting computation to an induced subgraph, which the
order-maintenance optimization (Algorithm 4) relies on.
"""

from __future__ import annotations

from typing import Collection, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.bigraph.csr import adjacency_arrays
from repro.bigraph.frontier import frontier_for
from repro.bigraph.graph import BipartiteGraph
from repro.exceptions import InvalidParameterError

__all__ = [
    "abcore",
    "anchored_abcore",
    "followers",
    "peel_with_order",
    "delta",
    "validate_degree_constraints",
]


def validate_degree_constraints(alpha: int, beta: int) -> None:
    """Reject negative degree constraints.

    The anchored (α,β)-core *problem* assumes α, β ≥ 1, but the substrate
    accepts 0 (an unconstrained layer) because shell computation peels to the
    (α,β-1)- and (α-1,β)-cores, which may have a 0 on one side.
    """
    if alpha < 0 or beta < 0:
        raise InvalidParameterError(
            "degree constraints must be >= 0, got alpha=%d beta=%d" % (alpha, beta))


def _peel(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    anchors: Collection[int],
    subset: Optional[Iterable[int]],
    record_order: bool,
) -> Tuple[Set[int], List[int]]:
    """Shared peeling worker.

    Returns the surviving vertex set and (when ``record_order``) the list of
    deleted vertices in deletion order.  Deletion proceeds in rounds — all
    currently violating vertices are queued, processed FIFO, and cascading
    violations join the back of the queue — which matches the
    ``OrderComputation`` procedure (Algorithm 2, Lines 17-22).
    """
    adj = graph.adjacency
    n_upper = graph.n_upper
    n = graph.n_vertices
    anchor_set = frozenset(anchors)
    queue: List[int] = []

    if subset is None:
        alive = bytearray(b"\x01") * n
        arrays = adjacency_arrays(graph)
        if arrays is not None:
            # CSR backend: the cached degree buffer replaces a full row scan.
            deg = arrays[2].tolist()
        else:
            deg = list(map(len, adj))
        # Seed the queue layer by layer (avoids a per-vertex layer branch).
        for v in range(n_upper):
            if deg[v] < alpha and v not in anchor_set:
                queue.append(v)
                alive[v] = 0
        for v in range(n_upper, n):
            if deg[v] < beta and v not in anchor_set:
                queue.append(v)
                alive[v] = 0
        members: Optional[List[int]] = None
    else:
        alive = bytearray(n)
        deg = [0] * n
        # Sorted so the round-robin seed order is a canonical function of the
        # subset *as a set*: callers pass regions and relaxed cores built in
        # whatever order their traversal produced, and the deletion order must
        # not depend on that history.  Id-ascending seeding also makes the
        # subset path consistent with the full-graph path above — which is
        # what lets a component-local peel reproduce the global peel's
        # relative order under monotone renumbering (repro.core.sharded).
        members = sorted(subset)
        for v in members:
            alive[v] = 1
        alive_at = alive.__getitem__
        for v in members:
            # sum(map(...)) keeps this hot loop in C.
            deg[v] = sum(map(alive_at, adj[v]))
        for v in members:  # hot-loop
            if v in anchor_set:
                continue
            threshold = alpha if v < n_upper else beta
            if deg[v] < threshold:
                queue.append(v)
                alive[v] = 0

    head = 0
    push = queue.append
    while head < len(queue):  # hot-loop
        v = queue[head]
        head += 1
        for w in adj[v]:
            if not alive[w]:
                continue
            deg[w] -= 1
            if w in anchor_set:
                continue
            threshold = alpha if w < n_upper else beta
            if deg[w] < threshold:
                alive[w] = 0
                push(w)

    if members is None:
        from itertools import compress

        survivors = set(compress(range(n), alive))
    else:
        survivors = {v for v in members if alive[v]}
    order = queue if record_order else []
    return survivors, order


def _fast_full_core(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    anchors: Collection[int],
) -> Optional[Set[int]]:
    """Vectorized full-graph core for CSR-backed graphs, or ``None``.

    The CSR buffers wrap zero-copy into numpy (when installed), so routing
    full-graph core queries through :meth:`Frontier.peel
    <repro.bigraph.frontier.Frontier.peel>` costs no conversion — this is
    where the CSR backend's decomposition speedup comes from.  Subset
    peels stay scalar: they run over small regions where numpy's per-call
    overhead dominates.
    """
    walk = frontier_for(graph)
    if walk is None:
        return None
    alive = walk.peel(alpha, beta, graph.n_upper, anchors)
    return set(alive.nonzero()[0].tolist())


def abcore(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    subset: Optional[Iterable[int]] = None,
) -> Set[int]:
    """Vertex set of the (α,β)-core ``C_{α,β}(G)``.

    When ``subset`` is given, computes the core of the induced subgraph —
    note that this is *not* generally the intersection of the global core
    with the subset.
    """
    validate_degree_constraints(alpha, beta)
    if subset is None:
        fast = _fast_full_core(graph, alpha, beta, ())
        if fast is not None:
            return fast
    survivors, _ = _peel(graph, alpha, beta, (), subset, record_order=False)
    return survivors


def anchored_abcore(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    anchors: Collection[int],
    subset: Optional[Iterable[int]] = None,
) -> Set[int]:
    """Vertex set of the anchored (α,β)-core ``C_{α,β}(G_A)``.

    Anchors are included in the result regardless of degree (the paper's
    "degree set to +∞" convention).
    """
    validate_degree_constraints(alpha, beta)
    if subset is None:
        fast = _fast_full_core(graph, alpha, beta, anchors)
        if fast is not None:
            return fast
    survivors, _ = _peel(graph, alpha, beta, anchors, subset, record_order=False)
    return survivors


def followers(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    anchors: Collection[int],
    base_core: Optional[Set[int]] = None,
) -> Set[int]:
    """Followers of an anchor set (Definition 3), computed globally.

    ``F(A) = C_{α,β}(G_A) \\ (C_{α,β}(G) ∪ A)``.  Pass ``base_core`` when
    ``C_{α,β}(G)`` is already known to avoid recomputing it.  This is the
    reference implementation every optimized follower computation is tested
    against.
    """
    if base_core is None:
        base_core = abcore(graph, alpha, beta)
    anchored = anchored_abcore(graph, alpha, beta, anchors)
    return anchored - base_core - set(anchors)


def peel_with_order(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    anchors: Collection[int],
    subset: Optional[Iterable[int]] = None,
) -> Tuple[Set[int], List[int]]:
    """Peel ``subset`` (default: whole graph) to the anchored (α,β)-core.

    Returns ``(core_vertices, deleted_in_order)``; the second component is
    the raw material for the upper/lower deletion orders of Section III.
    """
    validate_degree_constraints(alpha, beta)
    return _peel(graph, alpha, beta, anchors, subset, record_order=True)


def delta(graph: BipartiteGraph) -> int:
    """The dataset statistic δ: the maximum k such that the (k,k)-core exists.

    Matches Table II of the paper.  Computed by peeling with increasing k,
    reusing the shrinking survivor set so total work stays near-linear for
    the skewed graphs this library targets.
    """
    k = 0
    survivors: Optional[Set[int]] = None
    while True:
        next_k = k + 1
        if survivors is None:
            # Full-graph level: eligible for the CSR/numpy fast path.
            nxt = abcore(graph, next_k, next_k)
        else:
            nxt, _ = _peel(graph, next_k, next_k, (), survivors,
                           record_order=False)
        if not nxt:
            return k
        k = next_k
        survivors = nxt
