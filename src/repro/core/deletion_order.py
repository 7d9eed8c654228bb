"""Upper/lower deletion orders, r-scores, and order-reachability (Section III-A).

The *upper deletion order* ``O_U`` records the sequence in which vertices are
peeled when computing the (α,β)-core from the (α,β-1)-core; the *lower
deletion order* ``O_L`` does the same starting from the (α-1,β)-core.  Upper
(resp. lower) promising anchors that are outside the relaxed core but adjacent
to the shell join the order with position 0.  These orders drive everything in
the FILVER family:

* ``rf(x)`` — the order-reachable set from ``x`` (Definition 7), a superset of
  ``F(x)`` by Lemma 1; :func:`reachable_from` computes it for one source,
  :func:`reachable_counts` the bound ``|rf(x)|`` for many in one sweep;
* ``r-score(x)`` — a one-pass dynamic-programming upper bound on ``|rf(x)|``;
* ``sig(x)`` — the follower signature (Definition 8) used by two-hop
  domination filtering.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress, count
from typing import Collection, Dict, Iterable, List, Optional, Set

from repro.abcore.decomposition import anchored_abcore, peel_with_order
from repro.bigraph.graph import BipartiteGraph
from repro.bigraph.kernel import walk_counts

__all__ = [
    "DeletionOrder",
    "compute_order",
    "compute_orders",
    "order_from_peel",
    "r_scores",
    "reachable_counts",
    "reachable_from",
    "signature",
    "zero_order_anchors",
]

#: ``position[v] > -1``: the vertex holds an entry (``-1`` marks none).
_HOLDS_ENTRY = (-1).__lt__


@dataclass
class DeletionOrder:
    """One side's deletion order together with the core sets it derives from.

    Attributes
    ----------
    side:
        ``"upper"`` for ``O_U`` (anchoring upper vertices) or ``"lower"``
        for ``O_L``.
    position:
        Vertex → order number, as an ``array('q')`` of ``n_vertices``
        slots (the order's graph's, a shard's local count).  Deleted
        vertices get positions ≥ 1 in deletion order; promising anchors
        outside the relaxed core get 0; every other slot holds ``-1``,
        "no entry".  Positions need not be contiguous (order maintenance
        renumbers affected regions with fresh, larger numbers) but deleted
        vertices' positions are unique and order-consistent.  Index it
        directly: ``in``, ``len`` and iteration see slots, not entries —
        :meth:`entries` lists the vertices holding one.
    core:
        Vertex set of the anchored (α,β)-core the peel converged to.
    relaxed_core:
        The anchored (α,β-1)-core (upper side) or (α-1,β)-core (lower side)
        the peel started from.  ``relaxed_core - core`` is the shell:
        exactly the vertices with a position ≥ 1.
    """

    side: str
    position: array
    core: Set[int]
    relaxed_core: Set[int]
    alpha: int
    beta: int

    def entry(self, x: int) -> int:
        """``x``'s position; ``KeyError`` when ``x`` holds no entry."""
        p = self.position[x]
        if p < 0:
            raise KeyError(x)
        return p

    def entries(self) -> List[int]:
        """The vertices holding a position entry, in increasing id."""
        return list(compress(count(), map(_HOLDS_ENTRY, self.position)))

    def candidates(self, graph: BipartiteGraph) -> List[int]:
        """Candidate anchors: own-layer vertices present in the order.

        Candidacy is a pure predicate of the vertex's own position entry,
        which is what lets the verification cache reuse two-hop survivor
        verdicts across iterations (``repro.core.incremental``): a
        candidacy change within reach of a cached verdict implies a
        position-entry change inside the dilated dirty region.
        """
        layer = (graph.upper_vertices() if self.side == "upper"
                 else graph.lower_vertices())
        held = map(_HOLDS_ENTRY, self.position[layer.start:layer.stop])
        return list(compress(layer, held))

    def deleted_in_order(self) -> List[int]:
        """Shell vertices sorted by increasing deletion position."""
        return sorted(self.relaxed_core - self.core,
                      key=self.position.__getitem__)

    def max_position(self) -> int:
        """Largest position in use (0 when the order is empty)."""
        return max(map(self.position.__getitem__,
                       self.relaxed_core - self.core), default=0)


def zero_order_anchors(
    graph: BipartiteGraph,
    side: str,
    shell_sequence: Collection[int],
    relaxed_core: Set[int],
    placed_anchors: Collection[int],
) -> Set[int]:
    """Own-layer vertices adjacent to the shell but outside the relaxed core.

    These are the promising anchors of Definition 6 that are not themselves
    potential followers; they enter the order with position 0 (Algorithm 2,
    Lines 23 and 25).
    """
    placed = set(placed_anchors)
    want_upper = side == "upper"
    is_upper = graph.is_upper
    neighbors = graph.neighbors  # hoisted: one row fetch per shell vertex
    zeros: Set[int] = set()
    # Bipartite: a want-side neighbor only ever hangs off an opposite-side
    # shell vertex, so same-side rows are skipped wholesale.
    for v in shell_sequence:
        if is_upper(v) == want_upper:
            continue
        for w in neighbors(v):
            if w in relaxed_core or w in placed:
                continue
            zeros.add(w)
    return zeros


def compute_order(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    side: str,
    anchors: Collection[int] = (),
    subset: Optional[Collection[int]] = None,
    relaxed_core: Optional[Set[int]] = None,
) -> DeletionOrder:
    """Compute one side's deletion order (Algorithm 2, ``OrderComputation``).

    ``subset`` restricts the peel to an induced subgraph and
    ``relaxed_core`` skips the relaxed-core peel when it is already known.
    Order maintenance takes the same sequence from
    :func:`repro.abcore.core_numbers.core_sweep` instead.
    """
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower', got %r" % (side,))
    if side == "upper":
        relaxed_alpha, relaxed_beta = alpha, beta - 1
    else:
        relaxed_alpha, relaxed_beta = alpha - 1, beta

    if relaxed_core is None:
        relaxed_core = anchored_abcore(graph, relaxed_alpha, relaxed_beta,
                                       anchors, subset)
    core, sequence = peel_with_order(graph, alpha, beta, anchors, relaxed_core)
    return order_from_peel(graph, alpha, beta, side, anchors, sequence, core,
                           relaxed_core)


def order_from_peel(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    side: str,
    anchors: Collection[int],
    sequence: List[int],
    core: Set[int],
    relaxed_core: Set[int],
) -> DeletionOrder:
    """The deletion order of a peel from ``relaxed_core`` down to ``core``.

    ``sequence`` is the peel's removal order; it is numbered ``1, 2, ...``
    and the promising anchors outside the relaxed core get position 0.
    """
    position = array("q", [-1]) * graph.n_vertices
    for p, v in enumerate(sequence, 1):
        position[v] = p
    for z in zero_order_anchors(graph, side, sequence, relaxed_core, anchors):
        position[z] = 0
    return DeletionOrder(side=side, position=position, core=core,
                         relaxed_core=relaxed_core, alpha=alpha, beta=beta)


def compute_orders(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    anchors: Collection[int] = (),
) -> "tuple[DeletionOrder, DeletionOrder]":
    """Both deletion orders of the (possibly anchored) graph."""
    upper = compute_order(graph, alpha, beta, "upper", anchors)
    lower = compute_order(graph, alpha, beta, "lower", anchors)
    return upper, lower


def r_scores(graph: BipartiteGraph, order: DeletionOrder) -> Dict[int, int]:
    """The recursive r-score upper bound for every vertex in the order.

    ``r-score(x) = Σ_{u ∈ W(x)} (r-score(u) + 1)`` where ``W(x)`` are the
    neighbors of ``x`` directly order-reachable from it.  Computed in one
    reverse-deletion-order pass over the shell; the zero-position anchors,
    which precede everything, are the shell's neighbors at position 0 and
    come last.
    """
    position = order.position
    neighbors = graph.neighbors
    scores: Dict[int, int] = {}
    zeros: Dict[int, None] = {}
    shell = sorted(order.relaxed_core - order.core, key=position.__getitem__,
                   reverse=True)
    for v in shell:  # hot-loop
        pv = position[v]
        total = 0
        for w in neighbors(v):
            pw = position[w]
            if pw > pv:
                total += scores[w] + 1
            elif pw == 0:
                zeros[w] = None
        scores[v] = total
    for v in zeros:  # hot-loop
        total = 0
        for w in neighbors(v):
            if position[w] > 0:
                total += scores[w] + 1
        scores[v] = total
    return scores


def reachable_from(graph: BipartiteGraph, order: DeletionOrder,
                   x: int) -> Set[int]:
    """``rf(x)``: all vertices order-reachable from ``x`` (Definition 7).

    A vertex ``u`` is order-reachable from ``x`` when some path
    ``x = v0, v1, ..., vk = u`` has strictly increasing positions.  By
    Lemma 1 this set contains every follower of ``x``.
    """
    position = order.position
    reached: Set[int] = set()
    stack = [(x, order.entry(x))]
    pop = stack.pop
    push = stack.append
    neighbors = graph.neighbors
    mark = reached.add
    while stack:  # hot-loop
        v, pv = pop()
        for w in neighbors(v):
            pw = position[w]
            if pw <= pv or w in reached:
                continue
            mark(w)
            push((w, pw))
    return reached


def reachable_counts(graph: BipartiteGraph, order: DeletionOrder,
                     sources: Iterable[int]) -> Dict[int, int]:
    """``{x: |rf(x)|}`` for every source, in one sweep of the order DAG.

    Each count is ``len`` of :func:`reachable_from`'s set, the
    single-source oracle; a source outside the order raises ``KeyError``.
    The sweep is :func:`repro.bigraph.kernel.walk_counts` over the graph's
    rows; on CSR graphs
    :meth:`repro.bigraph.kernel.FollowerKernel.reachable` answers the same
    counts with frontier passes.
    """
    return walk_counts(graph.neighbors, order.position, sources)


def signature(graph: BipartiteGraph, order: DeletionOrder, x: int) -> Set[int]:
    """``sig(x)``: the neighbors of ``x`` order-reachable from it (Def. 8)."""
    position = order.position
    px = order.entry(x)
    return {w for w in graph.neighbors(x) if position[w] > px}
