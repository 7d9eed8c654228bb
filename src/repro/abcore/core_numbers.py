"""Upper/lower core numbers (Definition 10) for the order-maintenance stage.

The upper core number of a vertex ``u`` is the largest ``k`` such that
``u ∈ (α,k)-core``; the lower core number is the largest ``k`` with
``u ∈ (k,β)-core``.  Algorithm 4 only ever compares core numbers against
values below the target constraint, so this module computes *capped* core
numbers: every vertex still in the anchored (α,β)-core — anchors included —
receives the cap (``β`` on the upper side, ``α`` on the lower side), exactly
as Algorithm 4, Line 8 prescribes.

All of it comes from :func:`core_sweep`, the standard (α,β)-core
decomposition step: with the other layer's constraint fixed, one peel with a
rising varied constraint yields every vertex's largest level.  The same
sweep also hands Algorithm 4 the relaxed core and the deletion order, so an
order repair peels its region once.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from typing import (Collection, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Set)

from repro.abcore.decomposition import validate_degree_constraints
from repro.bigraph.csr import adjacency_arrays
from repro.bigraph.graph import BipartiteGraph

__all__ = [
    "CoreSweep",
    "core_sweep",
    "upper_core_numbers",
    "lower_core_numbers",
]


class CoreSweep(NamedTuple):
    """What one :func:`core_sweep` pass yields for one side.

    ``sequence`` is the FIFO removal order of the cap level: the peel of
    ``relaxed_core`` down to ``core`` that :func:`repro.core.deletion_order.
    compute_order` numbers ``1, 2, ...`` as the side's deletion order.
    """

    numbers: Dict[int, int]
    relaxed_core: Set[int]
    sequence: List[int]
    core: Set[int]


def core_sweep(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    side: str,
    anchors: Collection[int] = (),
    subset: Optional[Iterable[int]] = None,
    start_level: int = 0,
    degrees: Optional[List[int]] = None,
) -> CoreSweep:
    """Capped core numbers, relaxed core, deletion order and core in one peel.

    ``side="upper"`` varies the lower layer's constraint (β) with α fixed;
    ``side="lower"`` varies α with β fixed.  Degrees are counted once over
    ``subset`` (default: the whole graph).  Each level ``k`` seeds, in
    ascending id order, the alive non-anchor vertices violating it and
    cascades FIFO exactly as :func:`repro.abcore.decomposition.peel_with_order`
    does, so a vertex removed at level ``k`` has core number ``k - 1`` and
    the survivors of the cap level get the cap.  The cap level starts from
    the relaxed core with its induced degrees and the same seeding, so its
    removal sequence *is* the deletion order of the relaxed core.

    ``start_level > 0`` asserts that every subset member already belongs to
    the varied-``start_level`` core of the subset (true for the affected
    graphs of Algorithm 4, whose members all have core number ≥ the placed
    anchor's); the sweep then starts at level ``start_level + 1``.
    ``start_level == 0`` starts with a level-0 pass (fixed constraint only),
    whose survivors are the relaxed core when the cap is 1.

    ``degrees`` spares the count when the caller's own traversal already
    made it: an ``n_vertices``-long list holding each member's degree
    inside the subset.  The sweep decrements it in place.  It may also
    count neighbors outside ``subset`` that the caller guarantees never
    peel (order repair counts the current core's members and sweeps only
    the rest of the affected graph): those neighbors are not alive,
    so their edges are never decremented, exactly as for a neighbor that
    is alive and survives every level.
    """
    validate_degree_constraints(alpha, beta)
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower', got %r" % (side,))
    vary_lower_layer = side == "upper"
    cap = beta if vary_lower_layer else alpha
    adj = graph.adjacency
    n = graph.n_vertices
    n_upper = graph.n_upper
    anchor_set = frozenset(anchors)
    members: Sequence[int]
    if subset is None:
        members = range(n)
        alive = bytearray(b"\x01") * n
    else:
        members = sorted(subset)
        alive = bytearray(n)
        for v in members:
            alive[v] = 1
    alive_at = alive.__getitem__
    if degrees is not None:
        deg = degrees
    elif subset is None:
        arrays = adjacency_arrays(graph)
        deg = arrays[2].tolist() if arrays is not None else list(map(len, adj))
    else:
        deg = [0] * n
        for v in members:  # hot-loop
            # sum(map(...)) keeps this loop in C.
            deg[v] = sum(map(alive_at, adj[v]))

    # Ids are layer-contiguous (upper first), so one bisection splits the
    # ascending members by layer.  Past the first level only the varied
    # layer can violate: the fixed constraint never changes.
    split = bisect_left(members, n_upper)
    varied = list(members[split:] if vary_lower_layer else members[:split])
    numbers: Dict[int, int] = {}
    sequence: List[int] = []
    first = start_level + 1 if start_level else 0
    seeds: Iterable[int] = members
    for k in range(first, cap + 1):  # hot-loop
        if vary_lower_layer:
            upper_min, lower_min = alpha, k
        else:
            upper_min, lower_min = k, beta
        dropped = k - 1 if k else 0
        queue: List[int] = []
        push = queue.append
        for v in seeds:
            if not alive[v] or v in anchor_set:
                continue
            if deg[v] < (upper_min if v < n_upper else lower_min):
                alive[v] = 0
                push(v)
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            numbers[v] = dropped
            for w in adj[v]:
                if not alive[w]:
                    continue
                deg[w] -= 1
                if w in anchor_set:
                    continue
                if deg[w] < (upper_min if w < n_upper else lower_min):
                    alive[w] = 0
                    push(w)
        sequence = queue
        varied = list(compress(varied, map(alive_at, varied)))
        seeds = varied

    survivors = list(compress(members, map(alive_at, members)))
    numbers.update(dict.fromkeys(survivors, cap))
    core = set(survivors)
    return CoreSweep(numbers, core.union(sequence), sequence, core)


def upper_core_numbers(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    anchors: Collection[int] = (),
    subset: Optional[Iterable[int]] = None,
    start_level: int = 0,
) -> Dict[int, int]:
    """``core_U`` capped at ``β``: ``min(β, max{k | v ∈ (α,k)-core of G_A})``.

    Anchors never peel and therefore always receive the cap.  One
    :func:`core_sweep` over ``subset`` (default: the whole graph).
    """
    return core_sweep(graph, alpha, beta, "upper", anchors, subset,
                      start_level).numbers


def lower_core_numbers(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    anchors: Collection[int] = (),
    subset: Optional[Iterable[int]] = None,
    start_level: int = 0,
) -> Dict[int, int]:
    """``core_L`` capped at ``α``: ``min(α, max{k | v ∈ (k,β)-core of G_A})``.

    One :func:`core_sweep` over ``subset`` (default: the whole graph).
    """
    return core_sweep(graph, alpha, beta, "lower", anchors, subset,
                      start_level).numbers

