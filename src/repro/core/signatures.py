"""Follower signatures and two-hop domination filtering (Section IV-A).

The follower signature ``sig(x)`` — the neighbors of ``x`` that are
order-reachable from it — is the "starting point" of Algorithm 1's local
peel.  Lemma 2 shows that ``sig(x1) ⊆ sig(x2)`` implies ``F(x1) ⊆ F(x2)``, so
an anchor whose signature is contained in another same-layer anchor's
signature can never be the best choice and is pruned before verification.

Any dominator of ``x`` is an *order-obeying two-hop neighbor* of ``x``
(Definition 9): it must reach every ``v ∈ sig(x)`` directly, i.e. lie in
``∩_{v ∈ sig(x)} N(v)`` with a position below every such ``v``.  Algorithm 3
therefore intersects neighbor lists, cheapest-first, visiting anchors in
non-decreasing signature size so each anchor only needs to be checked against
*unvisited* (≥-sized) potential dominators — which also resolves
equal-signature ties by keeping exactly one representative (Lemma 3).
"""

from __future__ import annotations

from itertools import compress
from math import log2
from typing import (TYPE_CHECKING, AbstractSet, Dict, Iterable, List,
                    Sequence, Set, Tuple)

from repro.bigraph.frontier import frontier_for
from repro.bigraph.graph import BipartiteGraph
from repro.core.deletion_order import DeletionOrder, signature

if TYPE_CHECKING:
    from repro.core.incremental import VerificationCache

__all__ = ["two_hop_filter", "two_hop_filter_cached", "signatures_of"]

#: Sentinel for :func:`_dominator_pool` callers that want the raw
#: order-obeying two-hop pool with no already-visited exclusion.
_NO_VISITED: AbstractSet[int] = frozenset()


def signatures_of(
    graph: BipartiteGraph,
    order: DeletionOrder,
    candidates: Iterable[int],
) -> Dict[int, Set[int]]:
    """Follower signature for each candidate anchor."""
    return {x: signature(graph, order, x) for x in candidates}


def two_hop_filter(
    graph: BipartiteGraph,
    order: DeletionOrder,
    candidates: Iterable[int],
) -> Tuple[List[int], Dict[int, Set[int]]]:
    """Drop candidates whose follower signatures are dominated (Algorithm 3).

    Parameters
    ----------
    candidates:
        Same-layer candidate anchors, all holding an ``order.position``
        entry.

    Returns
    -------
    (survivors, signatures):
        Candidates that are not dominated by any other candidate, and the
        signature table (for survivors and discarded alike, since the caller
        may want it for diagnostics).  Candidates with empty signatures are
        unpromising and never survive.
    """
    sigs = signatures_of(graph, order, candidates)
    candidate_set = set(sigs)

    # Visit in non-decreasing |sig| (Lemma 3); ties broken by id so that
    # equal-signature groups deterministically keep their largest id (the
    # last one visited).
    ordered = sorted(candidate_set, key=lambda x: (len(sigs[x]), x))

    survivors: List[int] = []
    visited: Set[int] = set()
    for x in ordered:
        visited.add(x)
        sig_x = sigs[x]
        if not sig_x:
            continue  # empty signature -> no followers -> unpromising
        dominators = _dominator_pool(graph, order, x, sig_x,
                                     candidate_set, visited)
        if not dominators:
            survivors.append(x)
    return survivors, sigs


def two_hop_filter_cached(
    graph: BipartiteGraph,
    order: DeletionOrder,
    candidates: Sequence[int],
    cache: "VerificationCache",
) -> List[int]:
    """:func:`two_hop_filter`'s survivors, in ``candidates`` order, with
    per-candidate memoization of the *survivor verdict* (valid until the
    order changes within three hops — see :mod:`repro.core.incremental`).

    Caching the verdict per candidate is sound because Algorithm 3's
    "visited" bookkeeping is secretly pairwise: when ``x`` is processed,
    the unvisited candidates are exactly those with
    ``(|sig(w)|, w) > (|sig(x)|, x)``.  So ``x`` survives iff
    ``sig(x) ≠ ∅`` and no candidate ``w`` with a strictly larger
    ``(|sig|, id)`` key sits in ``x``'s order-obeying two-hop pool — a
    predicate of ``x`` alone, independent of the order candidates are
    visited in.  This function replays cached verdicts for hits and
    evaluates that predicate for all misses together: on CSR graphs (with
    numpy) in whole-array passes,
    :meth:`repro.bigraph.frontier.Frontier.undominated`; otherwise per
    miss, full pool first and key filter after (the pool is tiny once the
    neighbor-list intersection has run), computing signatures only for
    the misses and their pool members, each at most once per call.
    """
    side = order.side
    verdicts = cache.survivor_verdicts(side, candidates)
    if None in verdicts:
        misses = [x for x, verdict in zip(candidates, verdicts)
                  if verdict is None]
        walk = frontier_for(graph)
        if walk is not None:
            decided = walk.undominated(misses, order.position, candidates)
        else:
            decided = _row_verdicts(graph, order, misses, candidates)
        for x, verdict in zip(misses, decided):
            cache.store_survivor(side, x, verdict)
        fresh = iter(decided)
        verdicts = [next(fresh) if verdict is None else verdict
                    for verdict in verdicts]
    return list(compress(candidates, verdicts))


def _row_verdicts(
    graph: BipartiteGraph,
    order: DeletionOrder,
    misses: Sequence[int],
    candidates: Sequence[int],
) -> List[bool]:
    """The survivor verdict of each miss, one dominator pool at a time."""
    candidate_set = set(candidates)
    sigs: Dict[int, Set[int]] = {}
    decided: List[bool] = []
    for x in misses:
        sig_x = _memo_signature(graph, order, sigs, x)
        if not sig_x:
            decided.append(False)
            continue
        key = (len(sig_x), x)
        pool = _dominator_pool(graph, order, x, sig_x,
                               candidate_set, _NO_VISITED)
        # Order-free: an existence test over the pool.
        decided.append(not any(
            (len(_memo_signature(graph, order, sigs, w)), w) > key
            for w in pool))
    return decided


def _memo_signature(graph: BipartiteGraph, order: DeletionOrder,
                    sigs: Dict[int, Set[int]], v: int) -> Set[int]:
    """``sig(v)``, computed at most once per ``sigs`` table."""
    sig = sigs.get(v)
    if sig is None:
        sig = sigs[v] = signature(graph, order, v)
    return sig


def _dominator_pool(
    graph: BipartiteGraph,
    order: DeletionOrder,
    x: int,
    sig_x: Set[int],
    candidate_set: Set[int],
    visited: AbstractSet[int],
) -> Set[int]:
    """Unvisited candidates whose signature covers ``sig_x`` (may be empty).

    Implements Algorithm 3 Lines 4–11: start from the neighbor list of the
    smallest-degree signature vertex and intersect with the remaining
    signature vertices' neighbor lists, choosing per vertex between a linear
    scan (``O(deg(v))``) and membership probing (``O(|D| log deg(v))`` in the
    paper; hash probing ``O(|D|)`` here) — whichever is estimated cheaper.
    """
    position = order.position
    # Hoisted accessors: row_of returns a list (list backend) or a memoryview
    # slice (CSR backend); both support iteration and membership probes.
    row_of = graph.adjacency.__getitem__
    degree = graph.degree
    has_edge = graph.has_edge

    by_degree = sorted(sig_x, key=degree)
    v1 = by_degree[0]
    p_v1 = position[v1]
    pool: Set[int] = set()
    for w in row_of(v1):
        if w == x or w in visited or w not in candidate_set:
            continue
        if position[w] < p_v1:
            pool.add(w)
    for v in by_degree[1:]:
        if not pool:
            return pool
        p_v = position[v]
        deg_v = degree(v)
        if len(pool) * max(1.0, log2(deg_v)) < deg_v:
            # Probe each pool member against N(v) (binary-search flavor; the
            # adjacency rows are sorted so has_edge() bisects).
            # Order-free: filters a set into a set, no tie-breaking involved.
            pool = {w for w in pool  # repro: ignore[determinism]
                    if position[w] < p_v and has_edge(w, v)}
        else:
            neighbors_ok = {w for w in row_of(v)
                            if w in pool and position[w] < p_v}
            pool = neighbors_ok
    return pool
