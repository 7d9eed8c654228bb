"""Cross-iteration verification memoization with affected-region invalidation.

The engine's filter/verification stages recompute, for every candidate and
every iteration: the bound ``|rf(x)|``, the two-hop domination verdict,
and — for the candidates that reach Algorithm 1 — the follower set
``F(x)``.  Yet Algorithm 4 confines each anchor's effect to its *affected
graph*: outside the repaired regions, both deletion orders are
bit-identical from one iteration to the next.  :class:`VerificationCache`
carries those quantities across iterations in three tables (bounds,
follower sets, survivor verdicts) and drops only what the repairs could
have changed, using the per-side dirty regions that
:meth:`repro.core.order_maintenance.OrderState.apply_anchors` reports.
Neither ``rf(x)`` itself nor the signatures ``sig(x)`` are cached: the
filter needs only the bound, verification derives ``rf(x)`` in its own
DFS, and the two-hop filter needs signatures only to decide a verdict
miss, and reads them fresh then.

Correctness argument
--------------------

Fix one side and let ``D`` be that side's dirty set after an apply.  The
contract of ``apply_anchors`` is that every position entry of that side's
order and every anchored-core membership outside ``D`` is bit-identical to
its value before the call.  Write ``N(S)`` for the graph neighbors of a
vertex set ``S`` and ``D1 = D ∪ N(D)``, ``D3`` for the threefold dilation
``D ∪ N(D) ∪ N²(D) ∪ N³(D)``.  Write ``rf(x)`` for the set before the
apply.  The invalidation rules, and why each is sufficient:

bound / ``F(x)`` — *evict iff* ``({x} ∪ rf(x)) ∩ D1 ≠ ∅``.
    Suppose ``({x} ∪ rf(x)) ∩ D1 = ∅``.  Then no vertex of ``{x} ∪ rf(x)``
    is in ``D``, and no *neighbor* of such a vertex is in ``D`` either
    (a vertex with a dirty neighbor lies in ``N(D) ⊆ D1``).  So the
    position entry of every vertex in ``{x} ∪ rf(x) ∪ N({x} ∪ rf(x))`` is
    unchanged.  The order-respecting DFS that defines ``rf(x)`` expands a
    vertex ``v`` by comparing ``pos(w) > pos(v)`` over ``w ∈ N(v)``: by
    induction over its traversal every expansion it performs reads only
    those unchanged entries, so it visits exactly the old ``rf(x)`` and
    accepts exactly the old ``rf(x)`` — nothing new can become reachable,
    because the first new vertex on any order-increasing path from ``x``
    would have to be a neighbor of the old ``{x} ∪ rf(x)`` whose entry
    changed, and no such vertex exists.  Hence ``rf(x)`` and the bound
    ``|rf(x)|`` are unchanged.  Algorithm 1 then peels the candidate set
    ``rf(x)`` counting support over ``{x} ∪ core ∪ rf(x)``: it reads the
    static adjacency, the unchanged candidate set, and the core membership
    of neighbors of candidates — all in ``N({x} ∪ rf(x))``, whose
    memberships are unchanged because membership changes are in ``D``.
    So ``F(x)`` is unchanged too.

    The one-hop dilation is **not** optional: Algorithm 4 renumbers a
    repaired region with fresh positions *above every existing position*,
    so a repaired vertex ``w`` adjacent to the old ``rf(x)`` can become
    order-reachable from ``x`` even though its old position was too low —
    ``rf(x)`` gains ``w`` (and possibly more beyond it) without any vertex
    of the *old* ``{x} ∪ rf(x)`` being dirty.  ``w ∈ D`` puts such entries
    in ``N(D)``, which is exactly what the dilation catches.

    *The walk that decides it.*  The cache holds bounds, not sets, so it
    tests the rule as: ``x ∈ D1``, or some order-increasing path from
    ``x`` under the **post-apply** positions reaches ``D1``.  The two
    tests agree.  Take an increasing path from ``x ∉ D1``, under either
    the old or the new positions, that reaches ``D1``, and let ``u`` be
    its first vertex in ``D1``.  Every vertex before ``u`` lies outside
    ``D1``, so outside ``D``; ``u``'s predecessor on the path is such a
    vertex, so ``u ∉ D`` (else that predecessor would lie in
    ``N(D) ⊆ D1``).  Every position from ``x`` up to ``u`` is therefore
    unchanged, and the prefix ending at ``u`` is increasing under the
    other positions too: ``u ∈ rf(x) ∩ D1`` exactly when the post-apply
    walk reaches ``D1``.  The same argument says where such paths end:
    at a vertex of ``D1 ∖ D = N(D) ∖ D`` holding a position ``≥ 1``,
    entered from outside ``D1``.  So the walk runs backwards, once for
    all keys: from those vertices to their neighbors outside ``D1`` with
    a smaller position ``≥ 0``, and on from those.  Its cost is the rows
    of ``N(D) ∖ D`` and of the vertices it reaches — neither the closure
    of the surviving keys, which on ``shards=1`` campaigns spans every
    untouched component, nor the rows of ``D``.

two-hop survivor verdict — *evict iff* ``x ∈ D3``.
    Algorithm 3 visits candidates in increasing ``(|sig|, id)`` and keeps
    ``x`` iff ``sig(x) ≠ ∅`` and no *unvisited* candidate dominates it.
    Because "unvisited at the time ``x`` is processed" is exactly
    ``(|sig(w)|, w) > (|sig(x)|, x)``, the verdict is a pairwise predicate
    of ``x`` alone: ``x`` survives iff ``sig(x) ≠ ∅`` and no candidate
    ``w ≠ x`` satisfies ``(|sig(w)|, w) > (|sig(x)|, x)``, ``w`` adjacent
    to all of ``sig(x)``, and ``pos(w) < pos(v)`` for every
    ``v ∈ sig(x)`` (Definition 9).  Every datum read lives within three
    hops of ``x``: ``sig(x)`` needs positions of ``N(x)`` (≤ 1 hop); a
    dominator ``w`` is adjacent to a vertex of ``sig(x)`` (≤ 2 hops) and
    contributes its own position and candidacy (position entries at
    ≤ 2 hops); and ``|sig(w)|`` needs positions of ``N(w)`` (≤ 3 hops).
    If ``x ∉ D3`` none of those entries changed.  (Candidacy itself is a
    predicate of a vertex's own position entry, so it is covered.)

When ``apply_anchors`` reports ``None`` (the ``maintain=False`` full
recompute path — plain FILVER), nothing can be said about what moved and
the cache clears itself entirely; memoization degrades to a correct no-op.

The cache stores **the engine's own follower sets** (and hands them
back); callers must treat them as frozen.  Everything downstream already
does: ``AnchorSetMaintainer._insert`` defensively copies offered follower
sets.  Caches are ephemeral by design — checkpoints never serialize them,
and a resumed campaign rebuilds warmth from its replayed apply calls.

Byte-identity: memoized values are *the same values* the memo-off engine
would recompute (argument above), consumed at the same decision points, so
anchors, follower sets, per-iteration ``verifications`` counts (cache hits
still count — they replace the computation, not the decision), and the
canonical JSON are identical.  ``tests/test_incremental.py`` asserts this
differentially across variants, backends, worker counts, and resume.

A cache seeded with :class:`SeedTables` is a cache whose entries were
stored at epoch 0: it starts from copies of the seed's tables.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.bigraph.frontier import frontier_for
from repro.bigraph.graph import BipartiteGraph
from repro.core.deletion_order import DeletionOrder
from repro.core.order_maintenance import DirtyRegions

__all__ = ["SeedTables", "VerificationCache"]

_SIDES = ("upper", "lower")


class SeedTables:
    """Frozen epoch-0 verification tables, shareable across campaigns.

    Holds, per side, the pristine-state bounds ``|rf(x)|`` and two-hop
    survivor verdicts — what iteration one of a cold campaign computes
    from the pristine deletion orders.  Instances are frozen by contract:
    each campaign's cache copies the tables, so one instance is safe to
    share (including across service worker threads).
    """

    __slots__ = ("rf", "survivors")

    def __init__(self, rf: Dict[str, Dict[int, int]],
                 survivors: Dict[str, Dict[int, bool]]) -> None:
        self.rf = rf
        self.survivors = survivors

    def entries(self) -> int:
        """Total table entries across both sides (diagnostics only)."""
        return sum(len(self.rf[side]) + len(self.survivors[side])
                   for side in _SIDES)


_EMPTY_SEED = SeedTables(rf={side: {} for side in _SIDES},
                         survivors={side: {} for side in _SIDES})


class VerificationCache:
    """Memoized verification state for one campaign, one graph.

    Lifecycle per engine iteration::

        bounds = cache.rf_bounds(side, survivors)  # filter: bound reuse
        cache.store_rf(side, fresh)              # the misses' sweep
        ...
        cached = cache.followers_for(side, x)    # verify: Algorithm-1 reuse
        ...
        dirty = state.apply_anchors(chosen)
        cache.invalidate(dirty, (state.upper, state.lower))  # right after

    All hit/miss/eviction counters are plain attributes, exposed for the
    differential tests and the engine benchmark.  ``seed_hits`` counts the
    hits that returned a bound copied from the seed, not evicted since.
    """

    def __init__(self, graph: BipartiteGraph,
                 seed: Optional[SeedTables] = None) -> None:
        self._graph = graph
        self._seed = _EMPTY_SEED if seed is None else seed
        self._rf: Dict[str, Dict[int, int]] = {
            side: dict(self._seed.rf[side]) for side in _SIDES}
        # side -> the keys whose bound is still the seed's copy.
        self._seeded: Dict[str, Set[int]] = {
            side: set(self._seed.rf[side]) for side in _SIDES}
        self._followers: Dict[str, Dict[int, Set[int]]] = {
            side: {} for side in _SIDES}
        self._survivors: Dict[str, Dict[int, bool]] = {
            side: dict(self._seed.survivors[side]) for side in _SIDES}
        self.epoch = 0
        self.seed_hits = 0
        self.rf_hits = 0
        self.rf_misses = 0
        self.follower_hits = 0
        self.follower_misses = 0
        self.survivor_hits = 0
        self.survivor_misses = 0
        self.evictions = 0
        self.full_invalidations = 0

    # ------------------------------------------------------------------
    # bounds / followers
    # ------------------------------------------------------------------

    def rf_for(self, side: str, x: int) -> Optional[int]:
        """The cached bound ``|rf(x)|``, if still valid."""
        return self.rf_bounds(side, (x,))[0]

    def rf_bounds(self, side: str, xs: Sequence[int]) -> List[Optional[int]]:
        """:meth:`rf_for` of each of ``xs``, in their order: one read per
        filter pass."""
        bounds = list(map(self._rf[side].get, xs))
        misses = bounds.count(None)
        self.rf_misses += misses
        self.rf_hits += len(bounds) - misses
        seeded = self._seeded[side]
        if seeded:
            self.seed_hits += sum(map(seeded.__contains__, xs))
        return bounds

    def store_rf(self, side: str, bounds: Dict[int, int]) -> None:
        """Record freshly computed bounds ``{x: |rf(x)|}``."""
        self._rf[side].update(bounds)
        seeded = self._seeded[side]
        if seeded:
            seeded.difference_update(bounds)

    def followers_for(self, side: str, x: int) -> Optional[Set[int]]:
        """The cached ``F(x)``, or ``None`` when it must be computed."""
        followers = self._followers[side].get(x)
        if followers is None:
            self.follower_misses += 1
        else:
            self.follower_hits += 1
        return followers

    def store_followers(self, side: str, x: int, followers: Set[int]) -> None:
        """Record a freshly computed ``F(x)``, if its bound is cached (a
        bound's eviction drops the follower set with it)."""
        if x in self._rf[side]:
            self._followers[side][x] = followers

    # ------------------------------------------------------------------
    # Two-hop verdicts
    # ------------------------------------------------------------------

    def survivor_verdict(self, side: str, x: int) -> Optional[bool]:
        """The cached two-hop verdict of ``x``, or ``None`` on a miss."""
        return self.survivor_verdicts(side, (x,))[0]

    def survivor_verdicts(self, side: str,
                          xs: Sequence[int]) -> List[Optional[bool]]:
        """:meth:`survivor_verdict` of each of ``xs``, in their order: one
        read per filter pass."""
        verdicts = list(map(self._survivors[side].get, xs))
        misses = verdicts.count(None)
        self.survivor_misses += misses
        self.survivor_hits += len(verdicts) - misses
        return verdicts

    def store_survivor(self, side: str, x: int, survived: bool) -> None:
        self._survivors[side][x] = survived

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def invalidate(self, dirty: DirtyRegions,
                   orders: Iterable[DeletionOrder]) -> None:
        """Drop everything the just-applied anchors could have changed.

        Must be called exactly once per :meth:`OrderState.apply_anchors`,
        with its return value and the state's post-apply ``orders``,
        before the next filter stage runs.  The eviction rules and their
        sufficiency proofs are in the module docstring; ``None``
        (full-recompute path) clears the cache.
        """
        self.epoch += 1
        if dirty is None:
            self.clear_entries()
            self.full_invalidations += 1
            return
        positions = {order.side: order.position for order in orders}
        for side in _SIDES:
            dirty_seed = dirty[side]
            rf_table = self._rf[side]
            survivors = self._survivors[side]
            # An empty table evicts nothing, so its dilation is skipped:
            # D3 serves only the verdicts.
            if not dirty_seed or not (rf_table or survivors):
                continue
            d1, d3 = self._dilate(dirty_seed, 3 if survivors else 1)
            doomed = self._reaching(rf_table, positions[side], dirty_seed,
                                    d1)
            followers = self._followers[side]
            for x in doomed:
                del rf_table[x]
                followers.pop(x, None)
            self._seeded[side].difference_update(doomed)
            self.evictions += len(doomed)
            self.evictions += _evict_keys(survivors, d3)

    def freeze_seed(self) -> SeedTables:
        """Copy this cache's tables into a frozen, shareable seed.

        Intended for a throwaway warm-up cache populated from the pristine
        state (:class:`repro.core.batch.SharedCampaignContext`).
        """
        return SeedTables(
            rf={side: dict(self._rf[side]) for side in _SIDES},
            survivors={side: dict(self._survivors[side]) for side in _SIDES})

    def clear_entries(self) -> None:
        """Drop all cached state (does not reset counters or the epoch)."""
        for side in _SIDES:
            self.evictions += (len(self._rf[side])
                               + len(self._survivors[side]))
            self._rf[side].clear()
            self._seeded[side].clear()
            self._followers[side].clear()
            self._survivors[side].clear()

    # ------------------------------------------------------------------

    def _reaching(self, keys: Dict[int, int], position: array,
                  dirty: Set[int], d1: Set[int]) -> List[int]:
        """The keys in ``d1`` or with an order-increasing path into it, in
        table order.

        Walks backwards (module docstring, "The walk that decides it"):
        from each vertex of ``d1 - dirty`` holding a position ``> 0`` to
        its neighbors outside ``d1`` with a smaller position ``>= 0``, and
        on from those.  The walk reaches exactly the vertices outside
        ``d1`` with such a path.
        """
        row_of = self._graph.adjacency.__getitem__
        reach: Set[int] = set()
        stack = [u for u in d1 - dirty if position[u] > 0]
        push, pop, mark = stack.append, stack.pop, reach.add
        while stack:  # hot-loop
            u = pop()
            pu = position[u]
            for v in row_of(u):
                if -1 < position[v] < pu and v not in d1 and v not in reach:
                    mark(v)
                    push(v)
        return [x for x in keys if x in d1 or x in reach]

    def _dilate(self, seed: Set[int], hops: int = 3,
                ) -> Tuple[Set[int], Set[int]]:
        """``(D1, D_hops)``: the one- and ``hops``-hop dilations of ``seed``.

        Rounds expand frontiers only — ``N(D_k) ⊆ D_k ∪ N(frontier_k)`` —
        so the cost is the volume of the ``hops``-hop neighborhood, not
        repeated full neighborhood scans of ever-larger sets.  On CSR
        graphs each round is one :class:`repro.bigraph.frontier.Frontier`
        pass.
        """
        walk = frontier_for(self._graph)
        if walk is not None:
            return walk.dilate(seed, hops)
        row_of = self._graph.adjacency.__getitem__
        current = set(seed)
        frontier: Iterable[int] = seed
        d1: Set[int] = current
        for round_no in range(hops):
            grown: Set[int] = set()
            add = grown.add
            for v in frontier:
                for w in row_of(v):
                    if w not in current:
                        add(w)
            current |= grown
            if round_no == 0 and hops > 1:
                d1 = set(current)
            elif not grown:
                break
            frontier = grown
        return d1, current


def _evict_keys(table: Dict[int, object], dead: Set[int]) -> int:
    """Remove ``dead`` keys from ``table``; returns how many were present."""
    if not table:
        return 0
    removed = 0
    if len(dead) <= len(table):
        for v in dead:
            if table.pop(v, None) is not None:
                removed += 1
    else:
        stale: List[int] = [k for k in table if k in dead]
        for k in stale:
            del table[k]
        removed = len(stale)
    return removed
