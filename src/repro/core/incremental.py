"""Cross-iteration verification memoization with affected-region invalidation.

The engine's filter/verification stages recompute, for every candidate and
every iteration: the order-reachable set ``rf(x)``, the bound ``|rf(x)|``,
the follower signature ``sig(x)``, the two-hop domination verdict, and —
for the candidates that reach Algorithm 1 — the follower set ``F(x)``.
Yet Algorithm 4 confines each anchor's effect to its *affected graph*:
outside the repaired regions, both deletion orders are bit-identical from
one iteration to the next.  :class:`VerificationCache` carries all five
quantities across iterations and drops only what the repairs could have
changed, using the per-side dirty regions that
:meth:`repro.core.order_maintenance.OrderState.apply_anchors` reports.

Correctness argument
--------------------

Fix one side and let ``D`` be that side's dirty set after an apply.  The
contract of ``apply_anchors`` is that every position entry of that side's
order and every anchored-core membership outside ``D`` is bit-identical to
its value before the call.  Write ``N(S)`` for the graph neighbors of a
vertex set ``S`` and ``D1 = D ∪ N(D)``, ``D3`` for the threefold dilation
``D ∪ N(D) ∪ N²(D) ∪ N³(D)``.  The invalidation rules, and why each is
sufficient:

``rf(x)`` / bound / ``F(x)`` — *evict iff* ``({x} ∪ rf(x)) ∩ D1 ≠ ∅``.
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

``sig(x)`` — *evict iff* ``x ∈ D1``.
    ``sig(x)`` is a function of the position entries of ``{x} ∪ N(x)``.
    If ``x ∉ D1`` then ``x ∉ D`` and no neighbor of ``x`` is in ``D``,
    so all those entries are unchanged.

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

r-score table — *reuse iff* ``D = ∅`` for that side.
    ``r_scores`` is a DP over the entire order, so any dirty entry on the
    side invalidates the whole table.  Both sides repair on almost every
    apply, so this cache rarely survives — it exists for ablation
    configurations that pair the r-score bound with order maintenance,
    and costs one dict reference when it misses.

When ``apply_anchors`` reports ``None`` (the ``maintain=False`` full
recompute path — plain FILVER), nothing can be said about what moved and
the cache clears itself entirely; memoization degrades to a correct no-op.

The cache stores **the engine's own sets** (and hands them back); callers
must treat them as frozen.  Everything downstream already does:
``compute_followers``/``FollowerKernel.followers`` only read ``candidates``,
and ``AnchorSetMaintainer._insert`` defensively copies offered follower
sets.  Caches are ephemeral by design — checkpoints never serialize them,
and a resumed campaign rebuilds warmth from its replayed apply calls.

Byte-identity: memoized values are *the same values* the memo-off engine
would recompute (argument above), consumed at the same decision points, so
anchors, follower sets, per-iteration ``verifications`` counts (cache hits
still count — they replace the computation, not the decision), and the
canonical JSON are identical.  ``tests/test_incremental.py`` asserts this
differentially across variants, backends, worker counts, and resume.

Cross-campaign seeding
----------------------

A cache may additionally be constructed around a frozen :class:`SeedTables`
— the epoch-0 tables of the *pristine* (no anchors) state, computed once per
``(graph, α, β)`` by :class:`repro.core.batch.SharedCampaignContext` and
shared read-only by every campaign in a batch.  Soundness reduces to the
single-campaign argument: a seed entry is exactly the value iteration one of
a cold campaign would compute and store (the pristine orders are a pure
function of ``(graph, α, β)``), so serving it is indistinguishable from an
intra-campaign hit on an entry stored one iteration earlier.  Seeded lookups
*promote* the entry into the campaign's private tables, after which the
normal eviction rules above apply; because promotion shares the frozen value
objects, the seed itself must never be mutated — and nothing downstream
mutates cached sets (the frozen-values contract above).  Invalidation
additionally records per-side *tombstones* against the seed (the same D1/D3
rules, applied to the seed's static ``rf`` index and key sets) so an entry
the campaign's dirt has invalidated — promoted or not — can never be served
again.  The full-invalidation path (``dirty is None``) detaches the seed
outright.  Hit/miss counters naturally differ from an unseeded run; none of
them feed decisions, so byte-identity is unaffected.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.bigraph.graph import BipartiteGraph
from repro.core.order_maintenance import DirtyRegions

__all__ = ["SeedTables", "VerificationCache", "VerificationEntry"]

_SIDES = ("upper", "lower")


class SeedTables:
    """Frozen epoch-0 verification tables, shareable across campaigns.

    Holds, per side, the pristine-state ``rf(x)`` sets (bound = ``len``),
    follower signatures, two-hop survivor verdicts, and the r-score table —
    everything iteration one of a cold campaign computes from the pristine
    deletion orders.  Instances are frozen by contract: campaigns promote
    entries out of the seed but never write into it, which is what makes one
    instance safe to share (including across service worker threads).

    ``rf_index`` is the warm-up cache's inverted index
    ``v → {x : v ∈ {x} ∪ rf(x)}``, static once frozen, that lets a
    campaign's invalidation tombstone seed entries with the same
    ``O(|D1|)`` scan it uses for its private entries.
    """

    __slots__ = ("rf", "rf_index", "sigs", "survivors", "r_scores")

    def __init__(self, rf: Dict[str, Dict[int, Set[int]]],
                 rf_index: Dict[str, Dict[int, Set[int]]],
                 sigs: Dict[str, Dict[int, Set[int]]],
                 survivors: Dict[str, Dict[int, bool]],
                 r_scores: Dict[str, Optional[Dict[int, int]]]) -> None:
        self.rf = rf
        self.rf_index = rf_index
        self.sigs = sigs
        self.survivors = survivors
        self.r_scores = r_scores

    def entries(self) -> int:
        """Total table entries across both sides (diagnostics only)."""
        total = 0
        for side in _SIDES:
            total += (len(self.rf[side]) + len(self.sigs[side])
                      + len(self.survivors[side]))
            if self.r_scores[side] is not None:
                total += 1
        return total


class VerificationEntry:
    """One candidate's cached verification state: ``rf(x)``, bound, ``F(x)``.

    ``followers`` stays ``None`` until the verification stage actually
    evaluates the candidate — a candidate can sit in the filter stage's
    bound cache for many iterations without ever being verified.
    ``epoch`` records the invalidation epoch the entry was stored under
    (diagnostics only; eviction is eager, not epoch-compared).
    """

    __slots__ = ("rf", "bound", "followers", "epoch")

    def __init__(self, rf: Set[int], bound: int, epoch: int) -> None:
        self.rf = rf
        self.bound = bound
        self.followers: Optional[Set[int]] = None
        self.epoch = epoch


class VerificationCache:
    """Memoized verification state for one campaign, one graph.

    Lifecycle per engine iteration::

        entry = cache.rf_entry(side, x)          # filter: bound reuse
        ...
        cached = cache.followers_for(side, x)    # verify: Algorithm-1 reuse
        ...
        dirty = state.apply_anchors(chosen)
        cache.invalidate(dirty)                  # once, right after apply

    All hit/miss/eviction counters are plain attributes, exposed for the
    differential tests and the engine benchmark.
    """

    def __init__(self, graph: BipartiteGraph,
                 seed: Optional[SeedTables] = None) -> None:
        self._row_of = graph.adjacency.__getitem__
        # Frozen cross-campaign seed (module docstring, "Cross-campaign
        # seeding"): consulted on private misses, never written; per-side
        # tombstones block entries the campaign's own dirt has killed.
        self._seed = seed
        self._seed_dead_rf: Dict[str, Set[int]] = {
            side: set() for side in _SIDES}
        self._seed_dead_sigs: Dict[str, Set[int]] = {
            side: set() for side in _SIDES}
        self._seed_dead_survivors: Dict[str, Set[int]] = {
            side: set() for side in _SIDES}
        self._seed_r_valid: Dict[str, bool] = {side: True for side in _SIDES}
        self.seed_hits = 0
        self._entries: Dict[str, Dict[int, VerificationEntry]] = {
            side: {} for side in _SIDES}
        # Inverted index per side: vertex v -> ids of cached candidates x
        # with v ∈ {x} ∪ rf(x).  Makes invalidation O(|D1| + evicted work)
        # instead of a scan over every cached entry.
        self._rf_index: Dict[str, Dict[int, Set[int]]] = {
            side: {} for side in _SIDES}
        self._sigs: Dict[str, Dict[int, Set[int]]] = {
            side: {} for side in _SIDES}
        self._survivors: Dict[str, Dict[int, bool]] = {
            side: {} for side in _SIDES}
        self._r_scores: Dict[str, Optional[Dict[int, int]]] = {
            side: None for side in _SIDES}
        self.epoch = 0
        self.rf_hits = 0
        self.rf_misses = 0
        self.follower_hits = 0
        self.follower_misses = 0
        self.sig_hits = 0
        self.sig_misses = 0
        self.survivor_hits = 0
        self.survivor_misses = 0
        self.r_score_hits = 0
        self.r_score_misses = 0
        self.evictions = 0
        self.full_invalidations = 0

    # ------------------------------------------------------------------
    # rf / bound / followers
    # ------------------------------------------------------------------

    def rf_entry(self, side: str, x: int) -> Optional[VerificationEntry]:
        """The cached ``(rf, bound, followers)`` entry for ``x``, if valid."""
        entry = self._entries[side].get(x)
        if (entry is None and self._seed is not None
                and x not in self._seed_dead_rf[side]):
            rf = self._seed.rf[side].get(x)
            if rf is not None:
                # Promote: the frozen set is shared, the entry is private, so
                # from here on the normal eviction rules govern it.
                entry = self.store_rf(side, x, rf)
                self.seed_hits += 1
        if entry is None:
            self.rf_misses += 1
        else:
            self.rf_hits += 1
        return entry

    def store_rf(self, side: str, x: int, rf: Set[int]) -> VerificationEntry:
        """Record a freshly computed ``rf(x)``; the bound is ``len(rf)``."""
        entries = self._entries[side]
        old = entries.get(x)
        if old is not None:  # pragma: no cover - engine stores once per miss
            self._unindex(side, x, old)
        entry = VerificationEntry(rf, len(rf), self.epoch)
        entries[x] = entry
        index = self._rf_index[side]
        for v in rf:
            ids = index.get(v)
            if ids is None:
                index[v] = {x}
            else:
                ids.add(x)
        ids = index.get(x)
        if ids is None:
            index[x] = {x}
        else:
            ids.add(x)
        return entry

    def followers_for(self, side: str, x: int) -> Optional[Set[int]]:
        """The cached ``F(x)``, or ``None`` when it must be computed."""
        entry = self._entries[side].get(x)
        followers = entry.followers if entry is not None else None
        if followers is None:
            self.follower_misses += 1
        else:
            self.follower_hits += 1
        return followers

    def store_followers(self, side: str, x: int, followers: Set[int]) -> None:
        """Attach a freshly computed ``F(x)`` to ``x``'s entry, if cached."""
        entry = self._entries[side].get(x)
        if entry is not None:
            entry.followers = followers

    # ------------------------------------------------------------------
    # Signatures and two-hop verdicts
    # ------------------------------------------------------------------

    def signature_for(self, side: str, x: int) -> Optional[Set[int]]:
        sig = self._sigs[side].get(x)
        if (sig is None and self._seed is not None
                and x not in self._seed_dead_sigs[side]):
            sig = self._seed.sigs[side].get(x)
            if sig is not None:
                self._sigs[side][x] = sig
                self.seed_hits += 1
        if sig is None:
            self.sig_misses += 1
        else:
            self.sig_hits += 1
        return sig

    def store_signature(self, side: str, x: int, sig: Set[int]) -> None:
        self._sigs[side][x] = sig

    def survivor_verdict(self, side: str, x: int) -> Optional[bool]:
        verdict = self._survivors[side].get(x)
        if (verdict is None and self._seed is not None
                and x not in self._seed_dead_survivors[side]):
            verdict = self._seed.survivors[side].get(x)
            if verdict is not None:
                self._survivors[side][x] = verdict
                self.seed_hits += 1
        if verdict is None:
            self.survivor_misses += 1
        else:
            self.survivor_hits += 1
        return verdict

    def store_survivor(self, side: str, x: int, survived: bool) -> None:
        self._survivors[side][x] = survived

    # ------------------------------------------------------------------
    # r-score tables
    # ------------------------------------------------------------------

    def r_scores_for(self, side: str) -> Optional[Dict[int, int]]:
        table = self._r_scores[side]
        if (table is None and self._seed is not None
                and self._seed_r_valid[side]):
            table = self._seed.r_scores[side]
            if table is not None:
                self._r_scores[side] = table
                self.seed_hits += 1
        if table is None:
            self.r_score_misses += 1
        else:
            self.r_score_hits += 1
        return table

    def store_r_scores(self, side: str, table: Dict[int, int]) -> None:
        self._r_scores[side] = table

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def invalidate(self, dirty: DirtyRegions) -> None:
        """Drop everything the just-applied anchors could have changed.

        Must be called exactly once per :meth:`OrderState.apply_anchors`,
        with its return value, before the next filter stage runs.  The
        eviction rules and their sufficiency proofs are in the module
        docstring; ``None`` (full-recompute path) clears the cache.
        """
        self.epoch += 1
        if dirty is None:
            self.clear_entries()
            self.full_invalidations += 1
            return
        for side in _SIDES:
            dirty_seed = dirty[side]
            if not dirty_seed:
                continue
            d1, d3 = self._dilate(dirty_seed)
            self._evict_rf(side, d1)
            self.evictions += _evict_keys(self._sigs[side], d1)
            self.evictions += _evict_keys(self._survivors[side], d3)
            if self._r_scores[side] is not None:
                self._r_scores[side] = None
                self.evictions += 1
            if self._seed is not None:
                # Tombstone seed entries by the same D1/D3 rules, via the
                # seed's static rf index — an entry killed here can never be
                # served (or re-promoted) again.
                index = self._seed.rf_index[side]
                dead = self._seed_dead_rf[side]
                for v in d1:
                    ids = index.get(v)
                    if ids:
                        dead |= ids
                self._seed_dead_sigs[side] |= d1
                self._seed_dead_survivors[side] |= d3
                self._seed_r_valid[side] = False

    def freeze_seed(self) -> SeedTables:
        """Detach this cache's tables as a frozen, shareable seed.

        Intended for a throwaway warm-up cache populated from the pristine
        state (:class:`repro.core.batch.SharedCampaignContext`); the caller
        must not keep using this cache afterwards, since the seed shares its
        value objects and its ``rf`` index.
        """
        return SeedTables(
            rf={side: {x: e.rf for x, e in self._entries[side].items()}
                for side in _SIDES},
            rf_index=self._rf_index,
            sigs={side: dict(self._sigs[side]) for side in _SIDES},
            survivors={side: dict(self._survivors[side]) for side in _SIDES},
            r_scores={side: self._r_scores[side] for side in _SIDES})

    def clear_entries(self) -> None:
        """Drop all cached state (does not reset counters or the epoch).

        Also detaches any cross-campaign seed: callers clearing the cache
        assert nothing about what moved, and a detached seed is the only
        universally safe answer.
        """
        self._seed = None
        for side in _SIDES:
            self.evictions += (len(self._entries[side])
                               + len(self._sigs[side])
                               + len(self._survivors[side]))
            if self._r_scores[side] is not None:
                self.evictions += 1
            self._entries[side].clear()
            self._rf_index[side].clear()
            self._sigs[side].clear()
            self._survivors[side].clear()
            self._r_scores[side] = None

    # ------------------------------------------------------------------

    def _dilate(self, seed: Set[int]) -> Tuple[Set[int], Set[int]]:
        """``(D1, D3)``: the one- and three-hop dilations of ``seed``.

        Rounds expand frontiers only — ``N(D_k) ⊆ D_k ∪ N(frontier_k)`` —
        so the cost is the volume of the 3-hop neighborhood, not three
        full neighborhood scans of ever-larger sets.
        """
        row_of = self._row_of
        current = set(seed)
        frontier: Iterable[int] = seed
        d1: Set[int] = set()
        for round_no in range(3):
            grown: Set[int] = set()
            add = grown.add
            for v in frontier:
                for w in row_of(v):
                    if w not in current:
                        add(w)
            current |= grown
            if round_no == 0:
                d1 = set(current)
            elif not grown:
                break
            frontier = grown
        return d1, current

    def _evict_rf(self, side: str, d1: Set[int]) -> None:
        index = self._rf_index[side]
        doomed: Set[int] = set()
        for v in d1:
            ids = index.get(v)
            if ids:
                doomed |= ids
        entries = self._entries[side]
        for x in sorted(doomed):
            entry = entries.pop(x)
            self._unindex(side, x, entry)
            self.evictions += 1

    def _unindex(self, side: str, x: int, entry: VerificationEntry) -> None:
        index = self._rf_index[side]
        for v in entry.rf:
            ids = index.get(v)
            if ids is not None:
                ids.discard(x)
                if not ids:
                    del index[v]
        ids = index.get(x)
        if ids is not None:
            ids.discard(x)
            if not ids:
                del index[x]


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
