"""Epoch-0 verification values, read while a shard is pristine.

A filter pass over a pristine shard computes, per side, every candidate's
two-hop survivor verdict and every survivor's bound ``|rf(x)|``.  Those
values are functions of ``(graph, α, β)`` alone, so
:class:`repro.core.batch.SharedCampaignContext` computes them once per
shard plan and freezes them into :class:`SeedTables`.  Each seeded
campaign gives a shard a private :class:`VerificationCache` over its
seed, and the filter stage reads it instead of recomputing.  Neither
``rf(x)`` itself, the signatures ``sig(x)`` nor any follower set ``F(x)``
is cached: the filter needs only the bound, verification derives
``rf(x)`` in its own DFS, and the two-hop filter reads signatures fresh
to decide a verdict miss.

Why a read is exact: every entry is a value of the pristine state.  It
was copied from the seed, or computed and stored by a filter pass over
that state (a pristine shard refilters when the budgets change which
sides are eligible).  Until an anchor is applied to the shard, its
deletion orders and core *are* the pristine ones, so a read returns what
a fresh computation returns.  The shard's first apply leaves that state:
:meth:`repro.core.sharded.CampaignShard.apply` calls
:meth:`VerificationCache.invalidate`, which drops every entry, and drops
the cache itself, so every later value is recomputed.  No value is
carried across an apply; the one reuse across iterations is the shard
plan's, where a shard no anchor touched keeps its ranked list.

Byte-identity: a read replaces the computation at the same decision
point with the same value, so anchors, follower sets, per-iteration
``verifications`` counts and the canonical JSON are those of a campaign
without a context (asserted in ``tests/test_batch.py`` and
``tests/test_incremental.py``).  Checkpoints never record a cache: a
resumed campaign starts without one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

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
    """One pristine shard's verification values: the seed's, and those
    its filter passes stored before the shard's first apply.

    Lifecycle::

        bounds = cache.rf_bounds(side, survivors)  # filter: bound reuse
        cache.store_rf(side, fresh)              # the misses' sweep
        ...
        cache.invalidate()                       # the shard's first apply

    The hit/miss/eviction counters are plain attributes, read by the tests
    and the benchmarks.  ``seed_hits`` counts the hits on the seed's
    bounds.
    """

    # No follower set is cached, so these stay 0; perfbench's tracer
    # reads them.
    follower_hits = 0
    follower_misses = 0

    def __init__(self, seed: Optional[SeedTables] = None) -> None:
        self._seed = _EMPTY_SEED if seed is None else seed
        self._rf: Dict[str, Dict[int, int]] = {
            side: dict(self._seed.rf[side]) for side in _SIDES}
        self._survivors: Dict[str, Dict[int, bool]] = {
            side: dict(self._seed.survivors[side]) for side in _SIDES}
        self.seed_hits = 0
        self.rf_hits = 0
        self.rf_misses = 0
        self.survivor_hits = 0
        self.survivor_misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------

    def rf_for(self, side: str, x: int) -> Optional[int]:
        """The cached bound ``|rf(x)|``, or ``None`` on a miss."""
        return self.rf_bounds(side, (x,))[0]

    def rf_bounds(self, side: str, xs: Sequence[int]) -> List[Optional[int]]:
        """:meth:`rf_for` of each of ``xs``, in their order: one read per
        filter pass."""
        bounds = list(map(self._rf[side].get, xs))
        misses = bounds.count(None)
        self.rf_misses += misses
        self.rf_hits += len(bounds) - misses
        seeded = self._seed.rf[side]
        if seeded:
            self.seed_hits += sum(map(seeded.__contains__, xs))
        return bounds

    def store_rf(self, side: str, bounds: Dict[int, int]) -> None:
        """Record freshly computed bounds ``{x: |rf(x)|}``."""
        self._rf[side].update(bounds)

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

    def invalidate(self) -> None:
        """Drop every entry: the shard's first apply has left the pristine
        state they are values of.  Counters are kept."""
        for side in _SIDES:
            self.evictions += (len(self._rf[side])
                               + len(self._survivors[side]))
            self._rf[side].clear()
            self._survivors[side].clear()
        self._seed = _EMPTY_SEED

    def freeze_seed(self) -> SeedTables:
        """Copy this cache's tables into a frozen, shareable seed.

        Intended for a throwaway warm-up cache populated from the pristine
        state (:class:`repro.core.batch.SharedCampaignContext`).
        """
        return SeedTables(
            rf={side: dict(self._rf[side]) for side in _SIDES},
            survivors={side: dict(self._survivors[side]) for side in _SIDES})
