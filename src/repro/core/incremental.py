"""A pristine shard's seed: its context's ranked lists, read until its
first apply.

A filter pass with the two-hop filter and ``|rf(x)|`` bounds ranks a
side's candidates as a function of ``(graph, α, β, side)`` alone while no
anchor has touched the shard: followers never leave their component
(Lemma 1), so nothing outside the shard enters the ranking.
:class:`repro.core.batch.SharedCampaignContext` therefore runs that pass
once per view and side of a shard plan, and each seeded campaign hands
its pristine shards those ranked lists through a
:class:`VerificationCache`.  The shard's ranked memo
(:meth:`repro.core.sharded.CampaignShard.ranked`) takes a side's list from
the cache instead of refiltering.

Why a read is exact: the lists are values of the pristine state, computed
by the engine's own filter stage over a pristine clone.  Until an anchor
is applied to the shard, its deletion orders and core *are* the pristine
ones, so the list is what a fresh pass returns.  The shard's first apply
leaves that state: :meth:`repro.core.sharded.CampaignShard.apply` calls
:meth:`VerificationCache.invalidate` and drops the cache, so every later
list is refiltered.

Byte-identity: a read replaces the filter pass at the same decision point
with the same list, so anchors, follower sets, per-iteration
``verifications`` counts and the canonical JSON are those of a campaign
without a context (asserted in ``tests/test_batch.py`` and
``tests/test_incremental.py``).  Checkpoints never record a cache: a
resumed campaign starts without one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

if TYPE_CHECKING:
    from repro.core.sharded import MergedCandidate

__all__ = ["Seed", "VerificationCache"]

#: One side's ranked list and pre-filter pool size, as
#: :func:`repro.core.engine._filter_stage` returns them.
RankedSide = Tuple[List["MergedCandidate"], int]

#: One view's seed: each side's pristine :data:`RankedSide`.  Shared
#: read-only across campaigns and service threads.
Seed = Mapping[str, RankedSide]


class VerificationCache:
    """One pristine shard's seed, read until the shard's first apply.

    Lifecycle::

        entries, total = cache.ranked(side)  # the shard's memo miss
        ...
        cache.invalidate()                   # the shard's first apply

    ``seed_hits`` counts the ranked entries served; ``evictions`` the
    entries the first apply dropped.  The tests and the benchmarks read
    both.
    """

    # Nothing is looked up per candidate, so these stay 0; perfbench's
    # tracer reads them by name.
    rf_hits = 0
    rf_misses = 0
    survivor_hits = 0
    survivor_misses = 0
    follower_hits = 0
    follower_misses = 0

    def __init__(self, seed: Optional[Seed] = None) -> None:
        self._seed: Seed = {} if seed is None else seed
        self.seed_hits = 0
        self.evictions = 0

    def ranked(self, side: str) -> Optional[RankedSide]:
        """The seed's ranked list for ``side``, or ``None`` without one.
        The list is shared: callers never mutate it."""
        hit = self._seed.get(side)
        if hit is not None:
            self.seed_hits += len(hit[0])
        return hit

    def store_rf(self, side: str, bounds: Dict[int, int]) -> None:
        """Never called: bounds are not stored per candidate.  Kept
        because perfbench's tracer wraps it by name."""

    def invalidate(self) -> None:
        """Drop the seed: the shard's first apply has left the pristine
        state its lists rank.  Counters are kept."""
        self.evictions += sum(len(entries)
                              for entries, _total in self._seed.values())
        self._seed = {}
