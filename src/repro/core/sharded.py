"""Campaign shards: the per-component state the greedy loop drives.

Followers never cross connected components (Lemma 1: every follower of an
anchor is order-reachable from it, and reachability walks edges), so the
greedy filter–verification loop factorizes: each group of components
keeps its own deletion orders and ranked candidate lists, and a global
iteration only merges per-shard rankings and routes the chosen anchors
back to their shards.  :func:`repro.core.engine.run_engine`
is that loop; this module provides the shards it drives.  The shard plan
(:func:`plan_shards`, :func:`shard_views`) is a pure function of the graph
and ``shards``, and a plan of one group is an :class:`IdentityView` of the
input graph itself — no id maps, no copy, so a memmap graph stays memmap.
:func:`build_shards` puts a :class:`CampaignShard` on each view, and
:func:`replay_shards` rebuilds their state from a checkpoint's records.

Why the merge is byte-identical (``docs/PERF.md`` carries the full
argument): local ids are assigned monotonically (ascending global order,
uppers first — :class:`~repro.bigraph.components.SubgraphView`), so every
id-ordered tie-break inside a shard resolves exactly as it would globally;
each shard side's ranked list is sorted by ``(-bound, local id)`` which is
therefore also ``(-bound, global id)`` order, and a merge under that key
reproduces the one-shard globally sorted candidate list element for
element.  Candidate ``x`` ids are unique, so the sort key never ties
deeper.

What sharding buys: after an iteration anchors only components in the
winning shards, so every other shard's ranked lists and deletion orders
are reused untouched next iteration.  In a seeded campaign a shard no
anchor has touched yet never filters at all: its lists are the
context's (:mod:`repro.core.incremental`).  Shards also bound peak memory
(one component's working set at a time) and give the parallel evaluator
(:mod:`repro.parallel`) shard-granular work units.
"""

from __future__ import annotations

import heapq
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

# abcore, anchored_abcore: unused here, kept for perfbench's tracer.
from repro.abcore.decomposition import abcore, anchored_abcore  # noqa: F401
from repro.bigraph.components import ComponentDecomposition, SubgraphView
from repro.bigraph.graph import BipartiteGraph
from repro.bigraph.kernel import FollowerKernel, kernel_for
from repro.core.engine import EngineOptions, _filter_stage
# compute_followers: unused here, kept for perfbench's tracer.
from repro.core.followers import compute_followers  # noqa: F401
from repro.core.incremental import RankedSide, Seed, VerificationCache
from repro.core.order_maintenance import OrderState
from repro.exceptions import InvalidParameterError
from repro.resilience.checkpoint import CampaignCheckpoint

if TYPE_CHECKING:
    from repro.core.batch import SharedCampaignContext

__all__ = ["AUTO_SHARD_CAP", "CampaignShard", "IdentityView", "build_shards",
           "plan_shards", "replay_shards", "shard_views", "split_by_shard"]

#: The most shards ``shards=None`` plans: every shard has a fixed cost per
#: iteration, which thousands of tiny components would pay over and over.
AUTO_SHARD_CAP = 32

#: One ranked candidate: ``(-bound, global_x, shard_index, side,
#: local_x)``.  The two leading ints are the engine's sort key, pre-negated
#: so plain tuple comparison orders candidates without a key function
#: (``global_x`` is unique, so the sort never compares further).  They
#: are flat rather than a nested pair: one tuple per candidate instead of
#: two, and the sort compares ints directly.  The rest, ``entry[2:]``, is
#: the evaluator's :data:`repro.parallel.ShardCandidate`: the verification
#: scan finds the shard by index and the order by side.  Entries are
#: plain data, so a context's seeded lists are shared by every campaign.
MergedCandidate = Tuple[int, int, int, str, int]

#: Maps a global vertex id to the index of the shard that owns it.
Router = Callable[[int], int]

#: A shard's id space: the whole graph, or a component-local subgraph.
View = Union[SubgraphView, "IdentityView"]


def plan_shards(sizes: Sequence[Tuple[int, int, int]],
                shards: Optional[int]) -> List[Tuple[int, ...]]:
    """Group components into at most ``shards`` balanced groups.

    ``None`` means one group per component with at least one edge, capped
    at :data:`AUTO_SHARD_CAP`.  Greedy longest-processing-time assignment
    on edge counts: components in decreasing ``n_edges`` order (ties by id)
    each go to the currently lightest group (ties by group index), so
    edge-less components join the lightest group.  Deterministic, and
    irrelevant to results: grouping affects locality, never values.

    Returns each group's component ids sorted ascending; groups are ordered
    by their first component id so shard numbering is itself canonical.
    """
    if shards is None:
        with_edges = sum(1 for size in sizes if size[2] > 0)
        shards = max(1, min(with_edges, AUTO_SHARD_CAP))
    elif shards < 1:
        raise InvalidParameterError("shards must be >= 1, got %d" % shards)
    n_components = len(sizes)
    n_groups = min(shards, n_components)
    if n_groups == 0:
        return []
    order = sorted(range(n_components),
                   key=lambda c: (-sizes[c][2], c))
    loads = [(0, g) for g in range(n_groups)]
    heapq.heapify(loads)
    groups: List[List[int]] = [[] for _ in range(n_groups)]
    for c in order:
        load, g = heapq.heappop(loads)
        groups[g].append(c)
        heapq.heappush(loads, (load + sizes[c][2], g))
    members = [tuple(sorted(group)) for group in groups if group]
    members.sort(key=lambda group: group[0])
    return members


class IdentityView:
    """The one-shard view of a whole graph: local ids are global ids.

    ``graph`` is the input graph object itself — nothing is decomposed,
    renumbered, or copied.  ``to_global`` is a ``range``, so indexing it is
    the identity, and :meth:`globalize` hands its argument back unchanged.
    """

    __slots__ = ("graph", "to_global")

    def __init__(self, graph: BipartiteGraph) -> None:
        self.graph = graph
        self.to_global = range(graph.n_vertices)

    def localize(self, global_ids: Iterable[int]) -> List[int]:
        return list(global_ids)

    def globalize(self, local_ids: Set[int]) -> Set[int]:
        return local_ids


class CampaignShard:
    """One shard's campaign state.

    Owns the view (identity or component-local), the local
    :class:`OrderState`, the optional follower kernel, the ranked
    candidate memo and, while the shard is pristine in a seeded campaign,
    a :class:`VerificationCache` over its context's ranked lists.
    Everything else — the anchors placed, budget use, per-iteration
    records — is global and lives in the loop; a shard's state is a
    function of the global batches routed to it, which is why checkpoints
    need not record it.

    The ranked memo is the substrate's core saving: :meth:`ranked` reruns
    the filter stage for a side only when an anchor batch touched this
    shard since that side's last pass; otherwise the previous list —
    provably identical to a fresh recompute, because nothing it depends
    on changed — is returned as-is.  The kernel is stamped whenever the
    state changes (here and in :meth:`apply`), so a seeded shard can be
    verified without ever filtering.
    """

    __slots__ = ("index", "view", "graph", "state", "cache", "kernel",
                 "_ranked")

    def __init__(self, index: int, view: View,
                 state: OrderState, cache: Optional[VerificationCache],
                 kernel: Optional[FollowerKernel]) -> None:
        self.index = index
        self.view = view
        self.graph = view.graph
        self.state = state
        self.cache = cache
        self.kernel = kernel
        # side -> (entries, candidates_total); entries are merged-form
        # MergedCandidate tuples sorted by their -bound, global_x head.
        self._ranked: Dict[str, RankedSide] = {}
        self._stamp()

    def ranked(self, side: str, options: EngineOptions) -> RankedSide:
        """This shard's ranked candidates on ``side``.

        A pristine seeded shard serves its context's list; any other
        shard filters once per side per apply.  The budgets decide only
        which sides are asked for, never the values, so a clean side hits
        the memo however the other side's budget runs.
        """
        hit = self._ranked.get(side)
        if hit is None:
            if self.cache is not None:
                hit = self.cache.ranked(side)
            if hit is None:
                # Stored in merged form, so the per-iteration global merge
                # is a C-level concatenate-and-sort over memoized lists,
                # with no per-candidate Python work for clean shards.
                hit = _filter_stage(self, side, options)
            self._ranked[side] = hit
        return hit

    def apply(self, batch: Sequence[int]) -> None:
        """Anchor a local-id batch.  The shard is no longer pristine, so
        its seed goes (:mod:`repro.core.incremental`)."""
        self.state.apply_anchors(list(batch))
        if self.cache is not None:
            self.cache.invalidate()
            self.cache = None
        self._ranked.clear()
        self._stamp()

    def _stamp(self) -> None:
        if self.kernel is not None:
            self.kernel.begin_iteration(self.state.upper.position,
                                        self.state.lower.position,
                                        self.state.core)


def shard_views(graph: BipartiteGraph, shards: Optional[int],
                ) -> Tuple[List[View], Router]:
    """The views of ``graph``'s shard plan, and the router for global ids.

    A plan of one group — always for ``shards=1``, which skips the
    decomposition — is the :class:`IdentityView` of ``graph`` itself.
    """
    if shards != 1:
        decomposition = ComponentDecomposition(graph)
        plan = plan_shards(decomposition.sizes, shards)
        if len(plan) > 1:
            # Each vertex's shard index, for routing anchors.
            shard_of = decomposition.group_of_vertex(plan)
            return ([decomposition.subgraph_view(components)
                     for components in plan], shard_of.__getitem__)
    return [IdentityView(graph)], lambda gx: 0


def build_shards(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    options: EngineOptions,
    memoize: bool,
    flat_kernel: Optional[bool],
    shards: Optional[int],
    context: Optional["SharedCampaignContext"] = None,
    seeded: bool = True,
) -> Tuple[List[CampaignShard], Router]:
    """The shards a campaign runs on, and the router for global anchor ids.

    The views come from :func:`shard_views`; a ``context`` memoizes them
    and supplies the pristine state clones and — when ``memoize`` and
    ``seeded``, and ``options`` turn on both the two-hop filter and the
    ``|rf(x)|`` bound (the only pass a context seeds) — each view's
    pristine ranked lists.  A shard gets a :class:`VerificationCache`
    only over a seed.
    ``flat_kernel=None`` auto-enables the follower kernel on CSR-backed
    views, ``True`` requires CSR (construction raises otherwise), ``False``
    forces the generic dict/set path.
    """
    maintain = options.maintain_orders
    seeds: Sequence[Seed] = ()
    if context is not None:
        views, route = context.shard_views(shards)
        states = context.order_state(maintain=maintain, shards=shards)
        if (memoize and seeded and options.use_two_hop_filter
                and options.use_rf_bound):
            seeds = context.seed_tables(shards)
    else:
        views, route = shard_views(graph, shards)
        states = [OrderState(view.graph, alpha, beta, maintain=maintain)
                  for view in views]
    shard_list = []
    for index, (view, state) in enumerate(zip(views, states)):
        local = view.graph
        kernel = (kernel_for(local) if flat_kernel is None
                  else FollowerKernel(local) if flat_kernel else None)
        # seed_tables() is a tuple in view order.
        cache = VerificationCache(seeds[index]) if seeds else None
        shard_list.append(CampaignShard(index, view, state, cache, kernel))
    return shard_list, route


def split_by_shard(global_ids: Iterable[int],
                   route: Router) -> List[Tuple[int, List[int]]]:
    """``(shard_index, ids)`` pairs in ascending shard order.

    Each sub-list keeps the input order — the order a global apply would
    process the ids in.
    """
    by_shard: Dict[int, List[int]] = {}
    for gx in global_ids:
        by_shard.setdefault(route(gx), []).append(gx)
    return sorted(by_shard.items())


def replay_shards(shard_list: List[CampaignShard], route: Router,
                  campaign: CampaignCheckpoint) -> None:
    """Rebuild every shard's state from a campaign's iteration records.

    Each record's global batch is split by shard and applied, in record
    order — exactly the batches the loop handed each shard while producing
    those records, so the rebuilt state equals the uninterrupted run's
    under any shard plan, including the one the checkpoint was written
    under.
    """
    for record in campaign.iterations:
        for index, batch in split_by_shard(record.anchors, route):
            shard = shard_list[index]
            shard.apply(shard.view.localize(batch))
