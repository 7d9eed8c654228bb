"""Campaign shards: the per-component state the greedy loop drives.

Followers never cross connected components (Lemma 1: every follower of an
anchor is order-reachable from it, and reachability walks edges), so the
greedy filter–verification loop factorizes: each group of components can
keep its own deletion orders, verification cache, and ranked candidate
list, and a global iteration only merges per-shard rankings and routes the
chosen anchors back to their shards.  :func:`repro.core.engine.run_engine`
is that loop; this module provides the shards it drives:

* :func:`build_shards` with ``shards=None`` — one :class:`CampaignShard`
  over an :class:`IdentityView` of the input graph: the same graph object,
  no component decomposition, no id maps, no copy (a memmap graph stays
  memmap).  With a :class:`~repro.core.batch.SharedCampaignContext` it
  takes its order state, seed tables, and kernel lease from the context;
* :func:`build_shards` with ``shards=k`` — :func:`plan_shards` groups the
  components into at most ``k`` balanced groups, one shard per group over
  a component-local :class:`~repro.bigraph.components.SubgraphView`;
* :func:`replay_shards` — the resume path's per-shard state rebuild.

Why the merge is byte-identical (``docs/PERF.md`` carries the full
argument): local ids are assigned monotonically (ascending global order,
uppers first — :class:`~repro.bigraph.components.SubgraphView`), so every
id-ordered tie-break inside a shard resolves exactly as it would globally;
each shard's ranked list is sorted by ``(-bound, local id)`` which is
therefore also ``(-bound, global id)`` order, and a merge under that key
reproduces the unsharded globally sorted candidate list element for
element.  Candidate ``x`` ids are unique, so the sort key never ties
deeper.

What sharding buys: after an iteration anchors only components in the
winning shards, so every other shard's ranked list, cache, and deletion
orders are reused untouched next iteration.  Shards also bound peak memory
(one component's working set at a time) and give the parallel evaluator
(:mod:`repro.parallel`) shard-granular work units.
"""

from __future__ import annotations

import heapq
import warnings
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
from repro.core.deletion_order import DeletionOrder
from repro.core.engine import EngineOptions, _filter_stage
# compute_followers: unused here, kept for perfbench's tracer.
from repro.core.followers import compute_followers  # noqa: F401
from repro.core.incremental import VerificationCache
from repro.core.order_maintenance import OrderState
from repro.core.result import IterationRecord
from repro.exceptions import CheckpointError, InvalidParameterError
from repro.resilience.checkpoint import (
    CampaignCheckpoint,
    graph_fingerprint,
    load_checkpoint,
)
from repro.resilience.sharded import shard_checkpoint_path

if TYPE_CHECKING:
    from repro.core.batch import SharedCampaignContext

__all__ = ["CampaignShard", "IdentityView", "build_shards", "plan_shards",
           "replay_shards", "split_by_shard"]

#: One ranked candidate:
#: ``((-bound, global_x), shard, local_x, order, rf_local)``.  The leading
#: pair is the engine's sort key, pre-negated so plain tuple comparison
#: orders candidates without a key function (``global_x`` is unique, so the
#: shard objects behind it are never compared); the rest lets the
#: verification scan evaluate the candidate inside its shard.  ``rf_local``
#: is the cached or freshly computed ``rf(x)`` when the rf bound produced
#: it (plumbed through to Algorithm 1 so the follower peel never
#: recollects it), ``None`` on the r-score path.
MergedCandidate = Tuple[Tuple[int, int], "CampaignShard", int,
                        DeletionOrder, Optional[Set[int]]]

#: Maps a global vertex id to the index of the shard that owns it.
Router = Callable[[int], int]


def plan_shards(sizes: Sequence[Tuple[int, int, int]],
                shards: int) -> List[Tuple[int, ...]]:
    """Group components into at most ``shards`` balanced groups.

    Greedy longest-processing-time assignment on edge counts: components in
    decreasing ``n_edges`` order (ties by component id) each go to the
    currently lightest group (ties by group index).  Deterministic by
    construction, and — like every planning choice here — irrelevant to
    results: grouping affects locality and schedule only, never values.

    Returns each group's component ids sorted ascending; groups are ordered
    by their first component id so shard numbering is itself canonical.
    """
    if shards < 1:
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
    :class:`OrderState`, the optional local :class:`VerificationCache` and
    follower kernel, the ranked candidate memo, and the local-id
    bookkeeping (anchors, budget use, per-iteration batches) that
    per-shard checkpoints are built from.

    The ranked memo is the substrate's core saving: :meth:`ranked` reruns
    the filter stage only when an anchor batch touched this shard (or the
    budget situation changed which sides are eligible); otherwise the
    previous iteration's list — provably identical to a fresh recompute,
    because nothing it depends on changed — is returned as-is.
    """

    __slots__ = ("index", "view", "graph", "state", "cache", "kernel",
                 "local_anchors", "local_upper_used", "local_iterations",
                 "_ranked", "_fingerprint")

    def __init__(self, index: int, view: Union[SubgraphView, IdentityView],
                 state: OrderState, cache: Optional[VerificationCache],
                 kernel: Optional[FollowerKernel]) -> None:
        self.index = index
        self.view = view
        self.graph = view.graph
        self.state = state
        self.cache = cache
        self.kernel = kernel
        self.local_anchors: List[int] = []
        self.local_upper_used = 0
        self.local_iterations: List[IterationRecord] = []
        # sides-key -> (entries, candidates_total); entries are merged-form
        # MergedCandidate tuples sorted by their (-bound, global_x) head.
        self._ranked: Dict[Tuple[bool, bool],
                           Tuple[List[MergedCandidate], int]] = {}
        self._fingerprint: Optional[str] = None

    def fingerprint(self) -> str:
        """Structure fingerprint of the local graph (memoized)."""
        if self._fingerprint is None:
            self._fingerprint = graph_fingerprint(self.graph)
        return self._fingerprint

    def ranked(self, upper_left: int, lower_left: int,
               options: EngineOptions) -> Tuple[List[MergedCandidate], int]:
        """This shard's ranked candidates for the current budget situation.

        The memo key is only which *sides* still have budget — the filter
        stage uses the budgets for side eligibility, never for values — so
        a shard untouched since its last filter pass hits the memo even as
        the budgets shrink.
        """
        key = (upper_left > 0, lower_left > 0)
        hit = self._ranked.get(key)
        if hit is not None:
            return hit
        if self.kernel is not None:
            # Stamp lazily, only when this shard actually refilters: a
            # clean shard's previous stamp is still valid because its
            # positions and core are untouched since then.
            self.kernel.begin_iteration(self.state.upper.position,
                                        self.state.lower.position,
                                        self.state.core)
        # Stored in merged form, so the per-iteration global merge is a
        # C-level concatenate-and-sort over memoized lists, with no
        # per-candidate Python work for clean shards.
        self._ranked[key] = _filter_stage(self, upper_left, lower_left,
                                          options)
        return self._ranked[key]

    def apply(self, batch: Sequence[int]) -> None:
        """Anchor a local-id batch, invalidating caches and bookkeeping.

        The appended local record carries only the batch (per-shard
        checkpoints compare batches, nothing else), with the remaining
        fields fixed at zero so replayed and original bookkeeping are
        identical.
        """
        before = len(self.state.core)
        dirty = self.state.apply_anchors(list(batch))
        if self.cache is not None:
            self.cache.invalidate(dirty)
        self._ranked.clear()
        self.local_anchors.extend(batch)
        is_upper = self.graph.is_upper
        self.local_upper_used += sum(1 for x in batch if is_upper(x))
        self.local_iterations.append(IterationRecord(
            anchors=list(batch),
            marginal_followers=len(self.state.core) - before - len(batch),
            candidates_total=0, candidates_after_filter=0,
            verifications=0, elapsed=0.0))

    def checkpoint_payload(self, algorithm: str, alpha: int, beta: int,
                           b1: int, b2: int, options_dict: Dict[str, object],
                           exhausted: bool,
                           elapsed: float) -> CampaignCheckpoint:
        """A standard schema-1 checkpoint over the shard's local graph."""
        return CampaignCheckpoint(
            algorithm=algorithm, alpha=alpha, beta=beta, b1=b1, b2=b2,
            options=options_dict, graph_fingerprint=self.fingerprint(),
            anchors=list(self.local_anchors),
            upper_used=self.local_upper_used,
            iterations=list(self.local_iterations),
            exhausted=exhausted, elapsed=elapsed)


def _select_kernel(graph: BipartiteGraph, flat_kernel: Optional[bool],
                   context: Optional["SharedCampaignContext"] = None,
                   ) -> Optional[FollowerKernel]:
    """The follower kernel for one shard graph, leased when possible.

    ``None`` auto-enables the kernel on CSR-backed graphs, ``True``
    requires a CSR backend (construction raises otherwise), ``False``
    forces the generic dict/set path.
    """
    if flat_kernel is not None and not flat_kernel:
        return None
    kernel = context.acquire_kernel() if context is not None else None
    if kernel is None:
        kernel = kernel_for(graph) if flat_kernel is None \
            else FollowerKernel(graph)
    return kernel


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

    ``shards=None`` yields one identity shard; with a ``context`` that
    shard clones the context's pristine order state, leases its kernel
    (callers hand it back via ``context.release_kernel``), and — when
    ``memoize`` and ``seeded`` — consults the frozen epoch-0 seed tables.
    ``shards=k`` decomposes the graph into connected components and builds
    at most ``k`` component-group shards (``context`` is not consulted).
    """
    maintain = options.maintain_orders
    if shards is None:
        if context is not None:
            seed = context.seed_tables() if memoize and seeded else None
            kernel = _select_kernel(graph, flat_kernel, context)
            state = context.order_state(maintain=maintain)
        else:
            seed = None
            kernel = _select_kernel(graph, flat_kernel)
            state = OrderState(graph, alpha, beta, maintain=maintain)
        cache = VerificationCache(graph, seed=seed) if memoize else None
        shard = CampaignShard(0, IdentityView(graph), state, cache, kernel)
        return [shard], lambda gx: 0

    decomposition = ComponentDecomposition(graph)
    plan = plan_shards(decomposition.sizes, shards)
    shard_list: List[CampaignShard] = []
    # component label -> owning shard index, for routing chosen anchors.
    shard_of: Dict[int, int] = {}
    for index, components in enumerate(plan):
        view = decomposition.subgraph_view(components)
        local = view.graph
        shard_list.append(CampaignShard(
            index, view, OrderState(local, alpha, beta, maintain=maintain),
            VerificationCache(local) if memoize else None,
            _select_kernel(local, flat_kernel)))
        for component in components:
            shard_of[component] = index
    labels = decomposition.labels
    return shard_list, lambda gx: shard_of[labels[gx]]


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
                  campaign: CampaignCheckpoint,
                  envelope_path: Optional[str], alpha: int, beta: int,
                  b1: int, b2: int, options_dict: Dict[str, object]) -> None:
    """Rebuild every shard's state from a campaign's iteration records.

    Replays each shard's local batches — exactly the batches the loop
    handed each shard while producing those records, which is why the
    global record is always sufficient and a missing or stale per-shard
    file is survivable.  With an ``envelope_path`` (a sharded resume from
    a file) each shard's own checkpoint file is loaded and validated first
    (fingerprint, parameters, recorded batches against the global
    record); when it is missing, corrupt, or disagrees — a *dead shard*,
    e.g. its file was lost with a failed node — the shard degrades to
    replaying from the global record with a warning, mirroring how the
    parallel evaluator buries a dead worker and recomputes its chunk.  Both
    paths replay the same batches, so the rebuilt state is identical
    either way; the file adds integrity checking, not information.

    A shard file recorded one iteration *ahead* of the envelope (crash
    after the shard write, before the envelope write) is expected and
    accepted silently — the extra batch is simply not replayed.
    """
    expected: List[List[List[int]]] = [[] for _ in shard_list]
    for record in campaign.iterations:
        for index, batch in split_by_shard(record.anchors, route):
            expected[index].append(shard_list[index].view.localize(batch))
    for shard, batches in zip(shard_list, expected):
        if envelope_path is not None:
            path = shard_checkpoint_path(envelope_path, shard.index)
            try:
                restored = load_checkpoint(path)
                restored.validate_for(shard.graph, alpha, beta, b1, b2,
                                      options_dict)
                recorded = [record.anchors for record in restored.iterations
                            if record.anchors]
                if recorded[:len(batches)] != batches:
                    raise CheckpointError(
                        "shard %d checkpoint disagrees with the campaign "
                        "envelope" % shard.index)
            except CheckpointError as error:
                warnings.warn(
                    "shard %d checkpoint unusable (%s); replaying this "
                    "shard from the campaign envelope" % (shard.index, error),
                    RuntimeWarning, stacklevel=3)
        for batch in batches:
            shard.apply(batch)
