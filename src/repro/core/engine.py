"""The shared filter–verification greedy engine behind the FILVER family.

FILVER, FILVER+ and FILVER++ differ only in which optimizations are switched
on; this module implements the common loop once, parameterized by
:class:`EngineOptions`:

==================  ==========  ==========  ===========
option              FILVER      FILVER+     FILVER++
==================  ==========  ==========  ===========
two-hop filter      off         on          on
order maintenance   off (full   on (Alg. 4) on (batched)
                    recompute)
candidate bound     r-score     ``|rf(x)|`` ``|rf(x)|``
anchors/iteration   1           1           ``t``
==================  ==========  ==========  ===========

The three presets live in :func:`repro.core.api.engine_options`, and
:func:`repro.core.api.reinforce` — where every campaign starts — calls
:func:`run_engine` with them.  Keeping one engine also gives the ablation
benchmarks intermediate configurations (e.g. the two-hop filter without
order maintenance) for free.

The loop drives a list of :class:`~repro.core.sharded.CampaignShard`\\ s,
one per group of connected components (followers never leave their
anchor's component, Lemma 1); a plan of one group is one shard over the
input graph itself.  Every plan runs the same loop, verification scan,
fallback rule, resume path, and checkpoint writer, which writes the same
format for every ``shards`` value.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass
from itertools import repeat
from typing import (
    TYPE_CHECKING,
    Callable,
    Generator,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.abcore.decomposition import abcore, anchored_abcore
from repro.bigraph.graph import BipartiteGraph
from repro.bigraph.validation import validate_problem
from repro.core.anchor_set import AnchorSetMaintainer
from repro.core.deletion_order import r_scores, reachable_counts
# reachable_from: unused here, kept for perfbench's tracer.
from repro.core.deletion_order import reachable_from  # noqa: F401
from repro.core.followers import compute_followers
from repro.core.order_maintenance import OrderState
from repro.core.result import AnchoredCoreResult, IterationRecord
from repro.core.signatures import two_hop_filter_cached
# two_hop_filter: unused here, kept for perfbench's tracer.
from repro.core.signatures import two_hop_filter  # noqa: F401
from repro.exceptions import (
    AbortCampaign,
    EvaluationStopped,
    InvalidParameterError,
)
from repro.resilience.checkpoint import (
    CampaignCheckpoint,
    graph_fingerprint,
    load_checkpoint,
)
from repro.resilience.faults import active_plan, fault_site
from repro.resilience.signals import TerminationFlag

if TYPE_CHECKING:
    from repro.core.batch import SharedCampaignContext
    from repro.core.sharded import CampaignShard, MergedCandidate
    from repro.parallel import ShardCandidate, ShardedEvaluator

__all__ = ["EngineOptions", "run_engine"]

@dataclass(frozen=True)
class EngineOptions:
    """Feature switches distinguishing the FILVER variants."""

    use_two_hop_filter: bool = False
    maintain_orders: bool = False
    use_rf_bound: bool = False
    anchors_per_iteration: int = 1


#: Signature of the optional per-iteration observer: it receives the
#: iteration's record right after the anchors are placed.  An observer that
#: wants to abort raises :class:`repro.exceptions.AbortCampaign`, which
#: triggers the graceful best-so-far path (``interrupted=True``).  Any other
#: observer exception propagates — but only after the iteration's checkpoint
#: (when one is configured) has been written, so no progress is lost.
ProgressCallback = Callable[[IterationRecord], None]

#: A checkpoint source: a path to a checkpoint file, or an already-loaded
#: :class:`CampaignCheckpoint`.  Every campaign, sharded or not, writes and
#: reads the same format.
CheckpointSource = Union[str, "os.PathLike[str]", CampaignCheckpoint]


def run_engine(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    b1: int,
    b2: int,
    options: EngineOptions,
    algorithm: str,
    deadline: Optional[float] = None,
    on_iteration: Optional[ProgressCallback] = None,
    checkpoint: Optional[Union[str, "os.PathLike[str]"]] = None,
    resume_from: Optional[CheckpointSource] = None,
    workers: int = 1,
    memoize: bool = True,
    flat_kernel: Optional[bool] = None,
    handle_sigterm: bool = False,
    context: Optional["SharedCampaignContext"] = None,
    shards: Optional[int] = None,
) -> AnchoredCoreResult:
    """Run the greedy filter–verification loop to completion.

    Campaigns start at :func:`repro.core.api.reinforce`, which checks its
    arguments and calls this with ``engine_options(method, t)``; call it
    directly for an option mix no method names (the ablation benchmarks)
    or an absolute ``deadline``.  ``algorithm`` is the label recorded in
    the result and its checkpoints.

    The loop ends when both budgets are exhausted or no remaining candidate
    can produce a follower (placing further anchors would not change the
    objective).  ``deadline`` is an absolute ``time.perf_counter()`` value;
    when exceeded (even before the first iteration) the partial result is
    returned with ``timed_out=True``.  ``on_iteration`` is invoked with each
    finished :class:`IterationRecord` — long runs can stream progress to a
    UI or log.

    ``shards`` picks the shard plan over the graph's connected components
    (:func:`repro.core.sharded.plan_shards`): ``None`` gives each
    component with edges a shard, up to ``AUTO_SHARD_CAP``; ``k`` asks for
    at most ``k``.  Each shard reranks only when an anchor touched it.  A
    one-shard plan runs on the input graph itself, and ``shards=1`` also
    skips the decomposition — the zero-copy choice for memmap graphs.
    Results are byte-identical for every value (``docs/PERF.md``).

    ``workers > 1`` fans candidate verification out to a process pool
    (:mod:`repro.parallel`) sharing each shard's CSR graph zero-copy;
    results are reduced in the serial tie-breaking order, so the returned
    result — anchors, followers, per-iteration records, ``verifications``
    counts — is identical to a ``workers=1`` run (``docs/PARALLEL.md``).
    Because nothing about the parallel schedule is recorded, checkpoints
    written by serial and parallel campaigns are interchangeable.  When the
    pool cannot be created the engine silently degrades to the serial scan.

    ``memoize`` (default on) lets a seeded campaign — one with a
    ``context`` that is not resuming, whose options turn on both the
    two-hop filter and the ``|rf(x)|`` bound (FILVER+ and FILVER++) —
    take each pristine shard's ranked lists from the context's seed
    instead of refiltering, until the shard's first apply
    (:mod:`repro.core.incremental`).  Otherwise it changes nothing.
    ``flat_kernel`` selects the flat-array follower kernel
    (:class:`repro.bigraph.FollowerKernel`): ``None`` auto-enables it on
    CSR-backed graphs, ``True`` requires a CSR backend, ``False`` forces
    the generic dict/set path.  Both switches are pure accelerations:
    results are byte-identical either way (anchors, follower sets,
    per-iteration ``verifications`` counts and canonical JSON), and
    neither is recorded in checkpoints, so campaigns resumed under
    different settings still replay identically.

    Resilience hooks (see ``docs/RESILIENCE.md``):

    * ``checkpoint`` — path to which progress is atomically written after
      every iteration: one schema-1 :class:`CampaignCheckpoint` file in
      global vertex ids, whatever ``shards`` is;
    * ``resume_from`` — checkpoint path (or loaded checkpoint) whose
      progress is replayed before the loop continues; the checkpoint must
      match this graph, (α, β), budgets, and engine options, and the
      resumed campaign produces the same anchors/followers/iteration
      records as an uninterrupted run.  Neither ``shards`` nor ``workers``
      is recorded, so a checkpoint written under any plan resumes under
      any other (``None`` or any ``k``, any worker count).  An unreadable,
      corrupt, foreign-format, or self-contradictory checkpoint is refused
      with :class:`~repro.exceptions.CheckpointError`;
    * ``KeyboardInterrupt`` / ``MemoryError`` degrade gracefully into a
      verified best-so-far result flagged ``interrupted=True`` instead of
      losing the campaign.  Such an interrupt can tear an apply, so this
      is the one exit whose final core is re-peeled from the anchor list;
      every other exit reads it from the shard states, which hold the
      anchored core at every iteration boundary;
    * ``handle_sigterm=True`` additionally converts ``SIGTERM`` into the
      same path: a :class:`repro.resilience.signals.TerminationFlag` is
      installed for the duration of the run (main thread only — elsewhere
      the flag is inert and the option is harmless), the loop polls it at
      each iteration boundary, and a delivered signal yields the verified
      best-so-far result with every completed iteration's checkpoint
      already flushed, instead of a dead process.  Off by default; the
      campaign service (:mod:`repro.service`) manages signals itself.

    ``context`` (a :class:`repro.core.batch.SharedCampaignContext`) lets a
    batch of same-``(graph, α, β)`` campaigns share the (α, β)-invariant
    substrate: base core, fingerprint and, per ``shards`` value, shard
    views, pristine order states, the pristine shards' ranked lists and
    parallel evaluators.  Every shared value equals what this run would compute
    cold, so results stay byte-identical (``docs/PERF.md``).  A resume
    skips the seeds: its shards are not pristine.

    Invalid ``t`` (``options.anchors_per_iteration``), ``workers`` or
    ``shards`` values, and a ``context`` built for another graph or
    (α, β) — whatever ``shards`` is — raise
    :class:`~repro.exceptions.InvalidParameterError`.
    """
    validate_problem(graph, alpha, beta, b1, b2)
    t = options.anchors_per_iteration
    if t < 1:
        raise InvalidParameterError(
            "anchors_per_iteration (t) must be >= 1, got %d" % t)
    if workers < 1:
        raise InvalidParameterError("workers must be >= 1, got %d" % workers)
    if shards is not None and shards < 1:
        raise InvalidParameterError("shards must be >= 1, got %d" % shards)
    if context is not None:
        context.check_compatible(graph, alpha, beta)
    options_dict = asdict(options)

    restored: Optional[CampaignCheckpoint] = None
    if resume_from is not None:
        restored = (resume_from if isinstance(resume_from, CampaignCheckpoint)
                    else load_checkpoint(resume_from))
        restored.validate_for(graph, alpha, beta, b1, b2, options_dict)

    # Runtime import: repro.core.sharded builds on this module's stages.
    from repro.core.sharded import build_shards, replay_shards, split_by_shard

    shard_list, route = build_shards(graph, alpha, beta, options, memoize,
                                     flat_kernel, shards, context=context,
                                     seeded=restored is None)
    use_kernel = any(shard.kernel is not None for shard in shard_list)
    evaluator: Optional["ShardedEvaluator"] = None
    shared_evaluator = False
    if workers > 1:
        from repro.parallel import create_sharded_evaluator

        plan = active_plan()
        fault_specs = tuple(
            spec for spec in (plan.specs if plan is not None else ())
            if spec.site.startswith("parallel."))
        if context is not None and not fault_specs:
            # Fault-injected pools stay private: specs are baked into the
            # workers at spawn, so a pooled evaluator would leak them
            # across campaigns.
            evaluator = context.acquire_evaluator(workers, use_kernel,
                                                  shards)
            shared_evaluator = evaluator is not None
        if evaluator is None:
            evaluator = create_sharded_evaluator(
                [shard.graph for shard in shard_list], workers,
                fault_specs=fault_specs, use_flat_kernel=use_kernel)
    # Shards anchored since the last evaluator broadcast; starts at "all"
    # so the first broadcast seeds every worker-side shard state.
    dirty_shards: Set[int] = set(range(len(shard_list)))

    start = time.perf_counter()
    if context is not None:
        base_core = context.base_core()
    else:
        # The (α,β)-core of a disjoint union is the union of the parts'.
        base_core = set()
        for shard in shard_list:
            base_core |= shard.view.globalize(abcore(shard.graph, alpha, beta))

    anchors: List[int] = []
    # Budget bookkeeping is incremental: placed upper anchors are counted as
    # they are chosen, not re-derived by scanning the anchor list each round.
    upper_used = 0
    is_upper = graph.is_upper
    iterations: List[IterationRecord] = []
    timed_out = False
    interrupted = False
    torn = False
    exhausted = False
    elapsed_prior = 0.0
    fingerprint = ""
    if checkpoint is not None:
        fingerprint = (context.fingerprint if context is not None
                       else graph_fingerprint(graph))

    if restored is not None:
        # Replay apply_anchors with the recorded per-iteration batches — the
        # exact call sequence the original run made — so the incremental
        # order-maintenance state (and every later candidate ranking) is
        # identical to the uninterrupted run's.
        replay_shards(shard_list, route, restored)
        anchors = list(restored.anchors)
        upper_used = restored.upper_used
        iterations = list(restored.iterations)
        exhausted = restored.exhausted
        elapsed_prior = restored.elapsed

    def save_checkpoint() -> None:
        if checkpoint is None:
            return
        CampaignCheckpoint(
            algorithm=algorithm, alpha=alpha, beta=beta, b1=b1, b2=b2,
            options=options_dict, graph_fingerprint=fingerprint,
            anchors=list(anchors), upper_used=upper_used,
            iterations=list(iterations), exhausted=exhausted,
            elapsed=elapsed_prior + time.perf_counter() - start,
        ).save(checkpoint)

    termination = TerminationFlag().install() if handle_sigterm else None
    try:
        while not (timed_out or exhausted):
            if termination is not None and termination.is_set():
                # SIGTERM arrived: stop at this iteration boundary with the
                # verified best-so-far (every completed iteration's
                # checkpoint is already on disk).
                interrupted = True
                break
            if deadline is not None and time.perf_counter() > deadline:
                # Deadline already spent (possibly before iteration one):
                # return the valid partial result instead of burning a
                # filter pass we cannot afford.
                timed_out = True
                break
            upper_left = b1 - upper_used
            lower_left = b2 - (len(anchors) - upper_used)
            if upper_left <= 0 and lower_left <= 0:
                break
            iter_start = time.perf_counter()

            # One filter pass per iteration, even though only the sides an
            # anchor touched since their last pass actually refilter.
            fault_site("engine.filter")
            candidates_total = 0
            per_shard: List[List["MergedCandidate"]] = []
            sides = [side for side, left in (("upper", upper_left),
                                             ("lower", lower_left))
                     if left > 0]
            for shard in shard_list:
                for side in sides:
                    entries, side_total = shard.ranked(side, options)
                    candidates_total += side_total
                    if entries:
                        per_shard.append(entries)
            merged = _merge_ranked(per_shard)
            maintainer = AnchorSetMaintainer(graph,
                                             min(t, upper_left + lower_left),
                                             upper_left, lower_left)
            fault_site("engine.verify")
            pooled = None
            if evaluator is not None:
                pooled = _pooled_follower_sets(
                    merged, evaluator, [shard.state for shard in shard_list],
                    dirty_shards, deadline)
            verifications, timed_out = _verification_stage(
                merged, shard_list, maintainer, alpha, beta, deadline,
                pooled)

            chosen = [x for x in maintainer.anchors
                      if maintainer.followers_of(x)]
            if not chosen:
                # Algorithm 2 initializes x* to the highest-bound candidate,
                # so the paper's greedy spends budget even when no candidate
                # yields followers this round — and doing so matters:
                # anchors placed "for free" can combine with later ones (the
                # cumulative effect of Section V).  Mirror that by falling
                # back to the top-ranked candidates within the remaining
                # budgets.
                chosen = _fallback_anchors(graph, merged, maintainer.t,
                                           upper_left, lower_left)
            if not chosen:
                record = IterationRecord(
                    anchors=[], marginal_followers=0,
                    candidates_total=candidates_total,
                    candidates_after_filter=len(merged),
                    verifications=verifications,
                    elapsed=time.perf_counter() - iter_start)
                iterations.append(record)
                exhausted = True
                save_checkpoint()
                if on_iteration is not None:
                    on_iteration(record)
                break

            core_before = sum(len(shard.state.core) for shard in shard_list)
            for index, batch in split_by_shard(chosen, route):
                shard = shard_list[index]
                shard.apply(shard.view.localize(batch))
                dirty_shards.add(index)
            core_after = sum(len(shard.state.core) for shard in shard_list)
            anchors.extend(chosen)
            upper_used += sum(1 for x in chosen if is_upper(x))
            record = IterationRecord(
                anchors=list(chosen),
                marginal_followers=core_after - core_before - len(chosen),
                candidates_total=candidates_total,
                candidates_after_filter=len(merged),
                verifications=verifications,
                elapsed=time.perf_counter() - iter_start)
            iterations.append(record)
            # Persist before notifying: if the observer raises, the
            # iteration's progress is already durable.
            save_checkpoint()
            if on_iteration is not None:
                on_iteration(record)
    except AbortCampaign:
        interrupted = True
    except (KeyboardInterrupt, MemoryError):
        # Graceful degradation: the anchor list is only extended after a
        # successful apply, so finalizing here yields a verified
        # best-so-far result rather than losing hours of campaign.
        interrupted = torn = True
    finally:
        if termination is not None:
            termination.restore()
        if evaluator is not None:
            if shared_evaluator and context is not None:
                context.release_evaluator(workers, use_kernel, evaluator,
                                          shards)
            else:
                evaluator.shutdown()

    # The anchored core of a disjoint union is the union of the parts'.
    # At an iteration boundary each state's core is its shard's anchored
    # core.  An interrupt may have torn an apply, leaving a state
    # mid-repair or an earlier shard holding a batch ``anchors`` lacks, so
    # then the cores are re-peeled from the anchor list.
    final_core: Set[int] = set()
    for shard in shard_list:
        core = shard.state.core
        if torn:
            local_anchors = shard.view.localize(
                x for x in anchors if route(x) == shard.index)
            core = anchored_abcore(shard.graph, alpha, beta, local_anchors)
        final_core |= shard.view.globalize(core)
    follower_set = final_core - base_core - set(anchors)
    return AnchoredCoreResult(
        algorithm=algorithm, alpha=alpha, beta=beta, b1=b1, b2=b2,
        anchors=anchors, followers=follower_set,
        base_core_size=len(base_core), final_core_size=len(final_core),
        elapsed=elapsed_prior + time.perf_counter() - start,
        iterations=iterations, timed_out=timed_out, interrupted=interrupted)


def _filter_stage(
    shard: "CampaignShard",
    side: str,
    options: EngineOptions,
) -> Tuple[List["MergedCandidate"], int]:
    """Build one shard side's ranked candidate list, in merged form.

    Entries are ``(-bound, global_x, shard_index, side, x)``; returns the
    list sorted by non-increasing bound (ties by vertex id) and the
    pre-filter pool size.  Monotone renumbering makes the order by global
    id the order by local id, and global ids are unique, so the plain
    tuple sort never compares past the two leading ints and the order the
    survivors arrive in does not matter.  r-score bounds come from one
    :func:`~repro.core.deletion_order.r_scores` table per pass.
    ``|rf(x)|`` bounds of the two-hop survivors come from one call: on
    CSR the kernel's
    :meth:`~repro.bigraph.kernel.FollowerKernel.reachable`, which walks
    the order DAG in frontier passes over the CSR buffers and counts its
    out-degree-1 runs by pointer jumping (the CSR rows when numpy is
    missing), and :func:`~repro.core.deletion_order.reachable_counts`
    otherwise; both fall back on the one Python walk,
    :func:`~repro.bigraph.kernel.walk_counts`, the kernel only for the
    runs that end at a branching vertex.  No ``rf(x)`` set is kept:
    verification derives it for the candidates it reaches.  The survivor
    set, the bounds, and hence the ranked list are identical on every path
    (``docs/PERF.md``).

    The ``engine.filter`` fault site fires in the caller, once per
    iteration, however many shards refilter.
    """
    graph, state, kernel = shard.graph, shard.state, shard.kernel
    order = state.upper if side == "upper" else state.lower
    candidates = order.candidates(graph)
    if not candidates:
        return [], 0
    if options.use_two_hop_filter:
        survivors = two_hop_filter_cached(graph, order, candidates)
    else:
        survivors = candidates
    bounds: Iterable[Tuple[int, int]]
    if not options.use_rf_bound:
        scores = r_scores(graph, order)
        bounds = ((x, scores.get(x, 0)) for x in survivors)
    elif not survivors:
        bounds = ()
    elif kernel is not None:
        bounds = kernel.reachable(side, survivors).items()
    else:
        bounds = reachable_counts(graph, order, survivors).items()
    index, to_global = shard.index, shard.view.to_global
    scored = [(-bound, to_global[x], index, side, x)
              for x, bound in bounds if bound > 0]
    scored.sort()
    return scored, len(candidates)


def _merge_ranked(per_shard: List[List["MergedCandidate"]],
                  ) -> List["MergedCandidate"]:
    """Merge the shard sides' rankings into the one-shard engine's sort
    order.

    Each list's entries are already sorted by their two leading ints,
    ``-bound, global_x`` (:func:`_filter_stage`), so merging under
    that key reproduces the single sorted list a one-shard filter pass
    over both sides would build.  ``global_x`` is unique across shards — the order never ties,
    so any sort yields exactly what a streaming ``heapq.merge`` would, and
    the key-function-free ``list.sort`` gallops over the pre-sorted runs
    in C.  A single list is already merged and is returned as-is
    (callers never mutate it: it may be a context's shared seed).
    """
    if len(per_shard) == 1:
        return per_shard[0]
    merged: List["MergedCandidate"] = []
    for entries in per_shard:
        merged += entries
    merged.sort()
    return merged


def _fallback_anchors(
    graph: BipartiteGraph,
    merged: List["MergedCandidate"],
    t: int,
    upper_left: int,
    lower_left: int,
) -> List[int]:
    """Top-bound candidates within budget, for zero-follower iterations."""
    chosen: List[int] = []
    for _neg_bound, x, _index, _side, _lx in merged:
        if len(chosen) >= t:
            break
        if graph.is_upper(x):
            if upper_left <= 0:
                continue
            upper_left -= 1
        else:
            if lower_left <= 0:
                continue
            lower_left -= 1
        chosen.append(x)
    return chosen


def _verification_stage(
    merged: List["MergedCandidate"],
    shard_list: List["CampaignShard"],
    maintainer: AnchorSetMaintainer,
    alpha: int,
    beta: int,
    deadline: Optional[float],
    pooled: Optional[Generator[Set[int], None, None]] = None,
) -> Tuple[int, bool]:
    """Scan ranked candidates, computing followers and updating ``T``.

    Returns the number of Algorithm-1 invocations and whether the deadline
    fired.  Two skip rules apply (Sections III-B and V-B):

    * a candidate inside a verified anchor's follower set is dominated;
    * a candidate whose bound cannot beat the maintainer's threshold is
      skipped.  The threshold changes only when a verified candidate is
      offered, and bounds are sorted, so every later candidate is skipped
      too: the scan stops there, on every path.

    Follower sets are computed in the candidate's shard
    (``shard_list[shard_index]``, local ids, the order of its side) and
    globalized for coverage and the maintainer — follower sets never leave
    their component, so the globalized union equals the one-shard set
    exactly.  Sets are computed by the shard's kernel when one is
    selected, each from its own ``rf(x)`` DFS: the filter keeps only the
    bound.

    ``pooled`` (from :func:`_pooled_follower_sets`) supplies one set per
    ranked candidate instead, covered candidates included; the skip rules
    and the count are unchanged, so the result is the serial scan's.  A
    worker seeing the deadline first ends the scan like the deadline check
    here, and closing the stream on any exit cancels the pool's remainder.
    """
    covered: Set[int] = set()
    verifications = 0
    supplied = pooled if pooled is not None else repeat(None)
    try:
        for (neg_bound, x, index, side, lx), follower_set in zip(
                merged, supplied):
            if deadline is not None and time.perf_counter() > deadline:
                return verifications, True
            if x in covered:
                continue
            if -neg_bound <= maintainer.skip_threshold():
                break
            shard = shard_list[index]
            if follower_set is None:
                if shard.kernel is not None:
                    follower_set = shard.kernel.followers(side, lx, alpha,
                                                          beta)
                else:
                    state = shard.state
                    order = state.upper if side == "upper" else state.lower
                    follower_set = compute_followers(shard.graph, order, lx,
                                                     core=state.core)
            verifications += 1
            follower_global = shard.view.globalize(follower_set)
            covered |= follower_global
            if follower_global:
                maintainer.offer(x, follower_global)
    except EvaluationStopped:
        return verifications, True
    finally:
        if pooled is not None:
            pooled.close()
    return verifications, False


def _pooled_follower_sets(
    merged: List["MergedCandidate"],
    evaluator: "ShardedEvaluator",
    shard_states: List[OrderState],
    dirty_shards: Set[int],
    deadline: Optional[float],
) -> Generator[Set[int], None, None]:
    """One follower set per ranked candidate, from the pool.

    Every ranked candidate is dispatched as its ``entry[2:]``, the
    ``(shard_index, side, local_x)`` item, and the state broadcast carries
    only the shards anchored since the previous one (``dirty_shards``,
    cleared here).  Closing this generator closes the stream, which
    cancels the not-yet-dispatched remainder.
    """
    items: List["ShardCandidate"] = [entry[2:] for entry in merged]
    evaluator.begin_iteration(shard_states, dirty_shards, deadline)
    dirty_shards.clear()
    yield from evaluator.evaluate(items)
