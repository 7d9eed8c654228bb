"""Unified entry point for every anchored (α,β)-core algorithm.

``reinforce(graph, alpha, beta, b1, b2, method="filver++")`` checks its
arguments once and runs the requested solver, returning an
:class:`AnchoredCoreResult`.  The engine family — FILVER, FILVER+ and
FILVER++ — is one greedy loop (:func:`repro.core.engine.run_engine`) with
different optimizations switched on; :func:`engine_options` is the one
home of the three presets.  The method registry is also what the
experiment harness and the CLI iterate over.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

from repro.bigraph.graph import BipartiteGraph
from repro.core.baselines import run_degree_greedy, run_random, run_top_degree
from repro.core.engine import EngineOptions, ProgressCallback, run_engine
from repro.core.exact import run_exact
from repro.core.naive import run_naive
from repro.core.result import AnchoredCoreResult
from repro.exceptions import InvalidParameterError

if TYPE_CHECKING:
    from repro.core.batch import SharedCampaignContext

__all__ = ["reinforce", "engine_options", "METHODS", "ENGINE_METHODS"]

#: Methods accepted by :func:`reinforce`, in rough cost order.
METHODS = (
    "random",
    "top-degree",
    "degree-greedy",
    "exact",
    "naive",
    "filver",
    "filver+",
    "filver++",
)

#: The filter–verification family: the methods that run on the shared
#: engine, and so the only ones accepting ``workers > 1``, ``shards``,
#: checkpoints, a shared context and the engine hooks.
ENGINE_METHODS = ("filver", "filver+", "filver++")


def engine_options(method: str, t: int = 5) -> EngineOptions:
    """The engine configuration of one :data:`ENGINE_METHODS` member.

    * ``"filver"`` — the basic filter–verification algorithm (Section III,
      Algorithm 2).  Each of the ``b1 + b2`` iterations recomputes the
      upper/lower deletion orders from scratch, prunes candidates whose
      r-score bound is 0, then verifies the survivors in non-increasing
      bound order with the local follower computation (Algorithm 1),
      placing the single best anchor.
    * ``"filver+"`` — FILVER with the filter-stage optimizations
      (Section IV, Algorithm 5).  The two-hop domination filter
      (Algorithm 3) removes candidates whose follower signatures are
      covered by another candidate's, the survivors are ranked by the
      tighter ``|rf(x)|`` bound, and the deletion orders are *maintained*
      across iterations (Algorithm 4): only the affected graph of the last
      placed anchor is renumbered.
    * ``"filver++"`` — both filter- and verification-stage optimizations
      (Algorithm 7).  Each iteration keeps a working set ``T`` of up to
      ``t`` anchors (Algorithm 6): candidates join ``T`` or replace its
      least-contribution member when that grows the in-shell follower set.
      Placing ``t`` anchors per iteration cuts the iteration count to
      ``⌈(b1+b2)/t⌉``; order maintenance handles the batch by processing
      anchors in non-decreasing core number.  The paper sweeps ``t`` over
      1, 2, 4, 8, 16 and uses 5 elsewhere.

    ``t`` is read by FILVER++ only.  Any other method raises
    :class:`~repro.exceptions.InvalidParameterError`.
    """
    if method == "filver":
        return EngineOptions(use_two_hop_filter=False, maintain_orders=False,
                             use_rf_bound=False, anchors_per_iteration=1)
    if method == "filver+":
        return EngineOptions(use_two_hop_filter=True, maintain_orders=True,
                             use_rf_bound=True, anchors_per_iteration=1)
    if method == "filver++":
        return EngineOptions(use_two_hop_filter=True, maintain_orders=True,
                             use_rf_bound=True, anchors_per_iteration=t)
    raise InvalidParameterError(
        "engine options exist only for %s, not %r"
        % (", ".join(ENGINE_METHODS), method))


def _check_arguments(method: str, t: int = 5,
                     time_limit: Optional[float] = None, workers: int = 1,
                     shards: Optional[int] = None,
                     checkpointing: bool = False) -> None:
    """Refuse a campaign :func:`reinforce` could never run.

    The one argument check, shared with
    :meth:`repro.service.JobSpec.validate` so that the campaign service
    refuses such a job at admission instead of queueing it.
    ``checkpointing`` is whether a checkpoint or resume path is given.
    Checks against the graph (α, β, budgets) belong to
    :func:`repro.bigraph.validation.validate_problem`.
    """
    if method not in METHODS:
        raise InvalidParameterError(
            "unknown method %r; expected one of %s"
            % (method, ", ".join(METHODS)))
    if workers < 1:
        raise InvalidParameterError("workers must be >= 1, got %d" % workers)
    if method not in ENGINE_METHODS:
        for option, given in (("checkpoint/resume", checkpointing),
                              ("workers > 1", workers > 1),
                              ("shards", shards is not None)):
            if given:
                raise InvalidParameterError(
                    "%s is only supported by %s, not %r"
                    % (option, ", ".join(ENGINE_METHODS), method))
    if shards is not None and shards < 1:
        raise InvalidParameterError("shards must be >= 1, got %d" % shards)
    if method == "filver++" and t < 1:
        raise InvalidParameterError(
            "anchors_per_iteration (t) must be >= 1, got %d" % t)
    if time_limit is not None and time_limit <= 0:
        raise InvalidParameterError(
            "time_limit must be positive seconds, got %r" % time_limit)


def reinforce(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    b1: int,
    b2: int,
    method: str = "filver++",
    t: int = 5,
    seed: Optional[int] = None,
    time_limit: Optional[float] = None,
    checkpoint: Optional[str] = None,
    resume_from: Optional[str] = None,
    workers: int = 1,
    memoize: bool = True,
    flat_kernel: Optional[bool] = None,
    shards: Optional[int] = None,
    on_iteration: Optional[ProgressCallback] = None,
    handle_sigterm: bool = False,
    context: Optional["SharedCampaignContext"] = None,
) -> AnchoredCoreResult:
    """Reinforce ``graph`` by anchoring ``b1 + b2`` vertices.

    Every campaign starts here.  The :data:`ENGINE_METHODS` run
    :func:`repro.core.engine.run_engine` with :func:`engine_options`
    and the result labels ``"filver"``, ``"filver+"`` and
    ``"filver++(t=<t>)"``; the other methods run their own solvers.

    Parameters
    ----------
    graph:
        The bipartite network to reinforce.
    alpha, beta:
        Degree constraints for the upper and lower layers.
    b1, b2:
        How many upper / lower vertices may be anchored.
    method:
        One of :data:`METHODS`; defaults to the strongest algorithm,
        FILVER++.
    t:
        Anchors placed per iteration (FILVER++ only; must be >= 1).
    seed:
        Randomness seed (``random`` baseline only).
    time_limit:
        Optional wall-clock budget in seconds (must be positive); greedy
        algorithms return a partial result flagged ``timed_out`` when it
        elapses.
    checkpoint / resume_from:
        Campaign checkpoint file to write after every iteration / to resume
        from (engine family only — see ``docs/RESILIENCE.md``).
    workers:
        Candidate-verification worker processes (engine family only).  The
        default 1 is the fully serial path; any larger value produces
        identical results, faster (see ``docs/PARALLEL.md``).
    memoize / flat_kernel:
        Engine-family accelerations (ignored by the baselines):
        ``memoize`` (default on) carries verification work across
        iterations with affected-region invalidation, and ``flat_kernel``
        selects the flat-array CSR follower kernel (``None`` = auto on
        CSR-backed graphs).  Both preserve byte-identical results — see
        ``docs/PERF.md``.
    shards:
        The shard plan over the graph's connected components (engine
        family only).  ``None`` (the default) gives each component with
        edges its own shard, up to
        :data:`repro.core.sharded.AUTO_SHARD_CAP`; an int ``k >= 1`` asks
        for at most ``k`` balanced shards.  A one-shard plan runs on the
        input graph itself; ``shards=1`` also skips the decomposition, so
        it is the zero-copy choice for memmap graphs.  Results are
        byte-identical for every value, and so are checkpoints: every
        campaign writes the same one-file format, and a checkpoint written
        under any ``shards`` (and ``workers``) value resumes under any
        other (``docs/RESILIENCE.md``).
    on_iteration / handle_sigterm:
        Engine-family observability and lifecycle hooks (ignored by the
        baselines): ``on_iteration`` streams each finished iteration
        record to an observer — the campaign service uses it for
        heartbeats and cooperative drain — and ``handle_sigterm``
        converts ``SIGTERM`` at an iteration boundary into a graceful
        ``interrupted=True`` best-so-far result (see ``docs/SERVICE.md``).
    context:
        A :class:`repro.core.batch.SharedCampaignContext` sharing the
        (α,β)-invariant substrate — base core, pristine order state,
        warm verification seed, evaluator leases — across a batch of
        same-``(graph, α, β)`` campaigns: open one context and call
        ``reinforce(..., context=ctx)`` once per campaign.  Engine-family
        campaigns draw on it under every ``shards`` value (it keeps one
        set of shard views, pristine states and seeds per value); the
        baselines have nothing it serves and leave it unused.  Results
        stay byte-identical to a context-free run (``docs/PERF.md``).

    An unknown method, an option the method does not support, an
    out-of-range ``workers``, ``shards``, ``t`` or ``time_limit``, or a
    ``context`` built for another graph or (α, β) — for any method and
    any ``shards`` — raises :class:`~repro.exceptions.InvalidParameterError`
    before any work.

    Returns
    -------
    AnchoredCoreResult
        Anchors, followers (w.r.t. the original core), and per-iteration
        diagnostics.
    """
    _check_arguments(method, t=t, time_limit=time_limit, workers=workers,
                     shards=shards,
                     checkpointing=(checkpoint is not None
                                    or resume_from is not None))
    deadline = (time.perf_counter() + time_limit
                if time_limit is not None else None)
    if method in ENGINE_METHODS:
        return run_engine(
            graph, alpha, beta, b1, b2, engine_options(method, t),
            algorithm="filver++(t=%d)" % t if method == "filver++" else method,
            deadline=deadline, checkpoint=checkpoint, resume_from=resume_from,
            workers=workers, memoize=memoize, flat_kernel=flat_kernel,
            shards=shards, on_iteration=on_iteration,
            handle_sigterm=handle_sigterm, context=context)
    if context is not None:  # run_engine checks it for the engine family
        context.check_compatible(graph, alpha, beta)
    if method == "random":
        return run_random(graph, alpha, beta, b1, b2, seed=seed)
    if method == "top-degree":
        return run_top_degree(graph, alpha, beta, b1, b2)
    if method == "degree-greedy":
        return run_degree_greedy(graph, alpha, beta, b1, b2)
    if method == "exact":
        return run_exact(graph, alpha, beta, b1, b2, deadline=deadline)
    return run_naive(graph, alpha, beta, b1, b2, deadline=deadline)
