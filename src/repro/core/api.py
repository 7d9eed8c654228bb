"""Unified entry point for every anchored (α,β)-core algorithm.

``reinforce(graph, alpha, beta, b1, b2, method="filver++")`` dispatches to
the requested solver and returns an :class:`AnchoredCoreResult`.  The method
registry is also what the experiment harness and the CLI iterate over.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.bigraph.graph import BipartiteGraph
from repro.core.baselines import run_degree_greedy, run_random, run_top_degree
from repro.core.engine import ProgressCallback
from repro.core.exact import run_exact
from repro.core.filver import run_filver
from repro.core.filver_plus import run_filver_plus
from repro.core.filver_plus_plus import run_filver_plus_plus
from repro.core.naive import run_naive
from repro.core.result import AnchoredCoreResult
from repro.exceptions import InvalidParameterError

if TYPE_CHECKING:
    from repro.core.batch import SharedCampaignContext

__all__ = ["reinforce", "METHODS", "CHECKPOINTABLE_METHODS",
           "PARALLEL_METHODS"]

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


#: Methods that support campaign checkpointing (the shared-engine family).
CHECKPOINTABLE_METHODS = ("filver", "filver+", "filver++")

#: Methods that accept ``workers > 1`` — the same engine family: only the
#: filter–verification loop has an independent-candidate stage to fan out.
PARALLEL_METHODS = CHECKPOINTABLE_METHODS


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
        Anchors placed per iteration (FILVER++ only); ``t < 1`` raises
        :class:`~repro.exceptions.InvalidParameterError`.
    seed:
        Randomness seed (``random`` baseline only).
    time_limit:
        Optional wall-clock budget in seconds; greedy algorithms return a
        partial result flagged ``timed_out`` when it elapses.
    checkpoint / resume_from:
        Campaign checkpoint file to write after every iteration / to resume
        from (:data:`CHECKPOINTABLE_METHODS` only — see
        ``docs/RESILIENCE.md``).
    workers:
        Candidate-verification worker processes (:data:`PARALLEL_METHODS`
        only).  The default 1 is the fully serial path; any larger value
        produces identical results, faster (see ``docs/PARALLEL.md``).
    memoize / flat_kernel:
        Engine-family accelerations (ignored by the baselines):
        ``memoize`` (default on) carries verification work across
        iterations with affected-region invalidation, and ``flat_kernel``
        selects the flat-array CSR follower kernel (``None`` = auto on
        CSR-backed graphs).  Both preserve byte-identical results — see
        ``docs/PERF.md``.
    shards:
        Split the campaign's state across at most this many
        connected-component shards (engine family only).  ``None`` (the
        default) runs the same greedy loop on one shard over the whole
        graph.  Results are byte-identical either way; ``shards=k``
        checkpoints use the sharded envelope format, unsharded ones the
        schema-1 file (``docs/RESILIENCE.md``).
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
        warm verification seed, kernel/evaluator leases — across a batch
        of same-``(graph, α, β)`` campaigns.  Engine family only (the
        baselines and ``shards=k`` campaigns have nothing it serves and
        ignore it); results stay byte-identical to a context-free run
        (``docs/PERF.md``).

    Returns
    -------
    AnchoredCoreResult
        Anchors, followers (w.r.t. the original core), and per-iteration
        diagnostics.
    """
    if ((checkpoint is not None or resume_from is not None)
            and method not in CHECKPOINTABLE_METHODS):
        raise InvalidParameterError(
            "checkpoint/resume is only supported by %s, not %r"
            % (", ".join(CHECKPOINTABLE_METHODS), method))
    if workers < 1:
        raise InvalidParameterError("workers must be >= 1, got %d" % workers)
    if workers > 1 and method not in PARALLEL_METHODS:
        raise InvalidParameterError(
            "workers > 1 is only supported by %s, not %r"
            % (", ".join(PARALLEL_METHODS), method))
    if shards is not None and method not in CHECKPOINTABLE_METHODS:
        raise InvalidParameterError(
            "shards is only supported by %s, not %r"
            % (", ".join(CHECKPOINTABLE_METHODS), method))
    deadline = (time.perf_counter() + time_limit) if time_limit else None
    if method == "random":
        return run_random(graph, alpha, beta, b1, b2, seed=seed)
    if method == "top-degree":
        return run_top_degree(graph, alpha, beta, b1, b2)
    if method == "degree-greedy":
        return run_degree_greedy(graph, alpha, beta, b1, b2)
    if method == "exact":
        return run_exact(graph, alpha, beta, b1, b2, deadline=deadline)
    if method == "naive":
        return run_naive(graph, alpha, beta, b1, b2, deadline=deadline)
    if method == "filver":
        return run_filver(graph, alpha, beta, b1, b2, deadline=deadline,
                          checkpoint=checkpoint, resume_from=resume_from,
                          workers=workers, memoize=memoize,
                          flat_kernel=flat_kernel, shards=shards,
                          on_iteration=on_iteration,
                          handle_sigterm=handle_sigterm, context=context)
    if method == "filver+":
        return run_filver_plus(graph, alpha, beta, b1, b2, deadline=deadline,
                               checkpoint=checkpoint, resume_from=resume_from,
                               workers=workers, memoize=memoize,
                               flat_kernel=flat_kernel, shards=shards,
                               on_iteration=on_iteration,
                               handle_sigterm=handle_sigterm,
                               context=context)
    if method == "filver++":
        return run_filver_plus_plus(graph, alpha, beta, b1, b2, t=t,
                                    deadline=deadline, checkpoint=checkpoint,
                                    resume_from=resume_from, workers=workers,
                                    memoize=memoize, flat_kernel=flat_kernel,
                                    shards=shards, on_iteration=on_iteration,
                                    handle_sigterm=handle_sigterm,
                                    context=context)
    raise InvalidParameterError(
        "unknown method %r; expected one of %s" % (method, ", ".join(METHODS)))
