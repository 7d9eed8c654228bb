"""FILVER++ — both filter- and verification-stage optimizations (Alg. 7).

On top of FILVER+, each iteration maintains a working set ``T`` of up to
``t`` anchors (Algorithm 6): candidates either join ``T`` or replace its
least-contribution member when that grows the in-shell follower set.  Placing
``t`` anchors per iteration cuts the iteration count to ``⌈(b1+b2)/t⌉``; the
order maintenance handles the batch by processing anchors in non-decreasing
core number and skipping anchors inside an already-repaired affected graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.bigraph.graph import BipartiteGraph
from repro.core.engine import EngineOptions, ProgressCallback, run_engine
from repro.core.result import AnchoredCoreResult

if TYPE_CHECKING:
    from repro.core.batch import SharedCampaignContext

__all__ = ["run_filver_plus_plus", "filver_plus_plus_options"]


def filver_plus_plus_options(t: int = 5) -> EngineOptions:
    """Engine configuration for FILVER++ with ``t`` anchors per iteration."""
    return EngineOptions(
        use_two_hop_filter=True,
        maintain_orders=True,
        use_rf_bound=True,
        anchors_per_iteration=t,
    )


def run_filver_plus_plus(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    b1: int,
    b2: int,
    t: int = 5,
    deadline: Optional[float] = None,
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
    """Solve the anchored (α,β)-core problem with FILVER++.

    ``t`` is the number of anchors placed per iteration (the paper sweeps
    1, 2, 4, 8, 16 and uses 5 as the default elsewhere); ``t < 1`` raises
    :class:`~repro.exceptions.InvalidParameterError`.
    ``checkpoint`` / ``resume_from`` enable per-iteration snapshots and
    deterministic resume; ``workers > 1`` verifies candidates on a process
    pool with results identical to the serial scan, and ``memoize`` /
    ``flat_kernel`` control the cross-iteration verification cache and the
    flat-array CSR follower kernel — both byte-identity-preserving
    accelerations (see :func:`repro.core.engine.run_engine`).  ``shards``
    (an int ≥ 1) splits the campaign's state across connected-component
    shards (sharded checkpoint format); ``None`` runs the same loop on one
    shard over the whole graph — results are byte-identical either way.
    ``on_iteration`` streams each finished
    :class:`repro.core.result.IterationRecord` to an observer, and
    ``handle_sigterm`` converts ``SIGTERM`` at an iteration boundary into
    the graceful ``interrupted=True`` best-so-far result (see
    :func:`repro.core.engine.run_engine`).  ``context`` shares a
    batch's (α,β) substrate (:mod:`repro.core.batch`); ``shards=k``
    campaigns build per-shard state and ignore it.
    """
    return run_engine(graph, alpha, beta, b1, b2,
                      filver_plus_plus_options(t),
                      algorithm="filver++(t=%d)" % t, deadline=deadline,
                      checkpoint=checkpoint, resume_from=resume_from,
                      workers=workers, memoize=memoize,
                      flat_kernel=flat_kernel, on_iteration=on_iteration,
                      handle_sigterm=handle_sigterm, context=context,
                      shards=shards)
