"""FILVER — the basic filter–verification algorithm (Section III, Algorithm 2).

Each of the ``b1 + b2`` iterations recomputes the upper/lower deletion orders
from scratch, prunes candidates whose r-score bound is 0, then verifies the
survivors in non-increasing bound order with the local follower computation
(Algorithm 1), placing the single best anchor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.bigraph.graph import BipartiteGraph
from repro.core.engine import EngineOptions, ProgressCallback, run_engine
from repro.core.result import AnchoredCoreResult

if TYPE_CHECKING:
    from repro.core.batch import SharedCampaignContext

__all__ = ["run_filver", "FILVER_OPTIONS"]

FILVER_OPTIONS = EngineOptions(
    use_two_hop_filter=False,
    maintain_orders=False,
    use_rf_bound=False,
    anchors_per_iteration=1,
)


def run_filver(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    b1: int,
    b2: int,
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
    """Solve the anchored (α,β)-core problem with FILVER.

    ``checkpoint`` / ``resume_from`` enable per-iteration snapshots and
    deterministic resume; ``workers > 1`` verifies candidates on a process
    pool with results identical to the serial scan, and ``memoize`` /
    ``flat_kernel`` control the cross-iteration verification cache and the
    flat-array CSR follower kernel — both byte-identity-preserving
    accelerations (see :func:`repro.core.engine.run_engine`).  ``shards``
    (an int ≥ 1) splits the campaign's state across connected-component
    shards; ``None`` runs the same loop on one shard over the whole graph —
    results and checkpoints are the same either way, so a checkpoint
    resumes under any ``shards`` value.
    ``on_iteration`` streams each finished
    :class:`repro.core.result.IterationRecord` to an observer, and
    ``handle_sigterm`` converts ``SIGTERM`` at an iteration boundary into
    the graceful ``interrupted=True`` best-so-far result (see
    :func:`repro.core.engine.run_engine`).  ``context`` shares a batch's
    (α,β) substrate (:mod:`repro.core.batch`); ``shards=k``
    campaigns build per-shard state and ignore it.
    """
    return run_engine(graph, alpha, beta, b1, b2, FILVER_OPTIONS,
                      algorithm="filver", deadline=deadline,
                      checkpoint=checkpoint, resume_from=resume_from,
                      workers=workers, memoize=memoize,
                      flat_kernel=flat_kernel, on_iteration=on_iteration,
                      handle_sigterm=handle_sigterm, context=context,
                      shards=shards)
