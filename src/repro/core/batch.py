"""Batched multi-campaign execution over a shared (α, β) substrate.

The service sees *streams* of campaigns against one graph, and most of a
cold start is (α, β)-invariant: the base (α,β)-core, the pristine deletion
orders (plus capped core numbers), the r-score tables, and the first
filter pass's signatures / two-hop verdicts / ``rf(x)`` sets are all pure
functions of ``(graph, α, β)`` — no campaign parameter (budgets, method,
``t``, seed, deadline) enters them.  :class:`SharedCampaignContext`
computes each of those exactly once and serves them to every campaign:

* the pristine :class:`~repro.core.order_maintenance.OrderState` is built
  once and *cloned* per campaign (`OrderState.clone_pristine`) — each
  campaign repairs its private clone, so per-iteration dirty regions stay
  campaign-private;
* the epoch-0 verification tables are frozen into a
  :class:`~repro.core.incremental.SeedTables` and consulted read-only by
  each campaign's private :class:`~repro.core.incremental.VerificationCache`
  (promotion + tombstones; see the seeding section of
  :mod:`repro.core.incremental`);
* parallel evaluators (the shared-memory pool of :mod:`repro.parallel`)
  are leased from a small free-pool — an evaluator re-broadcasts state per
  iteration, so it carries no campaign state across a lease.  Follower
  kernels are not pooled: each campaign builds its own with
  :func:`~repro.bigraph.kernel.kernel_for`, as a standalone run does,
  because building one costs a fraction of a millisecond.

Everything campaign-*variant* — anchors, order repairs, dirty regions,
follower sets, checkpoints, budgets, deadlines — lives in per-campaign
objects exactly as in a standalone run, which is why batched results are
byte-identical to running each job alone (asserted differentially in
``tests/test_batch.py`` and gated by ``make bench-batch-smoke``).

A batch is one context plus one :func:`repro.core.api.reinforce` call per
campaign — one order build plus N incremental campaigns instead of N cold
starts::

    with SharedCampaignContext(graph, alpha, beta) as ctx:
        results = [reinforce(graph, alpha, beta, b1, b2, context=ctx)
                   for b1, b2 in budgets]
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from repro.abcore.decomposition import abcore
from repro.bigraph.graph import BipartiteGraph
from repro.bigraph.kernel import kernel_for
from repro.bigraph.validation import validate_problem
# reachable_from, r_scores: unused here, kept for perfbench's tracer.
from repro.core.deletion_order import r_scores, reachable_from  # noqa: F401
from repro.core.engine import EngineOptions, _filter_stage
from repro.core.incremental import SeedTables, VerificationCache
from repro.core.order_maintenance import OrderState
from repro.core.sharded import CampaignShard, IdentityView
# two_hop_filter_cached: unused here, kept for perfbench's tracer.
from repro.core.signatures import two_hop_filter_cached  # noqa: F401
from repro.exceptions import InvalidParameterError

if TYPE_CHECKING:
    from repro.parallel import ShardedEvaluator

__all__ = ["SharedCampaignContext", "context_key"]

#: The warm-up's two filter passes: the first stores signatures, two-hop
#: verdicts and ``rf(x)`` for every survivor; the second stores the
#: r-score tables (r-score bounds skip the two-hop filter and ``rf(x)``).
_RF_PASS = EngineOptions(use_two_hop_filter=True, use_rf_bound=True)
_R_SCORE_PASS = EngineOptions()


def context_key(fingerprint: str, alpha: int, beta: int,
                backend: str) -> Tuple[str, int, int, str]:
    """The identity a shared context is keyed on, as a hashable tuple."""
    return (fingerprint, int(alpha), int(beta), backend)


class SharedCampaignContext:
    """The (α, β)-invariant substrate shared by a batch of campaigns.

    Keyed on ``(graph_fingerprint, α, β, backend)`` (:func:`context_key`,
    exposed as :attr:`key`); every served value is either frozen (base
    core, seed tables), cloned (order state), or leased with no
    cross-campaign state (evaluators).  All accessors are thread-safe —
    the service's worker threads share one instance — but any single
    leased evaluator must be used by one campaign at a time, which the
    lease pool guarantees.

    The context never validates budgets: each campaign's own entry point
    does.  It does pin the problem instance — :meth:`check_compatible`
    rejects a campaign run against a different graph *object* or a
    different ``(α, β)``.
    """

    def __init__(self, graph: BipartiteGraph, alpha: int, beta: int) -> None:
        validate_problem(graph, alpha, beta, 0, 0)
        self.graph = graph
        self.alpha = alpha
        self.beta = beta
        self.backend = graph.backend
        self._lock = threading.RLock()
        self._closed = False
        self._fingerprint: Optional[str] = None
        self._base_core: Optional[Set[int]] = None
        self._seed_state: Optional[OrderState] = None
        self._seed_tables: Optional[SeedTables] = None
        self._eval_free: Dict[Tuple[int, bool],
                              List["ShardedEvaluator"]] = {}
        self._eval_all: List["ShardedEvaluator"] = []
        # Diagnostics (batch scheduler stats / benchmarks).
        self.state_clones = 0
        self.kernels_built = 0  # the warm-up's scratch kernel
        self.evaluator_leases = 0
        self.evaluators_built = 0

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """The graph fingerprint (computed lazily — it scans every edge)."""
        with self._lock:
            if self._fingerprint is None:
                from repro.resilience.checkpoint import graph_fingerprint

                self._fingerprint = graph_fingerprint(self.graph)
            return self._fingerprint

    @property
    def key(self) -> Tuple[str, int, int, str]:
        """``context_key(fingerprint, α, β, backend)`` for this context."""
        return context_key(self.fingerprint, self.alpha, self.beta,
                           self.backend)

    def check_compatible(self, graph: BipartiteGraph, alpha: int,
                         beta: int) -> None:
        """Reject a campaign whose problem instance this context cannot serve.

        The graph must be the *same object* the context was built around —
        an identity check, because fingerprinting per campaign would cost
        more than the sharing saves.
        """
        if graph is not self.graph or alpha != self.alpha \
                or beta != self.beta:
            raise InvalidParameterError(
                "campaign (alpha=%d, beta=%d) does not match shared context "
                "(alpha=%d, beta=%d%s)"
                % (alpha, beta, self.alpha, self.beta,
                   "" if graph is self.graph else ", different graph"))

    # ------------------------------------------------------------------
    # Shared (α, β)-invariant values
    # ------------------------------------------------------------------

    def base_core(self) -> Set[int]:
        """The base (α,β)-core vertex set, computed once; treat as frozen."""
        with self._lock:
            if self._base_core is None:
                self._base_core = abcore(self.graph, self.alpha, self.beta)
            return self._base_core

    def order_state(self, maintain: bool = True) -> OrderState:
        """A private pristine :class:`OrderState` clone for one campaign."""
        with self._lock:
            state = self._pristine_state()
            self.state_clones += 1
        return state.clone_pristine(maintain=maintain)

    def seed_tables(self) -> SeedTables:
        """The frozen epoch-0 verification tables, warmed on first use.

        Warm-up runs the engine's own filter stage over the pristine state
        twice, into a throwaway :class:`VerificationCache` — once with the
        two-hop filter and ``rf(x)`` bounds (signatures, survivor verdicts,
        ``rf(x)`` for every survivor), once with r-score bounds (both
        r-score tables) — then freezes it.  Every stored value is exactly
        what iteration one of a cold campaign would compute, which is the
        whole soundness story (see :mod:`repro.core.incremental`).
        """
        with self._lock:
            if self._seed_tables is None:
                self._seed_tables = self._warm_seed_tables()
            return self._seed_tables

    def _pristine_state(self) -> OrderState:
        # Callers hold the lock.  maintain=True so the seed can serve both
        # maintain settings (a maintain=False clone just drops the numbers).
        if self._seed_state is None:
            self._seed_state = OrderState(self.graph, self.alpha, self.beta,
                                          maintain=True)
        return self._seed_state

    def _warm_seed_tables(self) -> SeedTables:
        scratch = VerificationCache(self.graph)
        kernel = kernel_for(self.graph)
        if kernel is not None:
            self.kernels_built += 1
        state = self._pristine_state()
        shard = CampaignShard(0, IdentityView(self.graph), state, scratch,
                              kernel)
        try:
            if kernel is not None:
                kernel.begin_iteration(state.upper.position,
                                       state.lower.position, state.core)
            for options in (_RF_PASS, _R_SCORE_PASS):
                _filter_stage(shard, 1, 1, options)
        finally:
            if kernel is not None:
                kernel.release()
        return scratch.freeze_seed()

    # ------------------------------------------------------------------
    # Leases: parallel evaluators
    # ------------------------------------------------------------------

    def acquire_evaluator(self, workers: int, use_flat_kernel: bool,
                          ) -> Optional["ShardedEvaluator"]:
        """Lease a parallel evaluator over the shared-memory graph pool.

        The pool is the engine's one worker pool over ``[graph]`` — an
        unsharded campaign's single identity shard.  ``None`` when
        ``workers <= 1`` or the pool cannot be created (the campaign
        degrades to the serial path exactly as standalone runs do).  Each
        campaign's first broadcast carries its full state and every reply
        stream drains all in-flight work before it ends, so a returned
        lease carries no campaign state.
        """
        if workers <= 1:
            return None
        key = (workers, bool(use_flat_kernel))
        with self._lock:
            pool = self._eval_free.get(key)
            if pool:
                self.evaluator_leases += 1
                return pool.pop()
        from repro.parallel import create_sharded_evaluator

        evaluator = create_sharded_evaluator([self.graph], workers,
                                             use_flat_kernel=use_flat_kernel)
        if evaluator is not None:
            with self._lock:
                self._eval_all.append(evaluator)
                self.evaluator_leases += 1
                self.evaluators_built += 1
        return evaluator

    def release_evaluator(self, workers: int, use_flat_kernel: bool,
                          evaluator: Optional["ShardedEvaluator"]) -> None:
        """Return a leased evaluator to the pool (accepts ``None``)."""
        if evaluator is None:
            return
        key = (workers, bool(use_flat_kernel))
        with self._lock:
            if self._closed:
                evaluator.shutdown()
            else:
                self._eval_free.setdefault(key, []).append(evaluator)

    # ------------------------------------------------------------------
    # Lifecycle / diagnostics
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Sharing counters, for the service's stats and the benchmarks."""
        with self._lock:
            return {
                "alpha": self.alpha,
                "beta": self.beta,
                "backend": self.backend,
                "warm": self._seed_tables is not None,
                "seed_entries": (self._seed_tables.entries()
                                 if self._seed_tables is not None else 0),
                "state_clones": self.state_clones,
                "kernels_built": self.kernels_built,
                "evaluator_leases": self.evaluator_leases,
                "evaluators_built": self.evaluators_built,
            }

    def close(self) -> None:
        """Shut pooled evaluators down."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            evaluators, self._eval_free = self._eval_free, {}
            self._eval_all = []
        for pool in evaluators.values():
            for evaluator in pool:
                evaluator.shutdown()

    def __enter__(self) -> "SharedCampaignContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
