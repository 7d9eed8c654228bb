"""Batched multi-campaign execution over a shared (α, β) substrate.

The service sees *streams* of campaigns against one graph, and most of a
cold start is (α, β)-invariant: the base (α,β)-core, the pristine deletion
orders (plus capped core numbers), the CSR follower-kernel arrays, the
r-score tables, and the first filter pass's signatures / two-hop verdicts /
``rf(x)`` sets are all pure functions of ``(graph, α, β)`` — no campaign
parameter (budgets, method, ``t``, seed, deadline) enters them.
:class:`SharedCampaignContext` computes each of those exactly once and
serves them copy-on-write to every campaign:

* the pristine :class:`~repro.core.order_maintenance.OrderState` is built
  once and *cloned* per campaign (`OrderState.clone_pristine`) — each
  campaign repairs its private clone, so per-iteration dirty regions stay
  campaign-private;
* the epoch-0 verification tables are frozen into a
  :class:`~repro.core.incremental.SeedTables` and consulted read-only by
  each campaign's private :class:`~repro.core.incremental.VerificationCache`
  (promotion + tombstones; see the seeding section of
  :mod:`repro.core.incremental`);
* :class:`~repro.bigraph.kernel.FollowerKernel` instances and parallel
  evaluators (the shared-memory pool of :mod:`repro.parallel`) are leased
  from small free-pools — the kernel reloads per iteration and the
  evaluator re-broadcasts state per iteration, so neither carries campaign
  state across a lease.

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
from repro.bigraph.kernel import FollowerKernel, kernel_for
from repro.bigraph.validation import validate_problem
from repro.core.deletion_order import r_scores, reachable_from
from repro.core.incremental import SeedTables, VerificationCache
from repro.core.order_maintenance import OrderState
from repro.core.signatures import two_hop_filter_cached
from repro.exceptions import InvalidParameterError

if TYPE_CHECKING:
    from repro.parallel import ShardedEvaluator

__all__ = ["SharedCampaignContext", "context_key"]


def context_key(fingerprint: str, alpha: int, beta: int,
                backend: str) -> Tuple[str, int, int, str]:
    """The identity a shared context is keyed on, as a hashable tuple."""
    return (fingerprint, int(alpha), int(beta), backend)


class SharedCampaignContext:
    """The (α, β)-invariant substrate shared by a batch of campaigns.

    Keyed on ``(graph_fingerprint, α, β, backend)`` (:func:`context_key`,
    exposed as :attr:`key`); every served value is either frozen (base
    core, seed tables), cloned (order state), or leased with no
    cross-campaign state (kernels, evaluators).  All accessors are
    thread-safe — the service's worker threads share one instance — but
    any single leased kernel/evaluator must be used by one campaign at a
    time, which the lease pools guarantee.

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
        self._kernel_pool: List[FollowerKernel] = []
        self._kernel_capable = True
        self._eval_free: Dict[Tuple[int, bool],
                              List["ShardedEvaluator"]] = {}
        self._eval_all: List["ShardedEvaluator"] = []
        # Diagnostics (batch scheduler stats / benchmarks).
        self.state_clones = 0
        self.kernel_leases = 0
        self.kernels_built = 0
        self.evaluator_leases = 0
        self.evaluators_built = 0
        self.seed_restored = False

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

        Warm-up runs the pristine filter pass once — two-hop signatures and
        survivor verdicts over each side's candidates, ``rf(x)`` for every
        survivor, and both r-score tables — into a throwaway
        :class:`VerificationCache`, then freezes it.  Every stored value is
        exactly what iteration one of a cold campaign would compute, which
        is the whole soundness story (see :mod:`repro.core.incremental`).
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
        state = self._pristine_state()
        scratch = VerificationCache(self.graph)
        kernel = self.acquire_kernel()
        try:
            if kernel is not None:
                kernel.begin_iteration(state.upper.position,
                                       state.lower.position, state.core)
            for order in (state.upper, state.lower):
                side = order.side
                candidates = order.candidates(self.graph)
                if candidates:
                    survivors, _sigs = two_hop_filter_cached(
                        self.graph, order, candidates, scratch)
                    for x in survivors:
                        if kernel is not None:
                            rf = kernel.reachable(side, x)
                        else:
                            rf = reachable_from(self.graph, order, x)
                        scratch.store_rf(side, x, rf)
                scratch.store_r_scores(side, r_scores(self.graph, order))
        finally:
            self.release_kernel(kernel)
        return scratch.freeze_seed()

    # ------------------------------------------------------------------
    # Leases: follower kernels and parallel evaluators
    # ------------------------------------------------------------------

    def acquire_kernel(self) -> Optional[FollowerKernel]:
        """Lease a follower kernel (``None`` on non-CSR backends).

        The kernel reloads its position/core buffers in
        ``begin_iteration``, so a returned lease carries no campaign state.
        """
        with self._lock:
            if self._kernel_pool:
                self.kernel_leases += 1
                return self._kernel_pool.pop()
            if not self._kernel_capable:
                return None
        kernel = kernel_for(self.graph)
        with self._lock:
            if kernel is None:
                self._kernel_capable = False
            else:
                self.kernel_leases += 1
                self.kernels_built += 1
        return kernel

    def release_kernel(self, kernel: Optional[FollowerKernel]) -> None:
        """Return a leased kernel to the pool (accepts ``None``)."""
        if kernel is None:
            return
        with self._lock:
            if self._closed:
                kernel.release()
            else:
                self._kernel_pool.append(kernel)

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
    # Persistence (the service's on-disk tier)
    # ------------------------------------------------------------------

    def seed_payload(self) -> Optional[Dict[str, Any]]:
        """A JSON-safe envelope of the warm seed, or ``None`` if cold."""
        with self._lock:
            if self._seed_tables is None:
                return None
            return {"alpha": self.alpha, "beta": self.beta,
                    "backend": self.backend,
                    "tables": self._seed_tables.to_payload()}

    def install_seed_payload(self, payload: Dict[str, Any]) -> bool:
        """Adopt a persisted seed (from :meth:`seed_payload`).

        Returns ``False`` — leaving the context cold — when the payload is
        for a different ``(α, β)`` or a seed is already warm; raises on a
        malformed payload (callers degrade to cold).
        """
        if payload.get("alpha") != self.alpha \
                or payload.get("beta") != self.beta:
            return False
        tables = SeedTables.from_payload(payload["tables"])
        with self._lock:
            if self._seed_tables is not None:
                return False
            self._seed_tables = tables
            self.seed_restored = True
        return True

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
                "seed_restored": self.seed_restored,
                "state_clones": self.state_clones,
                "kernel_leases": self.kernel_leases,
                "kernels_built": self.kernels_built,
                "evaluator_leases": self.evaluator_leases,
                "evaluators_built": self.evaluators_built,
            }

    def close(self) -> None:
        """Release pooled kernels and shut pooled evaluators down."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            kernels, self._kernel_pool = self._kernel_pool, []
            evaluators, self._eval_free = self._eval_free, {}
            self._eval_all = []
        for kernel in kernels:
            kernel.release()
        for pool in evaluators.values():
            for evaluator in pool:
                evaluator.shutdown()

    def __enter__(self) -> "SharedCampaignContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
