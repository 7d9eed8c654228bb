"""Batched multi-campaign execution over a shared (α, β) substrate.

The service sees *streams* of campaigns against one graph, and most of a
cold start is (α, β)-invariant: the base (α,β)-core, the pristine deletion
orders (plus capped core numbers), and each pristine shard side's ranked
list under the two-hop filter and ``|rf(x)|`` bounds are all pure
functions of ``(graph, α, β)`` — no campaign parameter (budgets, method,
``t``, seed, deadline) enters them.  :class:`SharedCampaignContext`
computes each of those exactly once and serves them to every campaign:

* per ``shards`` value, the shard plan's views
  (:func:`repro.core.sharded.shard_views`) and each view's pristine
  :class:`~repro.core.order_maintenance.OrderState` are built once; each
  campaign repairs private clones (`OrderState.clone_pristine`), so
  per-iteration dirty regions stay campaign-private;
* each view's pristine ranked lists, one per side, are built once by the
  engine's own filter stage; each FILVER+/FILVER++ campaign's shards
  serve them, shared read-only, through a
  :class:`~repro.core.incremental.VerificationCache` until their first
  apply (see :mod:`repro.core.incremental`);
* parallel evaluators (the shared-memory pool of :mod:`repro.parallel`)
  are leased from a small free-pool — an evaluator re-broadcasts state per
  iteration, so it carries no campaign state across a lease.  Follower
  kernels are built per campaign, as standalone: one costs a fraction of
  a millisecond.

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
from repro.core.incremental import Seed
from repro.core.order_maintenance import OrderState
from repro.core.sharded import CampaignShard, Router, View, shard_views
# two_hop_filter_cached: unused here, kept for perfbench's tracer.
from repro.core.signatures import two_hop_filter_cached  # noqa: F401
from repro.exceptions import InvalidParameterError

if TYPE_CHECKING:
    from repro.parallel import ShardedEvaluator

__all__ = ["SharedCampaignContext"]

#: The warm-up's filter pass, the one FILVER+ and FILVER++ run: the
#: two-hop filter, then ``|rf(x)|`` bounds.
_RF_PASS = EngineOptions(use_two_hop_filter=True, use_rf_bound=True)


class SharedCampaignContext:
    """The (α, β)-invariant substrate shared by a batch of campaigns.

    Every served value is either frozen (base core, shard views, seeded
    ranked lists), cloned (order states), or leased with no cross-campaign
    state (evaluators).  All accessors are thread-safe — the service's worker
    threads share one instance — but any single leased evaluator must be
    used by one campaign at a time, which the lease pool guarantees.

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
        # Per ``shards`` value: (views, router, pristine states); seeds.
        self._plans: Dict[Optional[int],
                          Tuple[List[View], Router, List[OrderState]]] = {}
        self._seeds: Dict[Optional[int], Tuple[Seed, ...]] = {}
        self._eval_free: Dict[Tuple[int, bool, Optional[int]],
                              List["ShardedEvaluator"]] = {}
        # Diagnostics (batch scheduler stats / benchmarks).
        self.state_clones = 0
        self.kernels_built = 0  # the warm-up's scratch kernels
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

    def shard_views(self, shards: Optional[int]) -> Tuple[List[View], Router]:
        """The ``shards`` plan's views and router, built once."""
        with self._lock:
            views, route, _states = self._plan(shards)
            return views, route

    def order_state(self, maintain: bool = True,
                    shards: Optional[int] = None) -> List[OrderState]:
        """One campaign's private pristine :class:`OrderState` clones, one
        per view of the ``shards`` plan."""
        with self._lock:
            _views, _route, states = self._plan(shards)
            self.state_clones += 1
        return [state.clone_pristine(maintain=maintain) for state in states]

    def seed_tables(self, shards: Optional[int] = None,
                    ) -> Tuple[Seed, ...]:
        """Each view's pristine ranked lists, one seed per view of the
        ``shards`` plan in view order, built on first use.

        A seed maps each side to its ``(entries, candidates_total)``:
        the engine's own filter stage, with the two-hop filter and
        ``|rf(x)|`` bounds, over the view's pristine state — exactly the
        list iteration one of a cold FILVER+/FILVER++ campaign ranks (see
        :mod:`repro.core.incremental`).  The lists are shared read-only
        by every campaign and service thread.
        """
        with self._lock:
            if shards not in self._seeds:
                views, _route, states = self._plan(shards)
                self._seeds[shards] = tuple(
                    map(self._warm_seed_tables, range(len(views)), views,
                        states))
            return self._seeds[shards]

    def _plan(self, shards: Optional[int],
              ) -> Tuple[List[View], Router, List[OrderState]]:
        # Callers hold the lock.  maintain=True states serve both settings.
        if shards not in self._plans:
            views, route = shard_views(self.graph, shards)
            self._plans[shards] = (views, route, [
                OrderState(view.graph, self.alpha, self.beta, maintain=True)
                for view in views])
        return self._plans[shards]

    def _warm_seed_tables(self, index: int, view: View,
                          state: OrderState) -> Seed:
        """View ``index``'s seed: an ``_RF_PASS`` filter stage per side
        over its pristine ``state``, on a scratch shard and kernel."""
        kernel = kernel_for(view.graph)
        if kernel is not None:
            self.kernels_built += 1
        try:
            shard = CampaignShard(index, view, state, None, kernel)
            return {side: _filter_stage(shard, side, _RF_PASS)
                    for side in ("upper", "lower")}
        finally:
            if kernel is not None:
                kernel.release()

    # ------------------------------------------------------------------
    # Leases: parallel evaluators
    # ------------------------------------------------------------------

    def acquire_evaluator(self, workers: int, use_flat_kernel: bool,
                          shards: Optional[int] = None,
                          ) -> Optional["ShardedEvaluator"]:
        """Lease the engine's worker pool over the ``shards`` plan's graphs.

        ``None`` when ``workers <= 1`` or the pool cannot be created (the
        campaign degrades to the serial path exactly as standalone runs
        do).  Each campaign's first broadcast carries its full state and
        every reply stream drains all in-flight work before it ends, so a
        returned lease carries no campaign state.
        """
        if workers <= 1:
            return None
        key = (workers, bool(use_flat_kernel), shards)
        with self._lock:
            pool = self._eval_free.get(key)
            if pool:
                self.evaluator_leases += 1
                return pool.pop()
            views = self._plan(shards)[0]
        from repro.parallel import create_sharded_evaluator

        evaluator = create_sharded_evaluator([view.graph for view in views],
                                             workers,
                                             use_flat_kernel=use_flat_kernel)
        if evaluator is not None:
            with self._lock:
                self.evaluator_leases += 1
                self.evaluators_built += 1
        return evaluator

    def release_evaluator(self, workers: int, use_flat_kernel: bool,
                          evaluator: Optional["ShardedEvaluator"],
                          shards: Optional[int] = None) -> None:
        """Return a leased evaluator to the pool (accepts ``None``)."""
        if evaluator is None:
            return
        key = (workers, bool(use_flat_kernel), shards)
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
                "warm": bool(self._seeds),
                "seed_entries": sum(len(entries)
                                    for seeds in self._seeds.values()
                                    for seed in seeds
                                    for entries, _total in seed.values()),
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
        for pool in evaluators.values():
            for evaluator in pool:
                evaluator.shutdown()

    def __enter__(self) -> "SharedCampaignContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
