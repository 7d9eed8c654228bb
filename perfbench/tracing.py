"""Per-layer spans for the traced benchmark run, taken from outside the program.

A traced run replaces public callables of the program's layers with timing
wrappers for the duration of one ``with Tracer() as tracer:`` block and puts
every original back when the block ends, exception or not.  Nothing under
``src/`` knows it is being measured; an untraced run executes the program
unmodified.

Span accounting: every wrapped call records its inclusive time, and its
*exclusive* time, which is the inclusive time minus the time of wrapped
calls nested inside it on the same thread.  Leaf layers (abcore, order,
filter, cache, verification, checkpoints) report exclusive time, so no
second counts twice when one layer calls another; container layers (shard
ranking/apply, the batch context, the service supervisor) report inclusive
time.  ``covered_s`` is the wall time spent inside outermost spans on the
calling thread, from which ``engine.other_s`` is derived.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

__all__ = ["LAYER_METRICS", "Tracer", "quantile", "layer_metrics"]


#: Every per-layer metric a traced run reports, with its unit.  A workload
#: that does not exercise a layer reports 0 for it (the shard layer outside
#: the sharded workload, the service layers on one-shot campaigns).
LAYER_METRICS = (
    ("bigraph.build_s", "s"),
    ("bigraph.decompose_s", "s"),
    ("bigraph.mapped_mb", "MB"),
    ("bigraph.resident_mb", "MB"),
    ("abcore.base_core_s", "s"),
    ("abcore.final_core_s", "s"),
    ("order.build_s", "s"),
    ("order.apply_s", "s"),
    ("order.apply_calls", "count"),
    ("order.dirty_vertices", "count"),
    ("filter.s", "s"),
    ("filter.reachable_calls", "count"),
    ("filter.reachable_s", "s"),
    ("filter.two_hop_s", "s"),
    ("filter.survivor_frac", "ratio"),
    ("cache.rf_hit_frac", "ratio"),
    ("cache.follower_hit_frac", "ratio"),
    ("cache.survivor_hit_frac", "ratio"),
    ("cache.seed_hits", "count"),
    ("cache.evictions", "count"),
    ("cache.invalidate_s", "s"),
    ("cache.store_rf_s", "s"),
    ("verify.calls", "count"),
    ("verify.s", "s"),
    ("verify.nonempty_frac", "ratio"),
    ("shard.ranked_s", "s"),
    ("shard.apply_s", "s"),
    ("shard.ranked_calls", "count"),
    ("shard.balance", "ratio"),
    ("batch.context_s", "s"),
    ("batch.state_clones", "count"),
    ("batch.kernels_built", "count"),
    ("batch.seed_entries", "count"),
    ("service.submit_ms_p50", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p90", "ms"),
    ("service.run_ms_p50", "ms"),
    ("service.run_ms_p90", "ms"),
    ("service.job_p90_ms", "ms"),
    ("service.cache_hit_frac", "ratio"),
    ("service.disk_store_s", "s"),
    ("service.disk_load_s", "s"),
    ("service.disk_hits", "count"),
    ("service.restart_s", "s"),
    ("service.retries", "count"),
    ("resilience.checkpoint_writes", "count"),
    ("resilience.checkpoint_s", "s"),
    ("engine.other_s", "s"),
    ("trace.overhead_s", "s"),
)

#: Span name -> the layer metric its exclusive time adds to.
_FILTER_SPANS = ("filter.candidates", "filter.two_hop", "filter.reachable",
                 "filter.reachable_dfs", "filter.r_scores")

_CACHE_COUNTERS = ("rf_hits", "rf_misses", "follower_hits",
                   "follower_misses", "survivor_hits", "survivor_misses",
                   "seed_hits", "evictions")


def quantile(values: List[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) of ``values``; 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


class Tracer:
    """Install timing wrappers around the program's layers; restore on exit.

    Usage::

        with Tracer() as tracer:
            run_the_workload()
        tracer.time["order.apply"], tracer.calls["order.apply"], ...

    The tracer is thread-safe: the campaign service runs jobs on a worker
    thread while the benchmark submits from the main thread, so totals are
    updated under a lock and the span stack is per thread.
    """

    def __init__(self) -> None:
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.exclusive: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, int] = defaultdict(int)
        self.covered_s = 0.0
        self.per_shard_ranked: Dict[int, float] = defaultdict(float)
        self.cache_totals: Dict[str, int] = defaultdict(int)
        self.context_totals: Dict[str, int] = defaultdict(int)
        self._caches: List[object] = []
        self._contexts: List[object] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             keep_samples: bool = False,
             after: Optional[Callable[..., None]] = None) -> Callable:
        """A timing wrapper around ``fn`` recording spans under ``name``.

        ``after(result, args)`` runs after each successful call, outside
        the timed span.  ``keep_samples`` keeps every inclusive duration.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                with tracer._lock:
                    tracer.inclusive[name] += elapsed
                    tracer.exclusive[name] += elapsed - frame[0]
                    tracer.calls[name] += 1
                    if keep_samples:
                        tracer.samples[name].append(elapsed)
                    if stack:
                        stack[-1][0] += elapsed
                    else:
                        tracer.covered_s += elapsed
            if after is not None:
                after(result, args)
            return result

        return traced

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` (a module or class attribute) until exit."""
        namespace = vars(owner)
        if attr not in namespace:
            raise AttributeError("%r defines no attribute %r" % (owner, attr))
        self._patches.append((owner, attr, namespace[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Instance capture (caches, batch contexts, shard timings)
    # ------------------------------------------------------------------

    def harvest_caches(self) -> None:
        """Add the counters of every captured cache to the totals, drop them."""
        with self._lock:
            caches, self._caches = self._caches, []
        for cache in caches:
            for counter in _CACHE_COUNTERS:
                self.cache_totals[counter] += getattr(cache, counter)

    def _capture_cache(self, _result: object, args: tuple) -> None:
        with self._lock:
            self._caches.append(args[0])

    def _record_dirty(self, dirty: object, _args: tuple) -> None:
        if dirty:
            size = sum(len(region) for region in dirty.values())
            with self._lock:
                self.counts["order.dirty_vertices"] += size

    def _record_followers(self, followers: object, _args: tuple) -> None:
        if followers:
            with self._lock:
                self.counts["verify.nonempty"] += 1

    def _capture_context(self, _result: object, args: tuple) -> None:
        with self._lock:
            self._contexts.append(args[0])

    def harvest_contexts(self) -> None:
        """Add the sharing counters of every captured batch context.

        ``SharedCampaignContext.stats()`` stays readable after ``close()``,
        so this runs once the service that owned the contexts shut down.
        """
        with self._lock:
            contexts, self._contexts = self._contexts, []
        for context in contexts:
            stats = context.stats()
            for key in ("state_clones", "kernels_built", "seed_entries"):
                self.context_totals[key] += int(stats[key])

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()
        self.harvest_caches()
        self.harvest_contexts()

    def _install(self) -> None:
        from repro.bigraph.components import ComponentDecomposition
        from repro.bigraph.kernel import FollowerKernel
        from repro.core import batch, engine, sharded
        from repro.core.batch import SharedCampaignContext
        from repro.core.deletion_order import DeletionOrder
        from repro.core.incremental import VerificationCache
        from repro.core.order_maintenance import OrderState
        from repro.core.sharded import CampaignShard
        from repro.resilience.checkpoint import CampaignCheckpoint
        from repro.service.cache import DiskCacheTier
        from repro.service.server import CampaignService
        from repro.service.supervisor import JobSupervisor

        def wrap_module(modules, attr, name, **kwargs):
            for module in modules:
                self.patch(module, attr,
                           self.wrap(name, vars(module)[attr], **kwargs))

        def wrap_method(cls, attr, name, **kwargs):
            self.patch(cls, attr, self.wrap(name, vars(cls)[attr], **kwargs))

        # bigraph
        wrap_method(ComponentDecomposition, "__init__", "bigraph.decompose")
        wrap_method(ComponentDecomposition, "subgraph_view",
                    "bigraph.decompose")
        # abcore: the engines' base-core and final-core peels
        wrap_module((engine, sharded, batch), "abcore", "abcore.base_core")
        wrap_module((engine, sharded), "anchored_abcore", "abcore.final_core")
        # order maintenance
        wrap_method(OrderState, "__init__", "order.build")
        wrap_method(OrderState, "clone_pristine", "order.build")
        wrap_method(OrderState, "apply_anchors", "order.apply",
                    after=self._record_dirty)
        # filter: deletion orders, signatures, kernel reachability
        wrap_method(DeletionOrder, "candidates", "filter.candidates")
        wrap_module((engine, batch), "two_hop_filter_cached",
                    "filter.two_hop")
        wrap_module((engine,), "two_hop_filter", "filter.two_hop")
        wrap_module((engine, batch), "reachable_from", "filter.reachable_dfs")
        wrap_module((engine, batch), "r_scores", "filter.r_scores")
        wrap_method(FollowerKernel, "reachable", "filter.reachable")
        # incremental verification cache
        wrap_method(VerificationCache, "__init__", "cache.init",
                    after=self._capture_cache)
        wrap_method(VerificationCache, "invalidate", "cache.invalidate")
        wrap_method(VerificationCache, "store_rf", "cache.store_rf")
        # verification (Algorithm 1)
        wrap_method(FollowerKernel, "followers", "verify.followers",
                    after=self._record_followers)
        wrap_module((engine, sharded), "compute_followers",
                    "verify.followers", after=self._record_followers)
        # sharded substrate
        self._wrap_shard(CampaignShard, "ranked", "shard.ranked")
        wrap_method(CampaignShard, "apply", "shard.apply")
        # batch substrate
        for attr in ("base_core", "order_state", "seed_tables"):
            wrap_method(SharedCampaignContext, attr, "batch.context")
        wrap_method(SharedCampaignContext, "__init__", "batch.context",
                    after=self._capture_context)
        # service
        wrap_method(CampaignService, "submit", "service.submit",
                    keep_samples=True)
        self._wrap_supervisor(JobSupervisor)
        wrap_method(DiskCacheTier, "store", "service.disk_store")
        wrap_method(DiskCacheTier, "load", "service.disk_load")
        # resilience
        wrap_method(CampaignCheckpoint, "save", "resilience.checkpoint")

    def _wrap_shard(self, cls: type, attr: str, name: str) -> None:
        timed = self.wrap(name, vars(cls)[attr])
        tracer = self

        @functools.wraps(timed)
        def ranked(shard, *args, **kwargs):
            start = time.perf_counter()
            try:
                return timed(shard, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with tracer._lock:
                    tracer.per_shard_ranked[shard.index] += elapsed

        self.patch(cls, attr, ranked)

    def _wrap_supervisor(self, cls: type) -> None:
        timed = self.wrap("service.run", vars(cls)["run"], keep_samples=True)
        tracer = self

        @functools.wraps(timed)
        def run(supervisor, job, *args, **kwargs):
            # Job.submitted_at is stamped on the service clock, which is
            # time.monotonic unless a test injects another.
            wait = time.monotonic() - job.submitted_at
            with tracer._lock:
                tracer.samples["service.queue_wait"].append(wait)
            try:
                return timed(supervisor, job, *args, **kwargs)
            finally:
                tracer.harvest_caches()

        self.patch(cls, "run", run)


def layer_metrics(tracer: Tracer, n_campaigns: int, campaign_wall_s: float,
                  iterations: List[object]) -> Dict[str, float]:
    """Turn a tracer's totals into per-layer metric values.

    Times and counts are divided by ``n_campaigns`` (campaigns for the
    one-shot workloads, sweeps for the service), so they read per campaign
    or per sweep.  ``campaign_wall_s`` is the traced wall time of those
    campaigns; ``iterations`` are their ``IterationRecord`` lists' items.
    Service, bigraph build/footprint and overhead metrics are filled in by
    the caller.
    """
    n = max(1, n_campaigns)
    ex = tracer.exclusive
    inc = tracer.inclusive
    calls = tracer.calls
    cache = tracer.cache_totals

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    total = sum(getattr(r, "candidates_total") for r in iterations)
    after = sum(getattr(r, "candidates_after_filter") for r in iterations)
    verifications = sum(getattr(r, "verifications") for r in iterations)
    shard_times = list(tracer.per_shard_ranked.values())
    mean_shard = statistics.fmean(shard_times) if shard_times else 0.0
    return {
        "bigraph.decompose_s": ex["bigraph.decompose"] / n,
        "abcore.base_core_s": ex["abcore.base_core"] / n,
        "abcore.final_core_s": ex["abcore.final_core"] / n,
        "order.build_s": ex["order.build"] / n,
        "order.apply_s": ex["order.apply"] / n,
        "order.apply_calls": calls["order.apply"] / n,
        "order.dirty_vertices": tracer.counts["order.dirty_vertices"] / n,
        "filter.s": sum(ex[span] for span in _FILTER_SPANS) / n,
        "filter.reachable_calls": calls["filter.reachable"] / n,
        "filter.reachable_s": ex["filter.reachable"] / n,
        "filter.two_hop_s": ex["filter.two_hop"] / n,
        "filter.survivor_frac": frac(after, total),
        "cache.rf_hit_frac": frac(cache["rf_hits"],
                                  cache["rf_hits"] + cache["rf_misses"]),
        "cache.follower_hit_frac": frac(
            cache["follower_hits"],
            cache["follower_hits"] + cache["follower_misses"]),
        "cache.survivor_hit_frac": frac(
            cache["survivor_hits"],
            cache["survivor_hits"] + cache["survivor_misses"]),
        "cache.seed_hits": cache["seed_hits"] / n,
        "cache.evictions": cache["evictions"] / n,
        "cache.invalidate_s": ex["cache.invalidate"] / n,
        "cache.store_rf_s": ex["cache.store_rf"] / n,
        "verify.calls": verifications / n,
        "verify.s": ex["verify.followers"] / n,
        "verify.nonempty_frac": frac(tracer.counts["verify.nonempty"],
                                     calls["verify.followers"]),
        "shard.ranked_s": inc["shard.ranked"] / n,
        "shard.apply_s": inc["shard.apply"] / n,
        "shard.ranked_calls": calls["shard.ranked"] / n,
        "shard.balance": frac(max(shard_times, default=0.0), mean_shard),
        "batch.context_s": inc["batch.context"] / n,
        "batch.state_clones": tracer.context_totals["state_clones"] / n,
        "batch.kernels_built": tracer.context_totals["kernels_built"] / n,
        "batch.seed_entries": tracer.context_totals["seed_entries"] / n,
        "resilience.checkpoint_writes": calls["resilience.checkpoint"] / n,
        "resilience.checkpoint_s": ex["resilience.checkpoint"] / n,
        "engine.other_s": max(0.0, campaign_wall_s - tracer.covered_s) / n,
    }
