"""Differential tests for batched multi-campaign execution.

The contract under test throughout: a campaign run against a
:class:`~repro.core.batch.SharedCampaignContext` — shared pristine order
state, warm verification seed, leased evaluators — produces
canonical JSON byte-identical to the same campaign run alone, across
backends, worker counts, methods, sharding, kill/resume, and service
restarts over the persisted cache."""

import copy
import json

import pytest

from repro.bigraph.memmap import load_graph_memmap, save_graph_memmap
from repro.bigraph.mutation import disjoint_union
from repro.core import SharedCampaignContext
from repro.core.api import engine_options, reinforce
from repro.core.engine import _filter_stage
from repro.core.incremental import VerificationCache
from repro.core.order_maintenance import OrderState
from repro.core.sharded import build_shards
from repro.exceptions import FaultInjected, InvalidParameterError
from repro.experiments.export import canonical_result_dict
from repro.generators import planted_core_graph
from repro.resilience import FaultPlan
from repro.service import BatchScheduler, CampaignService, JobSpec
from repro.service.batching import DEFAULT_MAX_CONTEXTS

from conftest import table_dict

ALPHA = BETA = 3


def canonical(result):
    return json.dumps(canonical_result_dict(result), sort_keys=True)


def batch_graph(seed=3):
    parts = [planted_core_graph(ALPHA, BETA, n_chains=6, max_chain_length=5,
                                seed=seed + i) for i in range(2)]
    return disjoint_union(parts)


#: A mixed-method batch: different budgets, methods, and t values, all
#: sharing one (α, β).  Each spec is the campaign's ``reinforce`` keywords.
MIXED_SPECS = (
    dict(b1=2, b2=2, method="filver++", t=2),
    dict(b1=1, b2=2, method="filver+"),
    dict(b1=2, b2=1, method="filver"),
    dict(b1=1, b2=1, method="filver++", t=3),
)


def run_standalone(graph, spec):
    return reinforce(graph, ALPHA, BETA, **spec)


def run_in_context(graph, specs, ctx):
    """A batch: one ``reinforce`` call per campaign against one context."""
    return [reinforce(graph, ALPHA, BETA, context=ctx, **spec)
            for spec in specs]


def tables(state):
    """A state's position and core-number tables, as entry dicts."""
    return [table_dict(table) for table in (
        state.upper.position, state.lower.position, state.core_u,
        state.core_l)]


class TestPristineClone:
    def test_clone_matches_a_fresh_state(self):
        graph = batch_graph()
        for maintain in (True, False):
            seed = OrderState(graph, ALPHA, BETA, maintain=True)
            clone = seed.clone_pristine(maintain=maintain)
            fresh = OrderState(graph, ALPHA, BETA, maintain=maintain)
            assert tables(clone) == tables(fresh)
            assert clone.core == fresh.core
            assert clone.maintain == maintain
            assert clone.anchors == set()

    def test_clones_are_independent(self):
        """An apply on one clone changes its tables and leaves the seed's
        and a sibling clone's position and core-number tables as they
        were: no clone shares a buffer with its seed."""
        graph = batch_graph()
        seed = OrderState(graph, ALPHA, BETA, maintain=True)
        one = seed.clone_pristine()
        two = seed.clone_pristine()
        before = tables(seed)
        assert tables(one) == tables(two) == before
        one.apply_anchors([min(table_dict(one.upper.position))])
        assert tables(one) != before
        assert two.anchors == set()
        assert seed.anchors == set()
        assert tables(seed) == before
        assert tables(two) == before

    def test_non_pristine_state_refuses_to_clone(self):
        graph = batch_graph()
        state = OrderState(graph, ALPHA, BETA, maintain=True)
        state.apply_anchors([min(table_dict(state.upper.position))])
        with pytest.raises(ValueError):
            state.clone_pristine()

    def test_maintaining_clone_needs_a_maintaining_seed(self):
        graph = batch_graph()
        state = OrderState(graph, ALPHA, BETA, maintain=False)
        with pytest.raises(ValueError):
            state.clone_pristine(maintain=True)


class TestSeedTables:
    def test_context_warms_once_and_serves_a_frozen_seed(self):
        """A seed maps each side to its pristine ``(entries, total)``:
        the filter stage FILVER++ runs on a cold shard, in plain-data
        entries, built once."""
        graph = batch_graph().to_csr()
        options = engine_options("filver++", 2)
        [cold], _route = build_shards(graph, ALPHA, BETA, options, True,
                                      None, 1)
        with SharedCampaignContext(graph, ALPHA, BETA) as ctx:
            [seed] = ctx.seed_tables(shards=1)
            assert ctx.seed_tables(shards=1)[0] is seed  # warmed once
            assert ctx.stats()["seed_entries"] == sum(
                len(entries) for entries, _total in seed.values())
        assert sorted(seed) == ["lower", "upper"]
        for side, (entries, total) in seed.items():
            assert (entries, total) == _filter_stage(cold, side, options)
            assert entries and total >= len(entries)
            assert all(type(field) in (int, str) for entry in entries
                       for field in entry)
            assert all(entry[2:4] == (0, side) for entry in entries)

    def test_caches_on_one_seed_are_isolated(self):
        """Invalidating one cache (its shard's first apply) leaves the
        shared seed and a second cache on it untouched: both read the
        seed's lists, and neither writes them."""
        graph = batch_graph().to_csr()
        with SharedCampaignContext(graph, ALPHA, BETA) as ctx:
            [seed] = ctx.seed_tables(shards=1)
        sides = ("upper", "lower")
        snapshot = copy.deepcopy(dict(seed))
        entries = sum(len(seed[side][0]) for side in sides)

        dirtied = VerificationCache(seed)
        bystander = VerificationCache(seed)
        before = [bystander.ranked(side) for side in sides]
        assert all(got is seed[side] for got, side in zip(before, sides))
        assert bystander.seed_hits == entries

        dirtied.invalidate()
        assert dirtied.evictions == entries
        assert [dirtied.ranked(side) for side in sides] == [None, None]
        assert dirtied.seed_hits == 0

        after = [bystander.ranked(side) for side in sides]
        assert all(a is b for a, b in zip(after, before))
        assert bystander.seed_hits == 2 * entries
        assert dict(seed) == snapshot

    def test_incompatible_problems_are_rejected(self):
        graph = batch_graph().to_csr()
        other = batch_graph(seed=9).to_csr()
        with SharedCampaignContext(graph, ALPHA, BETA) as ctx:
            with pytest.raises(InvalidParameterError):
                ctx.check_compatible(graph, ALPHA + 1, BETA)
            with pytest.raises(InvalidParameterError):
                ctx.check_compatible(other, ALPHA, BETA)

    @pytest.mark.parametrize("spec", [
        dict(method="filver++", t=2),
        dict(method="filver++", t=2, shards=2),
        dict(method="filver", shards=1),
        dict(method="degree-greedy"),
        dict(method="top-degree"),
    ], ids=["unsharded", "sharded", "one-shard", "degree-greedy",
            "top-degree"])
    @pytest.mark.parametrize("foreign", ["graph", "alpha"])
    def test_foreign_context_is_refused_for_every_campaign(self, spec,
                                                           foreign):
        """A context for another graph or (α, β) is refused whether or not
        the campaign would draw on it."""
        graph = batch_graph().to_csr()
        if foreign == "graph":
            ctx = SharedCampaignContext(batch_graph(seed=9).to_csr(), ALPHA,
                                        BETA)
        else:
            ctx = SharedCampaignContext(graph, ALPHA + 1, BETA)
        with ctx:
            with pytest.raises(InvalidParameterError,
                               match="shared context"):
                reinforce(graph, ALPHA, BETA, 2, 2, context=ctx, **spec)


class TestBatchEquivalence:
    """batch ≡ sequential, byte for byte, across the execution matrix."""

    @pytest.mark.parametrize("backend", ["list", "csr", "memmap"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_mixed_batch_matches_standalone(self, backend, workers,
                                            tmp_path):
        graph = batch_graph()
        if backend == "csr":
            graph = graph.to_csr()
        elif backend == "memmap":
            graph = load_graph_memmap(save_graph_memmap(graph,
                                                        tmp_path / "g"))
        specs = [dict(spec, workers=workers) for spec in MIXED_SPECS]
        standalone = [canonical(run_standalone(graph, spec))
                      for spec in specs]
        with SharedCampaignContext(graph, ALPHA, BETA) as ctx:
            batched = run_in_context(graph, specs, ctx)
            stats = ctx.stats()
        assert [canonical(r) for r in batched] == standalone
        assert stats["warm"]
        assert stats["state_clones"] == len(specs)

    def test_sharded_and_baseline_jobs_ride_along_unchanged(self):
        graph = batch_graph().to_csr()
        specs = [
            dict(b1=2, b2=2, method="filver++", t=2),
            dict(b1=1, b2=1, method="filver++", t=2, shards=2),
            dict(b1=1, b2=1, method="degree-greedy"),
        ]
        standalone = [canonical(run_standalone(graph, spec))
                      for spec in specs]
        with SharedCampaignContext(graph, ALPHA, BETA) as ctx:
            batched = run_in_context(graph, specs, ctx)
        assert [canonical(r) for r in batched] == standalone

    def test_memoize_off_jobs_share_state_but_not_the_seed(self):
        graph = batch_graph().to_csr()
        spec = dict(b1=2, b2=2, method="filver++", t=2, memoize=False)
        standalone = canonical(run_standalone(graph, spec))
        with SharedCampaignContext(graph, ALPHA, BETA) as ctx:
            [result] = run_in_context(graph, [spec], ctx)
            stats = ctx.stats()
        assert canonical(result) == standalone
        assert not stats["warm"]  # nothing warmed the seed
        assert stats["state_clones"] == 1

    def test_kill_and_resume_mid_batch_inside_one_context(self, tmp_path):
        graph = batch_graph().to_csr()
        standalone = canonical(reinforce(graph, ALPHA, BETA, 2, 2,
                                         method="filver++", t=1))
        ckpt = str(tmp_path / "c.json")
        with SharedCampaignContext(graph, ALPHA, BETA) as ctx:
            # Warm the context with a sibling campaign first.
            reinforce(graph, ALPHA, BETA, 1, 1, method="filver+",
                      context=ctx)
            with FaultPlan().add("engine.filter", call=2).active():
                with pytest.raises(FaultInjected):
                    reinforce(graph, ALPHA, BETA, 2, 2, method="filver++",
                              t=1, checkpoint=ckpt, context=ctx)
            resumed = reinforce(graph, ALPHA, BETA, 2, 2, method="filver++",
                                t=1, checkpoint=ckpt, resume_from=ckpt,
                                context=ctx)
        assert canonical(resumed) == standalone

    def test_checkpointed_campaigns_hash_the_graph_once(self, tmp_path,
                                                        monkeypatch):
        """Checkpoints take the fingerprint the context caches."""
        from repro.core import engine
        from repro.resilience import checkpoint

        graph = batch_graph().to_csr()
        hashed = []
        real = checkpoint.graph_fingerprint

        def counting(g):
            hashed.append(g)
            return real(g)

        monkeypatch.setattr(checkpoint, "graph_fingerprint", counting)
        monkeypatch.setattr(engine, "graph_fingerprint", counting)
        with SharedCampaignContext(graph, ALPHA, BETA) as ctx:
            for index, method in enumerate(("filver", "filver+", "filver++")):
                reinforce(graph, ALPHA, BETA, 2, 2, method=method, t=2,
                          checkpoint=str(tmp_path / ("c%d.json" % index)),
                          context=ctx)
        assert hashed == [graph]


class TestServiceBatching:
    """The service-level integration: shared contexts + persisted cache."""

    PROBLEMS = [(1, 1, "filver++", 2), (2, 1, "filver++", 2),
                (1, 2, "filver+", 5), (2, 2, "filver", 5)]

    def specs(self):
        return [JobSpec(alpha=ALPHA, beta=BETA, b1=b1, b2=b2, method=m, t=t)
                for b1, b2, m, t in self.PROBLEMS]

    def run_service(self, graph, state_dir, specs, **kwargs):
        with CampaignService(graph, workers=0, state_dir=state_dir,
                             **kwargs) as service:
            handles = [service.submit(spec) for spec in specs]
            service.run_until_idle()
            results = [canonical(h.result(0)) for h in handles]
            return results, service.stats()

    def test_batched_service_matches_unbatched_and_standalone(self,
                                                              tmp_path):
        graph = batch_graph().to_csr()
        standalone = [canonical(reinforce(graph, ALPHA, BETA, b1, b2,
                                          method=m, t=t))
                      for b1, b2, m, t in self.PROBLEMS]
        batched, stats = self.run_service(
            graph, str(tmp_path / "a"), self.specs())
        unbatched, cold_stats = self.run_service(
            graph, str(tmp_path / "b"), self.specs(), batching=False)
        assert batched == standalone
        assert unbatched == standalone
        assert stats["batch"]["builds"] == 1
        assert stats["batch"]["hits"] == len(self.PROBLEMS) - 1
        assert cold_stats["batch"] is None

    def test_restart_reuses_the_persisted_cache(self, tmp_path):
        graph = batch_graph().to_csr()
        state = str(tmp_path / "state")
        first, _ = self.run_service(graph, state, self.specs())
        # Restart: the original jobs hit the disk tier; a new job runs
        # against a context rebuilt in memory.
        extra = JobSpec(alpha=ALPHA, beta=BETA, b1=2, b2=2,
                        method="filver++", t=2)
        second, stats = self.run_service(graph, state,
                                         self.specs() + [extra])
        assert second[:len(first)] == first
        assert stats["cache"]["disk_hits"] == len(self.PROBLEMS)
        assert second[-1] == canonical(reinforce(
            graph, ALPHA, BETA, 2, 2, method="filver++", t=2))

    def test_sharded_job_draws_the_shared_context(self, tmp_path):
        graph = batch_graph().to_csr()
        spec = JobSpec(alpha=ALPHA, beta=BETA, b1=2, b2=2,
                       method="filver++", t=2, shards=2)
        standalone = canonical(reinforce(graph, ALPHA, BETA, 2, 2,
                                         method="filver++", t=2, shards=2))
        [result], stats = self.run_service(graph, str(tmp_path / "s"),
                                           [spec])
        assert result == standalone
        assert stats["batch"]["builds"] == 1
        assert stats["batch"]["warm"] == [(ALPHA, BETA)]

    def test_dispatch_is_fifo_within_a_priority(self):
        """A warm context does not move a job ahead of an equal-priority
        cold one: dispatch is priority, then FIFO."""
        graph = batch_graph().to_csr()
        executed = []

        def tap(job, record):
            if job.job_id not in executed:
                executed.append(job.job_id)

        with CampaignService(graph, workers=0, on_iteration=tap) as service:
            warm = service.submit(JobSpec(alpha=ALPHA, beta=BETA,
                                          b1=1, b2=1))
            service.run_until_idle()  # (ALPHA, BETA) context is now warm
            cold = service.submit(JobSpec(alpha=ALPHA + 1, beta=BETA,
                                          b1=1, b2=1))
            later = service.submit(JobSpec(alpha=ALPHA, beta=BETA,
                                           b1=2, b2=1))
            service.run_until_idle()
            assert executed == [warm.job_id, cold.job_id, later.job_id]

    def test_failed_context_acquisition_runs_the_job_cold(
            self, tmp_path, monkeypatch):
        graph = batch_graph().to_csr()
        standalone = canonical(reinforce(graph, ALPHA, BETA, 2, 2,
                                         method="filver++", t=2))

        def broken(self, *args, **kwargs):
            raise RuntimeError("context build failed")

        monkeypatch.setattr(SharedCampaignContext, "__init__", broken)
        spec = JobSpec(alpha=ALPHA, beta=BETA, b1=2, b2=2,
                       method="filver++", t=2)
        [result], stats = self.run_service(graph, str(tmp_path / "f"),
                                           [spec])
        assert result == standalone
        assert stats["batch"]["contexts"] == 0
        assert stats["batch"]["builds"] == 0

    def test_registry_evicts_the_least_recently_acquired_context(self):
        """Past the bound the oldest context is closed, and a campaign
        still holding it — serial, or leasing an evaluator after the
        close — keeps its standalone bytes."""
        graph = batch_graph().to_csr()
        problems = [(alpha, beta) for alpha in range(1, 4)
                    for beta in range(1, 4)][:DEFAULT_MAX_CONTEXTS + 1]
        scheduler = BatchScheduler(graph)
        try:
            contexts = [scheduler.acquire(JobSpec(alpha=alpha, beta=beta,
                                                  b1=1, b2=1))
                        for alpha, beta in problems]
            stats = scheduler.stats()
            assert stats["contexts"] == DEFAULT_MAX_CONTEXTS
            assert stats["evictions"] == 1
            evicted, *kept = contexts
            assert evicted._closed
            assert not any(context._closed for context in kept)
            alpha, beta = problems[0]
            cold = canonical(reinforce(graph, alpha, beta, 2, 2,
                                       method="filver++", t=2))
            for workers in (1, 2):
                assert canonical(reinforce(
                    graph, alpha, beta, 2, 2, method="filver++", t=2,
                    workers=workers, context=evicted)) == cold
            assert evicted.stats()["evaluators_built"] == 1
        finally:
            scheduler.close()

    def test_grouped_dispatch_never_outranks_priority(self):
        """A warm context cannot promote a job over a higher priority."""
        graph = batch_graph().to_csr()
        executed = []

        def tap(job, record):
            if job.job_id not in executed:
                executed.append(job.job_id)

        with CampaignService(graph, workers=0, on_iteration=tap) as service:
            warm = service.submit(JobSpec(alpha=ALPHA, beta=BETA,
                                          b1=1, b2=1))
            service.run_until_idle()
            hi = service.submit(JobSpec(alpha=ALPHA + 1, beta=BETA,
                                        b1=1, b2=1, priority=5))
            lo = service.submit(JobSpec(alpha=ALPHA, beta=BETA,
                                        b1=2, b2=1))
            service.run_until_idle()
            assert executed == [warm.job_id, hi.job_id, lo.job_id]

    def test_seeded_lists_are_read_only_across_service_jobs(
            self, tmp_path, monkeypatch):
        """Twenty FILVER+/FILVER++ jobs on two service threads share one
        context's seed: every job draws the same seed object, and its
        lists compare equal before and after the jobs ran."""
        graph = batch_graph().to_csr()
        served = []
        real = SharedCampaignContext.seed_tables

        def spy(self, shards=None):
            seeds = real(self, shards)
            if not served:
                served.append(copy.deepcopy([dict(seed) for seed in seeds]))
            served.append(seeds)
            return seeds

        monkeypatch.setattr(SharedCampaignContext, "seed_tables", spy)
        specs = [JobSpec(alpha=ALPHA, beta=BETA, b1=b1, b2=b2,
                         method="filver++" if b1 % 2 else "filver+", t=2)
                 for b1 in range(1, 6) for b2 in range(1, 5)]
        with CampaignService(graph, workers=2,
                             state_dir=str(tmp_path / "r")) as service:
            handles = [service.submit(spec) for spec in specs]
            for handle in handles:
                handle.result(timeout=120)
        snapshot, first, *rest = served
        assert len(rest) == len(specs) - 1
        assert all(seeds is first for seeds in rest)
        assert [dict(seed) for seed in first] == snapshot

    def test_worker_pool_agrees_with_inline(self, tmp_path):
        graph = batch_graph().to_csr()
        standalone = [canonical(reinforce(graph, ALPHA, BETA, b1, b2,
                                          method=m, t=t))
                      for b1, b2, m, t in self.PROBLEMS]
        with CampaignService(graph, workers=2,
                             state_dir=str(tmp_path / "w")) as service:
            handles = [service.submit(spec) for spec in self.specs()]
            results = [canonical(h.result(timeout=60)) for h in handles]
        assert results == standalone
