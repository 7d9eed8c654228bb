"""Tests for the shared engine: option ablations, skip-rule soundness, and
the deadline / observer / checkpoint resilience semantics."""

import time

import pytest
from hypothesis import assume, given, settings

import repro.core.engine as engine_mod
from repro.bigraph import disjoint_union
from repro.core import EngineOptions, engine_options, reinforce, run_engine
from repro.core.batch import SharedCampaignContext
from repro.core.verify import verify_result
from repro.exceptions import AbortCampaign, FaultInjected
from repro.generators.planted import planted_core_graph
from repro.resilience.checkpoint import load_checkpoint
from repro.resilience.faults import FaultPlan

from conftest import graphs_with_constraints, random_bigraph

ABLATIONS = {
    "base": EngineOptions(False, False, False, 1),
    "filter-only": EngineOptions(True, False, True, 1),
    "maintenance-only": EngineOptions(False, True, False, 1),
    "both": EngineOptions(True, True, True, 1),
}


class TestOptionPresets:
    def test_preset_wiring(self):
        assert engine_options("filver") == ABLATIONS["base"]
        assert engine_options("filver+") == ABLATIONS["both"]
        opts = engine_options("filver++", 7)
        assert opts.anchors_per_iteration == 7
        assert opts.use_two_hop_filter and opts.maintain_orders

    def test_invalid_t_rejected(self, k34_with_periphery):
        import pytest

        with pytest.raises(ValueError):
            run_engine(k34_with_periphery, 4, 3, 1, 1,
                       EngineOptions(anchors_per_iteration=0), "bad")


class TestAblationAgreement:
    def test_all_single_anchor_configs_agree(self):
        """Every t=1 configuration implements the same greedy, so all four
        ablation corners must produce identical follower totals."""
        for seed in range(6):
            g = random_bigraph(seed)
            totals = {
                name: run_engine(g, 2, 2, 2, 2, opts, name).n_followers
                for name, opts in ABLATIONS.items()
            }
            assert len(set(totals.values())) == 1, (seed, totals)

    @settings(max_examples=20, deadline=None)
    @given(graphs_with_constraints(max_constraint=3))
    def test_filter_does_not_change_the_greedy_result(self, data):
        g, alpha, beta = data
        b1 = min(1, g.n_upper)
        b2 = min(1, g.n_lower)
        base = run_engine(g, alpha, beta, b1, b2, ABLATIONS["base"], "base")
        both = run_engine(g, alpha, beta, b1, b2, ABLATIONS["both"], "both")

        # Zero-follower iterations place *bound-ranked* fallback anchors
        # (``_fallback_anchors``), and the bound is exactly what these
        # configurations disagree on (r-score vs |rf(x)|) — such anchors
        # legitimately differ and their cumulative effect diverges.  The
        # greedy-equivalence property holds for campaigns where every
        # placed anchor was chosen for its verified followers.
        def used_fallback(result):
            return any(rec.anchors and rec.marginal_followers == 0
                       for rec in result.iterations)

        assume(not used_fallback(base) and not used_fallback(both))
        assert base.n_followers == both.n_followers


class TestEngineAccounting:
    def test_final_follower_set_is_globally_verified(self, k34_with_periphery):
        from repro.abcore import abcore, anchored_abcore

        g = k34_with_periphery
        result = run_engine(g, 4, 3, 1, 1, ABLATIONS["both"], "x")
        base = abcore(g, 4, 3)
        anchored = anchored_abcore(g, 4, 3, result.anchors)
        assert result.followers == anchored - base - set(result.anchors)
        assert result.base_core_size == len(base)
        assert result.final_core_size == len(anchored)

    def test_filter_reduces_pool(self, k34_with_periphery):
        g = k34_with_periphery
        base = run_engine(g, 4, 3, 1, 1, ABLATIONS["base"], "base")
        both = run_engine(g, 4, 3, 1, 1, ABLATIONS["both"], "both")
        assert (both.iterations[0].candidates_after_filter
                <= base.iterations[0].candidates_after_filter)

    def test_marginal_followers_sum_to_total(self, k34_with_periphery):
        g = k34_with_periphery
        result = run_engine(g, 4, 3, 1, 1, ABLATIONS["both"], "x")
        assert sum(it.marginal_followers
                   for it in result.iterations) == result.n_followers

    def test_multi_anchor_iterations_shrink_iteration_count(self):
        g = random_bigraph(4, n1_range=(12, 18), n2_range=(12, 18))
        single = run_engine(g, 2, 2, 3, 3, engine_options("filver++", 1),
                            "t1")
        multi = run_engine(g, 2, 2, 3, 3, engine_options("filver++", 6),
                           "t6")
        assert len(multi.iterations) <= len(single.iterations)


def multi_iteration_graph():
    return random_bigraph(1, n1_range=(12, 16), n2_range=(12, 16),
                          density=0.2)


class TestDeadlines:
    @pytest.mark.parametrize("backend", ["list", "csr"])
    def test_expired_deadline_returns_valid_zero_iteration_result(
            self, backend):
        g = multi_iteration_graph()
        if backend == "csr":
            g = g.to_csr()
        result = run_engine(g, 3, 3, 3, 3, ABLATIONS["both"], "x",
                            deadline=time.perf_counter() - 1.0)
        assert result.timed_out
        assert result.iterations == []
        assert result.anchors == []
        assert result.n_followers == 0
        assert result.base_core_size == result.final_core_size

    def test_deadline_fires_mid_verification_on_csr(self, monkeypatch):
        """Drive the clock forward from inside the follower computation so
        the deadline deterministically expires between two verification
        calls — no wall-clock racing.  Both follower paths are hooked: the
        generic compute_followers and the flat CSR kernel the engine
        auto-selects on CSR-backed graphs."""
        import repro.core.engine as engine_mod
        from repro.bigraph.kernel import FollowerKernel

        g = multi_iteration_graph().to_csr()
        real = time.perf_counter
        clock = {"offset": 0.0}
        monkeypatch.setattr(time, "perf_counter",
                            lambda: real() + clock["offset"])
        real_cf = engine_mod.compute_followers

        def slow_cf(*args, **kwargs):
            clock["offset"] += 100.0
            return real_cf(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "compute_followers", slow_cf)
        real_kf = FollowerKernel.followers

        def slow_kf(self, *args, **kwargs):
            clock["offset"] += 100.0
            return real_kf(self, *args, **kwargs)

        monkeypatch.setattr(FollowerKernel, "followers", slow_kf)
        result = run_engine(g, 3, 3, 3, 3, ABLATIONS["both"], "x",
                            deadline=real() + 50.0)
        assert result.timed_out
        # Exactly one verification ran before the deadline check tripped.
        assert sum(r.verifications for r in result.iterations) == 1
        # The partial result is still globally verified.
        from repro.abcore import abcore, anchored_abcore

        base = abcore(g, 3, 3)
        anchored = anchored_abcore(g, 3, 3, result.anchors)
        assert result.followers == anchored - base - set(result.anchors)


class TestObservers:
    def test_abort_campaign_degrades_to_best_so_far(self):
        g = multi_iteration_graph()
        full = run_engine(g, 3, 3, 3, 3, ABLATIONS["both"], "x")
        assert len(full.iterations) >= 2

        def abort_after_first(_record):
            raise AbortCampaign("the operator hit stop")

        result = run_engine(g, 3, 3, 3, 3, ABLATIONS["both"], "x",
                            on_iteration=abort_after_first)
        assert result.interrupted and not result.timed_out
        assert len(result.iterations) == 1
        assert result.anchors == full.iterations[0].anchors

    def test_other_observer_exceptions_propagate_after_checkpoint(
            self, tmp_path):
        g = multi_iteration_graph()
        ckpt = tmp_path / "c.json"

        def broken_observer(_record):
            raise ValueError("observer bug")

        with pytest.raises(ValueError, match="observer bug"):
            run_engine(g, 3, 3, 3, 3, ABLATIONS["both"], "x",
                       on_iteration=broken_observer, checkpoint=str(ckpt))
        # The iteration that triggered the observer is already durable.
        restored = load_checkpoint(ckpt)
        assert len(restored.iterations) == 1

    def test_observer_sees_every_iteration(self):
        g = multi_iteration_graph()
        seen = []
        result = run_engine(g, 3, 3, 3, 3, ABLATIONS["both"], "x",
                            on_iteration=seen.append)
        assert seen == result.iterations


def three_component_graph():
    """Three planted-core components: ``shards=2`` makes a two-shard plan."""
    return disjoint_union([
        planted_core_graph(alpha=3, beta=3, core_upper=6, core_lower=6,
                           n_chains=6, max_chain_length=4, seed=100 + i)
        for i in range(3)
    ])


@pytest.fixture
def final_peels(monkeypatch):
    """The calls ``run_engine`` makes to ``anchored_abcore``."""
    calls = []
    real = engine_mod.anchored_abcore

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "anchored_abcore", counting)
    return calls


class TestFinalCoreFromStates:
    """Every exit at an iteration boundary reads the final anchored core
    from the shard states: no closing re-peel, and the result still
    verifies against an independent recompute."""

    @pytest.mark.parametrize("method,t", [
        ("filver", 1), ("filver+", 1), ("filver++", 2)])
    @pytest.mark.parametrize("shards", [None, 1, 2])
    @pytest.mark.parametrize("shared", [False, True])
    def test_completed_campaign_peels_nothing(self, final_peels, method, t,
                                              shards, shared):
        g = three_component_graph()
        if shared:
            with SharedCampaignContext(g, 3, 3) as ctx:
                result = reinforce(g, 3, 3, 3, 3, method=method, t=t,
                                   shards=shards, context=ctx)
        else:
            result = reinforce(g, 3, 3, 3, 3, method=method, t=t,
                               shards=shards)
        assert result.n_followers > 0
        assert not (result.timed_out or result.interrupted)
        assert final_peels == []
        assert verify_result(g, result).ok

    @pytest.mark.parametrize("shards", [None, 1])
    def test_timed_out_and_aborted_campaigns_peel_nothing(
            self, monkeypatch, final_peels, shards):
        g = three_component_graph()
        real = time.perf_counter
        clock = {"offset": 0.0}
        monkeypatch.setattr(time, "perf_counter",
                            lambda: real() + clock["offset"])

        def expire(_record):
            clock["offset"] += 100.0

        timed = run_engine(g, 3, 3, 3, 3, engine_options("filver++", 2), "x",
                           deadline=real() + 50.0, on_iteration=expire,
                           shards=shards)
        assert timed.timed_out and len(timed.iterations) == 1

        def abort(_record):
            raise AbortCampaign("stop")

        aborted = reinforce(g, 3, 3, 3, 3, method="filver+", shards=shards,
                            on_iteration=abort)
        assert aborted.interrupted and len(aborted.iterations) == 1
        assert final_peels == []
        assert verify_result(g, timed).ok
        assert verify_result(g, aborted).ok

    def test_resumed_campaign_peels_nothing(self, tmp_path, final_peels):
        g = three_component_graph()
        full = reinforce(g, 3, 3, 3, 3, method="filver++", t=2, shards=2)
        assert len(full.iterations) >= 2
        ckpt = tmp_path / "c.json"
        with FaultPlan().add("engine.filter", call=2).active():
            with pytest.raises(FaultInjected):
                reinforce(g, 3, 3, 3, 3, method="filver++", t=2, shards=2,
                          checkpoint=str(ckpt))
        resumed = reinforce(g, 3, 3, 3, 3, method="filver++", t=2,
                            resume_from=str(ckpt))
        assert final_peels == []
        assert verify_result(g, resumed).ok
        assert resumed.anchors == full.anchors
        assert resumed.followers == full.followers
