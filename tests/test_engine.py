"""Tests for the shared engine: option ablations, skip-rule soundness, and
the deadline / observer / checkpoint resilience semantics."""

import time

import pytest
from hypothesis import assume, given, settings

from repro.core import EngineOptions, engine_options, run_engine
from repro.exceptions import AbortCampaign
from repro.resilience.checkpoint import load_checkpoint

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
