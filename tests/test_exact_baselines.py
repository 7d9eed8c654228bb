"""Tests for the exact solver and the Fig. 7(a) baselines."""

import pytest

from repro.abcore import abcore
from repro.core import (
    reinforce,
    run_degree_greedy,
    run_exact,
    run_random,
    run_top_degree,
)
from repro.exceptions import InvalidParameterError
from repro.generators.planted import planted_core_graph

from conftest import K34, random_bigraph


class TestExact:
    def test_optimum_on_fixture(self, k34_with_periphery):
        g = k34_with_periphery
        result = run_exact(g, 4, 3, 1, 1)
        assert result.n_followers == 4
        assert set(result.anchors) == {K34["u4"], K34["l4"]}

    def test_exact_never_below_greedy(self):
        for seed in range(6):
            g = random_bigraph(seed, n1_range=(5, 9), n2_range=(5, 9))
            exact = run_exact(g, 2, 2, 1, 1)
            greedy = reinforce(g, 2, 2, 1, 1, method="filver")
            assert exact.n_followers >= greedy.n_followers, seed

    def test_combination_guard(self):
        g = random_bigraph(1, n1_range=(12, 12), n2_range=(12, 12),
                           density=0.1)
        with pytest.raises(InvalidParameterError):
            run_exact(g, 3, 3, 4, 4, max_combinations=10)

    def test_useless_candidates_are_skipped(self, k34_with_periphery):
        """u5 (core-only neighborhood) and u6 (isolated) never enter the
        enumeration, shrinking the search space without losing optimality."""
        g = k34_with_periphery
        result = run_exact(g, 4, 3, 1, 1)
        # useful uppers {u3, u4, u7} and lowers {l4, l5, l6}; subset sizes
        # 0..1 per layer: (1 + 3) * (1 + 3) = 16 evaluations.
        assert result.iterations[0].verifications == 16

    def test_exact_may_anchor_fewer_than_budget(self):
        """Forcing a would-be follower to be an anchor hurts the objective;
        the optimum anchors one vertex and leaves the other budget unused
        (padding with a harmless vertex adds nothing)."""
        from repro.bigraph import from_biadjacency

        # (2,2): core is K_{2,2} (u0,u1 x l0,l1); chain u2 -> l2.
        g = from_biadjacency([
            [1, 1, 0],
            [1, 1, 0],
            [1, 0, 1],
        ])
        result = run_exact(g, 2, 2, 1, 1)
        greedy = reinforce(g, 2, 2, 1, 1, method="filver")
        assert result.n_followers >= greedy.n_followers

    def test_exact_on_planted_chains_matches_prediction(self):
        g = planted_core_graph(3, 3, n_chains=4, max_chain_length=4, seed=5)
        core = abcore(g, 3, 3)
        result = run_exact(g, 3, 3, 1, 1)
        # every non-core vertex is part of exactly one chain; anchoring two
        # chain heads rescues at most both chains entirely
        assert result.n_followers <= g.n_vertices - len(core) - 2

    def test_budget_larger_than_candidates(self):
        from repro.bigraph import from_biadjacency

        g = from_biadjacency([[1, 1], [1, 1], [0, 1]])
        # only one useful candidate outside the (2,2)-core
        result = run_exact(g, 2, 2, 2, 2)
        assert result.n_anchors <= 2


class TestBaselines:
    def test_budgets_respected(self, k34_with_periphery):
        g = k34_with_periphery
        for runner in (run_top_degree, run_degree_greedy):
            result = runner(g, 4, 3, 2, 1)
            uppers = [a for a in result.anchors if g.is_upper(a)]
            lowers = [a for a in result.anchors if g.is_lower(a)]
            assert len(uppers) <= 2 and len(lowers) <= 1

    def test_random_is_seeded(self, k34_with_periphery):
        g = k34_with_periphery
        a = run_random(g, 4, 3, 2, 2, seed=5).anchors
        b = run_random(g, 4, 3, 2, 2, seed=5).anchors
        assert a == b

    def test_random_avoids_core_vertices(self, k34_with_periphery):
        g = k34_with_periphery
        core = abcore(g, 4, 3)
        result = run_random(g, 4, 3, 2, 2, seed=0)
        assert not set(result.anchors) & core

    def test_top_degree_picks_hubs(self, k34_with_periphery):
        g = k34_with_periphery
        result = run_top_degree(g, 4, 3, 1, 0)
        # highest-degree non-core upper: u3 or u7 (both degree 4); id ties
        assert result.anchors == [K34["u3"]]

    def test_degree_greedy_recomputes_pool(self, k34_with_periphery):
        g = k34_with_periphery
        result = run_degree_greedy(g, 4, 3, 2, 0)
        # first pick u3 (degree 4, id tie-break); its followers l5/u7 join
        # the anchored core, so the second pick must avoid u7.
        assert result.anchors[0] == K34["u3"]
        assert K34["u7"] not in result.anchors

    def test_filver_dominates_baselines_on_fixture(self, k34_with_periphery):
        g = k34_with_periphery
        best = reinforce(g, 4, 3, 1, 1, method="filver").n_followers
        assert best >= run_top_degree(g, 4, 3, 1, 1).n_followers
        assert best >= run_random(g, 4, 3, 1, 1, seed=3).n_followers
        assert best >= run_degree_greedy(g, 4, 3, 1, 1).n_followers
