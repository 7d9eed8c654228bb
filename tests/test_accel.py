"""Tests for the numpy-accelerated peel (round-synchronous deletion)."""

import pytest
from hypothesis import given, settings

from repro.abcore import abcore, anchored_abcore, delta
from repro.abcore import accel

from conftest import graphs_with_constraints, random_bigraph

pytestmark = pytest.mark.skipif(not accel.available(),
                                reason="numpy not installed")


class TestEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(graphs_with_constraints())
    def test_fast_core_equals_pure_core(self, data):
        g, alpha, beta = data
        assert accel.fast_abcore(g, alpha, beta) == abcore(g, alpha, beta)

    @settings(max_examples=30, deadline=None)
    @given(graphs_with_constraints())
    def test_fast_anchored_core_equals_pure(self, data):
        g, alpha, beta = data
        anchor = g.n_vertices // 2
        assert accel.fast_anchored_abcore(g, alpha, beta, [anchor]) \
            == anchored_abcore(g, alpha, beta, [anchor])

    def test_fast_delta_matches(self):
        for seed in range(4):
            g = random_bigraph(seed)
            assert accel.fast_delta(g) == delta(g)

    def test_larger_graph_equivalence(self):
        from repro.generators import chung_lu_bipartite

        g = chung_lu_bipartite(400, 300, 2500, seed=3)
        for alpha, beta in ((2, 2), (4, 3), (6, 2)):
            assert accel.fast_abcore(g, alpha, beta) == abcore(g, alpha, beta)


class TestMechanics:
    def test_empty_graph(self):
        from repro.bigraph import from_edge_list

        g = from_edge_list([], n_upper=0, n_lower=0)
        assert accel.fast_abcore(g, 1, 1) == set()

    def test_cache_reuse_and_weak_lifetime(self):
        import gc

        g = random_bigraph(0)
        first = accel.CsrCache.get(g)
        second = accel.CsrCache.get(g)
        assert first is second
        # cache entries die with their graph
        before = len(accel._csr_cache)
        other = random_bigraph(1)
        accel.CsrCache.get(other)
        assert len(accel._csr_cache) == before + 1
        del other
        gc.collect()
        assert len(accel._csr_cache) == before

    def test_naive_accel_knob(self, k34_with_periphery):
        from repro.core.naive import run_naive

        g = k34_with_periphery
        on = run_naive(g, 4, 3, 1, 1, accel="on")
        off = run_naive(g, 4, 3, 1, 1, accel="off")
        auto = run_naive(g, 4, 3, 1, 1, accel="auto")
        assert on.n_followers == off.n_followers == auto.n_followers == 4

    def test_naive_accel_off_never_vectorizes(self, monkeypatch):
        """``anchored_abcore`` vectorizes full peels on CSR graphs, so
        ``accel="off"`` must not go through it."""
        from repro.core.naive import run_naive
        from repro.generators import planted_core_graph

        graph = planted_core_graph(3, 3, n_chains=4, max_chain_length=3,
                                   seed=5).to_csr()
        on = run_naive(graph, 3, 3, 2, 2, accel="on")
        calls = []
        real = accel.fast_anchored_abcore

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(accel, "fast_anchored_abcore", spy)
        off = run_naive(graph, 3, 3, 2, 2, accel="off")
        assert calls == []
        assert off.anchors == on.anchors
        assert off.followers == on.followers

    def test_invalid_accel_value(self, k34_with_periphery):
        from repro.core.naive import run_naive

        with pytest.raises(ValueError):
            run_naive(k34_with_periphery, 4, 3, 1, 1, accel="fast")
