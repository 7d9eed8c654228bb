"""Tests for the numpy round-synchronous peel (``Frontier.peel``)."""

import pytest
from hypothesis import given, settings

from repro.abcore import delta
from repro.abcore.decomposition import _peel
from repro.bigraph.frontier import Frontier, frontier_for

from conftest import graphs_with_constraints, random_bigraph

pytest.importorskip("numpy")


def frontier_core(graph, alpha, beta, anchors=()):
    """The vertex set of ``Frontier.peel``'s mask on ``graph``'s CSR form."""
    walk = frontier_for(graph.to_csr())
    alive = walk.peel(alpha, beta, graph.n_upper, anchors)
    return set(alive.nonzero()[0].tolist())


def scalar_core(graph, alpha, beta, anchors=()):
    return _peel(graph, alpha, beta, anchors, None, record_order=False)[0]


class TestEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(graphs_with_constraints())
    def test_fast_core_equals_pure_core(self, data):
        g, alpha, beta = data
        assert frontier_core(g, alpha, beta) == scalar_core(g, alpha, beta)

    @settings(max_examples=30, deadline=None)
    @given(graphs_with_constraints())
    def test_fast_anchored_core_equals_pure(self, data):
        g, alpha, beta = data
        anchors = [g.n_vertices // 2, g.n_vertices - 1]
        assert frontier_core(g, alpha, beta, anchors) \
            == scalar_core(g, alpha, beta, anchors)

    def test_fast_delta_matches(self):
        for seed in range(4):
            g = random_bigraph(seed)
            assert delta(g.to_csr()) == delta(g)

    def test_larger_graph_equivalence(self):
        from repro.generators import chung_lu_bipartite

        g = chung_lu_bipartite(400, 300, 2500, seed=3)
        for alpha, beta in ((2, 2), (4, 3), (6, 2)):
            assert frontier_core(g, alpha, beta) \
                == scalar_core(g, alpha, beta)
            assert frontier_core(g, alpha, beta, [0, 450]) \
                == scalar_core(g, alpha, beta, [0, 450])


class TestMechanics:
    def test_empty_graph(self):
        from repro.bigraph import from_edge_list

        g = from_edge_list([], n_upper=0, n_lower=0)
        assert frontier_core(g, 1, 1) == set()

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
        calls = []
        real = Frontier.peel

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(Frontier, "peel", spy)
        on = run_naive(graph, 3, 3, 2, 2, accel="on")
        assert calls
        calls.clear()
        off = run_naive(graph, 3, 3, 2, 2, accel="off")
        assert calls == []
        assert off.anchors == on.anchors
        assert off.followers == on.followers

    def test_invalid_accel_value(self, k34_with_periphery):
        from repro.core.naive import run_naive

        with pytest.raises(ValueError):
            run_naive(k34_with_periphery, 4, 3, 1, 1, accel="fast")
