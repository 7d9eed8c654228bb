"""Ablation — order maintenance (Algorithm 4) vs full recomputation.

Checks the two facts DESIGN.md records about maintenance at surrogate scale:
(1) it is *semantically* indistinguishable from rebuilding (identical greedy
results), and (2) its cost relative to a rebuild is governed by the affected
graph's size — we report the measured region/graph ratio alongside the
timing, which is the quantity the paper's speedup depends on.
"""

import random

from repro.core.engine import EngineOptions, run_engine
from repro.core.order_maintenance import OrderState
from repro.experiments.runner import default_constraints
from repro.generators import load_dataset

from conftest import BENCH_SCALE

REBUILD = EngineOptions(use_two_hop_filter=True, maintain_orders=False,
                        use_rf_bound=True, anchors_per_iteration=1)
MAINTAIN = EngineOptions(use_two_hop_filter=True, maintain_orders=True,
                         use_rf_bound=True, anchors_per_iteration=1)


def test_maintenance_equivalence_and_cost(benchmark, capsys):
    graph = load_dataset("SO", scale=BENCH_SCALE)
    alpha, beta = default_constraints(graph)

    def measure():
        rebuilt = run_engine(graph, alpha, beta, 5, 5, REBUILD, "rebuild")
        maintained = run_engine(graph, alpha, beta, 5, 5, MAINTAIN,
                                "maintain")
        return rebuilt, maintained

    rebuilt, maintained = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert rebuilt.n_followers == maintained.n_followers
    assert [len(i.anchors) for i in rebuilt.iterations] \
        == [len(i.anchors) for i in maintained.iterations]
    with capsys.disabled():
        print("\nrebuild: %.3fs, maintain: %.3fs (same %d followers)"
              % (rebuilt.elapsed, maintained.elapsed, rebuilt.n_followers))


def test_affected_graph_is_local_for_shell_anchors(benchmark, capsys):
    """Shell anchors (core number = β-1) repair only their component of the
    relaxed core — the locality the paper's maintenance exploits."""
    graph = load_dataset("WC", scale=BENCH_SCALE)
    alpha, beta = default_constraints(graph)

    def measure():
        state = OrderState(graph, alpha, beta)
        shell_anchors = [v for v, p in state.upper.position.items()
                         if p >= 1 and graph.is_upper(v)]
        rng = random.Random(0)
        rng.shuffle(shell_anchors)
        ratios = []
        for x in shell_anchors[:5]:
            if x in state.core:
                continue
            level = state.core_u.get(x, 0)
            region, _ = state._affected_graph("upper", x, level)
            ratios.append(len(region) / graph.n_vertices)
            state.apply_anchor(x)
        return ratios

    ratios = benchmark.pedantic(measure, rounds=1, iterations=1)
    if ratios:
        with capsys.disabled():
            print("\naffected-graph size ratios: %s"
                  % ", ".join("%.3f" % r for r in ratios))
        # locality: the repaired region is a strict part of the graph
        assert min(ratios) < 1.0
