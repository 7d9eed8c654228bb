"""Ablation — order maintenance (Algorithm 4) vs full recomputation.

Checks the two facts DESIGN.md records about maintenance at surrogate scale:
(1) it is *semantically* indistinguishable from rebuilding (identical greedy
results), and (2) its cost relative to a rebuild is governed by the affected
graph's size — we report the measured region/graph ratio alongside the
timing, which is the quantity the paper's speedup depends on.

The cost is the median CPU time of ``RUNS`` campaigns per side, rebuild and
maintain alternating so that drift in the host's speed hits both sides
alike, and the maintain/rebuild ratio of the two medians::

    PYTHONPATH=src python -m pytest benchmarks/bench_ablation_order_maintenance.py -s
"""

import random
import statistics
import time

from repro.abcore import anchored_abcore
from repro.core.engine import EngineOptions, run_engine
from repro.core.order_maintenance import OrderState
from repro.experiments.runner import default_constraints
from repro.generators import load_dataset

from conftest import BENCH_SCALE

REBUILD = EngineOptions(use_two_hop_filter=True, maintain_orders=False,
                        use_rf_bound=True, anchors_per_iteration=1)
MAINTAIN = EngineOptions(use_two_hop_filter=True, maintain_orders=True,
                         use_rf_bound=True, anchors_per_iteration=1)

#: Campaigns per side; the reported cost is each side's median.
RUNS = 30


def test_maintenance_equivalence_and_cost(benchmark, capsys):
    graph = load_dataset("SO", scale=BENCH_SCALE)
    alpha, beta = default_constraints(graph)

    def campaign(options, label):
        start = time.process_time()
        result = run_engine(graph, alpha, beta, 5, 5, options, label)
        return result, time.process_time() - start

    def measure():
        runs = {"rebuild": [], "maintain": []}
        for _ in range(RUNS):
            runs["rebuild"].append(campaign(REBUILD, "rebuild"))
            runs["maintain"].append(campaign(MAINTAIN, "maintain"))
        return runs

    runs = benchmark.pedantic(measure, rounds=1, iterations=1)
    for (rebuilt, _), (maintained, _) in zip(runs["rebuild"],
                                             runs["maintain"]):
        assert rebuilt.n_followers == maintained.n_followers
        assert [len(i.anchors) for i in rebuilt.iterations] \
            == [len(i.anchors) for i in maintained.iterations]
    cpu = {side: statistics.median(t for _, t in timed)
           for side, timed in runs.items()}
    with capsys.disabled():
        print("\n%d vertices, %d edges, alpha=%d, beta=%d; median CPU of %d "
              "alternating runs per side: rebuild %.4fs, maintain %.4fs, "
              "maintain/rebuild %.2fx (same %d followers)"
              % (graph.n_vertices, graph.n_edges, alpha, beta, RUNS,
                 cpu["rebuild"], cpu["maintain"],
                 cpu["maintain"] / cpu["rebuild"], rebuilt.n_followers))


def upper_affected_graph(state, x, level):
    """``x``'s whole upper affected graph, walked apart from ``OrderState``
    (whose walk hands back only the part outside the core): its component
    of the vertices with upper core number ≥ ``level``, or for ``level =
    0`` of the anchored (α,1)-core."""
    if level >= 1:
        inside = {v for v, k in enumerate(state.core_u) if k >= level}
    else:
        inside = anchored_abcore(state.graph, state.alpha, 1,
                                 state.anchors | {x})
    region = {x}
    stack = [x]
    while stack:
        for w in state.graph.neighbors(stack.pop()):
            if w in inside and w not in region:
                region.add(w)
                stack.append(w)
    return region


def test_affected_graph_is_local_for_shell_anchors(benchmark, capsys):
    """Shell anchors (core number = β-1) repair only their component of the
    relaxed core — the locality the paper's maintenance exploits — and of
    that, only the part outside the current core."""
    graph = load_dataset("WC", scale=BENCH_SCALE)
    alpha, beta = default_constraints(graph)

    def measure():
        state = OrderState(graph, alpha, beta)
        shell_anchors = [v for v in state.upper.deleted_in_order()
                         if graph.is_upper(v)]
        rng = random.Random(0)
        rng.shuffle(shell_anchors)
        ratios = []
        for x in shell_anchors[:5]:
            if x in state.core:
                continue
            level = state.core_u[x]
            whole = upper_affected_graph(state, x, level)
            state.anchors.add(x)
            open_part, _ = state._affected_graph("upper", x, level)
            state.anchors.discard(x)
            assert open_part == whole - state.core
            ratios.append((len(whole) / graph.n_vertices,
                           len(open_part) / graph.n_vertices))
            state.apply_anchor(x)
        return ratios

    ratios = benchmark.pedantic(measure, rounds=1, iterations=1)
    if ratios:
        with capsys.disabled():
            print("\naffected-graph size ratios (whole/open part): %s"
                  % ", ".join("%.3f/%.3f" % r for r in ratios))
        # locality: the affected region is a strict part of the graph
        assert min(whole for whole, _ in ratios) < 1.0
