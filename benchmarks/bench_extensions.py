"""Benchmarks for the extension modules (DESIGN.md, extension table).

* edge-addition reinforcement vs vertex anchoring (same budgeted effort);
* critical-vertex collapse (the attack dual);
* the numpy-vectorized peel vs the pure-Python peel on a global recompute.
"""

import pytest

from repro.abcore import abcore, anchored_abcore
from repro.abcore import accel
from repro.core import critical_vertices, reinforce, run_edge_greedy
from repro.experiments.runner import default_constraints
from repro.generators import load_dataset

from conftest import BENCH_SCALE


def test_edge_reinforcement_vs_anchoring(benchmark, capsys):
    graph = load_dataset("BX", scale=BENCH_SCALE)
    alpha, beta = default_constraints(graph)

    def measure():
        anchored = reinforce(graph, alpha, beta, 2, 2, method="filver")
        edged = run_edge_greedy(graph, alpha, beta, edge_budget=8)
        return anchored, edged

    anchored, edged = benchmark.pedantic(measure, rounds=1, iterations=1)
    with capsys.disabled():
        print("\n4 anchors -> %d followers; 8 new edges -> %d gained "
              "(%d plans)" % (anchored.n_followers, len(edged.gained),
                              len(edged.plans)))
    # edge plans must actually hold in the reinforced graph
    assert edged.final_core_size >= edged.base_core_size
    assert edged.edges_used <= 8


def test_collapse_attack(benchmark, capsys):
    graph = load_dataset("AC", scale=min(BENCH_SCALE, 0.15))
    alpha, beta = default_constraints(graph)

    result = benchmark.pedantic(critical_vertices,
                                args=(graph, alpha, beta, 2),
                                rounds=1, iterations=1)
    with capsys.disabled():
        print("\nremoving %d critical vertices collapses %d core members"
              % (len(result.removed), result.collapsed))
    # removing b core vertices collapses at least those b
    assert result.collapsed >= len(result.removed)


@pytest.mark.skipif(not accel.available(), reason="numpy not installed")
def test_vectorized_peel_speedup(benchmark, capsys):
    """Naive's workload — hundreds of anchored peels on one graph — is where
    the vectorized backend pays (the per-peel Python setup cost moves to C);
    a single large peel is already near-optimal in pure Python."""
    import time

    from repro.core.naive import run_naive

    graph = load_dataset("AC", scale=max(BENCH_SCALE, 0.5))
    alpha, beta = default_constraints(graph)

    def measure():
        start = time.perf_counter()
        pure = run_naive(graph, alpha, beta, 1, 1, accel="off")
        pure_time = time.perf_counter() - start
        start = time.perf_counter()
        fast = run_naive(graph, alpha, beta, 1, 1, accel="on")
        fast_time = time.perf_counter() - start
        return pure, fast, pure_time, fast_time

    pure, fast, pure_time, fast_time = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    assert pure.n_followers == fast.n_followers
    with capsys.disabled():
        print("\nNaive, %d candidate peels — pure: %.3fs, vectorized: "
              "%.3fs (%.1fx)"
              % (pure.total_verifications, pure_time, fast_time,
                 pure_time / max(fast_time, 1e-9)))
    assert fast_time < pure_time * 1.5  # at least competitive, usually ahead
