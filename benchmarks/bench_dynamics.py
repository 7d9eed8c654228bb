"""Benchmarks for the departure-cascade simulator (the §I motivation).

Measures cascade cost on the largest surrogate and asserts the motivating
shapes: departures grow monotonically with the shock size, and anchoring
the FILVER-chosen vertices reduces the damage.
"""

import random

from repro.abcore import abcore
from repro.core import reinforce
from repro.dynamics import simulate_cascade
from repro.experiments.runner import default_constraints
from repro.generators import load_dataset

from conftest import BENCH_SCALE


def test_cascade_scales_with_shock(benchmark, capsys):
    graph = load_dataset("SN", scale=BENCH_SCALE)
    alpha, beta = default_constraints(graph)
    core = abcore(graph, alpha, beta)
    rng = random.Random(7)
    pool = sorted(core)

    def measure():
        results = {}
        for fraction in (0.02, 0.05, 0.10):
            shock = rng.sample(pool, max(1, int(len(pool) * fraction)))
            outcome = simulate_cascade(graph, alpha, beta, shock)
            results[fraction] = outcome.departed
        return results

    departures = benchmark.pedantic(measure, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nshock -> departures:", departures)
    ordered = [departures[f] for f in (0.02, 0.05, 0.10)]
    assert ordered == sorted(ordered)  # bigger shocks, more damage


def test_anchoring_blunts_the_cascade(benchmark, capsys):
    graph = load_dataset("BX", scale=BENCH_SCALE)
    alpha, beta = default_constraints(graph)
    core = abcore(graph, alpha, beta)
    rng = random.Random(3)
    shock = rng.sample(sorted(core), max(1, len(core) // 10))

    def measure():
        plan = reinforce(graph, alpha, beta, 3, 3, method="filver")
        bare = simulate_cascade(graph, alpha, beta, shock)
        guarded = simulate_cascade(graph, alpha, beta, shock,
                                   anchors=plan.anchors)
        return plan, bare, guarded

    plan, bare, guarded = benchmark.pedantic(measure, rounds=1, iterations=1)
    with capsys.disabled():
        print("\ndepartures without anchors: %d, with %d anchors: %d"
              % (bare.departed, len(plan.anchors), guarded.departed))
    assert guarded.departed <= bare.departed
