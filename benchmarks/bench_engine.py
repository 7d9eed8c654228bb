"""End-to-end engine acceleration: the memoization + flat-kernel gate.

One FILVER++ campaign on a multi-component planted-core composite, run
on one shard over the whole graph (``shards=1``) under four engine
configurations:

* ``baseline`` — ``memoize=False, flat_kernel=False``: the engine exactly
  as it stood before cross-iteration memoization landed;
* ``memo``     — the verification cache alone;
* ``kernel``   — the flat-array CSR follower kernel alone;
* ``full``     — both (the defaults on a CSR-backed graph).

Two claims are checked (see ``docs/PERF.md``):

* **byte-identity, always** — all four canonical JSON exports (timings
  stripped) must be equal byte for byte; the accelerations are pure
  constant-factor work removal, never behavioral;
* **speedup** — ``full`` must run the campaign at least 2x faster than
  ``baseline``.  The gate is algorithmic (work elided, not hardware
  exploited), so it holds on loaded single-core CI hosts too.

The graph is a disjoint union of planted-core components on purpose:
anchoring inside one component leaves the other components' order
entries untouched, so the affected-region invalidation keeps most of the
cache alive across iterations — the regime the memoization exists for.
A single planted component would renumber globally every apply and show
only the kernel's speedup.  Deep chains (``max_chain_length=50``) give
every candidate a long order-reachable set, and ``t=2`` stretches the
48-anchor budget over 24 iterations — a many-iteration campaign over a
large shell, which is where a per-iteration full recompute hurts most.

Measurements land in a JSON artifact (``$REPRO_BENCH_ENGINE_JSON``,
default ``BENCH_engine.json``) so CI can upload the numbers.
"""

import json
import os
import time

from repro.bigraph import disjoint_union
from repro.core import reinforce
from repro.experiments.export import canonical_result_dict
from repro.generators.planted import planted_core_graph

N_PARTS = int(os.environ.get("REPRO_BENCH_ENGINE_PARTS", "30"))
JSON_PATH = os.environ.get("REPRO_BENCH_ENGINE_JSON", "BENCH_engine.json")

CONFIGS = (
    ("baseline", {"memoize": False, "flat_kernel": False}),
    ("memo", {"memoize": True, "flat_kernel": False}),
    ("kernel", {"memoize": False, "flat_kernel": None}),
    ("full", {"memoize": True, "flat_kernel": None}),
)


def _campaign_graph():
    parts = [planted_core_graph(alpha=4, beta=4, core_upper=16,
                                core_lower=16, n_chains=40,
                                max_chain_length=50, seed=1000 + i)
             for i in range(N_PARTS)]
    return disjoint_union(parts).to_csr()


def _canonical_json(result):
    return json.dumps(canonical_result_dict(result), sort_keys=True)


def test_engine_campaign_identity_and_speedup(benchmark, capsys):
    graph = _campaign_graph()

    def measure():
        timings = {}
        exports = {}
        followers = 0
        for name, kwargs in CONFIGS:
            start = time.perf_counter()
            result = reinforce(graph, 4, 4, 24, 24, method="filver++", t=2,
                               shards=1, **kwargs)
            timings[name] = time.perf_counter() - start
            exports[name] = _canonical_json(result)
            followers = result.n_followers
        return timings, exports, followers

    timings, exports, followers = benchmark.pedantic(
        measure, rounds=1, iterations=1)

    base = timings["baseline"]
    with capsys.disabled():
        print()
        print("FILVER++ campaign, %d planted components (%d followers):"
              % (N_PARTS, followers))
        for name, _kwargs in CONFIGS:
            print("  %-8s: %7.3fs (%.2fx)"
                  % (name, timings[name],
                     base / max(timings[name], 1e-9)))

    with open(JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump({
            "parts": N_PARTS,
            "vertices": graph.n_upper + graph.n_lower,
            "followers": followers,
            "seconds": {name: timings[name] for name, _ in CONFIGS},
            "speedup": {name: base / max(timings[name], 1e-9)
                        for name, _ in CONFIGS},
            "byte_identical": True,
        }, fh, indent=2, sort_keys=True)

    # The determinism contract holds unconditionally.
    for name, _kwargs in CONFIGS:
        assert exports[name] == exports["baseline"], (
            "%s export diverged from baseline" % name)

    # The acceleration gate: work elided, not hardware exploited.
    speedup = base / max(timings["full"], 1e-9)
    assert speedup >= 2.0, (
        "memo+kernel speedup %.2fx below the 2x gate" % speedup)
