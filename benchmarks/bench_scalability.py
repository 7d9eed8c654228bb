"""Scalability sweep — the "billion scale" claim at reproducible sizes.

The paper's headline is that the filter–verification family scales to a
1.9-billion-edge Erdős–Rényi graph while Naive cannot leave the small
datasets.  Pure Python cannot hold a billion edges, so this bench sweeps
ER surrogates over a 16x size range and asserts the scaling *shape*:
FILVER++'s runtime grows near-linearly in m (well below quadratic), which is
what makes the billion-edge run feasible for the authors' C++.

A second bench compares the two adjacency backends on the largest surrogate:
the CSR backend must decompose at least 2x faster (its flat buffers feed the
vectorized peel in ``repro.abcore.accel`` zero-copy) and build with at least
30% less peak memory than per-vertex Python lists.

Both benches append their measurements to a JSON file
(``$REPRO_BENCH_JSON``, default ``bench_scalability.json``) so CI can upload
the numbers as an artifact.
"""

import json
import os
import time
import tracemalloc

import pytest

from repro.abcore.decomposition import abcore
from repro.bigraph.builder import from_edge_list
from repro.bigraph.stats import memory_footprint
from repro.core import reinforce
from repro.experiments.runner import default_constraints
from repro.generators import erdos_renyi_bipartite

SIZES = (2000, 8000, 32000)
JSON_PATH = os.environ.get("REPRO_BENCH_JSON", "bench_scalability.json")


def _record(section, payload):
    """Merge one bench's measurements into the shared JSON artifact."""
    data = {}
    if os.path.exists(JSON_PATH):
        with open(JSON_PATH, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError:
                data = {}
    data[section] = payload
    with open(JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


def _best_of(fn, repeats=5):
    """Best-of-n wall time: robust to scheduler noise at these sizes."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_near_linear_scaling_on_er(benchmark, capsys):
    def measure():
        results = {}
        for m in SIZES:
            n = max(200, m // 8)
            graph = erdos_renyi_bipartite(n, n, n_edges=m, seed=42)
            alpha, beta = default_constraints(graph)
            start = time.perf_counter()
            result = reinforce(graph, alpha, beta, 5, 5, method="filver++",
                               t=5)
            results[m] = (time.perf_counter() - start, result.n_followers)
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        for m, (elapsed, followers) in results.items():
            print("m=%6d: %7.3fs (%d followers)" % (m, elapsed, followers))
    _record("scaling", {
        "sizes": list(SIZES),
        "seconds": {str(m): results[m][0] for m in SIZES},
        "followers": {str(m): results[m][1] for m in SIZES},
    })

    small, large = SIZES[0], SIZES[-1]
    size_factor = large / small
    time_factor = results[large][0] / max(results[small][0], 1e-6)
    # Near-linear: a 16x bigger graph costs far less than 16^2 = 256x.
    assert time_factor < size_factor ** 1.7, (size_factor, time_factor)


def test_csr_backend_speed_and_memory(benchmark, capsys):
    pytest.importorskip("numpy")  # the CSR fast path vectorizes with numpy

    m = SIZES[-1]
    n = max(200, m // 8)
    list_graph = erdos_renyi_bipartite(n, n, n_edges=m, seed=42)
    csr_graph = list_graph.to_csr()

    # (k,k)-core decomposition sweep past the degeneracy: the workload that
    # actually peels (the levels above δ cascade the whole graph away).
    levels = range(1, 9)

    def decompose(graph):
        return [abcore(graph, k, k) for k in levels]

    def measure():
        # Warm both graphs once so neither pays one-off cache construction
        # (the accel layer caches the numpy views per graph) inside a timing,
        # and check the backends agree level by level.
        assert decompose(list_graph) == decompose(csr_graph)
        list_s = _best_of(lambda: decompose(list_graph))
        csr_s = _best_of(lambda: decompose(csr_graph))

        # Peak construction memory per backend.  The shared edge list is
        # allocated before tracing starts so only the build itself counts.
        edges = [(u, v - n) for u, v in list_graph.edges()]
        peaks = {}
        for backend in ("list", "csr"):
            tracemalloc.start()
            built = from_edge_list(edges, n, n, backend=backend)
            _, peaks[backend] = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            del built
        return list_s, csr_s, peaks

    list_s, csr_s, peaks = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = list_s / max(csr_s, 1e-9)
    reduction = 1.0 - peaks["csr"] / max(peaks["list"], 1)
    footprints = {g.backend: memory_footprint(g)
                  for g in (list_graph, csr_graph)}

    with capsys.disabled():
        print()
        print("decomposition m=%d: list %.4fs, csr %.4fs (%.1fx)"
              % (m, list_s, csr_s, speedup))
        print("build peak: list %d B, csr %d B (-%.0f%%)"
              % (peaks["list"], peaks["csr"], 100 * reduction))
        for backend, fp in sorted(footprints.items()):
            print("adjacency %s: %.1f B/edge" % (backend, fp["bytes_per_edge"]))
    _record("csr_backend", {
        "edges": m,
        "decompose_list_seconds": list_s,
        "decompose_csr_seconds": csr_s,
        "speedup": speedup,
        "build_peak_list_bytes": peaks["list"],
        "build_peak_csr_bytes": peaks["csr"],
        "peak_reduction": reduction,
        "bytes_per_edge": {b: fp["bytes_per_edge"]
                           for b, fp in footprints.items()},
    })

    assert speedup >= 2.0, (list_s, csr_s)
    assert reduction >= 0.30, peaks
