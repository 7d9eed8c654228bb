"""Parallel candidate evaluation: the determinism + speedup gate.

One FILVER++ campaign on an ER surrogate, run serially and then at each
worker count.  Two claims are checked (see ``docs/PARALLEL.md``):

* **byte-identity, always** — the canonical JSON export (timings stripped)
  of every parallel run must equal the serial run's byte for byte; this is
  the whole point of the speculative-evaluate / serial-replay design and it
  must hold on any host, loaded or not;
* **speedup, where measurable** — with ≥ 4 physical cores, ``workers=4``
  must run FILVER++ at least 2x faster than serial.  On smaller hosts (CI
  runners are often 1–2 cores) the timing assertion is skipped: parallel
  overhead without parallel hardware proves nothing either way.

Measurements land in a JSON artifact (``$REPRO_BENCH_PARALLEL_JSON``,
default ``bench_parallel.json``) so CI can upload the numbers.
"""

import json
import os
import time

from repro.core import reinforce
from repro.experiments.export import canonical_result_dict
from repro.generators import erdos_renyi_bipartite

N_EDGES = int(os.environ.get("REPRO_BENCH_PARALLEL_EDGES", "8000"))
WORKER_COUNTS = (2, 4)
JSON_PATH = os.environ.get("REPRO_BENCH_PARALLEL_JSON", "bench_parallel.json")


def _canonical_json(result):
    return json.dumps(canonical_result_dict(result), sort_keys=True)


def test_parallel_campaign_identity_and_speedup(benchmark, capsys):
    n = max(200, N_EDGES // 8)
    graph = erdos_renyi_bipartite(n, n, n_edges=N_EDGES, seed=42).to_csr()
    # (5,5) sits just above this surrogate's degeneracy: the campaign finds
    # real followers over multiple iterations, so the byte-identity check
    # covers non-trivial anchor selection, not just fallback placement.
    alpha, beta = 5, 5

    def campaign(workers):
        start = time.perf_counter()
        result = reinforce(graph, alpha, beta, 5, 5, method="filver++", t=5,
                           workers=workers)
        return time.perf_counter() - start, result

    def measure():
        timings = {}
        timings[1], serial = campaign(1)
        exports = {}
        for workers in WORKER_COUNTS:
            timings[workers], result = campaign(workers)
            exports[workers] = _canonical_json(result)
        return _canonical_json(serial), exports, timings, serial.n_followers

    serial_json, exports, timings, followers = benchmark.pedantic(
        measure, rounds=1, iterations=1)

    cores = os.cpu_count() or 1
    with capsys.disabled():
        print()
        print("FILVER++ m=%d (%d followers), %d core(s):"
              % (N_EDGES, followers, cores))
        for workers in sorted(timings):
            print("  workers=%d: %7.3fs (%.2fx)"
                  % (workers, timings[workers],
                     timings[1] / max(timings[workers], 1e-9)))

    with open(JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump({
            "edges": N_EDGES,
            "cores": cores,
            "followers": followers,
            "seconds": {str(w): timings[w] for w in sorted(timings)},
            "speedup": {str(w): timings[1] / max(timings[w], 1e-9)
                        for w in WORKER_COUNTS},
            "byte_identical": True,
        }, fh, indent=2, sort_keys=True)

    # The determinism contract holds unconditionally.
    for workers, parallel_json in exports.items():
        assert parallel_json == serial_json, (
            "workers=%d export diverged from serial" % workers)

    # The timing contract only means something with real parallelism.
    if cores >= 4:
        speedup = timings[1] / max(timings[4], 1e-9)
        assert speedup >= 2.0, (
            "workers=4 speedup %.2fx below the 2x gate" % speedup)
