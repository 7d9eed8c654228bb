"""Component-sharded campaigns: the byte-identity + speedup + RSS gate.

Phase one runs the FILVER++ campaign from ``bench_engine`` (30 planted-core
components, deep chains, ``t=2``) three ways:

* ``serial``   — one shard over the in-RAM CSR composite (``shards=1``);
* ``sharded``  — ``shards=N_PARTS`` on the same graph: one sub-campaign per
  component, merged through the global ranked stream;
* ``memmap``   — the sharded run again, on the same edge stream rebuilt
  under ``backend="memmap"``.

``serial`` and ``sharded`` run ``PAIRS`` times each, alternating which
runs first; ``memmap`` runs once.  Every canonical JSON export (timings
stripped) must be equal byte for byte — sharding and the out-of-core
backend are substrate changes, never behavioral ones (see
``docs/PERF.md`` on why the monotone component renumbering makes the
merged stream tie-free).  The sharded median must beat the serial median
by >= 1.5x: per-component ranked lists are memoized in merged form, so
each iteration re-ranks only the one component the anchor dirtied
instead of re-scoring the whole shell.

Phase two measures what ``backend="memmap"`` is *for*: peak resident memory
of standing up a campaign-ready graph in a fresh process.  The workload is
the phase-one composite plus a large dormant biclique component (a cold
region that belongs to every core and contributes no candidates — the
billion-scale regime where most of the graph never participates in a
campaign).  A subprocess loads it each way and reports ``ru_maxrss``:

* ``csr``    — ``read_edge_list(backend="csr")``: the parse buffers and the
  full neighbor table are resident by construction;
* ``memmap`` — ``load_graph_memmap`` on a store prepared once by the
  out-of-core builder: adjacency stays file-backed, pages fault in only
  when touched.

The memmap child must come in under the CSR child by an absolute margin
(``RSS_MIN_DELTA_KB``) — a ratio gate would dilute under a fatter
interpreter baseline, while the buffer sizes the margin measures are
deterministic functions of the edge count.

Measurements land in a JSON artifact (``$REPRO_BENCH_SHARDED_JSON``,
default ``bench_sharded.json``) so CI can upload the numbers.
"""

import json
import os
import statistics
import subprocess
import sys
import time

from repro.bigraph import disjoint_union, from_edge_list
from repro.bigraph.stats import memory_footprint
from repro.core import reinforce
from repro.experiments.export import canonical_result_dict
from repro.generators.planted import planted_core_graph

N_PARTS = int(os.environ.get("REPRO_BENCH_SHARDED_PARTS", "30"))
# Dormant biclique side length for the RSS phase: K*K cold edges.
DORMANT_K = int(os.environ.get("REPRO_BENCH_SHARDED_DORMANT", "1200"))
JSON_PATH = os.environ.get("REPRO_BENCH_SHARDED_JSON", "bench_sharded.json")

SPEEDUP_GATE = 1.5
# The gate compares medians over this many serial/sharded pairs: one run
# of each read from 0.97x to 1.70x on the same 2-vCPU host.
PAIRS = 3
RSS_MIN_DELTA_KB = 6 * 1024

# The RSS children: load the graph, touch a deterministic row sample so
# both backends prove the adjacency is usable, report peak RSS.  Kept to
# stdlib + repro so they start fast.  Peak RSS comes from /proc VmHWM, not
# getrusage: Linux carries ru_maxrss across execve, so a child forked from
# the (large) pytest process would inherit the parent's peak.
_CHILD_TEMPLATE = """\
import json, resource, sys
from repro.bigraph import read_edge_list
from repro.bigraph.memmap import load_graph_memmap

def peak_rss_kb():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

mode, path = sys.argv[1], sys.argv[2]
if mode == "csr":
    graph = read_edge_list(path, backend="csr")
else:
    graph = load_graph_memmap(path)
step = max(1, graph.n_vertices // 64)
probe = sum(len(list(graph.neighbors(v)))
            for v in range(0, graph.n_vertices, step))
print(json.dumps({
    "rss_kb": peak_rss_kb(),
    "n_vertices": graph.n_vertices,
    "n_edges": graph.n_edges,
    "probe": probe,
}))
"""


def _composite_edges():
    """The bench_engine workload as an indexed edge stream.

    Rebuilt from edges (rather than ``disjoint_union(...).to_csr()``) so
    every backend constructs the graph from the same stream with the same
    vertex numbering — which is what makes the exports comparable.
    """
    parts = [planted_core_graph(alpha=4, beta=4, core_upper=16,
                                core_lower=16, n_chains=40,
                                max_chain_length=50, seed=1000 + i)
             for i in range(N_PARTS)]
    graph = disjoint_union(parts)
    edges = [(u, v - graph.n_upper) for u, v in graph.edges()]
    return edges, graph.n_upper, graph.n_lower


def _canonical_json(result):
    return json.dumps(canonical_result_dict(result), sort_keys=True)


def _merge_artifact(section, payload):
    data = {}
    if os.path.exists(JSON_PATH):
        try:
            with open(JSON_PATH, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = {}
    data[section] = payload
    with open(JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


def test_sharded_campaign_identity_and_speedup(benchmark, capsys, tmp_path):
    edges, n_upper, n_lower = _composite_edges()
    csr = from_edge_list(edges, n_upper=n_upper, n_lower=n_lower,
                         backend="csr")
    mm = from_edge_list(edges, n_upper=n_upper, n_lower=n_lower,
                        backend="memmap", memmap_dir=str(tmp_path / "g"))

    def campaign(graph, **kwargs):
        start = time.perf_counter()
        result = reinforce(graph, 4, 4, 24, 24, method="filver++", t=2,
                           **kwargs)
        return time.perf_counter() - start, result

    plans = {"serial": (csr, 1), "sharded": (csr, N_PARTS)}

    def measure():
        runs = {"serial": [], "sharded": [], "memmap": []}
        exports = {"serial": [], "sharded": [], "memmap": []}
        # Alternate which plan runs first, so drift on the host (another
        # tenant, frequency scaling) lands on both sides.
        for rnd in range(PAIRS):
            order = ("serial", "sharded") if rnd % 2 == 0 else (
                "sharded", "serial")
            for name in order:
                graph, shards = plans[name]
                seconds, result = campaign(graph, shards=shards)
                runs[name].append(seconds)
                exports[name].append(_canonical_json(result))
        seconds, on_mm = campaign(mm, shards=N_PARTS)
        runs["memmap"].append(seconds)
        exports["memmap"].append(_canonical_json(on_mm))
        return runs, exports, on_mm.n_followers

    try:
        runs, exports, followers = benchmark.pedantic(
            measure, rounds=1, iterations=1)
    finally:
        mm.adjacency.close()

    timings = {name: statistics.median(seconds)
               for name, seconds in runs.items()}
    speedup = timings["serial"] / max(timings["sharded"], 1e-9)
    with capsys.disabled():
        print()
        print("FILVER++ campaign, %d components, shards=%d (%d followers), "
              "medians of %d alternating serial/sharded pairs:"
              % (N_PARTS, N_PARTS, followers, PAIRS))
        for name in ("serial", "sharded", "memmap"):
            print("  %-8s: %7.3fs (%.2fx)  runs %s"
                  % (name, timings[name],
                     timings["serial"] / max(timings[name], 1e-9),
                     " ".join("%.3f" % t for t in runs[name])))

    _merge_artifact("campaign", {
        "parts": N_PARTS,
        "shards": N_PARTS,
        "vertices": n_upper + n_lower,
        "edges": len(edges),
        "followers": followers,
        "seconds": timings,
        "runs": runs,
        "speedup": speedup,
        "byte_identical": True,
    })

    # The determinism contract holds unconditionally, on every run.
    reference = exports["serial"][0]
    assert all(export == reference for export in exports["serial"]), (
        "serial export diverged between runs")
    assert all(export == reference for export in exports["sharded"]), (
        "sharded export diverged from serial")
    assert exports["memmap"] == [reference], (
        "memmap-backed export diverged from serial")

    assert speedup >= SPEEDUP_GATE, (
        "sharded speedup %.2fx below the %.1fx gate"
        % (speedup, SPEEDUP_GATE))


def test_memmap_graph_rss_below_in_ram_csr(benchmark, capsys, tmp_path):
    edges, n_upper, n_lower = _composite_edges()
    edge_path = tmp_path / "combined.txt"
    with open(edge_path, "w", encoding="utf-8") as fh:
        for u, v in edges:
            fh.write("u%d\tl%d\n" % (u, v))
        for u in range(DORMANT_K):
            fh.write("".join("Du%d\tDl%d\n" % (u, v)
                             for v in range(DORMANT_K)))

    # Prepare the store once with the out-of-core builder — the build cost
    # is paid offline, campaign processes only map it.
    store_dir = tmp_path / "store"
    from repro.bigraph import read_edge_list

    built = read_edge_list(edge_path, backend="memmap",
                           memmap_dir=str(store_dir))
    footprint = {
        name: {key: fp[key]
               for key in ("resident_bytes", "mapped_bytes",
                           "adjacency_bytes")}
        for name, fp in (
            ("memmap", memory_footprint(built)),
        )
    }
    total_edges = built.n_edges
    built.adjacency.close()

    child_script = tmp_path / "rss_child.py"
    child_script.write_text(_CHILD_TEMPLATE, encoding="utf-8")

    def load_child(mode, path):
        proc = subprocess.run(
            [sys.executable, str(child_script), mode, str(path)],
            capture_output=True, text=True, timeout=600, check=False)
        assert proc.returncode == 0, (
            "%s child failed:\n%s" % (mode, proc.stderr))
        return json.loads(proc.stdout.splitlines()[-1])

    def measure():
        return (load_child("csr", edge_path),
                load_child("memmap", store_dir))

    csr_report, mm_report = benchmark.pedantic(measure, rounds=1,
                                               iterations=1)

    # Same graph, same traversal — before comparing memory.
    for key in ("n_vertices", "n_edges", "probe"):
        assert csr_report[key] == mm_report[key], (
            "backend disagreement on %s: %r vs %r"
            % (key, csr_report[key], mm_report[key]))
    assert csr_report["n_edges"] == total_edges

    delta_kb = csr_report["rss_kb"] - mm_report["rss_kb"]
    with capsys.disabled():
        print()
        print("graph materialization, %d edges (%d dormant biclique):"
              % (total_edges, DORMANT_K * DORMANT_K))
        print("  csr    : %7.1f MB peak RSS" % (csr_report["rss_kb"] / 1024))
        print("  memmap : %7.1f MB peak RSS (-%.1f MB)"
              % (mm_report["rss_kb"] / 1024, delta_kb / 1024))

    _merge_artifact("graph_rss", {
        "edges": total_edges,
        "dormant_k": DORMANT_K,
        "csr_rss_kb": csr_report["rss_kb"],
        "memmap_rss_kb": mm_report["rss_kb"],
        "delta_kb": delta_kb,
        "memmap_footprint": footprint["memmap"],
    })

    assert delta_kb >= RSS_MIN_DELTA_KB, (
        "memmap peak RSS only %.1f MB under in-RAM CSR (gate: %.1f MB)"
        % (delta_kb / 1024, RSS_MIN_DELTA_KB / 1024))
