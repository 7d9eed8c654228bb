"""Batched multi-campaign execution: the shared-context + persisted-cache gate.

An 8-job batch of FILVER-family campaigns sharing one ``(α, β)`` is run
two ways on the same composite planted-core graph:

* ``cold``    — each job alone, exactly as 8 separate CLI invocations
  would run them: every job rebuilds the deletion orders, re-verifies the
  whole first-iteration candidate pool, and builds its own kernel;
* ``batched`` — one :func:`repro.core.api.reinforce` call per job against
  one :class:`~repro.core.batch.SharedCampaignContext`: the pristine order
  state and the frozen verification seed are computed once and served to
  every job (each job still builds its own kernel, as a cold run does).

Two claims are checked (see ``docs/PERF.md``):

* **byte-identity, always** — every job's canonical JSON (timings
  stripped) must equal its standalone run byte for byte; sharing is pure
  fixed-cost elision, never behavioral;
* **speedup** — the batch must finish at least 2x faster than the eight
  cold starts.  The gate compares *CPU* time (the runs are
  single-threaded, so process time is exactly the algorithmic work and
  is immune to scheduler preemption on loaded CI hosts); wall-clock
  timings are reported and land in the artifact alongside it.

A second scenario drives the *service* path across a restart: a
campaign service completes half the batch, shuts down, and a fresh
service on the same state directory serves those jobs from the
checksummed on-disk cache (hit counter > 0) while the remaining jobs run
against a context rebuilt in memory — all byte-identical to standalone.

Measurements land in a JSON artifact (``$REPRO_BENCH_BATCH_JSON``,
default ``bench_batch.json``) so CI can upload the numbers.
"""

import json
import os
import time

from repro.bigraph import disjoint_union
from repro.core import SharedCampaignContext
from repro.core.api import reinforce
from repro.experiments.export import canonical_result_dict
from repro.generators.planted import planted_core_graph
from repro.service import CampaignService, JobSpec

N_PARTS = int(os.environ.get("REPRO_BENCH_BATCH_PARTS", "24"))
JSON_PATH = os.environ.get("REPRO_BENCH_BATCH_JSON", "bench_batch.json")

ALPHA = BETA = 4

#: Eight same-(α, β) jobs: varying budgets, t, and method — the shape a
#: parameter sweep submits.
JOBS = (
    {"b1": 1, "b2": 0, "method": "filver++", "t": 2},
    {"b1": 0, "b2": 1, "method": "filver++", "t": 2},
    {"b1": 1, "b2": 1, "method": "filver++", "t": 2},
    {"b1": 2, "b2": 0, "method": "filver++", "t": 2},
    {"b1": 0, "b2": 2, "method": "filver++", "t": 2},
    {"b1": 1, "b2": 1, "method": "filver++", "t": 3},
    {"b1": 1, "b2": 0, "method": "filver+"},
    {"b1": 0, "b2": 1, "method": "filver+"},
)


def _campaign_graph():
    # Many short chains per component: a large first-sweep candidate pool
    # (the shared, (α,β)-invariant work) with small per-anchor dirty
    # regions (the campaign-private work), which is exactly the regime
    # batching targets.
    parts = [planted_core_graph(alpha=ALPHA, beta=BETA, core_upper=8,
                                core_lower=8, n_chains=60,
                                max_chain_length=10, seed=2000 + i)
             for i in range(N_PARTS)]
    return disjoint_union(parts).to_csr()


def _canonical_json(result):
    return json.dumps(canonical_result_dict(result), sort_keys=True)


def test_batch_identity_and_speedup(benchmark, capsys, tmp_path):
    graph = _campaign_graph()

    def measure():
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        cold = [reinforce(graph, ALPHA, BETA, **job) for job in JOBS]
        cold_cpu = time.process_time() - cpu_start
        cold_wall = time.perf_counter() - wall_start

        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        with SharedCampaignContext(graph, ALPHA, BETA) as context:
            batched = [reinforce(graph, ALPHA, BETA, context=context, **job)
                       for job in JOBS]
            sharing = context.stats()
        batch_cpu = time.process_time() - cpu_start
        batch_wall = time.perf_counter() - wall_start
        return (cold, batched, sharing,
                {"cold": cold_wall, "batched": batch_wall},
                {"cold": cold_cpu, "batched": batch_cpu})

    cold, batched, sharing, wall, cpu = \
        benchmark.pedantic(measure, rounds=1, iterations=1)

    cold_json = [_canonical_json(r) for r in cold]
    batched_json = [_canonical_json(r) for r in batched]
    speedup = cpu["cold"] / max(cpu["batched"], 1e-9)

    # Restart scenario: half the batch completes, the service dies, and a
    # fresh service on the same state directory must serve the finished
    # half from the persisted cache and run the rest on a rebuilt context.
    state = str(tmp_path / "service-state")
    job_specs = [JobSpec(alpha=ALPHA, beta=BETA, **job) for job in JOBS]
    with CampaignService(graph, workers=0, state_dir=state) as service:
        first_half = [service.submit(s) for s in job_specs[:4]]
        service.run_until_idle()
        for handle in first_half:
            handle.result(0)
    with CampaignService(graph, workers=0, state_dir=state) as service:
        handles = [service.submit(s) for s in job_specs]
        service.run_until_idle()
        restart_json = [_canonical_json(h.result(0)) for h in handles]
        cache_stats = service.stats()["cache"]

    with capsys.disabled():
        print()
        print("%d-job same-(%d,%d) batch, %d planted components:"
              % (len(JOBS), ALPHA, BETA, N_PARTS))
        print("  cold    : %7.3fs cpu / %7.3fs wall (8 standalone runs)"
              % (cpu["cold"], wall["cold"]))
        print("  batched : %7.3fs cpu / %7.3fs wall (%.2fx cpu)"
              % (cpu["batched"], wall["batched"], speedup))
        print("  shared  : %d state clones, %d kernels built, "
              "%d seed entries"
              % (sharing["state_clones"], sharing["kernels_built"],
                 sharing["seed_entries"]))
        print("  restart : %d disk hits" % cache_stats["disk_hits"])

    with open(JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump({
            "jobs": len(JOBS),
            "parts": N_PARTS,
            "vertices": graph.n_upper + graph.n_lower,
            "cpu_seconds": cpu,
            "wall_seconds": wall,
            "speedup": speedup,
            "sharing": {key: sharing[key] for key in
                        ("state_clones", "kernels_built", "seed_entries")},
            "restart": {"disk_hits": cache_stats["disk_hits"]},
            "byte_identical": True,
        }, fh, indent=2, sort_keys=True)

    # Byte-identity holds unconditionally, for every job, on every path.
    assert batched_json == cold_json, "batched exports diverged from cold"
    assert restart_json == cold_json, "service exports diverged from cold"

    # The restart really reused the persisted tier.
    assert cache_stats["disk_hits"] >= 4

    # The acceleration gate: shared substrate work elided, measured in
    # CPU time so scheduler noise on shared CI hosts cannot flake it.
    assert speedup >= 2.0, (
        "batch speedup %.2fx below the 2x gate" % speedup)
