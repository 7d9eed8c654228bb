"""The benchmark's workloads: seeded inputs, set-up, the measured loop, checks.

Four workloads, each generated from the run's seed:

* ``composite-filter`` -- a disjoint union of ``bench_engine``'s planted
  (4,4)-core components, relabeled by the seed, CSR-backed, one serial
  FILVER++ campaign per operation;
* ``er-apply`` -- one Erdos-Renyi bipartite component, CSR-backed, serial
  FILVER++;
* ``composite-sharded-memmap`` -- the ``composite-filter`` edge stream
  rebuilt as a memmap store, run with one shard per component;
* ``service-sweep`` -- a ``CampaignService`` (one worker, batching and the
  persistent cache on) fed a closed loop of jobs on a seed-shuffled
  graph, restarted on the same state directory half way through.

The program sees only the generated edges and job specs, through its public
entry points: ``repro.bigraph.from_edge_list``, ``repro.core.reinforce`` and
``repro.service.CampaignService``.  Every result is certified with
``repro.core.verify.verify_result`` and its canonical-JSON digest compared
with a reference digest computed by the reference engine configuration
(list-backed graph, ``memoize=False``, ``flat_kernel=False``).

Every time is taken at the host's reference pace (``perfbench.pace``).
On a shared host the same code runs up to twice as slow in stretches of
a fraction of a second to minutes, which can cover whole runs; so each
short unit of work -- a campaign iteration, a set-up, a service job --
is timed between two samples of a fixed loop and scaled by them.  A
one-shot campaign's time is, iteration by iteration, the median of the
scaled iteration times over the run's campaigns, summed; ``setup_s`` is
the median scaled set-up; the service's figures are totals and medians
of its scaled stretches between job completions and of its scaled jobs.
The raw times are printed in the notes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import statistics
import tempfile
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bigraph import disjoint_union, from_edge_list, memory_footprint
from repro.core import reinforce
from repro.core.verify import verify_result
from repro.experiments.export import canonical_result_dict
from repro.generators.planted import planted_core_graph
from repro.generators.random_bipartite import erdos_renyi_bipartite
from repro.service import CampaignService, JobSpec

from perfbench import pace
from perfbench.tracing import LAYER_METRICS, Tracer, layer_metrics, quantile

__all__ = ["END_TO_END", "SIZES", "WORKLOADS", "References", "Report",
           "run_workload"]

#: Every end-to-end metric a run reports, with its unit.
END_TO_END = (
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("campaign_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
)

#: Input sizes.  ``full`` is what the benchmark measures; ``tiny`` runs
#: every code path in about a second, for the benchmark's own tests.
SIZES: Dict[str, Dict[str, int]] = {
    "full": {
        "composite_parts": 4, "composite_budget": 16,
        "er_edges": 40000, "er_budget": 8,
        "service_parts": 6, "service_jobs": 120, "service_distinct": 105,
        "service_max_budget": 5,
    },
    "tiny": {
        "composite_parts": 2, "composite_budget": 3,
        "er_edges": 4000, "er_budget": 2,
        "service_parts": 3, "service_jobs": 12, "service_distinct": 8,
        "service_max_budget": 2,
    },
}

#: Time spent repeating the set-up after each operation, as a share of
#: that operation's time.
SETUP_SHARE = 0.1
#: Jobs the closed loop keeps outstanding.
OUTSTANDING = 2
#: Longest a single job may take before the run counts it as failed.
JOB_TIMEOUT_S = 120.0


@dataclass
class Inputs:
    """A generated edge stream (per-layer indices) plus its component count."""

    edges: List[Tuple[int, int]]
    n_upper: int
    n_lower: int
    parts: int

    def digest(self) -> str:
        flat = array("q")
        for u, v in self.edges:
            flat.append(u)
            flat.append(v)
        h = hashlib.sha256(b"%d:%d:" % (self.n_upper, self.n_lower))
        h.update(flat.tobytes())
        return h.hexdigest()

    def build(self, backend: str, memmap_dir: Optional[str] = None):
        return from_edge_list(self.edges, n_upper=self.n_upper,
                              n_lower=self.n_lower, backend=backend,
                              memmap_dir=memmap_dir)


@dataclass
class Report:
    """What one run measured and checked."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append("FAILED: " + why)


# ----------------------------------------------------------------------
# Input generators
# ----------------------------------------------------------------------

def _relabeled_union(graphs, seed: int) -> Inputs:
    """Disjoint union of ``graphs`` with vertex ids and edge order seeded.

    The components are fixed; the seed permutes the ids within each layer
    and shuffles the edge stream.  Every seed gives an isomorphic graph, so
    run-to-run differences come from the program and the host rather than
    from a heavier draw, while each seed still changes every id-ordered
    tie-break and the memory layout.
    """
    union = disjoint_union(graphs)
    rng = random.Random(seed)
    upper = list(range(union.n_upper))
    lower = list(range(union.n_lower))
    rng.shuffle(upper)
    rng.shuffle(lower)
    n_upper = union.n_upper
    edges = [(upper[u], lower[v - n_upper]) for u, v in union.edges()]
    rng.shuffle(edges)
    return Inputs(edges, n_upper, union.n_lower, len(graphs))


def composite_inputs(seed: int, size: Dict[str, int]) -> Inputs:
    """``bench_engine``'s planted (4,4)-core components, relabeled.

    16x16 cores with 40 chains up to 50 long, component seeds 1000, 1001,
    ... exactly as ``benchmarks/bench_engine.py`` draws them.
    """
    return _relabeled_union([
        planted_core_graph(alpha=4, beta=4, core_upper=16, core_lower=16,
                           n_chains=40, max_chain_length=50, seed=1000 + i)
        for i in range(size["composite_parts"])], seed)


def er_inputs(seed: int, size: Dict[str, int]) -> Inputs:
    """One G(n, m) bipartite graph with n = m / 8 vertices per layer."""
    m = size["er_edges"]
    graph = erdos_renyi_bipartite(m // 8, m // 8, n_edges=m, seed=seed)
    n_upper = graph.n_upper
    edges = [(u, v - n_upper) for u, v in graph.edges()]
    return Inputs(edges, n_upper, graph.n_lower, 1)


def service_inputs(seed: int, size: Dict[str, int]) -> Inputs:
    """``bench_batch``'s components (8x8 cores, 60 chains up to 10), shuffled.

    The seed orders the components and shuffles the edge stream, but keeps
    the order of the ids inside each component.  A service job is a small
    campaign (budgets 0 to 5), whose cost hangs on its few id-ordered
    tie-breaks: with the ids permuted inside components as well, one seed's
    sweeps ran a tenth faster than another's on the same host.
    """
    graphs = [planted_core_graph(alpha=4, beta=4, core_upper=8, core_lower=8,
                                 n_chains=60, max_chain_length=10,
                                 seed=2000 + i)
              for i in range(size["service_parts"])]
    rng = random.Random(seed)
    rng.shuffle(graphs)
    union = disjoint_union(graphs)
    n_upper = union.n_upper
    edges = [(u, v - n_upper) for u, v in union.edges()]
    rng.shuffle(edges)
    return Inputs(edges, n_upper, union.n_lower, len(graphs))


def service_jobs(size: Dict[str, int]) -> List[JobSpec]:
    """The job sequence: distinct specs in a fixed order, with repeats.

    Specs are same-(4,4) campaigns with budgets ``0..max`` per layer,
    FILVER++ with ``t`` in {2, 3}, and FILVER+.  ``service_distinct`` of
    them are drawn (at full size, every one of the 105); the remaining
    jobs repeat an already-submitted spec, so an eighth of the jobs are
    cache hits and the median job is a cache miss.  The sequence is the
    same for every seed, which shuffles the graph instead: with the order
    drawn from the seed too, the run's mean job cost moved by a tenth
    between seeds.
    """
    rng = random.Random(0x5EED)
    top = size["service_max_budget"]
    pool = [JobSpec(alpha=4, beta=4, b1=b1, b2=b2, method=method, t=t)
            for b1 in range(top + 1) for b2 in range(top + 1)
            if b1 + b2 > 0
            for method, t in (("filver++", 2), ("filver++", 3),
                              ("filver+", 5))]
    fresh = rng.sample(pool, size["service_distinct"])
    n_repeats = size["service_jobs"] - len(fresh)
    slots = [True] * n_repeats + [False] * (len(fresh) - 1)
    rng.shuffle(slots)
    jobs = [fresh[0]]
    seen = 1
    for repeat in slots:
        if repeat:
            jobs.append(fresh[rng.randrange(seen)])
        else:
            jobs.append(fresh[seen])
            seen += 1
    return jobs


# ----------------------------------------------------------------------
# Correctness: certification plus reference digests
# ----------------------------------------------------------------------

def result_digest(result) -> str:
    text = json.dumps(canonical_result_dict(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class References:
    """Reference digests, computed once per input and cached on disk.

    A key is the sha256 of the input edge stream plus the problem, so a
    reference can never be served for other inputs.  Missing references
    are computed with the reference engine configuration and cached under
    ``cache_dir`` for later runs in the same checkout.
    """

    def __init__(self, cache_dir: str) -> None:
        self._cache_dir = cache_dir

    @staticmethod
    def key(inputs_digest: str, problem: Dict[str, object]) -> str:
        text = inputs_digest + json.dumps(problem, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def get(self, key: str, compute: Callable[[], str]) -> str:
        path = os.path.join(self._cache_dir, key + ".json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)["digest"]
        except (OSError, ValueError, KeyError):
            pass
        digest = compute()
        os.makedirs(self._cache_dir, exist_ok=True)
        scratch = path + ".%d.tmp" % os.getpid()
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump({"digest": digest}, handle)
        os.replace(scratch, path)
        return digest


def _reference_campaign(ref_graph, problem: Dict[str, object]) -> str:
    return result_digest(reinforce(
        ref_graph, problem["alpha"], problem["beta"], problem["b1"],
        problem["b2"], method=problem["method"], t=problem["t"],
        memoize=False, flat_kernel=False))


def _check_results(report: Report, graph, checks) -> None:
    """Certify each distinct result once and compare every digest.

    ``checks`` holds ``(result, expected_digest)`` pairs.
    """
    certified: Dict[str, bool] = {}
    for result, expected in checks:
        digest = result_digest(result)
        if digest not in certified:
            certified[digest] = verify_result(graph, result).ok
        if result.timed_out or result.interrupted:
            report.fail("campaign ended early (timed_out=%s, interrupted=%s)"
                        % (result.timed_out, result.interrupted))
        elif not certified[digest]:
            report.fail("verify_result rejected a result")
        elif digest != expected:
            report.fail("digest %s differs from reference %s"
                        % (digest[:12], expected[:12]))


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def peak_rss_mb() -> float:
    """This process's peak resident set size (``VmHWM``) in MiB."""
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("/proc/self/status has no VmHWM line")


def _close(graph) -> None:
    close = getattr(graph.adjacency, "close", None)
    if close is not None:
        close()


def _setup_slice(setup: Callable[[], float],
                 times: List[Tuple[float, float]],
                 operation_s: float) -> None:
    """Repeat ``setup`` for ``SETUP_SHARE`` of ``operation_s``, at least once.

    Called after each untraced operation, so a run's set-ups are spread
    over its whole length.  ``setup()`` makes one set-up, returns how long
    that took and tears it down outside its timer; ``times`` gets each
    (raw, scaled) pair, scaled by the pace samples on either side.  A full
    collection before each starts every set-up with the same garbage
    collector state, so collections fall at the same points in each.
    ``setup_s`` is the median scaled time.
    """
    start = time.perf_counter()
    before = pace.sample()[0]
    while True:
        gc.collect()
        raw = setup()
        after = pace.sample()[0]
        times.append((raw, pace.scaled(raw, before, after)))
        before = after
        if time.perf_counter() - start >= SETUP_SHARE * operation_s:
            return


def _setup_s(times: List[Tuple[float, float]]) -> float:
    return statistics.median(scaled for _raw, scaled in times)


def _setup_note(times: List[Tuple[float, float]]) -> str:
    raw = [r for r, _scaled in times]
    return ("%d timed set-ups: raw fastest %.4f s, median %.4f s"
            % (len(times), min(raw), statistics.median(raw)))


def _run_for(seconds: float, operation: Callable[[], object]) -> None:
    """Run ``operation`` repeatedly for about ``seconds``, at least once.

    No run starts that would, at the mean duration so far, end more than
    half a run past the deadline, so a run measures close to ``seconds``
    and an operation that takes about half of ``seconds`` runs twice.
    """
    start = time.perf_counter()
    runs = 0
    while True:
        operation()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / runs / 2 > seconds:
            return


# ----------------------------------------------------------------------
# One-shot campaign workloads
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OneShot:
    """A workload whose operation is one ``reinforce`` call."""

    make_inputs: Callable[[int, Dict[str, int]], Inputs]
    problem: Callable[[Dict[str, int]], Dict[str, object]]
    backend: str
    sharded: bool


def _composite_problem(size: Dict[str, int]) -> Dict[str, object]:
    b = size["composite_budget"]
    return {"alpha": 4, "beta": 4, "b1": b, "b2": b,
            "method": "filver++", "t": 2}


def _er_problem(size: Dict[str, int]) -> Dict[str, object]:
    b = size["er_budget"]
    return {"alpha": 5, "beta": 5, "b1": b, "b2": b,
            "method": "filver++", "t": 2}


class _Campaigns:
    """Timed campaigns of one phase (untraced or traced) of a run.

    ``steps`` holds, per campaign, the scaled (wall, CPU) time of each
    iteration, taken by an ``on_iteration`` callback that also samples the
    pace; the first step runs from the call to the first iteration's end,
    the last from the last iteration's end to the return.  ``walls`` and
    ``cpus`` are the raw totals, without the pace samples.
    """

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.cpus: List[float] = []
        self.steps: List[List[Tuple[float, float]]] = []
        self.results: List[object] = []

    def typical(self) -> Tuple[float, float]:
        """Scaled wall and CPU time of the campaign, iteration by iteration.

        Each iteration's median scaled (wall, CPU) time over the phase's
        campaigns, summed.  Every campaign of a run does the same
        iterations (each result is checked against one reference digest),
        so step k is the same work in each.
        """
        if not self.steps:
            return float("nan"), float("nan")
        columns = list(zip(*self.steps))
        return (sum(statistics.median(wall for wall, _ in column)
                    for column in columns),
                sum(statistics.median(cpu for _, cpu in column)
                    for column in columns))


def _run_oneshot(workload: OneShot, seed: int, seconds: float, trace: bool,
                 size: Dict[str, int], state_dir: str,
                 references: References) -> Report:
    report = Report()
    inputs = workload.make_inputs(seed, size)
    problem = workload.problem(size)
    workdir = tempfile.mkdtemp(prefix="run-", dir=state_dir)
    memmap = workload.backend == "memmap"
    graph = None
    try:
        # The campaigns' graph is the run's first, cold build, untimed.
        graph = inputs.build(workload.backend, memmap_dir=(
            os.path.join(workdir, "graph") if memmap else None))
        setups: List[Tuple[float, float]] = []

        def setup() -> float:
            store = os.path.join(workdir, "setup") if memmap else None
            start = time.perf_counter()
            built = inputs.build(workload.backend, memmap_dir=store)
            elapsed = time.perf_counter() - start
            _close(built)
            if store is not None:
                shutil.rmtree(store, ignore_errors=True)
            return elapsed

        shards = inputs.parts if workload.sharded else None

        def campaign(phase: _Campaigns) -> None:
            report.attempted += 1
            paces = [pace.sample()]
            marks = [(time.perf_counter(), time.process_time())]

            def between_iterations(_record) -> None:
                marks.append((time.perf_counter(), time.process_time()))
                paces.append(pace.sample())
                marks.append((time.perf_counter(), time.process_time()))

            try:
                result = reinforce(
                    graph, problem["alpha"], problem["beta"], problem["b1"],
                    problem["b2"], method=problem["method"], t=problem["t"],
                    shards=shards, on_iteration=between_iterations)
            except Exception as error:  # counted, the run goes on
                report.fail("campaign raised %s: %s"
                            % (type(error).__name__, error))
                return
            marks.append((time.perf_counter(), time.process_time()))
            paces.append(pace.sample())
            phase.walls.append(sum(marks[k + 1][0] - marks[k][0]
                                   for k in range(0, len(marks), 2)))
            phase.cpus.append(sum(marks[k + 1][1] - marks[k][1]
                                  for k in range(0, len(marks), 2)))
            phase.steps.append(pace.scaled_steps(marks, paces))
            phase.results.append(result)

        plain = _Campaigns()
        traced = _Campaigns()
        tracer = None

        def untraced() -> None:
            start = time.perf_counter()
            campaign(plain)
            _setup_slice(setup, setups, time.perf_counter() - start)

        if trace:
            _run_for(seconds / 2, untraced)
            with Tracer() as tracer:
                _run_for(seconds / 2, lambda: (campaign(traced),
                                               tracer.harvest_caches()))
        else:
            _run_for(seconds, untraced)
        rss = peak_rss_mb()

        expected = references.get(
            References.key(inputs.digest(), problem),
            lambda: _reference_campaign(inputs.build("list"), problem))
        _check_results(report, graph,
                       [(result, expected)
                        for result in plain.results + traced.results])
        if trace:
            _oneshot_layers(report, tracer, traced, plain, setups, graph)
        else:
            _oneshot_metrics(report, plain, setups, rss)
        report.notes.append("raw campaign wall times (s): " + " ".join(
            "%.3f" % wall for wall in plain.walls + traced.walls))
        report.notes.append(_setup_note(setups))
        report.notes.append(
            "%d untraced + %d traced campaigns; "
            "%d vertices, %d edges, %d components; reference %s"
            % (len(plain.walls), len(traced.walls),
               inputs.n_upper + inputs.n_lower, len(inputs.edges),
               inputs.parts, expected[:12]))
    finally:
        if graph is not None:
            _close(graph)
        shutil.rmtree(workdir, ignore_errors=True)
    return report


def _oneshot_metrics(report: Report, plain: _Campaigns,
                     setups: List[Tuple[float, float]], rss: float) -> None:
    wall, cpu = plain.typical()
    report.notes.append("median raw campaign: %.4f s wall, %.4f s CPU"
                        % (statistics.median(plain.walls or [float("nan")]),
                           statistics.median(plain.cpus or [float("nan")])))
    # A job of a one-shot workload is one campaign, so the job metrics
    # restate campaign_s.
    values = {
        "setup_s": _setup_s(setups),
        "campaign_s": wall,
        "campaign_cpu_s": cpu,
        "peak_rss_mb": rss,
        "jobs_per_s": 1.0 / wall,
        "job_p50_ms": 1000.0 * wall,
    }
    report.metrics = {name: (values[name], unit) for name, unit in END_TO_END}


def _oneshot_layers(report: Report, tracer: Tracer, traced: _Campaigns,
                    plain: _Campaigns, setups: List[Tuple[float, float]],
                    graph) -> None:
    iterations = [record for result in traced.results
                  for record in result.iterations]
    values = layer_metrics(tracer, len(traced.walls), sum(traced.walls),
                           iterations)
    footprint = memory_footprint(graph)
    values.update({
        "bigraph.build_s": _setup_s(setups),
        "bigraph.mapped_mb": footprint["mapped_bytes"] / 2.0 ** 20,
        "bigraph.resident_mb": footprint["resident_bytes"] / 2.0 ** 20,
        "trace.overhead_s": traced.typical()[0] - plain.typical()[0],
    })
    mean_wall = sum(traced.walls) / max(1, len(traced.walls))
    report.notes.append("share of traced campaign time: " + ", ".join(
        "%s %.0f%%" % (name, 100.0 * values[name] / mean_wall)
        for name in _SHARES))
    _fill_layers(report, values)


#: Layer times whose share of the traced campaign the one-shot runs print.
_SHARES = ("filter.s", "order.apply_s", "order.build_s",
           "cache.invalidate_s", "cache.store_rf_s", "verify.s",
           "abcore.base_core_s", "abcore.final_core_s",
           "bigraph.decompose_s", "engine.other_s")


def _fill_layers(report: Report, values: Dict[str, float]) -> None:
    report.metrics = {name: (float(values.get(name, 0.0)), unit)
                      for name, unit in LAYER_METRICS}


# ----------------------------------------------------------------------
# The service sweep
# ----------------------------------------------------------------------

class _Sweep:
    """Outcome of one closed-loop sweep against a fresh service.

    ``wall``, ``cpu`` and ``latencies`` are raw, without the pace
    samples; the ``scaled_`` ones are taken at the reference pace.
    """

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.scaled_latencies: List[float] = []
        self.results: List[Tuple[JobSpec, object]] = []
        self.miss_results: List[object] = []
        self.wall = 0.0
        self.cpu = 0.0
        self.scaled_wall = 0.0
        self.scaled_cpu = 0.0
        self.restart = 0.0
        self.misses = 0
        self.retries = 0
        self.cache: Dict[str, int] = {}


def _service(graph, state_dir: str) -> CampaignService:
    return CampaignService(graph, workers=1, state_dir=state_dir,
                           batching=True, persistent_cache=True)


def _add_cache_stats(sweep: _Sweep, service: CampaignService) -> None:
    for key, value in service.stats()["cache"].items():
        if isinstance(value, int):
            sweep.cache[key] = sweep.cache.get(key, 0) + value


def _sweep(graph, jobs: List[JobSpec], state_dir: str,
           report: Report) -> _Sweep:
    """Submit ``jobs`` keeping ``OUTSTANDING`` in flight; restart halfway.

    Jobs finish in submission order (one worker, FIFO within a priority;
    cache hits finish at submit), so waiting on the oldest outstanding
    job observes every completion as it happens.  After each completion
    the loop samples the pace, on its own thread's CPU clock so that the
    worker holding the interpreter lock does not count, with the sweep's
    clocks paused.  Each stretch between two completions is scaled by the
    samples at its ends, and each job's latency by the samples at its
    submission and its completion.
    """
    sweep = _Sweep()
    first_seen = set()
    half = len(jobs) // 2
    service = _service(graph, state_dir)
    try:
        outstanding: deque = deque()
        index = 0
        paused = 0.0  # time spent sampling the pace, on the wall clock
        before = pace.sample()[1]
        start = time.perf_counter(), time.process_time()
        while index < len(jobs) or outstanding:
            if index == half and not outstanding and sweep.restart == 0.0:
                restart = time.perf_counter()
                _add_cache_stats(sweep, service)
                service.shutdown()
                service = _service(graph, state_dir)
                sweep.restart = time.perf_counter() - restart
            while (len(outstanding) < OUTSTANDING and index < len(jobs)
                   and (index != half or sweep.restart > 0.0)):
                spec = jobs[index]
                miss = spec not in first_seen
                first_seen.add(spec)
                report.attempted += 1
                submitted = time.perf_counter()
                try:
                    handle = service.submit(spec)
                except Exception as error:  # counted, the sweep goes on
                    report.fail("submit raised %s: %s"
                                % (type(error).__name__, error))
                else:
                    outstanding.append(
                        (spec, miss, submitted, paused, before, handle))
                index += 1
            if not outstanding:
                continue
            spec, miss, submitted, paused_then, pace_then, handle = \
                outstanding.popleft()
            try:
                result = handle.result(timeout=JOB_TIMEOUT_S)
            except Exception as error:  # counted, the sweep goes on
                report.fail("job raised %s: %s"
                            % (type(error).__name__, error))
                continue
            end = time.perf_counter(), time.process_time()
            after = pace.sample()[1]
            latency = end[0] - submitted - (paused - paused_then)
            sweep.latencies.append(latency)
            sweep.scaled_latencies.append(
                pace.scaled(latency, pace_then, after))
            sweep.wall += end[0] - start[0]
            sweep.cpu += end[1] - start[1]
            sweep.scaled_wall += pace.scaled(end[0] - start[0], before, after)
            sweep.scaled_cpu += pace.scaled(end[1] - start[1], before, after)
            before = after
            start = time.perf_counter(), time.process_time()
            paused += start[0] - end[0]
            sweep.retries += len(handle.failures)
            sweep.results.append((spec, result))
            if miss:
                sweep.misses += 1
                sweep.miss_results.append(result)
        _add_cache_stats(sweep, service)
    finally:
        service.shutdown()
    return sweep


def _run_service(seed: int, seconds: float, trace: bool,
                 size: Dict[str, int], state_dir: str,
                 references: References) -> Report:
    report = Report()
    inputs = service_inputs(seed, size)
    jobs = service_jobs(size)
    workdir = tempfile.mkdtemp(prefix="run-", dir=state_dir)
    try:
        # The sweeps' graph is the run's first, cold build, untimed.
        graph = inputs.build("csr")
        setups: List[Tuple[float, float]] = []
        builds: List[float] = []

        def setup() -> float:
            state = os.path.join(workdir, "setup")
            start = time.perf_counter()
            built = inputs.build("csr")
            built_at = time.perf_counter()
            service = _service(built, state)
            ready = time.perf_counter()
            builds.append(built_at - start)
            service.shutdown()
            shutil.rmtree(state, ignore_errors=True)
            return ready - start

        sweeps: List[_Sweep] = []
        traced: Optional[_Sweep] = None
        tracer = None

        def one_sweep() -> _Sweep:
            state = os.path.join(workdir, "sweep-%d" % len(sweeps))
            sweeps.append(_sweep(graph, jobs, state, report))
            return sweeps[-1]

        def untraced() -> None:
            _setup_slice(setup, setups, one_sweep().wall)

        if trace:
            untraced()
            with Tracer() as tracer:
                traced = one_sweep()
        else:
            _run_for(seconds, untraced)
        rss = peak_rss_mb()

        ref_graph = None
        expected: Dict[JobSpec, str] = {}
        inputs_digest = inputs.digest()
        for spec in jobs:
            if spec in expected:
                continue
            problem = {"alpha": spec.alpha, "beta": spec.beta,
                       "b1": spec.b1, "b2": spec.b2,
                       "method": spec.method, "t": spec.t}

            def compute(problem=problem) -> str:
                nonlocal ref_graph
                if ref_graph is None:
                    ref_graph = inputs.build("list")
                return _reference_campaign(ref_graph, problem)

            expected[spec] = references.get(
                References.key(inputs_digest, problem), compute)
        _check_results(report, graph,
                       [(result, expected[spec]) for sweep in sweeps
                        for spec, result in sweep.results])

        if trace:
            _service_layers(report, tracer, traced, sweeps[0], builds,
                            graph)
        else:
            _service_metrics(report, sweeps, setups, rss)
        report.notes.append(_setup_note(setups))
        report.notes.append("raw sweep wall times (s): " + " ".join(
            "%.3f" % sweep.wall for sweep in sweeps))
        report.notes.append(
            "%d sweeps of %d jobs (%d distinct specs); "
            "%d vertices, %d edges, %d components"
            % (len(sweeps), len(jobs), len(expected),
               inputs.n_upper + inputs.n_lower, len(inputs.edges),
               inputs.parts))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report


def _service_metrics(report: Report, sweeps: List[_Sweep],
                     setups: List[Tuple[float, float]], rss: float) -> None:
    latencies_ms = [s * 1000.0 for sweep in sweeps
                    for s in sweep.scaled_latencies]
    misses = max(1, sum(sweep.misses for sweep in sweeps))
    wall = sum(sweep.scaled_wall for sweep in sweeps)
    values = {
        "setup_s": _setup_s(setups),
        # Both per job that ran a campaign, timed around the whole sweep.
        "campaign_s": wall / misses,
        "campaign_cpu_s": sum(sweep.scaled_cpu for sweep in sweeps) / misses,
        "peak_rss_mb": rss,
        "jobs_per_s": len(latencies_ms) / wall,
        "job_p50_ms": quantile(latencies_ms, 0.5),
    }
    report.metrics = {name: (values[name], unit) for name, unit in END_TO_END}


def _service_layers(report: Report, tracer: Tracer, traced: _Sweep,
                    plain: _Sweep, builds: List[float], graph) -> None:
    iterations = [record for result in traced.miss_results
                  for record in result.iterations]
    values = layer_metrics(tracer, 1, traced.wall, iterations)
    ms = lambda seconds: [s * 1000.0 for s in seconds]  # noqa: E731
    run_ms = ms(tracer.samples["service.run"])
    wait_ms = ms(tracer.samples["service.queue_wait"])
    cache = traced.cache
    footprint = memory_footprint(graph)
    values.update({
        "bigraph.build_s": min(builds),
        "bigraph.mapped_mb": footprint["mapped_bytes"] / 2.0 ** 20,
        "bigraph.resident_mb": footprint["resident_bytes"] / 2.0 ** 20,
        "service.submit_ms_p50": quantile(
            ms(tracer.samples["service.submit"]), 0.5),
        "service.queue_wait_ms_p50": quantile(wait_ms, 0.5),
        "service.queue_wait_ms_p90": quantile(wait_ms, 0.9),
        "service.run_ms_p50": quantile(run_ms, 0.5),
        "service.run_ms_p90": quantile(run_ms, 0.9),
        "service.job_p90_ms": quantile(ms(traced.latencies), 0.9),
        "service.cache_hit_frac": (
            (cache.get("hits", 0) + cache.get("coalesced", 0))
            / max(1, tracer.calls["service.submit"])),
        "service.disk_store_s": tracer.inclusive["service.disk_store"],
        "service.disk_load_s": tracer.inclusive["service.disk_load"],
        "service.disk_hits": cache.get("disk_hits", 0),
        "service.restart_s": traced.restart,
        "service.retries": traced.retries,
        # The supervisor's own time, outside every engine layer span.
        "engine.other_s": tracer.exclusive["service.run"],
        "trace.overhead_s": traced.scaled_wall - plain.scaled_wall,
    })
    _fill_layers(report, values)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_ONE_SHOT = {
    "composite-filter": OneShot(composite_inputs, _composite_problem,
                                "csr", False),
    "er-apply": OneShot(er_inputs, _er_problem, "csr", False),
    "composite-sharded-memmap": OneShot(composite_inputs, _composite_problem,
                                        "memmap", True),
}

#: Workload names, in the order ``BENCHMARK.json`` lists them.
WORKLOADS = tuple(_ONE_SHOT) + ("service-sweep",)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str, state_dir: str, references: References) -> Report:
    """Run one workload; ``state_dir`` holds its scratch files."""
    dimensions = SIZES[size]
    if name == "service-sweep":
        return _run_service(seed, seconds, trace, dimensions, state_dir,
                            references)
    return _run_oneshot(_ONE_SHOT[name], seed, seconds, trace, dimensions,
                        state_dir, references)
