"""cProfile a FILVER campaign and print the top cumulative hot functions.

The engine's speed story is constant factors: where a reinforcement
campaign actually spends its time decides which of the accelerations
(cross-iteration memoization, the flat CSR kernel, worker pools) is worth
reaching for.  This tool runs one campaign on the same multi-component
planted-core composite the engine benchmark uses and prints the top-N
functions by cumulative time, so a regression or a new hot spot is one
command away::

    PYTHONPATH=src python tools/profile_campaign.py
    PYTHONPATH=src python tools/profile_campaign.py --no-memoize --parts 10
    PYTHONPATH=src python tools/profile_campaign.py --method filver+ --top 30
    PYTHONPATH=src python tools/profile_campaign.py --shards 30 --peak-rss

Every campaign runs on campaign shards, so a per-shard wall-clock
breakdown (ranking vs apply) prints next to the profile, one row per
shard; an unbalanced shard plan shows up as one long row.  By default the
plan gives each component with edges its own shard, up to
``AUTO_SHARD_CAP`` (32) shards; ``--shards 1`` is one shard over the whole
graph (the campaign ``benchmarks/bench_engine.py`` times), and
``--shards k`` groups the components into at most ``k`` shards.
``--peak-rss`` appends the process peak resident set size — the number to
watch when comparing ``backend="memmap"`` against the in-RAM CSR.

Profiles are wall-clock-free diagnostics — nothing here gates CI; the
enforced numbers live in ``benchmarks/bench_engine.py`` and
``benchmarks/bench_sharded.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import time
from contextlib import contextmanager

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.bigraph import disjoint_union  # noqa: E402
from repro.core import reinforce  # noqa: E402
from repro.generators.planted import planted_core_graph  # noqa: E402


@contextmanager
def shard_timers():
    """Instrument ``CampaignShard`` ranking/apply with per-shard timers.

    Timing is collected in the tool, not the engine: the substrate stays
    measurement-free, and the accounting cost is only paid when profiling.
    Yields a dict ``{shard_index: {"ranked": s, "apply": s, "calls": n}}``.
    """
    from repro.core.sharded import CampaignShard

    totals: dict = {}
    original_ranked = CampaignShard.ranked
    original_apply = CampaignShard.apply

    def record(shard, stage, seconds):
        row = totals.setdefault(shard.index,
                                {"ranked": 0.0, "apply": 0.0, "calls": 0})
        row[stage] += seconds
        row["calls"] += 1

    def timed_ranked(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return original_ranked(self, *args, **kwargs)
        finally:
            record(self, "ranked", time.perf_counter() - start)

    def timed_apply(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return original_apply(self, *args, **kwargs)
        finally:
            record(self, "apply", time.perf_counter() - start)

    CampaignShard.ranked = timed_ranked
    CampaignShard.apply = timed_apply
    try:
        yield totals
    finally:
        CampaignShard.ranked = original_ranked
        CampaignShard.apply = original_apply


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def build_graph(parts: int, chains: int, chain_length: int):
    components = [
        planted_core_graph(alpha=4, beta=4, core_upper=16, core_lower=16,
                           n_chains=chains, max_chain_length=chain_length,
                           seed=1000 + i)
        for i in range(parts)
    ]
    return disjoint_union(components).to_csr()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile one FILVER campaign, print hot functions")
    parser.add_argument("--method", default="filver++",
                        choices=["filver", "filver+", "filver++"])
    parser.add_argument("--parts", type=int, default=30,
                        help="planted components in the composite (30)")
    parser.add_argument("--chains", type=int, default=40)
    parser.add_argument("--chain-length", type=int, default=50)
    parser.add_argument("--budget", type=int, default=24,
                        help="per-layer anchor budget b1 = b2 (24)")
    parser.add_argument("--t", type=int, default=2,
                        help="anchors per iteration, filver++ only (2)")
    parser.add_argument("--top", type=int, default=20,
                        help="how many functions to print (20)")
    parser.add_argument("--no-memoize", action="store_true",
                        help="profile with the verification cache off")
    parser.add_argument("--no-kernel", action="store_true",
                        help="profile with the flat CSR kernel off")
    parser.add_argument("--shards", type=int, default=None,
                        help="group the components into at most this "
                             "many shards; 1 is the whole graph (default: "
                             "one shard per component, at most 32)")
    parser.add_argument("--peak-rss", action="store_true",
                        help="print the process peak RSS after the run")
    args = parser.parse_args(argv)

    graph = build_graph(args.parts, args.chains, args.chain_length)
    print("graph: %d vertices, %d components (method=%s, memoize=%s, "
          "flat_kernel=%s, shards=%s)"
          % (graph.n_upper + graph.n_lower, args.parts, args.method,
             not args.no_memoize, not args.no_kernel, args.shards))

    profiler = cProfile.Profile()
    with shard_timers() as shard_totals:
        start = time.perf_counter()
        profiler.enable()
        result = reinforce(graph, 4, 4, args.budget, args.budget,
                           method=args.method, t=args.t,
                           memoize=not args.no_memoize,
                           flat_kernel=False if args.no_kernel else None,
                           shards=args.shards)
        profiler.disable()
        elapsed = time.perf_counter() - start

    print("campaign: %d iterations, %d followers, %.2fs (instrumented)"
          % (len(result.iterations), result.n_followers, elapsed))
    if shard_totals:
        print()
        print("per-shard wall clock (instrumented):")
        print("  %-6s %10s %10s %8s" % ("shard", "ranked", "apply", "calls"))
        for index in sorted(shard_totals):
            row = shard_totals[index]
            print("  %-6d %9.3fs %9.3fs %8d"
                  % (index, row["ranked"], row["apply"], row["calls"]))
    print()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(args.top)
    if args.peak_rss:
        print("peak RSS: %.1f MB" % (peak_rss_kb() / 1024.0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
