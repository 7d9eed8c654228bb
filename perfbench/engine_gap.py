"""Time the campaign behind BENCH_engine.json's 19.3 s and bench_sharded.json's 7.7 s.

Both files time the same FILVER++ campaign (b1 = b2 = 24, t = 2,
memoization and the flat kernel on) on the same 30-component planted
composite, and both campaigns export the same result.  The two benchmarks
differ in three ways; this script times each one alone, every
measurement in a fresh process:

* ``union`` -- the graph is built as ``disjoint_union(parts).to_csr()``
  and the campaign is the first thing the process runs (how
  ``benchmarks/bench_engine.py`` builds it);
* ``edges`` -- the graph is built from the same edge list with
  ``from_edge_list(..., backend="csr")`` (how
  ``benchmarks/bench_sharded.py`` builds it);
* ``after`` -- as ``union``, but the baseline, memo-only and kernel-only
  configurations run first in the same process, in ``bench_engine``'s
  order.

Around each campaign a fixed pure-Python loop is timed (best of a
one-second window, in ms); it moves only when the host's speed does.

Usage, from the root of a checkout::

    python3 perfbench/engine_gap.py --rounds 2
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VARIANTS = ("union", "edges", "after")


def host_speed_ms(seconds: float = 1.0) -> float:
    """Best time of a fixed dict-and-int loop within ``seconds``, in ms."""
    best = float("inf")
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        table = {}
        total = 0
        for i in range(100000):
            table[i & 1023] = total
            total += i * 3 % 7
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def measure(variant: str, parts: int) -> Dict[str, object]:
    """One fresh-process measurement of the default FILVER++ campaign."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.bigraph import disjoint_union, from_edge_list
    from repro.core import reinforce
    from repro.experiments.export import canonical_result_dict
    from repro.generators.planted import planted_core_graph

    union = disjoint_union([
        planted_core_graph(alpha=4, beta=4, core_upper=16, core_lower=16,
                           n_chains=40, max_chain_length=50, seed=1000 + i)
        for i in range(parts)])
    if variant == "edges":
        graph = from_edge_list(
            [(u, v - union.n_upper) for u, v in union.edges()],
            n_upper=union.n_upper, n_lower=union.n_lower, backend="csr")
    else:
        graph = union.to_csr()
    earlier: Dict[str, float] = {}
    if variant == "after":
        for name, memoize, flat_kernel in (("baseline", False, False),
                                           ("memo", True, False),
                                           ("kernel", False, None)):
            start = time.perf_counter()
            reinforce(graph, 4, 4, 24, 24, t=2, memoize=memoize,
                      flat_kernel=flat_kernel)
            earlier[name] = time.perf_counter() - start
    before = host_speed_ms()
    start = time.perf_counter()
    result = reinforce(graph, 4, 4, 24, 24, t=2)
    seconds = time.perf_counter() - start
    after = host_speed_ms()
    text = json.dumps(canonical_result_dict(result), sort_keys=True)
    return {"variant": variant, "campaign_s": seconds,
            "host_ms": [before, after], "earlier_s": earlier,
            "digest": hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Separate graph construction, process history and "
                    "host speed as causes of the 19.3 s / 7.7 s gap.")
    parser.add_argument("--parts", type=int, default=30)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--child", choices=VARIANTS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.child, args.parts)))
        return 0
    rows = []
    for round_no in range(args.rounds):
        # Alternate the order so a slow stretch of the host does not
        # always land on the same variant.
        order = VARIANTS if round_no % 2 == 0 else VARIANTS[::-1]
        for variant in order:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child",
                 variant, "--parts", str(args.parts)],
                capture_output=True, text=True, check=True)
            rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(json.dumps(rows[-1], sort_keys=True), flush=True)
    for variant in VARIANTS:
        mine = [row for row in rows if row["variant"] == variant]
        seconds = [row["campaign_s"] for row in mine]
        host = [ms for row in mine for ms in row["host_ms"]]
        print("%-5s campaign median %.2f s (min %.2f, max %.2f); "
              "host loop median %.1f ms (min %.1f, max %.1f); digests %s"
              % (variant, statistics.median(seconds), min(seconds),
                 max(seconds), statistics.median(host), min(host),
                 max(host), sorted({row["digest"] for row in mine})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
