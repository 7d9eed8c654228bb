"""Diagnostic reports on the internals the paper's optimizations rely on.

These are not paper figures but back the DESIGN.md ablation claims with
numbers:

* :func:`bound_tightness_report` — how tight the two candidate upper bounds
  (r-score vs ``|rf(x)|``) are against the true ``|F(x)|``;
* :func:`filter_power_report` — candidate-pool sizes before/after the
  two-hop domination filter, plus verification counts per algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.api import reinforce
from repro.core.deletion_order import (compute_orders, r_scores,
                                        reachable_counts)
from repro.core.followers import compute_followers
from repro.core.signatures import two_hop_filter
from repro.experiments.runner import DEFAULTS, default_constraints
from repro.generators.datasets import load_dataset
from repro.utils.tables import render_table

__all__ = ["BoundStats", "bound_tightness_report", "filter_power_report",
           "cumulative_effect_report"]


@dataclass
class BoundStats:
    """Aggregate tightness of one upper bound against ``|F(x)|``."""

    name: str
    candidates: int
    exact_hits: int          # bound == |F(x)|
    mean_slack: float        # mean (bound - |F(x)|)

    def as_row(self) -> List[object]:
        return [self.name, self.candidates, self.exact_hits,
                "%.2f" % self.mean_slack]


def bound_tightness_report(
    dataset: str = "WC",
    scale: float = DEFAULTS.scale,
    seed: int = DEFAULTS.seed,
    max_candidates: int = 300,
) -> str:
    """Compare r-score and ``|rf(x)|`` against the true follower counts."""
    graph = load_dataset(dataset, scale=scale, seed=seed)
    alpha, beta = default_constraints(graph)
    upper, lower = compute_orders(graph, alpha, beta)

    stats: Dict[str, List[int]] = {"r-score": [], "|rf|": [], "|F|": []}
    for order in (upper, lower):
        scores = r_scores(graph, order)
        candidates = order.candidates(graph)[:max_candidates]
        bounds = reachable_counts(graph, order, candidates)
        for x in candidates:
            stats["r-score"].append(scores.get(x, 0))
            stats["|rf|"].append(bounds[x])
            stats["|F|"].append(len(compute_followers(graph, order, x)))

    n = len(stats["|F|"])
    if not n:
        return "no candidates to report on"
    rows = []
    for name in ("r-score", "|rf|"):
        slack = [stats[name][i] - stats["|F|"][i] for i in range(n)]
        assert all(s >= 0 for s in slack), "%s is not an upper bound!" % name
        rows.append(BoundStats(
            name=name, candidates=n,
            exact_hits=sum(1 for s in slack if s == 0),
            mean_slack=sum(slack) / n).as_row())
    return render_table(["bound", "candidates", "exact", "mean slack"], rows,
                        title="Bound tightness on %s (a=%d, b=%d)"
                              % (dataset, alpha, beta))


def cumulative_effect_report(
    dataset: str = "WC",
    scale: float = DEFAULTS.scale,
    seed: int = DEFAULTS.seed,
    n_sets: int = 40,
    set_size: int = 4,
) -> str:
    """Quantify the super-additive cumulative effect of Section V.

    The paper's verification-stage optimization rests on two facts about
    anchor sets ``T``: ``|F_sh(T)| = |∪F(x)| ≤ |F(T)|`` (anchors can jointly
    rescue vertices none rescues alone), and the gap is usually small.  This
    report samples promising-anchor sets and prints the distribution of the
    cumulative surplus ``|F(T)| - |F_sh(T)|`` — the quantity FILVER++ gives
    up per iteration and recovers by folding the batch into the core.
    """
    from repro.experiments.figures import fig4_inshell_ratio

    samples = fig4_inshell_ratio(dataset, n_sets=n_sets, set_size=set_size,
                                 scale=scale, seed=seed)
    if not samples:
        return "no anchor sets to sample"
    surpluses = [s.f_collective - s.f_in_shell for s in samples]
    positive = [s for s in surpluses if s > 0]
    rows = [
        ["anchor sets sampled", len(samples)],
        ["sets with cumulative surplus", len(positive)],
        ["max surplus", max(surpluses)],
        ["mean surplus", "%.2f" % (sum(surpluses) / len(surpluses))],
        ["mean |F(T)|", "%.2f" % (sum(s.f_collective for s in samples)
                                  / len(samples))],
    ]
    return render_table(["metric", "value"], rows,
                        title="Cumulative effect on %s (|T|=%d)"
                              % (dataset, set_size))


def filter_power_report(
    dataset: str = "WC",
    scale: float = DEFAULTS.scale,
    seed: int = DEFAULTS.seed,
    b1: int = 10,
    b2: int = 10,
) -> str:
    """Pool sizes and verification counts across the FILVER family."""
    graph = load_dataset(dataset, scale=scale, seed=seed)
    alpha, beta = default_constraints(graph)
    rows = []
    for method in ("filver", "filver+", "filver++"):
        result = reinforce(graph, alpha, beta, b1, b2, method=method)
        pools = [it.candidates_total for it in result.iterations]
        filtered = [it.candidates_after_filter for it in result.iterations]
        rows.append([
            method,
            max(pools, default=0),
            max(filtered, default=0),
            result.total_verifications,
            result.n_followers,
            "%.3f" % result.elapsed,
        ])
    return render_table(
        ["method", "max pool", "after filter", "verifications",
         "followers", "time (s)"],
        rows, title="Filter power on %s (a=%d, b=%d)" % (dataset, alpha, beta))
