"""Fixture: sanctioned recompute patterns the rule must not flag."""

from repro.core.deletion_order import (r_scores, reachable_counts,
                                        reachable_from)

__all__ = ["hoisted_table", "unmarked_loop", "sanctioned_miss_fallback",
           "batched_misses"]


def hoisted_table(graph, order, survivors):
    """The table is computed once, outside the marked loop."""
    scores = r_scores(graph, order)
    scored = []
    for x in survivors:  # hot-loop
        scored.append((scores.get(x, 0), x))
    return scored


def unmarked_loop(graph, order, survivors):
    """Loops without the pragma are out of contract — never inspected."""
    return [reachable_from(graph, order, x) for x in survivors]


def sanctioned_miss_fallback(graph, order, survivors, cache):
    """The cache-miss fallback recomputes once and stores; opted out."""
    scored = []
    for x in survivors:  # hot-loop
        entry = cache.get(x)
        if entry is None:
            entry = reachable_from(  # repro: ignore[recompute]
                graph, order, x)
            cache[x] = entry
        scored.append((len(entry), x))
    return scored


def batched_misses(graph, order, survivors, cache):
    """Misses are collected in the loop and answered by one sweep after."""
    misses = []
    for x in survivors:  # hot-loop
        if x not in cache:
            misses.append(x)
    cache.update(reachable_counts(graph, order, misses))
    return [(cache[x], x) for x in survivors]
