"""Fixture: whole-order recomputation inside # hot-loop marked loops."""

from repro.core.deletion_order import (r_scores, reachable_counts,
                                        reachable_from)

__all__ = ["rf_per_candidate", "table_per_candidate", "method_call",
           "nested_in_hot_loop", "batch_per_candidate"]


def rf_per_candidate(graph, order, survivors):
    """rf(x) DFS re-run for every candidate, every iteration."""
    scored = []
    for x in survivors:  # hot-loop
        rf = reachable_from(graph, order, x)  # violation: rf per candidate
        scored.append((len(rf), x))
    return scored


def table_per_candidate(graph, order, survivors):
    """The whole r-score table rebuilt once per candidate."""
    scored = []
    for x in survivors:  # hot-loop
        scores = r_scores(graph, order)  # violation: table per candidate
        scored.append((scores.get(x, 0), x))
    return scored


def method_call(core, order, survivors):
    """Attribute-call spelling is matched by terminal name too."""
    out = []
    for x in survivors:  # hot-loop
        out.append(core.reachable_from(order, x))  # violation: method form
    return out


def nested_in_hot_loop(graph, orders, survivors):
    """A call in a loop nested inside the marked loop is still inside."""
    scored = []
    for order in orders:  # hot-loop
        for x in survivors:
            scored.append(reachable_from(graph, order, x))  # violation
    return scored


def batch_per_candidate(graph, order, survivors):
    """The one-sweep batch called once per candidate is a DFS again."""
    scored = []
    for x in survivors:  # hot-loop
        bound = reachable_counts(graph, order, [x])[x]  # violation: one
        scored.append((bound, x))
    return scored
