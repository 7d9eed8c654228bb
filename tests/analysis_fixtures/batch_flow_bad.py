"""Fixture: shared-context tables reaching order-sensitive code.

Analyzed as a module inside ``repro.core``.  The batch substrate's
accessors (``base_core()``, ``seed_tables()``) return (α,β)-invariant
*tables* — a set and keyed maps with no defined order — so a per-campaign loop observing their element order breaks
byte-identity exactly like iterating a bare set.
"""

import json


def warm_candidates(context):
    """First-wins selection straight off the shared base core."""
    best = None
    for v in context.base_core():  # ordering-flow violation (carry)
        if best is None or v < best:
            best = v
    return best


def replay_order(context):
    """Appending loop over a shared table: element order escapes."""
    tables = context.seed_tables()
    order = []
    for entry in tables:  # ordering-flow violation (append observes order)
        order.append(entry)
    return order


def export_seed(context):
    """A shared seed passed straight into a byte-identity sink."""
    seeds = context.seed_tables()
    return json.dumps(seeds)  # ordering-flow violation (sink arg)
