"""Clean counterpart of ``batch_flow_bad.py``: every shared-context
table is sorted, reduced, or consumed by a commuting loop body."""

import json


def warm_candidates(context):
    """min() reduces the shared base core order-insensitively."""
    core = context.base_core()
    return min(core) if core else None


def replay_order(context):
    """sorted() canonicalizes the shared table before the appending loop."""
    order = []
    for entry in sorted(context.seed_tables()):
        order.append(entry)
    return order


def core_membership(context, vertices):
    """Set algebra and keyed stores commute over the shared core."""
    core = context.base_core()
    flags = {}
    for v in vertices:
        flags[v] = v in core
    return flags


def export_seed(context):
    """sorted() between the shared seed and the sink."""
    seeds = context.seed_tables()
    return json.dumps(sorted(seeds))
