"""Order repair on its three paths, applied in lockstep.

One ``OrderState`` per path over the same graph: CSR with numpy (the
array passes of ``Frontier.component``/``sweep``/``renumber``), CSR with
numpy hidden and a list graph (both the ``core_sweep`` row loop, the
oracle).  After every apply the three must hold the same position tables,
core-number tables, relaxed cores, anchored core and dirty sets.

The batches are chosen to reach the sweep's edge cases: an anchor whose
first swept level is the cap level (start level cap - 1, so the cap
level's seeds come from both layers), anchors inside an earlier anchor's
open part, anchors at core number 0 (the level-0 walk) and an anchor with
an empty row.  Planted-chain graphs give long thin cascades, ER graphs
regions that cover most of the graph.
"""

import random
from contextlib import contextmanager

import pytest

from repro.bigraph import disjoint_union, frontier, from_edge_list
from repro.core import OrderState
from repro.generators.planted import planted_core_graph

from test_order_maintenance import assert_state_matches_fresh

pytestmark = pytest.mark.skipif(frontier._np is None,
                                reason="numpy not installed")


@contextmanager
def numpy_hidden():
    saved = frontier._np
    frontier._np = None
    try:
        yield
    finally:
        frontier._np = saved


def with_isolated(graph, extra_upper=2, extra_lower=1):
    """``graph`` plus isolated vertices on both layers (empty rows)."""
    n_upper = graph.n_upper
    edges = [(u, v - n_upper) for u, v in graph.edges()]
    return from_edge_list(edges, n_upper=n_upper + extra_upper,
                          n_lower=graph.n_lower + extra_lower)


def planted_chains(seed):
    parts = [planted_core_graph(alpha=3, beta=3, core_upper=6, core_lower=6,
                                n_chains=8, max_chain_length=30,
                                seed=seed + i)
             for i in range(2)]
    return with_isolated(disjoint_union(parts)), 3, 3


def er(seed):
    rng = random.Random(seed)
    nu, nl = 40, 36
    edges = [(u, v) for u in range(nu) for v in range(nl)
             if rng.random() < 0.09]
    return with_isolated(from_edge_list(edges, n_upper=nu, n_lower=nl)), 3, 4


def snapshot(state, dirty):
    return (list(state.upper.position), list(state.lower.position),
            list(state.core_u), list(state.core_l),
            state.upper.relaxed_core, state.lower.relaxed_core,
            state.core, state.lower.core, dirty)


def pick_batch(state, rng, isolated):
    """A batch of 1-4 anchors that reaches one edge case or another."""
    g, alpha, beta = state.graph, state.alpha, state.beta
    outside = [v for v in g.vertices()
               if v not in state.core and v not in state.anchors]
    if not outside:
        return []
    below_cap = [v for v in outside
                 if state.core_u[v] == beta - 1 or state.core_l[v] == alpha - 1]
    at_zero = [v for v in outside
               if state.core_u[v] == 0 or state.core_l[v] == 0]
    batch = [rng.choice(outside)]
    kind = rng.randrange(4)
    if kind == 0 and below_cap:
        batch = [rng.choice(below_cap)]
    elif kind == 1 and at_zero:
        batch.append(rng.choice(at_zero))
    elif kind == 2:
        # A neighbour outside the core: inside the first anchor's region.
        near = [w for w in g.neighbors(batch[0]) if w in outside]
        batch += near[:2]
    if rng.random() < 0.3:
        batch += [v for v in isolated if v not in state.anchors][:1]
    return list(dict.fromkeys(batch))


@pytest.mark.parametrize("family,seed",
                         [("planted", s) for s in (11, 40, 77)]
                         + [("er", s) for s in (3, 8, 21)])
def test_three_paths_hold_equal_tables(family, seed, monkeypatch):
    graph, alpha, beta = (planted_chains if family == "planted" else er)(seed)
    csr = graph.to_csr()
    isolated = [v for v in graph.vertices() if not graph.neighbors(v)]
    assert isolated
    levels = []
    real_sweep = frontier.Frontier.sweep

    def sweep_spy(self, alpha, beta, side, n_upper, anchors, members,
                  start_level, degree, numbers):
        if members is not None:
            cap = beta if side == "upper" else alpha
            levels.append(start_level - cap)
        return real_sweep(self, alpha, beta, side, n_upper, anchors,
                          members, start_level, degree, numbers)

    monkeypatch.setattr(frontier.Frontier, "sweep", sweep_spy)
    fast = OrderState(csr, alpha, beta)
    with numpy_hidden():
        hidden = OrderState(csr, alpha, beta)
    rows = OrderState(graph, alpha, beta)
    assert snapshot(fast, None) == snapshot(hidden, None) \
        == snapshot(rows, None)

    rng = random.Random(seed)
    zero_starts = covered = 0
    for _step in range(14):
        batch = pick_batch(fast, rng, isolated)
        if not batch:
            break
        zero_starts += sum(1 for v in batch
                           if fast.core_u[v] == 0 or fast.core_l[v] == 0)
        swept = len(levels)
        expected = snapshot(fast, fast.apply_anchors(batch))
        # Each side sweeps once per batch anchor outside the core, save
        # the anchors an earlier anchor's open part already covered.
        covered += 2 * len(batch) - (len(levels) - swept)
        with numpy_hidden():
            assert snapshot(hidden, hidden.apply_anchors(batch)) == expected
        assert snapshot(rows, rows.apply_anchors(batch)) == expected
    assert_state_matches_fresh(graph, alpha, beta, rows, rows.anchors)
    # The array sweep ran, once with the cap as its first level.
    assert levels and -1 in levels
    assert zero_starts and covered
    assert set(isolated) & fast.anchors
