"""Order maintenance (Algorithm 4) must be indistinguishable from rebuilds."""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abcore import anchored_abcore, lower_core_numbers, upper_core_numbers
from repro.core import OrderState, compute_order
from repro.core.deletion_order import zero_order_anchors
from repro.core.followers import compute_followers
from repro.generators.planted import planted_core_graph

from conftest import K34, graphs_with_constraints, random_bigraph, table_dict


def assert_state_matches_fresh(g, alpha, beta, state, anchors):
    fresh_upper = compute_order(g, alpha, beta, "upper", anchors)
    fresh_lower = compute_order(g, alpha, beta, "lower", anchors)
    assert state.core == fresh_upper.core == fresh_lower.core
    upper, lower = (table_dict(state.upper.position),
                    table_dict(state.lower.position))
    fresh_u, fresh_l = (table_dict(fresh_upper.position),
                        table_dict(fresh_lower.position))
    assert set(upper) == set(fresh_u)
    assert set(lower) == set(fresh_l)
    # zero-position entries must agree exactly
    assert ({v for v, p in upper.items() if p == 0}
            == {v for v, p in fresh_u.items() if p == 0})
    assert ({v for v, p in lower.items() if p == 0}
            == {v for v, p in fresh_l.items() if p == 0})
    assert state.upper.relaxed_core == fresh_upper.relaxed_core
    assert state.lower.relaxed_core == fresh_lower.relaxed_core
    if state.maintain:
        assert (table_dict(state.core_u)
                == upper_core_numbers(g, alpha, beta, anchors))
        assert (table_dict(state.core_l)
                == lower_core_numbers(g, alpha, beta, anchors))


class TestOrderStateBasics:
    def test_initial_state_matches_fresh(self, k34_with_periphery):
        g = k34_with_periphery
        state = OrderState(g, 4, 3)
        assert_state_matches_fresh(g, 4, 3, state, [])

    def test_apply_single_anchor(self, k34_with_periphery):
        g = k34_with_periphery
        state = OrderState(g, 4, 3)
        state.apply_anchor(K34["l4"])
        assert_state_matches_fresh(g, 4, 3, state, [K34["l4"]])
        # chain A is now in the core
        assert {K34["u3"], K34["l5"], K34["u7"]} <= state.core

    def test_apply_batch(self, k34_with_periphery):
        g = k34_with_periphery
        state = OrderState(g, 4, 3)
        state.apply_anchors([K34["l4"], K34["u4"]])
        assert_state_matches_fresh(g, 4, 3, state, [K34["l4"], K34["u4"]])

    def test_reapplying_anchor_is_a_noop(self, k34_with_periphery):
        g = k34_with_periphery
        state = OrderState(g, 4, 3)
        state.apply_anchor(K34["u3"])
        before = table_dict(state.upper.position)
        state.apply_anchor(K34["u3"])
        assert table_dict(state.upper.position) == before

    def test_non_maintaining_state_rebuilds(self, k34_with_periphery):
        g = k34_with_periphery
        state = OrderState(g, 4, 3, maintain=False)
        state.apply_anchor(K34["l4"])
        assert_state_matches_fresh(g, 4, 3, state, [K34["l4"]])


@settings(max_examples=40, deadline=None)
@given(graphs_with_constraints(), st.lists(st.integers(0, 400), max_size=5))
def test_maintained_state_always_matches_fresh(data, raw_anchors):
    g, alpha, beta = data
    state = OrderState(g, alpha, beta)
    placed = []
    for raw in raw_anchors:
        x = raw % g.n_vertices
        if x in state.core or x in placed:
            continue
        state.apply_anchor(x)
        placed.append(x)
        assert_state_matches_fresh(g, alpha, beta, state, placed)


@settings(max_examples=25, deadline=None)
@given(graphs_with_constraints(), st.lists(st.integers(0, 400), min_size=2,
                                           max_size=5))
def test_batched_application_matches_fresh(data, raw_anchors):
    g, alpha, beta = data
    state = OrderState(g, alpha, beta)
    batch = []
    for raw in raw_anchors:
        x = raw % g.n_vertices
        if x not in state.core and x not in batch:
            batch.append(x)
    state.apply_anchors(batch)
    assert_state_matches_fresh(g, alpha, beta, state, batch)


def test_maintained_orders_support_exact_follower_computation():
    """After maintenance, Algorithm 1 on the maintained orders must still
    equal a global recompute — the end-to-end property FILVER+ relies on."""
    for seed in range(5):
        g = random_bigraph(seed, n1_range=(10, 20), n2_range=(10, 20))
        alpha, beta = 3, 2
        state = OrderState(g, alpha, beta)
        rng = random.Random(seed)
        pool = [v for v in g.vertices() if v not in state.core]
        rng.shuffle(pool)
        placed = []
        for x in pool[:4]:
            if x in state.core:
                continue
            state.apply_anchor(x)
            placed.append(x)
        base = set(state.core)
        for y in g.vertices():
            if y in base or y in placed:
                continue
            order = state.upper if g.is_upper(y) else state.lower
            reference = (anchored_abcore(g, alpha, beta, placed + [y])
                         - base - {y})
            if y not in table_dict(order.position):
                assert not reference, (seed, y)
                continue
            local = compute_followers(g, order, y, core=state.core)
            assert local == reference, (seed, y)


@pytest.mark.parametrize("backend", ["list", "csr"])
def test_level0_table_is_the_anchored_one_core(backend, monkeypatch):
    """The level-0 walk's table marks exactly the anchored (α,1)-core
    (upper side) or (1,β)-core (lower side): the peel's mask on CSR
    graphs, the scalar core's members on list graphs."""
    seen = []
    real = OrderState._level0_table

    def spy(self, side, walk):
        table = real(self, side, walk)
        seen.append((self.graph, side, set(self.anchors), table))
        return table

    monkeypatch.setattr(OrderState, "_level0_table", spy)
    for seed in range(6):
        g = random_bigraph(seed, n1_range=(10, 20), n2_range=(10, 20),
                           density=0.2)
        if backend == "csr":
            g = g.to_csr()
        state = OrderState(g, 3, 3)
        # The lowest-degree vertices sit at level 0 on both sides.
        pool = sorted(g.vertices(), key=lambda v: (g.degree(v), v))
        state.apply_anchors(pool[:2])
        state.apply_anchor(pool[2])
    assert {side for _, side, _, _ in seen} == {"upper", "lower"}
    for g, side, anchors, table in seen:
        alpha, beta = (3, 1) if side == "upper" else (1, 3)
        core = anchored_abcore(g.to_list(), alpha, beta, anchors)
        assert table == array("q", [int(v in core)
                                    for v in range(g.n_vertices)])


def global_zero_rebuild(state, side):
    """The position-0 entries rebuilt over the whole order: every old zero
    deleted, the fresh-peel rule applied to all shell entries, and the
    churn ``old ^ new`` returned."""
    order = state.upper if side == "upper" else state.lower
    position = order.position
    old = {v for v, p in table_dict(position).items() if p == 0}
    for v in old:
        position[v] = -1
    new = zero_order_anchors(state.graph, side, table_dict(position),
                             order.relaxed_core, state.anchors)
    for v in new:
        position[v] = 0
    return old ^ new


@pytest.mark.parametrize("backend", ["list", "csr"])
@pytest.mark.parametrize("seed", range(8))
def test_zero_entries_refreshed_near_the_repair_equal_a_global_rebuild(
        seed, backend):
    """Refreshing the zero entries around the repaired open parts and the
    fresh anchors gives what rebuilding them over the whole order gives:
    the same positions and the same dirty regions (whose zero churn is the
    global ``old ^ new``) after every ``apply_anchor`` and every batch,
    and a state equal to a fresh peel."""
    rng = random.Random(seed)
    if seed % 2:
        g = planted_core_graph(alpha=3, beta=3, core_upper=8, core_lower=8,
                               n_chains=10, max_chain_length=6,
                               seed=700 + seed)
        alpha, beta = 3, 3
    else:
        g = random_bigraph(700 + seed, n1_range=(12, 24),
                           n2_range=(12, 24), density=0.12)
        alpha, beta = rng.choice([(2, 2), (3, 2), (2, 3)])
    if backend == "csr":
        g = g.to_csr()
    state = OrderState(g, alpha, beta)
    ref = OrderState(g, alpha, beta)
    ref._refresh_zero_entries = (
        lambda side, *_near: global_zero_rebuild(ref, side))
    pool = [v for v in g.vertices() if v not in state.core]
    rng.shuffle(pool)
    placed = []
    churned = 0
    while pool:
        size = rng.choice([1, 1, 2, 3])
        fresh, pool = pool[:size], pool[size:]
        zeros = {side: {v for v, p in table_dict(order.position).items()
                        if p == 0}
                 for side, order in (("upper", state.upper),
                                     ("lower", state.lower))}
        if size == 1:
            dirty, expected = state.apply_anchor(fresh[0]), \
                ref.apply_anchor(fresh[0])
        else:
            dirty, expected = state.apply_anchors(fresh), \
                ref.apply_anchors(fresh)
        placed.extend(x for x in fresh if x not in placed)
        assert dirty == expected
        for side, order, twin in (("upper", state.upper, ref.upper),
                                  ("lower", state.lower, ref.lower)):
            assert table_dict(order.position) == table_dict(twin.position)
            after = {v for v, p in table_dict(order.position).items()
                     if p == 0}
            churned += len(zeros[side] ^ after)
            assert zeros[side] ^ after <= dirty[side]
        assert_state_matches_fresh(g, alpha, beta, state, placed)
    assert churned
