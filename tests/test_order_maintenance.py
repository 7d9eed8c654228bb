"""Order maintenance (Algorithm 4) must be indistinguishable from rebuilds."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abcore import anchored_abcore, lower_core_numbers, upper_core_numbers
from repro.core import OrderState, compute_order
from repro.core.followers import compute_followers

from conftest import K34, graphs_with_constraints, random_bigraph


def assert_state_matches_fresh(g, alpha, beta, state, anchors):
    fresh_upper = compute_order(g, alpha, beta, "upper", anchors)
    fresh_lower = compute_order(g, alpha, beta, "lower", anchors)
    assert state.core == fresh_upper.core == fresh_lower.core
    assert set(state.upper.position) == set(fresh_upper.position)
    assert set(state.lower.position) == set(fresh_lower.position)
    # zero-position entries must agree exactly
    assert ({v for v, p in state.upper.position.items() if p == 0}
            == {v for v, p in fresh_upper.position.items() if p == 0})
    assert ({v for v, p in state.lower.position.items() if p == 0}
            == {v for v, p in fresh_lower.position.items() if p == 0})
    assert state.upper.relaxed_core == fresh_upper.relaxed_core
    assert state.lower.relaxed_core == fresh_lower.relaxed_core
    if state.maintain:
        assert state.core_u == upper_core_numbers(g, alpha, beta, anchors)
        assert state.core_l == lower_core_numbers(g, alpha, beta, anchors)


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
        before = dict(state.upper.position)
        state.apply_anchor(K34["u3"])
        assert state.upper.position == before

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
            if y not in order.position:
                assert not reference, (seed, y)
                continue
            local = compute_followers(g, order, y, core=state.core)
            assert local == reference, (seed, y)
