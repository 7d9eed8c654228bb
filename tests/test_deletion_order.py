"""Tests for the upper/lower deletion orders, r-scores and reachability."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abcore import abcore
from repro.abcore.decomposition import followers
from repro.core import (OrderState, compute_order, compute_orders, r_scores,
                        reachable_from, signature)
from repro.core.deletion_order import reachable_counts

from conftest import K34, graphs_with_constraints, table_dict


class TestOrderStructure:
    def test_positions_partition_shell_and_zero_anchors(self, k34_with_periphery):
        g = k34_with_periphery
        order = compute_order(g, 4, 3, "upper")
        position = table_dict(order.position)
        shell = {v for v, p in position.items() if p >= 1}
        zeros = {v for v, p in position.items() if p == 0}
        # shell = (4,2)-core minus (4,3)-core
        assert shell == order.relaxed_core - order.core
        # zero entries: own-layer promising anchors outside the relaxed core
        assert all(g.is_upper(z) for z in zeros)
        assert zeros.isdisjoint(order.relaxed_core)

    def test_fixture_zero_anchors(self, k34_with_periphery):
        g = k34_with_periphery
        order = compute_order(g, 4, 3, "upper")
        # u4 is outside the (4,2)-core but adjacent to shell member l6.
        position = table_dict(order.position)
        assert position[K34["u4"]] == 0
        # u5 only touches the core; u6 is isolated: neither is in the order.
        assert K34["u5"] not in position
        assert K34["u6"] not in position

    def test_a_source_without_an_entry_raises_key_error(
            self, k34_with_periphery):
        g = k34_with_periphery
        order = compute_order(g, 4, 3, "upper")
        for x in (K34["u5"], K34["u6"]):
            with pytest.raises(KeyError):
                reachable_from(g, order, x)
            with pytest.raises(KeyError):
                reachable_counts(g, order, [K34["u4"], x])
            with pytest.raises(KeyError):
                signature(g, order, x)

    def test_candidates_are_own_layer(self, k34_with_periphery):
        g = k34_with_periphery
        upper, lower = compute_orders(g, 4, 3)
        assert all(g.is_upper(x) for x in upper.candidates(g))
        assert all(g.is_lower(x) for x in lower.candidates(g))

    def test_deleted_in_order_sorted(self, k34_with_periphery):
        order = compute_order(k34_with_periphery, 4, 3, "upper")
        seq = order.deleted_in_order()
        position = table_dict(order.position)
        positions = [position[v] for v in seq]
        assert positions == sorted(positions)
        assert order.max_position() == len(seq)

    def test_invalid_side_rejected(self, k34_with_periphery):
        with pytest.raises(ValueError):
            compute_order(k34_with_periphery, 4, 3, "diagonal")

    def test_anchors_are_excluded_from_order(self, k34_with_periphery):
        g = k34_with_periphery
        order = compute_order(g, 4, 3, "upper", anchors=[K34["u3"]])
        assert K34["u3"] not in table_dict(order.position)
        assert K34["u3"] in order.core


class TestPositionsAreAValidPeel:
    def test_order_respects_deletion_invariant(self, k34_with_periphery):
        """When v is deleted, its supporters among later-deleted + core must
        be under the threshold (the property Lemma 1 relies on)."""
        g = k34_with_periphery
        alpha, beta = 4, 3
        order = compute_order(g, alpha, beta, "upper")
        position = table_dict(order.position)
        for v, pv in position.items():
            if pv == 0:
                continue
            support = sum(
                1 for w in g.neighbors(v)
                if w in order.core or position.get(w, -1) > pv)
            threshold = alpha if g.is_upper(v) else beta
            assert support < threshold


class TestRScores:
    def test_fixture_scores_reflect_chains(self, k34_with_periphery):
        g = k34_with_periphery
        order = compute_order(g, 4, 3, "upper")
        scores = r_scores(g, order)
        # u3 reaches l5 -> u7: positive score; u7 reaches nothing.
        assert scores[K34["u3"]] > 0
        assert scores[K34["u7"]] == 0

    def test_scores_bound_reachability(self, k34_with_periphery):
        g = k34_with_periphery
        order = compute_order(g, 4, 3, "upper")
        scores = r_scores(g, order)
        for x in table_dict(order.position):
            assert scores[x] >= len(reachable_from(g, order, x))


class TestSignature:
    def test_signature_is_reachable_neighbors(self, k34_with_periphery):
        g = k34_with_periphery
        order = compute_order(g, 4, 3, "upper")
        for x in order.candidates(g):
            sig = signature(g, order, x)
            assert sig <= set(g.neighbors(x))
            assert sig <= reachable_from(g, order, x)


@settings(max_examples=30, deadline=None)
@given(graphs_with_constraints())
def test_followers_are_order_reachable(data):
    """Lemma 1: F(x) ⊆ rf(x) for every candidate anchor in the order."""
    g, alpha, beta = data
    core = abcore(g, alpha, beta)
    upper, lower = compute_orders(g, alpha, beta)
    for order in (upper, lower):
        for x in order.candidates(g):
            f = followers(g, alpha, beta, [x], base_core=core)
            assert f <= reachable_from(g, order, x)


@settings(max_examples=30, deadline=None)
@given(graphs_with_constraints(), st.lists(st.integers(0, 400), max_size=3))
def test_r_scores_follow_the_recursion(data, raw_anchors):
    """r-scores of fresh and maintained orders equal the recursion over
    every position entry, taken in decreasing position."""
    g, alpha, beta = data
    state = OrderState(g, alpha, beta)
    for raw in raw_anchors:
        state.apply_anchor(raw % g.n_vertices)
    for order in (state.upper, state.lower):
        position = table_dict(order.position)
        expected = {}
        for v in sorted(position, key=lambda v: -position[v]):
            expected[v] = sum(expected[w] + 1 for w in g.neighbors(v)
                              if position.get(w, -1) > position[v])
        assert r_scores(g, order) == expected


@settings(max_examples=30, deadline=None)
@given(graphs_with_constraints())
def test_r_score_is_an_upper_bound_on_followers(data):
    g, alpha, beta = data
    core = abcore(g, alpha, beta)
    upper, lower = compute_orders(g, alpha, beta)
    for order in (upper, lower):
        scores = r_scores(g, order)
        for x in order.candidates(g):
            f = followers(g, alpha, beta, [x], base_core=core)
            assert scores[x] >= len(f)


@settings(max_examples=30, deadline=None)
@given(graphs_with_constraints())
def test_candidates_cover_all_useful_anchors(data):
    """Any vertex with followers appears as a candidate in its order."""
    g, alpha, beta = data
    core = abcore(g, alpha, beta)
    upper, lower = compute_orders(g, alpha, beta)
    upper_candidates = set(upper.candidates(g))
    lower_candidates = set(lower.candidates(g))
    for x in g.vertices():
        if x in core:
            continue
        if followers(g, alpha, beta, [x], base_core=core):
            expected = upper_candidates if g.is_upper(x) else lower_candidates
            assert x in expected
