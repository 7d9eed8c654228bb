"""Narrative tests mirroring the paper's worked examples.

The paper illustrates its machinery on a small user-item graph (Fig. 1 /
Fig. 3, Examples 1-2) and on a hand-drawn anchor-set update (Fig. 5,
Example 3).  These tests walk the same narratives on this repository's
fixture, asserting each statement the paper makes about its example:
shells, zero-order anchors, domination, and the anchor-set replacement.
"""

from repro.abcore import abcore
from repro.core import (
    AnchorSetMaintainer,
    compute_order,
    compute_orders,
    r_scores,
    reinforce,
    signature,
    two_hop_filter,
)
from repro.core.followers import compute_followers

from conftest import K34


class TestExample1DeletionOrder:
    """Example 1: computing O_U by peeling the (α,β-1)-core."""

    def test_order_contains_exactly_shell_plus_zero_anchors(
            self, k34_with_periphery):
        g = k34_with_periphery
        order = compute_order(g, 4, 3, "upper")
        shell = order.relaxed_core - order.core
        zero = {v for v, p in order.position.items() if p == 0}
        assert set(order.position) == shell | zero

    def test_vertices_not_connected_to_potential_followers_are_excluded(
            self, k34_with_periphery):
        """The paper: 'u1 is not connected to any potential followers, it is
        excluded from O_U and is not a promising anchor' — our u5."""
        g = k34_with_periphery
        order = compute_order(g, 4, 3, "upper")
        assert K34["u5"] not in order.position

    def test_lower_vertices_are_not_upper_anchor_candidates(
            self, k34_with_periphery):
        """The paper: 'v1 is also excluded from O_U since it is neither an
        upper vertex nor a potential follower'."""
        g = k34_with_periphery
        order = compute_order(g, 4, 3, "upper")
        candidates = set(order.candidates(g))
        assert all(g.is_upper(x) for x in candidates)


class TestExample2TwoHopFilter:
    """Example 2: anchors with dominated signatures are pruned."""

    def test_zero_signature_anchors_pruned_like_u3_u4(self,
                                                      k34_with_periphery):
        """The paper prunes u3/u4 because sig = ∅; our u7 is the analogue
        (a chain tail reaches nobody)."""
        g = k34_with_periphery
        order = compute_order(g, 4, 3, "upper")
        survivors, sigs = two_hop_filter(g, order, order.candidates(g))
        assert sigs[K34["u7"]] == set()
        assert K34["u7"] not in survivors

    def test_surviving_anchor_keeps_the_best_followers(self,
                                                       k34_with_periphery):
        g = k34_with_periphery
        order = compute_order(g, 4, 3, "upper")
        survivors, _ = two_hop_filter(g, order, order.candidates(g))
        best = max((len(compute_followers(g, order, x)) for x in survivors),
                   default=0)
        assert best == 2  # u3's chain suffix


class TestExample3AnchorSet:
    """Example 3 / Fig. 5 verbatim: u9 replaces u1 in T = {u1, u6}."""

    def test_fig5_replacement(self):
        from repro.bigraph import from_edge_list

        g = from_edge_list([], n_upper=10, n_lower=10)
        maintainer = AnchorSetMaintainer(g, t=2, upper_budget=3,
                                         lower_budget=3)
        f_u1 = {2, 3, 13, 14}              # {u2, u3, v3, v4}
        f_u6 = {3, 4, 5, 15, 16, 17}       # {u3, u4, u5, v5, v6, v7}
        f_u9 = {7, 8, 11, 12}              # {u7, u8, v1, v2}
        maintainer.offer(1, f_u1)
        maintainer.offer(6, f_u6)
        # |F_ex(u1, T)| = 3 (u2, v3, v4 — u3 is shared with u6)
        assert maintainer.exclusive_size(1) == 3
        assert maintainer.least_contribution_anchor() == 1
        # |F_ex(u9, T')| = 4 > 3 -> replacement accepted
        assert maintainer.offer(9, f_u9)
        assert maintainer.anchors == [6, 9]


class TestFig1Story:
    """Fig. 1's narrative: one upper + one lower anchor grow the community
    to everyone except one stubborn vertex."""

    def test_best_pair_leaves_one_vertex_out(self, k34_with_periphery):
        g = k34_with_periphery
        result = reinforce(g, 4, 3, 1, 1, method="filver")
        final = abcore(g, 4, 3) | set(result.anchors) | result.followers
        outside = set(g.vertices()) - final
        # u5 (core-only attachment), u6 (isolated) and l4 (the chain head,
        # which nobody rescues when u4+l4 are not both picked) stay out --
        # our fixture's 'Joey' analogues.
        assert K34["u6"] in outside
        assert result.n_followers == 4
