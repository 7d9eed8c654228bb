"""Tests for the budget-minimization variant."""

import pytest

import repro.core.budget_min as budget_min_mod
from repro.abcore import abcore, anchored_abcore
from repro.core.budget_min import (
    minimize_anchors_for_growth,
    minimize_anchors_for_targets,
)
from repro.core.verify import verify_result
from repro.exceptions import InvalidParameterError

from conftest import K34, random_bigraph


class TestGrowthGoal:
    def test_zero_target_needs_no_anchors(self, k34_with_periphery):
        result = minimize_anchors_for_growth(k34_with_periphery, 4, 3, 0)
        assert result.anchors == []
        assert result.n_followers == 0

    def test_reaches_small_target_with_one_anchor(self, k34_with_periphery):
        # anchoring l4 rescues 3 vertices; target 3 should cost one anchor
        result = minimize_anchors_for_growth(k34_with_periphery, 4, 3, 3)
        assert len(result.anchors) == 1
        assert result.n_followers >= 3

    def test_larger_target_uses_more_anchors(self, k34_with_periphery):
        result = minimize_anchors_for_growth(k34_with_periphery, 4, 3, 4)
        assert len(result.anchors) == 2
        assert result.n_followers >= 4

    def test_unreachable_target_stops_gracefully(self, k34_with_periphery):
        g = k34_with_periphery
        result = minimize_anchors_for_growth(g, 4, 3, 10_000)
        # ran out of useful anchors, returned its best effort
        assert result.n_followers < 10_000
        assert len(result.anchors) <= g.n_vertices

    def test_max_anchors_cap(self, k34_with_periphery):
        result = minimize_anchors_for_growth(k34_with_periphery, 4, 3, 4,
                                             max_anchors=1)
        assert len(result.anchors) <= 1

    def test_negative_target_rejected(self, k34_with_periphery):
        with pytest.raises(InvalidParameterError):
            minimize_anchors_for_growth(k34_with_periphery, 4, 3, -1)

    def test_anchor_prefixes_are_valid_plans(self):
        """Anchors come in placement order: each prefix's followers are a
        subset of the next prefix's (monotone plans)."""
        g = random_bigraph(3, n1_range=(12, 18), n2_range=(12, 18))
        result = minimize_anchors_for_growth(g, 2, 2, 6)
        base = abcore(g, 2, 2)
        previous: set = set()
        for i in range(1, len(result.anchors) + 1):
            prefix = result.anchors[:i]
            followers = anchored_abcore(g, 2, 2, prefix) - base - set(prefix)
            assert previous <= followers | set(prefix)
            previous = followers


class TestTargetGoal:
    def test_targets_already_in_core(self, k34_with_periphery):
        result = minimize_anchors_for_targets(k34_with_periphery, 4, 3, [0])
        assert result.anchors == []

    def test_rescuable_target_is_rescued_not_anchored(self,
                                                      k34_with_periphery):
        g = k34_with_periphery
        result = minimize_anchors_for_targets(g, 4, 3, [K34["u7"]])
        final = anchored_abcore(g, 4, 3, result.anchors)
        assert K34["u7"] in final
        # cheaper to rescue via the chain than to anchor u7 itself
        assert len(result.anchors) == 1

    def test_unrescuable_target_gets_anchored(self, k34_with_periphery):
        g = k34_with_periphery
        result = minimize_anchors_for_targets(g, 4, 3, [K34["u6"]])
        # u6 is isolated: nothing can rescue it
        assert K34["u6"] in result.anchors

    def test_multiple_targets_all_end_in_core(self):
        g = random_bigraph(5, n1_range=(12, 18), n2_range=(12, 18))
        core = abcore(g, 2, 2)
        outside = [v for v in g.vertices() if v not in core][:4]
        if not outside:
            return
        result = minimize_anchors_for_targets(g, 2, 2, outside)
        final = anchored_abcore(g, 2, 2, result.anchors)
        assert set(outside) <= final

    def test_out_of_range_target_rejected(self, k34_with_periphery):
        with pytest.raises(InvalidParameterError):
            minimize_anchors_for_targets(k34_with_periphery, 4, 3, [999])



class TestCoresFromTheState:
    def test_base_and_final_core_come_from_the_order_state(
            self, monkeypatch, k34_with_periphery):
        """The rebuilt ``OrderState`` already holds both cores, so neither
        goal peels the graph for them, and both results still verify."""
        peels = []
        for name, real in (("abcore", abcore),
                           ("anchored_abcore", anchored_abcore)):
            def counting(*args, real=real):
                peels.append(args)
                return real(*args)

            monkeypatch.setattr(budget_min_mod, name, counting,
                                raising=False)
        g = k34_with_periphery
        growth = minimize_anchors_for_growth(g, 4, 3, 4)
        targets = minimize_anchors_for_targets(g, 4, 3, [K34["u7"]])
        assert len(growth.anchors) == 2 and len(targets.anchors) == 1
        assert peels == []
        assert verify_result(g, growth).ok
        assert verify_result(g, targets).ok
