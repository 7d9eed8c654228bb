"""Tests for the independent result verifier."""

from repro.core import reinforce
from repro.core.verify import verify_result

from conftest import K34, random_bigraph


class TestVerifyCleanResults:
    def test_every_algorithm_passes_verification(self, k34_with_periphery):
        g = k34_with_periphery
        for method in ("filver", "naive"):
            report = verify_result(g, reinforce(g, 4, 3, 1, 1, method=method))
            assert report.ok, str(report)
        report = verify_result(g, reinforce(g, 4, 3, 1, 1, method="filver++",
                                            t=2))
        assert report.ok, str(report)

    def test_random_graphs_pass(self):
        for seed in range(5):
            g = random_bigraph(seed)
            result = reinforce(g, 2, 2, 2, 2, method="filver")
            assert verify_result(g, result).ok

    def test_str_of_clean_report(self, k34_with_periphery):
        result = reinforce(k34_with_periphery, 4, 3, 1, 1, method="filver")
        assert "no discrepancies" in str(verify_result(k34_with_periphery,
                                                       result))


class TestVerifyCatchesTampering:
    def result(self, g):
        return reinforce(g, 4, 3, 1, 1, method="filver")

    def test_detects_invalid_anchor(self, k34_with_periphery):
        g = k34_with_periphery
        result = self.result(g)
        result.anchors.append(10_000)
        report = verify_result(g, result)
        assert not report.ok
        assert "not a vertex" in str(report)

    def test_detects_budget_violation(self, k34_with_periphery):
        g = k34_with_periphery
        result = self.result(g)
        result.b1 = 0
        report = verify_result(g, result)
        assert not report.ok and "exceed budget" in str(report)

    def test_detects_follower_tampering(self, k34_with_periphery):
        g = k34_with_periphery
        result = self.result(g)
        result.followers.add(K34["u6"])  # the isolated vertex, never rescued
        report = verify_result(g, result)
        assert not report.ok and "follower set mismatch" in str(report)

    def test_detects_core_size_tampering(self, k34_with_periphery):
        g = k34_with_periphery
        result = self.result(g)
        result.final_core_size += 1
        report = verify_result(g, result)
        assert not report.ok and "final core size" in str(report)

    def test_detects_duplicate_anchor(self, k34_with_periphery):
        g = k34_with_periphery
        result = self.result(g)
        result.anchors.append(result.anchors[0])
        report = verify_result(g, result)
        assert not report.ok and "duplicates" in str(report)

    def test_detects_trace_mismatch(self, k34_with_periphery):
        g = k34_with_periphery
        result = self.result(g)
        result.iterations[0].anchors = [K34["u5"]]
        report = verify_result(g, result)
        assert not report.ok and "different anchors" in str(report)


class TestVerifyProperty:
    def test_all_methods_verify_on_random_graphs(self):
        """Every algorithm's output must survive independent verification on
        randomized instances — the harness-level safety net."""
        from repro.core import reinforce

        for seed in range(4):
            g = random_bigraph(seed, n1_range=(8, 14), n2_range=(8, 14))
            for method in ("random", "top-degree", "degree-greedy",
                           "exact", "naive", "filver", "filver+",
                           "filver++"):
                result = reinforce(g, 2, 2, 2, 1, method=method, seed=seed)
                report = verify_result(g, result)
                # baselines have single-record traces whose marginal equals
                # the total, so the trace check applies to them too
                assert report.ok, (seed, method, str(report))
