"""Tests for the workload generators and the dataset registry."""

import pytest

from repro.abcore import abcore
from repro.exceptions import DatasetError, InvalidParameterError
from repro.generators import (
    DATASETS,
    balance_degree_sequences,
    chung_lu_bipartite,
    configuration_model,
    dataset_codes,
    erdos_renyi_bipartite,
    load_dataset,
    planted_core_graph,
    powerlaw_degree_sequence,
)
from repro.utils.rng import derive_seed, make_rng


class TestErdosRenyi:
    def test_exact_edge_count(self):
        g = erdos_renyi_bipartite(30, 40, n_edges=200, seed=1)
        assert g.n_edges == 200
        assert (g.n_upper, g.n_lower) == (30, 40)

    def test_dense_regime(self):
        g = erdos_renyi_bipartite(10, 10, n_edges=90, seed=2)
        assert g.n_edges == 90

    def test_p_model(self):
        g = erdos_renyi_bipartite(20, 20, p=0.5, seed=3)
        assert 100 < g.n_edges < 300

    def test_deterministic_for_seed(self):
        a = erdos_renyi_bipartite(15, 15, n_edges=60, seed=9)
        b = erdos_renyi_bipartite(15, 15, n_edges=60, seed=9)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            erdos_renyi_bipartite(2, 2, n_edges=10)
        with pytest.raises(InvalidParameterError):
            erdos_renyi_bipartite(2, 2)
        with pytest.raises(InvalidParameterError):
            erdos_renyi_bipartite(2, 2, n_edges=1, p=0.5)
        with pytest.raises(InvalidParameterError):
            erdos_renyi_bipartite(2, 2, p=1.5)


class TestPowerlawSequence:
    def test_sum_matches_target(self):
        seq = powerlaw_degree_sequence(100, 500, rng=make_rng(1))
        assert sum(seq) == 500

    def test_respects_dmax(self):
        seq = powerlaw_degree_sequence(50, 1000, d_max=40, rng=make_rng(2))
        assert max(seq) <= 40

    def test_has_thick_low_degree_population(self):
        """The Zipf construction must keep many minimum-degree vertices even
        at high average degree — that population forms the core shells."""
        seq = powerlaw_degree_sequence(200, 4000, exponent=1.8,
                                       rng=make_rng(3))
        assert sum(1 for d in seq if d <= 3) > 20

    def test_bad_exponent(self):
        with pytest.raises(InvalidParameterError):
            powerlaw_degree_sequence(10, 50, exponent=1.0)

    def test_bad_n(self):
        with pytest.raises(InvalidParameterError):
            powerlaw_degree_sequence(0, 50)


class TestConfigurationModel:
    def test_respects_degree_sequences_before_dedupe(self):
        upper = [2, 1, 1]
        lower = [2, 2]
        g = configuration_model(upper, lower, seed=4)
        assert g.n_upper == 3 and g.n_lower == 2
        # dedupe can only lose edges
        assert g.n_edges <= 4

    def test_stub_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            configuration_model([2], [1], seed=1)

    def test_balance_degree_sequences(self):
        up, low = balance_degree_sequences([5, 5, 5], [3, 3], make_rng(5))
        assert sum(up) == sum(low)
        assert len(up) == 3 and len(low) == 2


class TestChungLu:
    def test_hits_edge_target(self):
        g = chung_lu_bipartite(200, 150, 900, seed=6)
        assert abs(g.n_edges - 900) <= 20

    def test_over_capacity_rejected(self):
        with pytest.raises(InvalidParameterError):
            chung_lu_bipartite(3, 3, 100)

    def test_deterministic(self):
        a = chung_lu_bipartite(80, 60, 300, seed=7)
        b = chung_lu_bipartite(80, 60, 300, seed=7)
        assert sorted(a.edges()) == sorted(b.edges())


class TestPlantedCore:
    def test_core_is_exactly_the_planted_biclique(self):
        g = planted_core_graph(4, 3, n_chains=6, seed=8)
        core = abcore(g, 4, 3)
        # planted K_{beta+1, alpha+1} = K_{4,5}
        assert len(core) == 9
        assert core == set(range(4)) | {g.n_upper + j for j in range(5)}

    def test_chains_are_rescuable(self):
        from repro.abcore import anchored_abcore

        g = planted_core_graph(3, 3, n_chains=5, max_chain_length=5, seed=9)
        core = abcore(g, 3, 3)
        rescued = set()
        for x in g.vertices():
            if x in core:
                continue
            rescued |= anchored_abcore(g, 3, 3, [x]) - core - {x}
        assert rescued  # at least some chain suffixes are rescuable

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            planted_core_graph(1, 3)
        with pytest.raises(InvalidParameterError):
            planted_core_graph(4, 3, core_upper=1)


class TestDatasetRegistry:
    def test_all_codes_present(self):
        assert len(dataset_codes()) == 17
        assert dataset_codes()[0] == "UL" and dataset_codes()[-1] == "SN"

    def test_unknown_code_raises(self):
        with pytest.raises(DatasetError):
            load_dataset("NOPE")

    def test_code_is_case_insensitive(self):
        assert load_dataset("ul", scale=0.2).n_edges == \
            load_dataset("UL", scale=0.2).n_edges

    def test_deterministic_per_code_scale_seed(self):
        a = load_dataset("AC", scale=0.1, seed=1)
        b = load_dataset("AC", scale=0.1, seed=1)
        assert sorted(a.edges()) == sorted(b.edges())
        c = load_dataset("AC", scale=0.1, seed=2)
        assert sorted(a.edges()) != sorted(c.edges())

    def test_int_and_float_scales_name_one_graph(self):
        """``load_dataset("WC", 1)`` and ``load_dataset("WC", 1.0)`` give
        one edge list: the seed hashes the scale as a float, which keeps
        every float-spelled surrogate as it was."""
        as_int = load_dataset("WC", scale=1)
        as_float = load_dataset("WC", scale=1.0)
        assert list(as_int.edges()) == list(as_float.edges())
        spec = DATASETS["WC"]
        n_upper, n_lower, n_edges = spec.surrogate_shape(1.0)
        pinned = chung_lu_bipartite(n_upper, n_lower, n_edges,
                                    exponent_upper=spec.exponent,
                                    exponent_lower=spec.exponent,
                                    seed=derive_seed(2022, "WC", 1.0))
        assert list(as_float.edges()) == list(pinned.edges())

    def test_scale_changes_size_monotonically(self):
        small = load_dataset("WR", scale=0.05)
        large = load_dataset("WR", scale=0.2)
        assert small.n_edges < large.n_edges

    def test_surrogates_preserve_layer_ratio_direction(self):
        for code in ("AC", "DB"):
            spec = DATASETS[code]
            g = load_dataset(code, scale=0.2)
            paper_ratio = spec.paper_upper / spec.paper_lower
            ours = g.n_upper / g.n_lower
            if paper_ratio > 1:
                assert ours > 1
            else:
                assert ours < 1

    def test_sn_is_erdos_renyi_like(self):
        g = load_dataset("SN", scale=0.1)
        # ER graphs have no extreme hubs
        assert g.max_degree() < 40

    def test_every_dataset_loads_at_tiny_scale(self):
        for code in dataset_codes():
            g = load_dataset(code, scale=0.02)
            assert g.n_edges >= 16
