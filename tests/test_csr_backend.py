"""Backend-equivalence suite: CSR and list adjacency must be interchangeable.

Every algorithm in the repo runs on both backends of the *same* graph and
must produce byte-identical results — not just equal core sizes, but the
same deletion sequences, the same greedy anchor choices in the same order,
and the same follower sets.  A second half round-trips the streaming CSR
loader against the builder path (plain text, gzip, Taobao-style CSV).
"""

import gzip

import pytest

from repro.abcore.decomposition import abcore, anchored_abcore, delta, \
    peel_with_order
from repro.bigraph import (
    BipartiteGraph,
    CSRAdjacency,
    adjacency_arrays,
    from_edge_list,
    loads,
    memory_footprint,
    read_edge_list,
    validate_graph,
)
from repro.bigraph.builder import GraphBuilder
from repro.bigraph.csr import csr_from_indexed_edges
from repro.core import reinforce
from repro.core.deletion_order import compute_orders
from repro.core.followers import compute_followers
from repro.dynamics.cascade import simulate_cascade
from repro.exceptions import GraphConstructionError
from repro.generators import erdos_renyi_bipartite, planted_core_graph

from conftest import table_dict

CASES = [
    ("er-sparse", lambda: erdos_renyi_bipartite(40, 60, n_edges=180, seed=7),
     2, 2),
    ("er-dense", lambda: erdos_renyi_bipartite(30, 30, n_edges=300, seed=11),
     3, 3),
    ("planted", lambda: planted_core_graph(alpha=4, beta=3, n_chains=10,
                                           seed=13), 4, 3),
]


@pytest.fixture(params=CASES, ids=[c[0] for c in CASES])
def pair(request):
    """(list-backed graph, CSR twin, alpha, beta) for one test case."""
    _, make, alpha, beta = request.param
    graph = make()
    return graph, graph.to_csr(), alpha, beta


class TestStructuralParity:
    def test_backends_report_themselves(self, pair):
        graph, csr, _, _ = pair
        assert graph.backend == "list"
        assert csr.backend == "csr"
        assert isinstance(csr.adjacency, CSRAdjacency)
        assert adjacency_arrays(graph) is None
        assert adjacency_arrays(csr) is not None

    def test_graphs_compare_equal_across_backends(self, pair):
        graph, csr, _, _ = pair
        assert graph == csr
        assert csr == graph
        assert csr.to_list() == graph
        assert graph.to_csr() == csr

    def test_rows_edges_and_degrees_match(self, pair):
        graph, csr, _, _ = pair
        assert csr.n_edges == graph.n_edges
        assert csr.max_degree() == graph.max_degree()
        assert list(csr.edges()) == list(graph.edges())
        for v in graph.vertices():
            assert list(csr.neighbors(v)) == list(graph.neighbors(v))
            assert csr.degree(v) == graph.degree(v)

    def test_has_edge_bisects_the_same_answers(self, pair):
        graph, csr, _, _ = pair
        edges = list(graph.edges())
        for u, v in edges[:50]:
            assert csr.has_edge(u, v) and csr.has_edge(v, u)
        absent = (0, graph.n_upper)
        if absent not in edges:
            assert csr.has_edge(*absent) == graph.has_edge(*absent)

    def test_csr_graph_validates(self, pair):
        _, csr, _, _ = pair
        validate_graph(csr)

    def test_csr_footprint_is_smaller(self, pair):
        graph, csr, _, _ = pair
        if graph.n_edges == 0:
            pytest.skip("empty graph")
        assert (memory_footprint(csr)["adjacency_bytes"]
                < memory_footprint(graph)["adjacency_bytes"])


class TestAlgorithmEquivalence:
    def test_abcore_and_anchored_abcore(self, pair):
        graph, csr, alpha, beta = pair
        assert abcore(graph, alpha, beta) == abcore(csr, alpha, beta)
        anchors = [0, graph.n_upper]
        assert (anchored_abcore(graph, alpha, beta, anchors)
                == anchored_abcore(csr, alpha, beta, anchors))

    def test_delta(self, pair):
        graph, csr, _, _ = pair
        assert delta(graph) == delta(csr)

    def test_peel_sequences_are_identical(self, pair):
        graph, csr, alpha, beta = pair
        core_l, seq_l = peel_with_order(graph, alpha, beta, ())
        core_c, seq_c = peel_with_order(csr, alpha, beta, ())
        assert core_l == core_c
        assert seq_l == seq_c  # same order, not merely the same set

    def test_deletion_orders_are_identical(self, pair):
        graph, csr, alpha, beta = pair
        for side_l, side_c in zip(compute_orders(graph, alpha, beta),
                                  compute_orders(csr, alpha, beta)):
            assert table_dict(side_l.position) == table_dict(side_c.position)
            assert side_l.core == side_c.core
            assert side_l.relaxed_core == side_c.relaxed_core

    def test_followers_are_identical(self, pair):
        graph, csr, alpha, beta = pair
        upper_l, _ = compute_orders(graph, alpha, beta)
        upper_c, _ = compute_orders(csr, alpha, beta)
        for x in sorted(table_dict(upper_l.position))[:20]:
            assert (compute_followers(graph, upper_l, x)
                    == compute_followers(csr, upper_c, x))

    def test_full_filver_plus_plus_campaign_is_byte_identical(self, pair):
        graph, csr, alpha, beta = pair
        res_l = reinforce(graph, alpha, beta, 5, 5, method="filver++", t=5)
        res_c = reinforce(csr, alpha, beta, 5, 5, method="filver++", t=5)
        assert res_l.anchors == res_c.anchors  # same anchors, same order
        assert res_l.followers == res_c.followers
        assert res_l.base_core_size == res_c.base_core_size
        assert res_l.final_core_size == res_c.final_core_size
        assert ([r.anchors for r in res_l.iterations]
                == [r.anchors for r in res_c.iterations])

    def test_cascade_timelines_are_identical(self, pair):
        graph, csr, alpha, beta = pair
        shock = list(range(0, graph.n_upper, 3))
        res_l = simulate_cascade(graph, alpha, beta, shock, anchors=[1])
        res_c = simulate_cascade(csr, alpha, beta, shock, anchors=[1])
        assert res_l.survivors == res_c.survivors
        assert res_l.rounds == res_c.rounds


class TestBuilderBackend:
    def test_from_edge_list_csr_equals_list(self):
        edges = [(0, 0), (0, 1), (1, 0), (2, 1), (2, 2), (0, 0)]
        assert (from_edge_list(edges, backend="csr")
                == from_edge_list(edges, backend="list"))

    def test_graph_builder_backend_csr(self):
        builder = GraphBuilder()
        builder.add_edges([("a", "x"), ("a", "y"), ("b", "x")])
        csr = builder.build(backend="csr")
        assert csr.backend == "csr"
        assert csr == builder.build(backend="list")
        assert csr.vertex_of("upper", "b") == 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(GraphConstructionError):
            from_edge_list([(0, 0)], backend="dense")

    def test_dedupe_false_raises_on_duplicates_like_list(self):
        edges = [(0, 0), (0, 0)]
        for backend in ("list", "csr"):
            with pytest.raises(GraphConstructionError):
                from_edge_list(edges, backend=backend, dedupe=False)


class TestCSRAdjacency:
    def test_rows_are_sorted_views(self):
        csr = csr_from_indexed_edges(
            lambda: iter([(1, 2), (1, 0), (0, 1)]), 2, 3)
        assert len(csr) == 5  # 2 upper + 3 lower rows
        assert list(csr[0]) == [3]  # global lower ids
        assert list(csr[1]) == [2, 4]
        assert 4 in csr[1] and 3 not in csr[1]

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphConstructionError):
            csr_from_indexed_edges(lambda: iter([(0, 5)]), 1, 2)

    def test_equality_and_round_trip(self):
        rows = [[2], [2, 3], [0, 1], [1]]
        csr = CSRAdjacency.from_rows(rows)
        assert csr == rows
        assert csr.to_rows() == rows
        assert csr == CSRAdjacency.from_rows(rows)
        assert csr != CSRAdjacency.from_rows([[2], [2], [0, 1], [1]])


class TestStreamingLoader:
    TEXT = "% a comment\nu1 v1\nu1 v2\nu2 v1\nu1 v1\n"

    def test_loads_backends_agree(self):
        list_g = loads(self.TEXT)
        csr_g = loads(self.TEXT, backend="csr")
        assert csr_g.backend == "csr"
        assert csr_g == list_g
        assert csr_g.label_of(0) == "u1"
        assert csr_g.vertex_of("lower", "v2") == csr_g.n_upper + 1

    def test_taobao_style_csv(self):
        text = "1,10\n1,11\n2,10\n"
        csr_g = loads(text, backend="csr")
        assert csr_g == loads(text)
        assert csr_g.n_upper == 2 and csr_g.n_lower == 2
        assert csr_g.label_of(0) == "1"

    def test_gzip_round_trip(self, tmp_path):
        path = tmp_path / "edges.txt.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(self.TEXT)
        csr_g = read_edge_list(path, backend="csr")
        assert csr_g.backend == "csr"
        assert csr_g == read_edge_list(path)

    def test_dedupe_false_raises_on_duplicate_lines(self):
        with pytest.raises(GraphConstructionError):
            loads(self.TEXT, backend="csr", dedupe=False)

    def test_unknown_backend_rejected(self):
        with pytest.raises(GraphConstructionError):
            loads(self.TEXT, backend="dense")
