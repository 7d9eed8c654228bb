"""Tests for connected-component labeling and subgraph views.

Four layers: unit tests of :func:`component_labels` /
:func:`component_sizes` (singleton vertices, one giant component,
backend-independence of the canonical numbering), the
:class:`SubgraphView` id maps (global↔local round-trips, monotone
renumbering, whole-component closure), the differential test of the
array passes (CSR graphs with numpy, in RAM and memmap) against the row
loops (list graphs, and CSR graphs with numpy hidden), and the
metamorphic guarantee the sharded substrate is built on — permuting the
component assembly order never changes what a sharded campaign computes
relative to the serial engine on the same graph, and maps to the same
anchor *labels* across permutations.
"""

import contextlib
import itertools
import json
import pathlib
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bigraph import disjoint_union, frontier, from_edge_list
from repro.bigraph.components import (
    ComponentDecomposition,
    component_labels,
    component_sizes,
    decompose,
)
from repro.bigraph.stats import memory_footprint
from repro.core.api import reinforce
from repro.core.sharded import plan_shards, shard_views
from repro.exceptions import InvalidParameterError
from repro.experiments.export import canonical_result_dict
from repro.generators.planted import planted_core_graph

from conftest import bipartite_graphs, random_bigraph


def path_with_isolates():
    """Uppers 0-3, lowers 4-7: a 5-vertex path plus three isolated vertices.

    Components (canonical numbering, discovery order of the id scan):
    0 = {0, 4, 1, 5, 2}, 1 = {3} (isolated upper), 2 = {6}, 3 = {7}.
    """
    edges = [(0, 0), (1, 0), (1, 1), (2, 1)]
    return from_edge_list(edges, n_upper=4, n_lower=4)


class TestComponentLabels:
    def test_path_plus_isolates(self):
        labels = list(component_labels(path_with_isolates()))
        assert labels == [0, 0, 0, 1, 0, 0, 2, 3]

    def test_singleton_vertices_are_own_components(self):
        graph = from_edge_list([], n_upper=3, n_lower=2)
        assert list(component_labels(graph)) == [0, 1, 2, 3, 4]

    def test_one_giant_component(self):
        graph = from_edge_list([(u, v) for u in range(4) for v in range(5)],
                               n_upper=4, n_lower=5)
        assert set(component_labels(graph)) == {0}

    def test_empty_graph(self):
        graph = from_edge_list([], n_upper=0, n_lower=0)
        assert list(component_labels(graph)) == []
        assert component_sizes(graph) == []

    def test_backend_independent_numbering(self):
        graph = disjoint_union([random_bigraph(s, density=0.3)
                                for s in (1, 2, 3)])
        assert (list(component_labels(graph))
                == list(component_labels(graph.to_csr())))

    def test_component_sizes(self):
        sizes = component_sizes(path_with_isolates())
        assert sizes == [(3, 2, 4), (1, 0, 0), (0, 1, 0), (0, 1, 0)]
        assert sum(e for _, _, e in sizes) == 4


class TestSubgraphView:
    def decomposition(self):
        return decompose(path_with_isolates().to_csr())

    def test_round_trip_ids(self):
        view = self.decomposition().subgraph_view([0])
        for local in range(view.n_vertices):
            assert view.to_local(view.to_global[local]) == local
        for global_id in (0, 1, 2, 4, 5):
            assert view.to_global[view.to_local(global_id)] == global_id

    def test_monotone_renumbering_uppers_first(self):
        view = self.decomposition().subgraph_view([0])
        # Members of component 0: uppers {0,1,2} then lowers {4,5} — local
        # ids must list them in exactly that (ascending, uppers-first) order.
        assert list(view.to_global) == [0, 1, 2, 4, 5]
        assert view.graph.n_upper == 3 and view.graph.n_lower == 2

    def test_membership_and_localize_globalize(self):
        view = self.decomposition().subgraph_view([0])
        assert 0 in view and 4 in view and 3 not in view
        assert view.localize([2, 5]) == [2, 4]
        assert view.globalize([2, 4]) == {2, 5}
        with pytest.raises(KeyError):
            view.to_local(3)

    def test_view_preserves_adjacency(self):
        graph = path_with_isolates().to_csr()
        view = decompose(graph).subgraph_view([0])
        for local in range(view.n_vertices):
            global_neighbors = {view.to_global[w]
                                for w in view.graph.neighbors(local)}
            assert global_neighbors == set(
                graph.neighbors(view.to_global[local]))

    def test_multi_component_view_and_members(self):
        decomposition = self.decomposition()
        view = decomposition.subgraph_view([1, 2])
        assert list(view.to_global) == [3, 6]
        assert view.graph.n_upper == 1 and view.graph.n_lower == 1
        assert decomposition.members([1, 2]) == [3, 6]

    def test_backend_selection_and_validation(self):
        decomposition = self.decomposition()
        assert decomposition.subgraph_view([0]).graph.backend == "csr"
        listed = ComponentDecomposition(path_with_isolates())
        assert listed.subgraph_view([0]).graph.backend == "list"
        with pytest.raises(InvalidParameterError):
            decomposition.subgraph_view([99])
        with pytest.raises(InvalidParameterError):
            decomposition.members([-1])

    def test_sizes_are_cached(self):
        decomposition = ComponentDecomposition(path_with_isolates())
        assert decomposition.sizes is decomposition.sizes

    def test_view_holds_no_per_vertex_map(self):
        view = self.decomposition().subgraph_view([0])
        assert not hasattr(view, "__dict__")
        assert set(view.__slots__) == {"components", "to_global", "graph"}
        assert 6 not in view and -1 not in view and 99 not in view
        with pytest.raises(KeyError):
            view.localize([0, 6])

    def test_router_reads_each_vertex_shard(self):
        graph = path_with_isolates().to_csr()
        views, route = shard_views(graph, 2)
        for v in range(graph.n_vertices):
            assert v in views[route(v)]


class TestFootprintRows:
    """``memory_footprint(per_component=True)`` is a JSON report: its rows
    must hold plain ints on every backend, never numpy scalars."""

    @pytest.mark.parametrize("backend", ["list", "csr", "memmap"])
    def test_per_component_rows_are_plain_ints(self, backend, tmp_path):
        graph = with_backend(two_parts_with_isolates(), backend, tmp_path)
        footprint = memory_footprint(graph, per_component=True)
        json.dumps(footprint)
        rows = footprint["components"]
        assert sum(row["n_edges"] for row in rows) == graph.n_edges
        for row in rows:
            assert all(type(value) is int for value in row.values()), row
        for triple in component_sizes(graph):
            assert all(type(value) is int for value in triple), triple
        close(graph)


def two_parts_with_isolates():
    """Two random components' worth of edges plus isolated vertices on
    both sides."""
    return disjoint_union([random_bigraph(3, density=0.3),
                           path_with_isolates(),
                           random_bigraph(8, density=0.2)])


def with_backend(graph, backend, directory):
    """``graph`` rebuilt from its edge stream on ``backend``."""
    if backend == "list":
        return graph
    edges = [(u, v - graph.n_upper) for u, v in graph.edges()]
    return from_edge_list(edges, n_upper=graph.n_upper,
                          n_lower=graph.n_lower, backend=backend,
                          memmap_dir=str(directory / "g")
                          if backend == "memmap" else None)


def close(graph):
    if graph.backend == "memmap":
        graph.adjacency.close()


@contextlib.contextmanager
def numpy_hidden():
    """Run the row loops on CSR graphs too: components reads numpy
    through ``frontier._numpy()``."""
    saved = frontier._np
    frontier._np = None
    try:
        yield
    finally:
        frontier._np = saved


def snapshot(graph):
    """Everything the decomposition hands the shard plan, as plain data:
    labels, sizes, members, and for several plans every view's id map
    and CSR buffers plus each vertex's group."""
    decomposition = ComponentDecomposition(graph)
    k = decomposition.n_components
    taken = {
        "labels": (decomposition.labels.typecode, list(decomposition.labels)),
        "n_components": k,
        "sizes": decomposition.sizes,
        "members": [decomposition.members([c]) for c in range(k)],
    }
    sizes = decomposition.sizes
    plans = {"auto": plan_shards(sizes, None), "two": plan_shards(sizes, 2),
             "all": [tuple(range(k))] if k else [],
             "odd-even": [tuple(range(1, k, 2)), tuple(range(0, k, 2))]
             if k > 1 else [],
             "nothing": [()]}
    for name, plan in plans.items():
        views = [decomposition.subgraph_view(group) for group in plan]
        taken[name] = ([view_buffers(view) for view in views],
                       list(decomposition.group_of_vertex(plan)))
    return taken


def view_buffers(view):
    local = view.graph
    adj = local.adjacency if local.backend == "csr" \
        else local.to_csr().adjacency
    return (view.components, view.to_global.typecode, list(view.to_global),
            local.n_upper, local.n_lower,
            adj.offsets.typecode, list(adj.offsets),
            adj.neighbors.typecode, list(adj.neighbors),
            adj.degrees.typecode, list(adj.degrees))


def shuffled_path(n, seed):
    """A path alternating ``n`` uppers and ``n`` lowers, ids shuffled on
    both sides: the most hook rounds per vertex of these inputs."""
    rng = random.Random(seed)
    uppers = list(range(n))
    lowers = list(range(n))
    rng.shuffle(uppers)
    rng.shuffle(lowers)
    edges = [(uppers[i], lowers[i]) for i in range(n)]
    edges += [(uppers[i + 1], lowers[i]) for i in range(n - 1)]
    return from_edge_list(edges, n_upper=n, n_lower=n)


@st.composite
def sparse_bipartite_graphs(draw):
    """Up to 40 vertices a side and about one edge per vertex."""
    n_upper = draw(st.integers(1, 40))
    n_lower = draw(st.integers(1, 40))
    edges = draw(st.lists(st.tuples(st.integers(0, n_upper - 1),
                                    st.integers(0, n_lower - 1)),
                          max_size=n_upper + n_lower))
    return from_edge_list(edges, n_upper=n_upper, n_lower=n_lower)


DIFFERENTIAL_GRAPHS = {
    "empty": lambda: from_edge_list([], n_upper=0, n_lower=0),
    "all-isolated": lambda: from_edge_list([], n_upper=4, n_lower=6),
    "giant": lambda: from_edge_list(
        [(u, v) for u in range(5) for v in range(7)], n_upper=5, n_lower=7),
    "shuffled-path": lambda: shuffled_path(600, seed=5),
    "ascending-path": lambda: from_edge_list(
        [(i, i) for i in range(600)] + [(i + 1, i) for i in range(599)],
        n_upper=600, n_lower=600),
    "star-under-largest-id": lambda: from_edge_list(
        [(u, 0) for u in range(300)], n_upper=300, n_lower=1),
    "parts-with-isolates": two_parts_with_isolates,
    "planted-parts": lambda: disjoint_union([
        planted_core_graph(alpha=3, beta=3, core_upper=5, core_lower=6,
                           n_chains=5, max_chain_length=4, seed=seed)
        for seed in (1, 2, 3)]),
}


def assert_paths_agree(graph):
    """The row loops on the list graph and on CSR with numpy hidden, and
    the array passes on in-RAM and memmap CSR, hand over the same data."""
    expected = snapshot(graph)
    with tempfile.TemporaryDirectory() as directory:
        csr = with_backend(graph, "csr", None)
        with numpy_hidden():
            assert snapshot(csr) == expected
        assert snapshot(csr) == expected
        memmap = with_backend(graph, "memmap", pathlib.Path(directory))
        assert snapshot(memmap) == expected
        # No decomposition buffer still points into the map.
        memmap.adjacency.close()


@pytest.mark.skipif(frontier._np is None, reason="numpy not installed")
class TestArrayPassesMatchRowLoops:
    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_GRAPHS))
    def test_graph(self, name):
        assert_paths_agree(DIFFERENTIAL_GRAPHS[name]())

    @settings(max_examples=60, deadline=None)
    @given(bipartite_graphs(max_upper=12, max_lower=12))
    def test_drawn_graphs(self, graph):
        assert_paths_agree(graph)

    @settings(max_examples=60, deadline=None)
    @given(sparse_bipartite_graphs())
    def test_drawn_sparse_graphs(self, graph):
        # Many small components and long trees: deep hook chains.
        assert_paths_agree(graph)

    def test_list_graph_runs_the_row_loops(self, monkeypatch):
        def refuse():
            raise AssertionError("a list graph asked for numpy")

        monkeypatch.setattr(frontier, "_numpy", refuse)
        graph = two_parts_with_isolates()
        decomposition = ComponentDecomposition(graph)
        plan = plan_shards(decomposition.sizes, 2)
        assert [decomposition.subgraph_view(group).graph.backend
                for group in plan] == ["list", "list"]
        decomposition.group_of_vertex(plan)


class TestMetamorphicPermutation:
    """Component relabeling/permutation invariance of sharded campaigns.

    ``disjoint_union(parts)`` assigns global ids (and so component labels)
    by position, so permuting ``parts`` *is* a component relabeling.  For
    every permutation the sharded run must stay byte-identical to the
    serial engine on that same graph — the shard merge may never introduce
    an ordering of its own.  The achieved objective (followers rescued,
    iterations used) is also permutation-invariant; individual anchor
    *placements* are not asserted across permutations, because equal-gain
    ties are broken by global vertex id, which a relabeling changes by
    design.
    """

    PARTS = {
        "a": lambda: planted_core_graph(alpha=3, beta=3, core_upper=6,
                                        core_lower=6, n_chains=6,
                                        max_chain_length=4, seed=11),
        "b": lambda: random_bigraph(5, n1_range=(8, 10), n2_range=(8, 10),
                                    density=0.3),
        "c": lambda: planted_core_graph(alpha=3, beta=3, core_upper=5,
                                        core_lower=7, n_chains=5,
                                        max_chain_length=3, seed=23),
    }

    @staticmethod
    def canonical(result):
        return json.dumps(canonical_result_dict(result), sort_keys=True)

    def test_permuted_assembly_is_serial_identical_and_gain_stable(self):
        objectives = set()
        for ordering in itertools.permutations(sorted(self.PARTS)):
            graph = disjoint_union(
                [self.PARTS[key]() for key in ordering]).to_csr()
            serial = reinforce(graph, 3, 3, 3, 3, method="filver++", t=2)
            sharded = reinforce(graph, 3, 3, 3, 3, method="filver++", t=2,
                                shards=len(ordering))
            assert self.canonical(sharded) == self.canonical(serial)
            objectives.add((sharded.n_followers, len(sharded.iterations)))
        assert len(objectives) == 1, (
            "achieved objective varied across relabelings: %r" % objectives)
        (followers, iterations), = objectives
        assert followers > 0 and iterations >= 2
