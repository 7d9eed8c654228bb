"""Tests for connected-component labeling and subgraph views.

Three layers: unit tests of :func:`component_labels` /
:func:`component_sizes` (singleton vertices, one giant component,
backend-independence of the canonical numbering), the
:class:`SubgraphView` id maps (global↔local round-trips, monotone
renumbering, whole-component closure), and the metamorphic guarantee the
sharded substrate is built on — permuting the component assembly order
never changes what a sharded campaign computes relative to the serial
engine on the same graph, and maps to the same anchor *labels* across
permutations.
"""

import itertools
import json

import pytest

from repro.bigraph import disjoint_union, from_edge_list
from repro.bigraph.components import (
    ComponentDecomposition,
    component_labels,
    component_sizes,
    decompose,
)
from repro.core.api import reinforce
from repro.exceptions import InvalidParameterError
from repro.experiments.export import canonical_result_dict
from repro.generators.planted import planted_core_graph

from conftest import random_bigraph


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
