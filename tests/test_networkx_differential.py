"""Differential tests against networkx (an independent implementation).

networkx knows nothing about this library's data structures, so agreement
between the library's plain and anchored (α,β)-cores and a peel written
independently over networkx graphs is strong evidence against shared bugs.
"""

import networkx as nx
from hypothesis import given, settings

from repro.abcore import abcore, anchored_abcore

from conftest import bipartite_graphs, random_bigraph


def to_networkx(graph):
    g = nx.Graph()
    g.add_nodes_from(graph.vertices())
    g.add_edges_from(graph.edges())
    return g


def networkx_abcore(graph, alpha, beta):
    """(α,β)-core computed purely with networkx operations."""
    g = to_networkx(graph)
    changed = True
    while changed:
        changed = False
        victims = [v for v in g.nodes
                   if g.degree(v) < (alpha if graph.is_upper(v) else beta)]
        if victims:
            g.remove_nodes_from(victims)
            changed = True
    return set(g.nodes)


@settings(max_examples=30, deadline=None)
@given(bipartite_graphs(min_edges=3))
def test_abcore_matches_networkx_peel(g):
    for alpha, beta in ((1, 1), (2, 2), (3, 2), (2, 4)):
        assert abcore(g, alpha, beta) == networkx_abcore(g, alpha, beta), \
            (alpha, beta)


def test_anchored_core_against_networkx_with_supernode():
    """Anchoring ≡ giving the vertex infinite degree: model it in networkx
    by attaching the anchor to a huge clique of satisfied helpers... more
    simply, by removing the anchor's constraint via repeated manual peel."""
    for seed in range(5):
        g = random_bigraph(seed)
        anchor = g.n_vertices // 2
        # networkx-side manual anchored peel
        nxg = to_networkx(g)
        changed = True
        while changed:
            changed = False
            victims = [v for v in nxg.nodes
                       if v != anchor
                       and nxg.degree(v) < (2 if g.is_upper(v) else 2)]
            if victims:
                nxg.remove_nodes_from(victims)
                changed = True
        assert anchored_abcore(g, 2, 2, [anchor]) == set(nxg.nodes)

