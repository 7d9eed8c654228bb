"""The CSR frontier passes against the per-row loops they replace.

Order repair's affected-graph walk, the two-hop verdicts and the filter's
``|rf(x)|`` counts run as :class:`repro.bigraph.frontier.Frontier`
passes on CSR graphs when numpy is importable, and as per-row loops
otherwise.  The walks themselves
are checked in ``test_core_sweep.py`` and ``test_incremental.py``; here a
whole campaign must not notice which path ran.
"""

import json
from array import array

import pytest

from repro.bigraph import frontier, from_biadjacency, from_edge_list
from repro.core import reinforce
from repro.experiments.export import canonical_result_dict
from repro.generators.planted import planted_core_graph

pytestmark = pytest.mark.skipif(frontier._np is None,
                                reason="numpy not installed")


def canon(result):
    return json.dumps(canonical_result_dict(result), sort_keys=True)


def campaign(graph):
    return canon(reinforce(graph, 3, 3, 3, 3, method="filver++", t=2))


def count_passes(monkeypatch):
    calls = {"component": 0, "sweep": 0, "renumber": 0, "undominated": 0,
             "order_paths": 0}
    for name in calls:
        real = getattr(frontier.Frontier, name)

        def spy(self, *args, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(frontier.Frontier, name, spy)
    return calls


def test_row_path_campaign_equals_frontier_path(monkeypatch):
    """FILVER++ on a CSR graph exports the same canonical JSON with the
    numpy path turned off and on the list graph, and only the numpy path on
    CSR makes frontier passes: order repair's walks, sweeps and
    renumberings among them."""
    g = planted_core_graph(alpha=3, beta=3, core_upper=8, core_lower=8,
                           n_chains=12, max_chain_length=8,
                           seed=31).to_csr()
    calls = count_passes(monkeypatch)
    fast = campaign(g)
    assert all(calls.values()), calls
    before = dict(calls)
    assert campaign(g.to_list()) == fast
    assert calls == before
    monkeypatch.setattr(frontier, "_np", None)
    assert frontier.frontier_for(g) is None
    assert campaign(g) == fast
    assert calls == before


def test_frontier_only_for_csr_graphs():
    g = from_edge_list([(0, 0), (1, 0)], n_upper=3, n_lower=2)
    assert frontier.frontier_for(g) is None
    walk = frontier.frontier_for(g.to_csr())
    assert walk is not None and walk.n == g.n_vertices


def test_undominated_on_a_hand_built_graph():
    """Uppers 0-4 over lowers 5-7 with hand-set positions: sig(0) = {5, 6},
    sig(1) = {5, 6, 7}, sig(2) = sig(3) = {7} at position 0, and sig(4)
    is empty.  Only 1 survives all five; among 2 and 3 alone the tie goes
    to the larger id; with 1 gone, 0 survives."""
    g = from_biadjacency([
        [1, 1, 0],
        [1, 1, 1],
        [0, 0, 1],
        [0, 0, 1],
        [1, 0, 0],
    ]).to_csr()
    position = array("q", [1, 2, 0, 0, 9, 5, 6, 4])
    walk = frontier.frontier_for(g)
    everyone = [0, 1, 2, 3, 4]
    assert walk.undominated(everyone, position, everyone) == [
        False, True, False, False, False]
    assert walk.undominated([3, 2], position, [2, 3]) == [True, False]
    assert walk.undominated([0, 4], position, [0, 2, 3, 4]) == [True, False]
    assert walk.undominated([], position, everyone) == []
