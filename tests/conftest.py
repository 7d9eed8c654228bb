"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
import signal
from typing import Dict, List, Tuple

import pytest
from hypothesis import strategies as st

from repro.bigraph import BipartiteGraph, from_biadjacency, from_edge_list

#: Process-global signal state a test must leave as it found it.
_GUARDED_SIGNALS = (signal.SIGTERM, signal.SIGINT)


@pytest.fixture(autouse=True)
def _signal_handlers_unchanged():
    """Fail the test that changes a SIGTERM/SIGINT handler and keeps it.

    A leaked handler outlives its test and breaks whichever later test
    relies on the default behaviour, so the failure would otherwise show
    up far from its cause, and only in some test orders.
    """
    before = {signum: signal.getsignal(signum) for signum in _GUARDED_SIGNALS}
    yield
    leaked = [signal.Signals(signum).name for signum in _GUARDED_SIGNALS
              if signal.getsignal(signum) != before[signum]]
    if leaked:
        # Put them back, so one leak fails one test rather than every
        # later test that relies on the defaults.
        for signum, handler in before.items():
            signal.signal(signum, handler)
        pytest.fail("test left its %s handler(s) installed"
                    % " and ".join(leaked))


@st.composite
def bipartite_graphs(draw, max_upper: int = 10, max_lower: int = 10,
                     min_edges: int = 0) -> BipartiteGraph:
    """Random small bipartite graphs for property tests."""
    n1 = draw(st.integers(1, max_upper))
    n2 = draw(st.integers(1, max_lower))
    possible = [(u, v) for u in range(n1) for v in range(n2)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True,
                          min_size=min(min_edges, len(possible)),
                          max_size=len(possible)))
    return from_edge_list(edges, n_upper=n1, n_lower=n2)


@st.composite
def graphs_with_constraints(draw, max_constraint: int = 4):
    """(graph, alpha, beta) triples with problem-valid constraints."""
    graph = draw(bipartite_graphs(min_edges=3))
    alpha = draw(st.integers(1, max_constraint))
    beta = draw(st.integers(1, max_constraint))
    return graph, alpha, beta


def random_bigraph(seed: int, n1_range=(5, 15), n2_range=(5, 15),
                   density=0.35) -> BipartiteGraph:
    """Deterministic random graph for non-hypothesis randomized tests."""
    rng = random.Random(seed)
    n1 = rng.randint(*n1_range)
    n2 = rng.randint(*n2_range)
    edges = [(u, v) for u in range(n1) for v in range(n2)
             if rng.random() < density]
    return from_edge_list(edges, n_upper=n1, n_lower=n2)


def table_dict(table) -> Dict[int, int]:
    """``{v: value}`` over the slots of an order-state table that hold an
    entry (``value >= 0``): a position table's entries, or every vertex's
    core number."""
    return {v: value for v, value in enumerate(table) if value >= 0}


@pytest.fixture
def k34_with_periphery() -> BipartiteGraph:
    """Fig.-1 style fixture for (α,β) = (4,3): a K_{3,4} core + support chains.

    Layout (uppers 0-7, lowers 8-14; lower ``l_i`` has global id ``8 + i``):

    * uppers 0,1,2 × lowers l0..l3 form the K_{3,4} — exactly the (4,3)-core;
    * chain A:  l4 (head, degree 2) → u3 → l5 → u7 (tail).  Unanchored it
      unravels head-first; anchoring l4 rescues {u3, l5, u7}, anchoring u3
      rescues {l5, u7}, anchoring l5 rescues {u7}, anchoring u7 nothing;
    * chain B:  u4 (head, degree 3) → l6 (tail).  Anchoring u4 rescues {l6};
    * u5 touches only the core (unpromising anchor), u6 is isolated.

    The optimum for (b1, b2) = (1, 1) is {u4, l4} with 4 followers.
    """
    rows = [
        # lowers:  l0 l1 l2 l3 l4 l5 l6
        [1, 1, 1, 1, 1, 1, 1],  # u0 (core)
        [1, 1, 1, 1, 0, 0, 1],  # u1 (core)
        [1, 1, 1, 1, 0, 0, 0],  # u2 (core)
        [1, 1, 0, 0, 1, 1, 0],  # u3 chain-A interior
        [1, 1, 0, 0, 0, 0, 1],  # u4 chain-B head ("Joey")
        [1, 1, 0, 0, 0, 0, 0],  # u5 core-only, unpromising
        [0, 0, 0, 0, 0, 0, 0],  # u6 isolated
        [1, 1, 1, 0, 0, 1, 0],  # u7 chain-A tail
    ]
    return from_biadjacency(rows)


# Global ids of the fixture's named vertices, for readable assertions.
K34 = {
    "core": {0, 1, 2, 8, 9, 10, 11},
    "u3": 3, "u4": 4, "u5": 5, "u6": 6, "u7": 7,
    "l4": 12, "l5": 13, "l6": 14,
}


@pytest.fixture
def small_core_graph() -> BipartiteGraph:
    """A 4x4 graph whose (3,3)-core is the K_{3,4} minus one vertex."""
    return from_biadjacency([
        [1, 1, 1, 1],
        [1, 1, 1, 1],
        [1, 1, 1, 1],
        [0, 1, 1, 0],
    ])
