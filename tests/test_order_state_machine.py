"""Stateful (model-based) testing of the order-maintenance machinery.

Hypothesis drives an :class:`OrderState` through arbitrary interleavings of
single-anchor applications, batch applications and rebuilds, comparing it
after every step against the oracle — fresh orders computed from scratch for
the same anchor set.  This is the strongest guard on Algorithm 4: any
divergence between the incremental and the recomputed world, under any
action sequence, fails the machine.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.bigraph import from_edge_list
from repro.core import OrderState, compute_order

from conftest import table_dict


def _random_graph(seed: int):
    rng = random.Random(seed)
    n1 = rng.randint(5, 12)
    n2 = rng.randint(5, 12)
    edges = [(u, v) for u in range(n1) for v in range(n2)
             if rng.random() < 0.35]
    return from_edge_list(edges, n_upper=n1, n_lower=n2)


class OrderStateMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 10_000),
                alpha=st.integers(1, 3), beta=st.integers(1, 3))
    def setup(self, seed, alpha, beta):
        self.graph = _random_graph(seed)
        self.alpha = alpha
        self.beta = beta
        self.state = OrderState(self.graph, alpha, beta)
        self.placed = set()

    def _fresh_candidates(self):
        return [v for v in self.graph.vertices()
                if v not in self.state.core and v not in self.placed]

    @rule(pick=st.integers(0, 10_000))
    def apply_one_anchor(self, pick):
        candidates = self._fresh_candidates()
        if not candidates:
            return
        anchor = candidates[pick % len(candidates)]
        self.state.apply_anchor(anchor)
        self.placed.add(anchor)

    @rule(picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=3))
    def apply_batch(self, picks):
        candidates = self._fresh_candidates()
        if not candidates:
            return
        batch = sorted({candidates[p % len(candidates)] for p in picks})
        self.state.apply_anchors(batch)
        self.placed.update(batch)

    @rule()
    def rebuild(self):
        # a full rebuild must be a no-op relative to the oracle
        self.state.rebuild()

    @invariant()
    def matches_fresh_computation(self):
        if not hasattr(self, "state"):
            return
        anchors = sorted(self.placed)
        fresh_upper = compute_order(self.graph, self.alpha, self.beta,
                                    "upper", anchors)
        fresh_lower = compute_order(self.graph, self.alpha, self.beta,
                                    "lower", anchors)
        assert self.state.core == fresh_upper.core == fresh_lower.core
        for side, fresh in (("upper", fresh_upper), ("lower", fresh_lower)):
            ours = table_dict(getattr(self.state, side).position)
            theirs = table_dict(fresh.position)
            assert set(ours) == set(theirs)
            assert {v for v, p in ours.items() if p == 0} \
                == {v for v, p in theirs.items() if p == 0}


OrderStateMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=8, deadline=None)
TestOrderStateMachine = OrderStateMachine.TestCase
