"""Tests for follower signatures and the two-hop domination filter."""

import random

import pytest
from hypothesis import given, settings

from repro.abcore import abcore
from repro.abcore.decomposition import followers as global_followers
from repro.bigraph import disjoint_union, frontier, from_biadjacency
from repro.core import (OrderState, compute_orders, signature,
                        two_hop_filter, two_hop_filter_cached)
from repro.core.incremental import VerificationCache
from repro.core.signatures import signatures_of
from repro.generators.planted import planted_core_graph

from conftest import graphs_with_constraints, random_bigraph, table_dict


@settings(max_examples=30, deadline=None)
@given(graphs_with_constraints())
def test_lemma2_signature_containment_implies_follower_containment(data):
    """Lemma 2: sig(x1) ⊆ sig(x2) ⟹ F(x1) ⊆ F(x2), same layer."""
    g, alpha, beta = data
    core = abcore(g, alpha, beta)
    upper, lower = compute_orders(g, alpha, beta)
    for order in (upper, lower):
        candidates = order.candidates(g)
        sigs = signatures_of(g, order, candidates)
        cached = {x: global_followers(g, alpha, beta, [x], base_core=core)
                  for x in candidates}
        for x1 in candidates:
            for x2 in candidates:
                if x1 == x2 or not sigs[x1] <= sigs[x2]:
                    continue
                assert cached[x1] <= cached[x2], (x1, x2)


@settings(max_examples=30, deadline=None)
@given(graphs_with_constraints())
def test_filter_preserves_the_best_follower_count(data):
    """Discarding dominated anchors never loses the optimal single anchor."""
    g, alpha, beta = data
    core = abcore(g, alpha, beta)
    upper, lower = compute_orders(g, alpha, beta)
    for order in (upper, lower):
        candidates = order.candidates(g)
        if not candidates:
            continue
        survivors, sigs = two_hop_filter(g, order, candidates)
        best_all = max((len(global_followers(g, alpha, beta, [x], base_core=core))
                        for x in candidates), default=0)
        best_kept = max((len(global_followers(g, alpha, beta, [x], base_core=core))
                         for x in survivors), default=0)
        assert best_kept == best_all


@settings(max_examples=30, deadline=None)
@given(graphs_with_constraints())
def test_every_discarded_anchor_is_dominated_by_a_candidate(data):
    """Lemma 3: a discarded anchor's followers are covered by some other
    candidate's (transitively, by some survivor)."""
    g, alpha, beta = data
    core = abcore(g, alpha, beta)
    upper, lower = compute_orders(g, alpha, beta)
    for order in (upper, lower):
        candidates = order.candidates(g)
        survivors, sigs = two_hop_filter(g, order, candidates)
        survivor_set = set(survivors)
        for x in candidates:
            if x in survivor_set:
                continue
            fx = global_followers(g, alpha, beta, [x], base_core=core)
            if not fx:
                continue  # empty-signature anchors have no followers
            assert any(
                fx <= global_followers(g, alpha, beta, [y], base_core=core)
                for y in survivors), x


class TestFilterMechanics:
    def test_empty_signatures_never_survive(self, k34_with_periphery):
        g = k34_with_periphery
        upper, _ = compute_orders(g, 4, 3)
        survivors, sigs = two_hop_filter(g, upper, upper.candidates(g))
        for x in survivors:
            assert sigs[x]

    def test_filter_is_deterministic(self):
        g = random_bigraph(3)
        upper, _ = compute_orders(g, 2, 2)
        first = two_hop_filter(g, upper, upper.candidates(g))[0]
        second = two_hop_filter(g, upper, upper.candidates(g))[0]
        assert first == second

    def test_equal_signatures_keep_exactly_one(self):
        # Two uppers with identical single-vertex signatures.
        from repro.bigraph import from_biadjacency

        # core: K_{2,3} with alpha=3, beta=2; one deficient lower rescued by
        # either of two twin uppers.
        g = from_biadjacency([
            [1, 1, 1, 0],
            [1, 1, 1, 0],
            [1, 1, 0, 1],
            [1, 1, 0, 1],
        ])
        upper, lower = compute_orders(g, 3, 2)
        candidates = upper.candidates(g)
        survivors, sigs = two_hop_filter(g, upper, candidates)
        twins = [x for x in candidates if sigs[x]]
        same_sig = {frozenset(sigs[x]) for x in twins}
        if len(same_sig) == 1 and len(twins) > 1:
            assert len(survivors) == 1


# ----------------------------------------------------------------------
# The verdict misses decided in array passes (CSR) and by the row loop
# ----------------------------------------------------------------------

def twins_graph():
    """Four uppers with one signature, and two zero-position lowers beside
    two empty-signature ones, at α = β = 3."""
    return from_biadjacency([
        [1, 1, 1, 0],
        [1, 1, 1, 0],
        [1, 1, 0, 1],
        [1, 1, 0, 1],
    ])


def composite_graph(seed):
    """Disjoint planted-core components: an anchor dirties one component,
    so the cache is only partly invalidated."""
    return disjoint_union([
        planted_core_graph(alpha=3, beta=3, core_upper=6, core_lower=6,
                           n_chains=8, max_chain_length=6,
                           seed=seed * 10 + i)
        for i in range(4)])


def case_graph(kind, seed):
    if kind == "planted":
        return composite_graph(seed), 3, 3
    g = random_bigraph(seed, n1_range=(15, 30), n2_range=(15, 30),
                       density=0.12)

    def n_candidates(constraint):
        upper, lower = compute_orders(g, *constraint)
        return len(upper.candidates(g)) + len(lower.candidates(g))

    # The constraint that leaves the most candidates to filter.
    alpha, beta = max([(3, 3), (3, 2), (2, 3), (2, 2)], key=n_candidates)
    return g, alpha, beta


@pytest.fixture(params=["array", "rows"])
def path(request, monkeypatch):
    """Which path decides the verdict misses; counts the array passes."""
    if frontier._np is None and request.param == "array":
        pytest.skip("numpy not installed")
    calls = []
    real = frontier.Frontier.undominated

    def spy(self, misses, position, candidates):
        calls.append(len(misses))
        return real(self, misses, position, candidates)

    monkeypatch.setattr(frontier.Frontier, "undominated", spy)
    if request.param == "rows":
        monkeypatch.setattr(frontier, "_np", None)
    return request.param, calls


class TestArrayTwoHop:
    @pytest.mark.parametrize("kind,seed",
                             [("planted", s) for s in range(3)]
                             + [("random", s) for s in range(6)])
    def test_survivors_equal_the_oracle(self, kind, seed, path):
        """Both sides, pristine and after 1-3 applies, with a cold, a
        partly invalidated and a warm cache: the survivors are the
        oracle's, in candidate order, on either path."""
        which, calls = path
        g, alpha, beta = case_graph(kind, seed)
        g = g.to_csr()
        rng = random.Random(seed)
        state = OrderState(g, alpha, beta)
        cache = VerificationCache(g)
        seen = {"zero": 0, "empty": 0, "partial": 0, "passes": 0}
        for step in range(4):
            for order in (state.upper, state.lower):
                side = order.side
                cands = order.candidates(g)
                if not cands:
                    continue
                ref = set(two_hop_filter(g, order, cands)[0])
                expected = [x for x in cands if x in ref]
                hits = sum(cache.survivor_verdict(side, x) is not None
                           for x in cands)
                assert two_hop_filter_cached(
                    g, order, cands, VerificationCache(g)) == expected
                assert two_hop_filter_cached(
                    g, order, cands, cache) == expected
                assert two_hop_filter_cached(
                    g, order, cands, cache) == expected
                seen["passes"] += 1
                seen["partial"] += 0 < hits < len(cands)
                position = table_dict(order.position)
                seen["zero"] += sum(position[x] == 0 for x in cands)
                seen["empty"] += sum(not signature(g, order, x)
                                     for x in cands)
            if step == 3:
                break
            pool = sorted(v for v in g.vertices()
                          if v not in state.core and v not in state.anchors)
            if not pool:
                break
            fresh = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
            cache.invalidate(state.apply_anchors(fresh),
                             (state.upper, state.lower))
        assert seen["passes"] and seen["zero"] and seen["empty"]
        if kind == "planted":
            assert seen["partial"]
        assert bool(calls) == (which == "array")

    def test_ties_zero_positions_and_empty_signatures(self, path):
        """Equal signatures keep the largest id (Lemma 3); zero-position
        candidates are judged like any other; empty signatures never
        survive."""
        which, calls = path
        g = twins_graph().to_csr()
        upper, lower = compute_orders(g, 3, 3)
        sigs = signatures_of(g, upper, upper.candidates(g))
        assert len({frozenset(s) for s in sigs.values()}) == 1
        assert two_hop_filter_cached(g, upper, upper.candidates(g),
                                     VerificationCache(g)) == [3]
        position = table_dict(lower.position)
        zero = [x for x in lower.candidates(g) if position[x] == 0]
        empty = [x for x in lower.candidates(g)
                 if not signature(g, lower, x)]
        assert zero and empty
        assert two_hop_filter_cached(g, lower, lower.candidates(g),
                                     VerificationCache(g)) == zero
        assert bool(calls) == (which == "array")
