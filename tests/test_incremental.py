"""Cross-iteration verification memoization: differential and unit tests.

The acceptance bar for ``repro.core.incremental`` and the flat CSR kernel
is *byte-identity*: a memoized campaign must equal the memo-off engine in
anchors, follower sets, and per-iteration diagnostics (``verifications``
counts cache hits exactly as the serial scan counts recomputations), under
canonical JSON (:func:`repro.experiments.export.canonical_result_dict`).

Layers of evidence, cheapest first:

* unit contracts — the dirty regions :meth:`OrderState.apply_anchors`
  reports, the kernel's set-identity with the generic follower code, the
  ``|rf(x)|`` sweeps against ``len(reachable_from(...))``, and the eviction
  walk against the set rule it replaces;
* a stale-entry differential that replays a random anchoring campaign and
  cross-checks every cache read against a fresh recomputation;
* engine-level byte-identity across all three FILVER variants, both
  adjacency backends, ``workers`` in {1, 4}, and resume-from-checkpoint;
* a metamorphic check: invalidating with a region covering the whole graph
  leaves the cache indistinguishable from a cold one.
"""

from array import array
import functools
import json
import os
import random

import pytest

from repro.bigraph import disjoint_union, frontier, from_edge_list
from repro.bigraph import kernel as kernel_module
from repro.bigraph.kernel import FollowerKernel, kernel_for
from repro.core import engine_options, reinforce
from repro.core.deletion_order import (DeletionOrder, reachable_counts,
                                       reachable_from)
from repro.core.engine import run_engine
from repro.core.followers import compute_followers
from repro.core.incremental import VerificationCache
from repro.core.order_maintenance import OrderState
from repro.core import signatures as signatures_module
from repro.core.signatures import two_hop_filter, two_hop_filter_cached
from repro.exceptions import AbortCampaign, GraphConstructionError
from repro.experiments.export import canonical_result_dict
from repro.generators.planted import planted_core_graph

from conftest import table_dict


def canon(result):
    return json.dumps(canonical_result_dict(result), sort_keys=True)


def er_graph(seed, nu=30, nl=30, p=0.1, backend="list"):
    rng = random.Random(seed)
    edges = [(u, nu + v) for u in range(nu) for v in range(nl)
             if rng.random() < p]
    if not edges:
        edges = [(0, nu)]
    return from_edge_list(edges, backend=backend)


def planted_composite(n_parts=5, seed_base=900):
    """Disjoint planted-core components: repairs stay local to one
    component, so invalidation regions are genuinely partial and the cache
    survives across iterations (a single planted graph invalidates
    everything — its core numbering is global)."""
    parts = [planted_core_graph(alpha=3, beta=3, core_upper=8, core_lower=8,
                                n_chains=10, max_chain_length=8,
                                seed=seed_base + i)
             for i in range(n_parts)]
    return disjoint_union(parts)


RUNNERS = {
    "filver": functools.partial(reinforce, method="filver"),
    "filver+": functools.partial(reinforce, method="filver+"),
    "filver++": functools.partial(reinforce, method="filver++", t=3),
}


# ----------------------------------------------------------------------
# Unit layer: dirty regions
# ----------------------------------------------------------------------

class TestDirtyRegions:
    def test_unmaintained_state_reports_none(self):
        g = planted_composite(2)
        state = OrderState(g, 3, 3, maintain=False)
        x = min(table_dict(state.upper.position))
        assert state.apply_anchors([x]) is None

    def test_no_fresh_anchors_reports_empty_sides(self):
        g = planted_composite(2)
        state = OrderState(g, 3, 3, maintain=True)
        x = min(table_dict(state.upper.position))
        state.apply_anchors([x])
        assert state.apply_anchors([x]) == {"upper": set(), "lower": set()}

    def test_everything_outside_the_region_is_untouched(self):
        """The soundness half of the contract the cache builds on: a
        position entry (or core membership) that changed MUST be inside
        the reported region — equivalently, outside it both orders and
        the core are bit-identical before and after the apply."""
        g = planted_composite(4).to_csr()
        state = OrderState(g, 3, 3, maintain=True)
        rng = random.Random(11)
        for _step in range(6):
            pool = sorted(set(table_dict(state.upper.position))
                          | set(table_dict(state.lower.position)))
            pool = [v for v in pool if v not in state.anchors]
            if not pool:
                break
            before = {
                "upper": table_dict(state.upper.position),
                "lower": table_dict(state.lower.position),
            }
            core_before = set(state.core)
            dirty = state.apply_anchors(rng.sample(pool, min(2, len(pool))))
            assert dirty is not None
            core_after = state.core
            for side, order in (("upper", state.upper),
                                ("lower", state.lower)):
                old = before[side]
                new = table_dict(order.position)
                touched = dirty[side]
                for v in set(old) | set(new):
                    if v in touched:
                        continue
                    assert old.get(v) == new.get(v), (side, v)
            for v in core_before ^ core_after:
                assert v in dirty["upper"] or v in dirty["lower"], v

    def test_some_apply_leaves_a_clean_remainder(self):
        """The usefulness half: on a multi-component graph at least one
        apply must leave part of the shell untouched, otherwise the cache
        never carries anything and the differential tests are vacuous."""
        g = planted_composite(4).to_csr()
        state = OrderState(g, 3, 3, maintain=True)
        rng = random.Random(13)
        saw_partial = False
        for _step in range(6):
            pool = sorted(set(table_dict(state.upper.position))
                          | set(table_dict(state.lower.position)))
            pool = [v for v in pool if v not in state.anchors]
            if not pool:
                break
            shell = len(pool)
            dirty = state.apply_anchors([rng.choice(pool)])
            if dirty is not None and sum(map(len, dirty.values())) < shell:
                saw_partial = True
        assert saw_partial


# ----------------------------------------------------------------------
# Unit layer: flat CSR kernel vs the generic follower code
# ----------------------------------------------------------------------

class TestFollowerKernel:
    def test_requires_csr_backend(self):
        g = er_graph(0, backend="list")
        assert kernel_for(g) is None
        with pytest.raises(GraphConstructionError):
            FollowerKernel(g)

    def test_kernel_for_builds_on_csr(self):
        assert isinstance(kernel_for(er_graph(0, backend="csr")),
                          FollowerKernel)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_set_identity_across_iterations(self, seed):
        """|rf(x)| and F(x) match the dict/set reference for every shell
        candidate, across several epochs of the same kernel instance (the
        stamp-based buffer reuse must not leak state between calls or
        iterations)."""
        g = planted_composite(3, seed_base=700 + 10 * seed).to_csr()
        state = OrderState(g, 3, 3, maintain=True)
        kernel = FollowerKernel(g)
        rng = random.Random(seed)
        for _step in range(4):
            kernel.begin_iteration(state.upper.position,
                                   state.lower.position, state.core)
            for order in (state.upper, state.lower):
                side = order.side
                for x in sorted(order.candidates(g)):
                    rf_ref = reachable_from(g, order, x)
                    assert kernel.reachable(side, [x]) == {
                        x: len(rf_ref)}, (side, x)
                    f_ref = compute_followers(g, order, x, core=state.core)
                    assert kernel.followers(side, x, 3, 3) == f_ref, (side, x)
            pool = sorted(set(table_dict(state.upper.position))
                          | set(table_dict(state.lower.position)))
            pool = [v for v in pool if v not in state.anchors]
            if not pool:
                break
            state.apply_anchors([rng.choice(pool)])

    @pytest.mark.parametrize("backend", ["list", "csr", "csr-rows"])
    @pytest.mark.parametrize("family", ["planted", "er"])
    def test_batched_reachable_matches_dfs(self, family, backend,
                                           monkeypatch):
        """One sweep over a batch of sources returns exactly the per-source
        DFS ``|rf(x)|`` on every path — list rows, CSR frontier passes,
        and CSR rows with numpy hidden (``csr-rows``) — for every batch
        shape, across maintained applies (fresh positions on every
        renumbered region).  The batch of every vertex holding an entry
        puts sources inside other sources' ``rf`` sets, and ER orders give
        vertices several order successors whose sets overlap: both shapes
        must occur."""
        if family == "planted":
            g, alpha, beta = planted_composite(3, seed_base=760), 3, 3
        else:
            g, alpha, beta = er_graph(5, nu=40, nl=40, p=0.08), 3, 3
        if backend == "csr-rows":
            monkeypatch.setattr(frontier, "_np", None)
        if backend != "list":
            g = g.to_csr()
            assert (frontier.frontier_for(g) is None) == (
                frontier._np is None)
        state = OrderState(g, alpha, beta, maintain=True)
        kernel = kernel_for(g)
        rng = random.Random(11)
        checked = nested = shared = 0
        for _step in range(4):
            if kernel is not None:
                kernel.begin_iteration(state.upper.position,
                                       state.lower.position, state.core)
            for order in (state.upper, state.lower):
                side = order.side
                candidates = sorted(order.candidates(g))
                if not candidates:
                    continue
                checked += len(candidates)
                position = table_dict(order.position)
                zeros = sorted(v for v, p in position.items() if p == 0)
                entries = sorted(position)
                reached = set().union(
                    *(reachable_from(g, order, x) for x in entries))
                nested += len(reached)
                shared += sum(1 for x in entries if sum(
                    1 for w in g.neighbors(x)
                    if position.get(w, -1) > position[x]) > 1)
                batches = [candidates,
                           rng.sample(candidates, len(candidates) // 2),
                           [rng.choice(candidates)], zeros, entries, []]
                for sources in batches:
                    ref = {x: len(reachable_from(g, order, x))
                           for x in sources}
                    assert reachable_counts(g, order, sources) == ref, side
                    if kernel is not None:
                        assert kernel.reachable(side, sources) == ref, side
                outside = next(v for v in g.vertices()
                               if v not in position)
                with pytest.raises(KeyError):
                    reachable_counts(g, order, [candidates[0], outside])
                if kernel is not None:
                    with pytest.raises(KeyError):
                        kernel.reachable(side, [candidates[0], outside])
            pool = sorted(set(table_dict(state.upper.position))
                          | set(table_dict(state.lower.position)))
            pool = [v for v in pool if v not in state.anchors]
            if not pool:
                break
            state.apply_anchors([rng.choice(pool)])
        assert checked > 0 and nested > 0
        if family == "er":
            assert shared > 0

    # Uppers a0 a2 b0 c f x = 0..5, lowers a1 a3 b1 d1 d2 z z2 = 6..12.
    # Order DAG: z → a0 → a1 → a2 → a3 (a run ending at a sink) and
    # z2 → b0 → b1 → c, c → d1 → f, c → d2 → f (a run ending at the
    # branching c, whose successors' sets overlap in f).  z and z2 hold
    # position 0; x holds no entry, though it is a neighbor of a1.
    PATHS_EDGES = [(0, 0), (1, 0), (1, 1), (2, 2), (3, 2), (3, 3), (3, 4),
                   (4, 3), (4, 4), (0, 5), (2, 6), (5, 0)]
    PATHS_POSITIONS = {0: 1, 6: 2, 1: 3, 7: 4, 2: 5, 8: 6, 3: 7, 9: 8,
                       10: 9, 4: 10, 11: 0, 12: 0}
    PATHS_RF = {0: 3, 6: 2, 1: 1, 7: 0, 2: 5, 8: 4, 3: 3, 9: 1, 10: 1,
                4: 0, 11: 4, 12: 6}

    @pytest.mark.parametrize("numpy", ["on", "hidden"])
    def test_reachable_on_hand_built_paths(self, numpy, monkeypatch):
        """Counts for runs ending at a sink and at a branching vertex,
        sources inside other sources' ``rf`` sets, duplicate and
        position-0 sources, and the empty batch; a source without an
        entry raises ``KeyError``.  Every path agrees with the hand count
        and with ``len(reachable_from(...))``."""
        if numpy == "hidden":
            monkeypatch.setattr(frontier, "_np", None)
        g = from_edge_list(self.PATHS_EDGES, n_upper=6, n_lower=7)
        upper, _lower = flat_orders(g, self.PATHS_POSITIONS)
        assert self.PATHS_RF == {x: len(reachable_from(g, upper, x))
                                 for x in self.PATHS_POSITIONS}
        csr = g.to_csr()
        kernel = FollowerKernel(csr)
        kernel.begin_iteration(upper.position, upper.position, set())
        entries = sorted(self.PATHS_POSITIONS)
        batches = [[0, 6, 0], [2, 3, 8], [11, 12], [7, 4], [3], [12, 2, 12],
                   entries, entries[::-1], []]
        for sources in batches:
            ref = {x: self.PATHS_RF[x] for x in sources}
            assert reachable_counts(g, upper, sources) == ref, sources
            assert kernel.reachable("upper", sources) == ref, sources
        for sources in ([0, 5], [5]):
            with pytest.raises(KeyError):
                reachable_counts(g, upper, sources)
            with pytest.raises(KeyError):
                kernel.reachable("upper", sources)

    @pytest.mark.skipif(frontier._np is None, reason="numpy not installed")
    def test_order_paths_cut_runs_at_branching_ends(self):
        """``order_paths`` hands back each source's run length and its
        branching end (``-1`` for a sink), and leaves its scratch as it
        found it."""
        g = from_edge_list(self.PATHS_EDGES, n_upper=6, n_lower=7).to_csr()
        upper, _lower = flat_orders(g, self.PATHS_POSITIONS)
        walk = frontier.frontier_for(g)
        slot = walk.scratch()
        lengths, ends, successors = walk.order_paths([12, 0, 2, 3, 4, 0],
                                                     upper.position, slot)
        assert lengths == [3, 3, 2, 0, 0, 3]
        assert ends == [3, -1, 3, 3, -1, -1]
        assert sorted(successors(3)) == [9, 10]
        assert successors(4) == []
        assert (slot < 0).all()
        lengths, ends, successors = walk.order_paths([11, 7], upper.position,
                                                     slot)
        assert (lengths, ends, successors) == ([4, 0], [-1, -1], None)
        assert (slot < 0).all()

    @pytest.mark.parametrize("memoize", [True, False])
    def test_one_reachable_call_per_side_per_pass_with_misses(
            self, memoize, monkeypatch):
        """Through a whole FILVER++ campaign on ER graphs, whose order
        DAGs branch, the engine calls ``FollowerKernel.reachable`` once
        per side per filter pass with ``rf`` misses, on exactly those
        misses: the branching ends are counted inside the call, never by
        calling it again (perfbench's ``filter.reachable_calls`` counts
        these calls)."""
        misses, calls, branched = [], [], []
        real_bounds = VerificationCache.rf_bounds
        real_reachable = FollowerKernel.reachable
        real_walk = kernel_module.walk_counts

        def spy_bounds(self, side, xs):
            xs = list(xs)
            bounds = real_bounds(self, side, xs)
            missed = [x for x, b in zip(xs, bounds) if b is None]
            if missed:
                misses.append((side, missed))
            return bounds

        def spy_reachable(self, side, sources):
            sources = list(sources)
            calls.append((side, sources))
            return real_reachable(self, side, sources)

        def spy_walk(rows, position, sources):
            branched.append(len(calls))
            return real_walk(rows, position, sources)

        monkeypatch.setattr(VerificationCache, "rf_bounds", spy_bounds)
        monkeypatch.setattr(FollowerKernel, "reachable", spy_reachable)
        monkeypatch.setattr(kernel_module, "walk_counts", spy_walk)
        for seed in (3, 4, 5):
            g = er_graph(seed, nu=40, nl=40, p=0.08, backend="csr")
            reinforce(g, 3, 3, 4, 4, method="filver++", t=2,
                      memoize=memoize)
        assert calls
        if memoize:
            assert calls == misses
        else:
            assert not misses
            assert all(sources for _side, sources in calls)
        if frontier._np is not None:
            # The fallback ran inside calls, one walk per call at most.
            assert branched and len(set(branched)) == len(branched)

    def test_release_is_idempotent(self):
        kernel = FollowerKernel(er_graph(0, backend="csr"))
        kernel.release()
        kernel.release()


# ----------------------------------------------------------------------
# Stale-entry differential: every cache read vs a fresh recomputation
# ----------------------------------------------------------------------

def warm_seed(g, state):
    """Epoch-0 tables of the pristine ``state``: the two-hop filter plus
    ``|rf(x)|`` of every survivor, frozen from a scratch cache."""
    scratch = VerificationCache(g)
    for order in (state.upper, state.lower):
        survivors = two_hop_filter_cached(g, order, order.candidates(g),
                                          scratch)
        scratch.store_rf(order.side, {x: len(reachable_from(g, order, x))
                                      for x in survivors})
    return scratch.freeze_seed()


def orders_of(state):
    """The post-apply orders :meth:`VerificationCache.invalidate` walks."""
    return (state.upper, state.lower)


class TestCacheDifferential:
    @pytest.mark.parametrize("seeded", [False, True],
                             ids=["cold", "seeded"])
    def test_campaign_replay_never_serves_stale_entries(self, seeded):
        """Replays a random anchoring campaign; at every step, every
        cached survivor verdict, bound, and follower set must equal a
        from-scratch recomputation.  Also asserts the
        cache actually got hits — a hit rate of zero would make this test
        pass vacuously.  The seeded run starts from the pristine state's
        frozen tables and must both serve and evict seeded entries."""
        g = planted_composite(6, seed_base=500).to_csr()
        state = OrderState(g, 3, 3, maintain=True)
        seed = warm_seed(g, state) if seeded else None
        cache = VerificationCache(g, seed=seed)
        rng = random.Random(7)
        checked = 0
        for step in range(10):
            for order in (state.upper, state.lower):
                side = order.side
                cands = order.candidates(g)
                if not cands:
                    continue
                ref_surv, _ = two_hop_filter(g, order, cands)
                got_surv = two_hop_filter_cached(g, order, cands, cache)
                assert sorted(got_surv) == sorted(ref_surv), (step, side)
                for x in ref_surv:
                    checked += 1
                    bound_ref = len(reachable_from(g, order, x))
                    bound = cache.rf_for(side, x)
                    if bound is None:
                        cache.store_rf(side, {x: bound_ref})
                    else:
                        assert bound == bound_ref, (step, side, x)
                    f_ref = compute_followers(g, order, x, core=state.core)
                    cached = cache.followers_for(side, x)
                    if cached is None:
                        cache.store_followers(side, x, f_ref)
                    else:
                        assert cached == f_ref, (step, side, x)
            pool = sorted(set(table_dict(state.upper.position))
                          | set(table_dict(state.lower.position)))
            pool = [v for v in pool if v not in state.anchors]
            if not pool:
                break
            dirty = state.apply_anchors(rng.sample(pool, min(2, len(pool))))
            cache.invalidate(dirty, orders_of(state))
        assert checked > 100
        assert cache.rf_hits > 0
        assert cache.survivor_hits > 0
        assert cache.follower_hits > 0
        assert cache.evictions > 0  # invalidation actually fired
        if seeded:
            assert cache.seed_hits > 0
            # Some seeded entry was evicted: re-reading every seed key
            # scores fewer seed hits than there are keys.
            seed_keys = [(side, x) for side, table in seed.rf.items()
                         for x in table]
            hits = cache.seed_hits
            for side, x in seed_keys:
                cache.rf_for(side, x)
            assert cache.seed_hits - hits < len(seed_keys)


# ----------------------------------------------------------------------
# Signatures on demand: only verdict misses and their pools read sig(x)
# ----------------------------------------------------------------------

class TestSignaturesOnDemand:
    def test_signatures_are_computed_only_for_verdict_misses(
            self, monkeypatch):
        """On the row path (a list-backed graph), ``two_hop_filter_cached``
        computes ``sig(v)`` only for a candidate whose verdict missed and
        for the members of that candidate's order-obeying two-hop pool
        (Definition 9), each at most once per call: a repeated pass with
        no invalidation computes none, and survivors equal the oracle's as
        a set throughout."""
        g = planted_composite(6, seed_base=500)
        state = OrderState(g, 3, 3, maintain=True)
        cache = VerificationCache(g)
        real = signatures_module.signature
        calls = []

        def counting(graph, order, v):
            calls.append(v)
            return real(graph, order, v)

        monkeypatch.setattr(signatures_module, "signature", counting)

        def two_hop_pool(order, x, cands):
            sig_x = real(g, order, x)
            position = table_dict(order.position)
            return {w for w in cands if w != x and all(
                g.has_edge(w, v) and position[w] < position[v]
                for v in sig_x)}

        def filter_pass():
            """One pass over both sides; returns, per side, the verdict
            misses, the candidates whose signature may be computed, the
            vertices it was computed for, and the candidate count."""
            seen = {}
            for order in (state.upper, state.lower):
                side = order.side
                cands = order.candidates(g)
                if not cands:
                    continue
                misses = {x for x in cands
                          if cache.survivor_verdict(side, x) is None}
                allowed = set(misses)
                for x in misses:
                    allowed |= two_hop_pool(order, x, cands)
                ref, _ = two_hop_filter(g, order, cands)
                del calls[:]
                got = two_hop_filter_cached(g, order, cands, cache)
                assert sorted(got) == sorted(ref), side
                assert len(calls) == len(set(calls)), side
                seen[side] = (misses, allowed, set(calls), len(cands))
            return seen

        cold = filter_pass()
        assert cold
        for misses, allowed, computed, _n in cold.values():
            assert misses <= computed <= allowed
        for misses, _allowed, computed, _n in filter_pass().values():
            assert not misses and not computed

        rng = random.Random(11)
        partial = 0
        for _step in range(3):
            pool = sorted(v for v in table_dict(state.upper.position)
                          if v not in state.anchors)
            cache.invalidate(state.apply_anchors([rng.choice(pool)]),
                             orders_of(state))
            for side, (misses, allowed, computed, n_cands) in \
                    filter_pass().items():
                assert misses <= computed <= allowed, side
                if misses and len(computed) < n_cands:
                    partial += 1
        assert partial > 0  # some pass recomputed only part of a side

    @pytest.mark.skipif(frontier._np is None, reason="numpy not installed")
    def test_array_pass_gathers_only_misses_and_their_two_hop_pools(
            self, monkeypatch):
        """On CSR, the array pass computes signatures only for the verdict
        misses and for candidates in their order-obeying two-hop pools
        (``w`` adjacent to some ``v ∈ sig(x)`` below it, Definition 9);
        every other row it gathers is a miss's signature vertex.  A pass
        with only verdict hits gathers no row at all, and survivors equal
        the oracle's as a set throughout."""
        g = planted_composite(6, seed_base=500).to_csr()
        state = OrderState(g, 3, 3, maintain=True)
        cache = VerificationCache(g)
        gathered, signed = [], []
        real_gather = frontier.Frontier._gather
        real_signatures = frontier.Frontier._signatures

        def spy_gather(self, rows):
            gathered.extend(rows.tolist())
            return real_gather(self, rows)

        def spy_signatures(self, rows, position):
            signed.extend(rows.tolist())
            return real_signatures(self, rows, position)

        monkeypatch.setattr(frontier.Frontier, "_gather", spy_gather)
        monkeypatch.setattr(frontier.Frontier, "_signatures", spy_signatures)

        def filter_pass():
            """One pass over both sides; returns, per side, the verdict
            misses, the candidates whose signature may be computed, the
            vertices it was computed for, every row gathered, and the
            candidate count."""
            seen = {}
            for order in (state.upper, state.lower):
                side = order.side
                cands = order.candidates(g)
                if not cands:
                    continue
                position = table_dict(order.position)
                misses = {x for x in cands
                          if cache.survivor_verdict(side, x) is None}
                allowed = set(misses)
                sig_vertices = set()
                for x in misses:
                    sig_x = signatures_module.signature(g, order, x)
                    sig_vertices |= sig_x
                    allowed |= {w for v in sig_x for w in g.neighbors(v)
                                if w in position and w != x
                                and position[w] < position[v]}
                allowed &= set(cands)
                ref, _ = two_hop_filter(g, order, cands)
                del gathered[:], signed[:]
                got = two_hop_filter_cached(g, order, cands, cache)
                assert sorted(got) == sorted(ref), side
                assert set(gathered) <= allowed | sig_vertices, side
                seen[side] = (misses, allowed, set(signed), set(gathered),
                              len(cands))
            return seen

        cold = filter_pass()
        assert cold
        for misses, allowed, computed, _rows, _n in cold.values():
            assert misses and misses <= computed <= allowed
        for misses, _allowed, computed, rows, _n in filter_pass().values():
            assert not misses and not computed and not rows

        rng = random.Random(11)
        partial = 0
        for _step in range(3):
            pool = sorted(v for v in table_dict(state.upper.position)
                          if v not in state.anchors)
            cache.invalidate(state.apply_anchors([rng.choice(pool)]),
                             orders_of(state))
            for side, (misses, allowed, computed, _rows, n_cands) in \
                    filter_pass().items():
                assert misses <= computed <= allowed, side
                if misses and len(computed) < n_cands:
                    partial += 1
        assert partial > 0  # some pass recomputed only part of a side


# ----------------------------------------------------------------------
# Dilations: D1 and D3 against a brute-force hop count
# ----------------------------------------------------------------------

def hop_ball(graph, seed, hops):
    """Every vertex within ``hops`` hops of ``seed``: whole neighborhoods
    of the whole ball, round after round."""
    ball = set(seed)
    for _ in range(hops):
        ball = ball.union(*(graph.neighbors(v) for v in ball))
    return ball


def dilation_graph(backend):
    """An ER part, a path 0-20-1 whose centre's dilation stops growing
    after one round, and vertices of degree 0 in both layers (uppers 2,
    19; lowers 21, 22, 39)."""
    rng = random.Random(5)
    edges = [(0, 0), (1, 0)]
    edges += [(u, v) for u in range(3, 19) for v in range(3, 19)
              if rng.random() < 0.15]
    return from_edge_list(edges, n_upper=20, n_lower=20, backend=backend)


class TestDilation:
    @pytest.mark.parametrize("backend", ["list", "csr"])
    def test_dilations_match_hop_counts(self, backend):
        g = dilation_graph(backend)
        isolated = [v for v in g.vertices() if g.degree(v) == 0]
        assert {2, 19, 21, 22, 39} <= set(isolated)
        # The path centre's growth stops in round 2, before round 3.
        assert hop_ball(g, {20}, 1) == hop_ball(g, {20}, 3) == {0, 1, 20}
        rng = random.Random(11)
        seeds = [set(), {20}, {0}, {2}, set(isolated), {20, 39},
                 set(g.vertices())]
        seeds += [set(rng.sample(list(g.vertices()), k)) for k in (1, 3, 8)]
        cache = VerificationCache(g)
        for seed in seeds:
            d1, d3 = cache._dilate(seed)
            assert d1 == hop_ball(g, seed, 1), seed
            assert d3 == hop_ball(g, seed, 3), seed
            assert cache._dilate(seed, 1) == (d1, d1), seed

    def test_idle_tables_skip_their_dilation(self, monkeypatch):
        """A side whose rf and verdict tables are both empty is not
        dilated; rf entries alone need only D1, verdicts need D3."""
        g = dilation_graph("csr")
        cache = VerificationCache(g)
        calls = []
        real = cache._dilate

        def spy(seed, hops=3):
            calls.append(hops)
            return real(seed, hops)

        monkeypatch.setattr(cache, "_dilate", spy)
        orders = flat_orders(g, {3: 0, 4: 1})
        cache.invalidate({"upper": {20}, "lower": {20}}, orders)
        assert calls == []
        cache.store_rf("upper", {3: 1})
        cache.store_survivor("lower", 0, True)
        cache.invalidate({"upper": {20}, "lower": {20}}, orders)
        assert calls == [1, 3]
        assert cache.rf_for("upper", 3) == 1
        assert cache.survivor_verdict("lower", 0) is None
        assert cache.evictions == 1


# ----------------------------------------------------------------------
# Eviction boundary: the one-hop dilation of the dirty set
# ----------------------------------------------------------------------

def flat_orders(g, positions):
    """Upper and lower orders over ``g`` that both hold ``positions``."""
    table = array("q", [-1]) * g.n_vertices
    for v, p in positions.items():
        table[v] = p
    return tuple(DeletionOrder(side=side, position=array("q", table),
                               core=set(), relaxed_core=set(), alpha=1,
                               beta=1)
                 for side in ("upper", "lower"))


class TestEvictionBoundary:
    def test_rf_entries_are_evicted_exactly_on_the_dilated_region(self):
        """Upper-side dirt ``{d}`` dilates to ``D1 = {d} ∪ N(d)``.  An
        entry survives iff ``{x} ∪ rf(x)`` misses ``D1``: touching it
        only through ``rf(x)``'s neighbor of ``d``, even two steps away,
        or only through ``x ∈ N(d)``, is enough to evict.  The lower
        side's tables are untouched."""
        # Upper 0..3, lower 4..7; d = 0 with N(d) = {4, 5}.
        g = from_edge_list([(0, 0), (0, 1), (1, 0), (1, 2), (2, 3),
                            (3, 3)])
        d = 0
        assert set(g.adjacency[d]) == {4, 5}
        orders = flat_orders(g, {0: 1, 5: 2, 6: 3, 1: 4, 4: 5, 2: 6, 7: 7,
                                 3: 8})
        upper = orders[0]
        entries = {
            2: 2,    # rf(2) = {7, 3}, disjoint from D1: survives
            1: 1,    # rf(1) = {4}, a vertex of N(d): evicted
            6: 2,    # rf(6) = {1, 4}: reaches N(d) through 1, evicted
            5: 0,    # x ∈ N(d), empty rf(x): evicted
        }
        assert {x: reachable_from(g, upper, x) for x in entries} == {
            2: {7, 3}, 1: {4}, 6: {1, 4}, 5: set()}
        cache = VerificationCache(g)
        for side in ("upper", "lower"):
            cache.store_rf(side, entries)
            for x in entries:
                cache.store_followers(side, x, {x})
                cache.store_survivor(side, x, True)
        lower = {x: (cache.rf_for("lower", x),
                     cache.followers_for("lower", x),
                     cache.survivor_verdict("lower", x))
                 for x in entries}

        cache.invalidate({"upper": {d}, "lower": set()}, orders)

        assert cache.rf_for("upper", 2) == entries[2]
        assert cache.followers_for("upper", 2) == {2}
        for x in (1, 6, 5):
            assert cache.rf_for("upper", x) is None, x
            assert cache.followers_for("upper", x) is None, x
        assert cache.evictions >= 3
        for x, (bound, followers, verdict) in lower.items():
            assert cache.rf_for("lower", x) == bound == entries[x]
            assert cache.followers_for("lower", x) is followers
            assert cache.survivor_verdict("lower", x) is verdict is True

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("backend", ["list", "csr"])
    @pytest.mark.parametrize("family", ["planted", "er"])
    def test_walk_evicts_exactly_what_the_set_rule_evicts(
            self, family, backend, batch):
        """Eviction oracle: after each invalidation, the bounds the walk
        drops are exactly the keys ``x`` with ``({x} ∪ rf(x)) ∩ D1 ≠ ∅``,
        with ``rf(x)`` taken by ``reachable_from`` before it and ``D1`` by
        brute-force hop count.  Each step invalidates twice: with an
        apply's dirty regions, and with random shell vertices over the
        unchanged orders (a dirty set may be any superset of what
        changed).  The applies' regions hold every key whose ``rf``
        meets their ``D1``, so only the random sets make the walk find
        keys outside ``D1``; all three outcomes must occur.  The ER graph
        is three components, because an apply dirties most of its own."""
        if family == "planted":
            g = planted_composite(4, seed_base=820)
        else:
            g = disjoint_union([er_graph(seed, nu=20, nl=20, p=0.15)
                                for seed in (9, 10, 11)])
        if backend == "csr":
            g = g.to_csr()
        state = OrderState(g, 3, 3, maintain=True)
        cache = VerificationCache(g)
        rng = random.Random(23 + batch)
        outcomes = {"in D1": 0, "through rf": 0, "kept": 0}

        def fill():
            """Store every candidate's bound; return the rf sets."""
            before = {}
            for order in orders_of(state):
                side = order.side
                keys = order.candidates(g)
                missing = [x for x, bound in
                           zip(keys, cache.rf_bounds(side, keys))
                           if bound is None]
                cache.store_rf(side, reachable_counts(g, order, missing))
                before[side] = {x: reachable_from(g, order, x)
                                for x in keys}
            return before

        def invalidate_and_check(before, dirty):
            cache.invalidate(dirty, orders_of(state))
            for side, rf in before.items():
                d1 = hop_ball(g, dirty[side], 1)
                expected = {x for x, members in rf.items()
                            if x in d1 or not members.isdisjoint(d1)}
                evicted = {x for x in rf if cache.rf_for(side, x) is None}
                assert evicted == expected, (side, sorted(evicted ^ expected))
                outcomes["in D1"] += len(evicted & d1)
                outcomes["through rf"] += len(evicted - d1)
                outcomes["kept"] += len(rf) - len(evicted)

        for _step in range(6):
            pool = sorted(v for v in set(table_dict(state.upper.position))
                          | set(table_dict(state.lower.position))
                          if v not in state.anchors)
            if not pool:
                break
            before = fill()
            shell = {order.side: sorted(order.relaxed_core - order.core)
                     for order in orders_of(state)}
            invalidate_and_check(before, {
                side: set(rng.sample(members, min(batch, len(members))))
                for side, members in shell.items()})
            before = fill()
            invalidate_and_check(before, state.apply_anchors(
                rng.sample(pool, min(batch, len(pool)))))
        assert all(outcomes.values()), outcomes


# ----------------------------------------------------------------------
# Metamorphic: whole-graph invalidation == cold cache
# ----------------------------------------------------------------------

class TestMetamorphicInvalidation:
    def test_full_region_invalidation_equals_cold_cache(self):
        """After invalidating with a dirty region covering every vertex,
        the warm cache must behave exactly like a fresh one: same filter
        output, and all reads are misses (nothing survived)."""
        g = planted_composite(3).to_csr()
        state = OrderState(g, 3, 3, maintain=True)
        warm = VerificationCache(g)
        for order in (state.upper, state.lower):
            surv = two_hop_filter_cached(g, order, order.candidates(g),
                                         warm)
            warm.store_rf(order.side, {x: len(reachable_from(g, order, x))
                                       for x in surv})
        assert warm.survivor_misses > 0

        everything = set(range(g.n_upper + g.n_lower))
        warm.invalidate({"upper": everything, "lower": everything},
                        orders_of(state))

        cold = VerificationCache(g)
        for cache in (warm, cold):
            cache.rf_hits = cache.rf_misses = 0
            cache.survivor_hits = cache.survivor_misses = 0
        for order in (state.upper, state.lower):
            cands = order.candidates(g)
            warm_out = two_hop_filter_cached(g, order, cands, warm)
            cold_out = two_hop_filter_cached(g, order, cands, cold)
            assert warm_out == cold_out
            for x in warm_out:
                assert warm.rf_for(order.side, x) is None
        assert warm.rf_hits == cold.rf_hits == 0
        assert (warm.survivor_hits, warm.survivor_misses) == \
            (cold.survivor_hits, cold.survivor_misses)

    def test_none_region_clears_everything(self):
        """``None`` (unmaintained orders: no region information) must be
        treated as 'anything may have changed'."""
        g = planted_composite(2).to_csr()
        state = OrderState(g, 3, 3, maintain=True)
        cache = VerificationCache(g)
        order = state.upper
        surv = two_hop_filter_cached(g, order, order.candidates(g), cache)
        cache.store_rf(order.side, reachable_counts(g, order, surv))
        cache.invalidate(None, orders_of(state))
        assert cache.full_invalidations == 1
        for x in surv:
            assert cache.rf_for(order.side, x) is None
            assert cache.survivor_verdict(order.side, x) is None


# ----------------------------------------------------------------------
# Engine layer: byte-identity of memoized / kernelized campaigns
# ----------------------------------------------------------------------

class TestEngineByteIdentity:
    @pytest.mark.parametrize("variant", sorted(RUNNERS))
    @pytest.mark.parametrize("backend", ["list", "csr"])
    def test_memo_and_kernel_match_baseline_on_er_graphs(
            self, variant, backend):
        run = RUNNERS[variant]
        for seed in range(4):
            g = er_graph(seed, backend=backend)
            base = canon(run(g, 2, 2, 3, 3, memoize=False,
                             flat_kernel=False))
            for memoize in (False, True):
                for flat_kernel in (False, None):
                    got = canon(run(g, 2, 2, 3, 3, memoize=memoize,
                                    flat_kernel=flat_kernel))
                    assert got == base, (variant, backend, seed,
                                         memoize, flat_kernel)

    @pytest.mark.parametrize("backend", ["list", "csr"])
    def test_memo_and_kernel_match_baseline_on_planted_campaign(
            self, backend):
        g = planted_composite()
        if backend == "csr":
            g = g.to_csr()
        base = canon(reinforce(g, 3, 3, 8, 8, method="filver++", t=3,
                               memoize=False, flat_kernel=False))
        for memoize in (False, True):
            for flat_kernel in (False, None):
                got = canon(reinforce(
                    g, 3, 3, 8, 8, method="filver++", t=3, memoize=memoize,
                    flat_kernel=flat_kernel))
                assert got == base, (backend, memoize, flat_kernel)

    def test_explicit_flat_kernel_on_list_backend_raises(self):
        g = er_graph(0, backend="list")
        with pytest.raises(GraphConstructionError):
            reinforce(g, 2, 2, 2, 2, method="filver++", t=2, flat_kernel=True)


class TestParallelAndResume:
    def test_workers_and_resume_match_serial_memo_off(self, tmp_path):
        """One end-to-end matrix on the planted campaign: workers=4 with
        memoization on and off, and resume-from-checkpoint (written by an
        aborted memoized run) serial and parallel — all byte-identical to
        the serial memo-off baseline.  Caches are ephemeral: the resumed
        run rebuilds its cache from the replayed state, which must not
        show through in the output."""
        g = planted_composite().to_csr()
        base = canon(reinforce(g, 3, 3, 8, 8, method="filver++", t=3,
                               memoize=False, flat_kernel=False))
        assert canon(reinforce(
            g, 3, 3, 8, 8, method="filver++", t=3, workers=4)) == base
        assert canon(reinforce(
            g, 3, 3, 8, 8, method="filver++", t=3, workers=4,
            memoize=False, flat_kernel=False)) == base

        cp = os.path.join(str(tmp_path), "cp.json")
        seen = []

        def abort_after_two(record):
            seen.append(record)
            if len(seen) == 2:
                raise AbortCampaign("mid-campaign stop")

        partial = run_engine(g, 3, 3, 8, 8, engine_options("filver++", 3),
                             algorithm="filver++(t=3)", checkpoint=cp,
                             on_iteration=abort_after_two)
        assert partial.interrupted and len(partial.iterations) == 2

        for kwargs in ({}, {"memoize": False, "flat_kernel": False},
                       {"workers": 4}):
            got = canon(reinforce(g, 3, 3, 8, 8, method="filver++", t=3,
                                  resume_from=cp, **kwargs))
            assert got == base, kwargs
