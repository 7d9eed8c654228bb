"""Pristine-shard verification reuse and the flat kernel: differential
and unit tests.

The acceptance bar for ``repro.core.incremental`` and the flat CSR kernel
is *byte-identity*: a seeded or kernelized campaign must equal the plain
engine in anchors, follower sets, and per-iteration diagnostics, under
canonical JSON (:func:`repro.experiments.export.canonical_result_dict`).

Layers of evidence, cheapest first:

* unit contracts — the dirty regions :meth:`OrderState.apply_anchors`
  reports, the kernel's set-identity with the generic follower code, and
  the ``|rf(x)|`` sweeps against ``len(reachable_from(...))``;
* signatures on demand: only candidates being decided and their pools
  read ``sig(x)``;
* a seeded campaign serves each pristine shard its context's ranked
  lists without filtering, until the shard's first apply, and holds no
  cache after it; a clean shard keeps each side's list;
* engine-level byte-identity across all three FILVER variants, both
  adjacency backends, ``workers`` in {1, 4}, and resume-from-checkpoint;
* a metamorphic check: an invalidated cache is indistinguishable from a
  cold one.
"""

from array import array
import functools
import json
import os
import random

import pytest

from repro.bigraph import disjoint_union, frontier, from_edge_list
from repro.core.batch import SharedCampaignContext
from repro.bigraph import kernel as kernel_module
from repro.bigraph.kernel import FollowerKernel, kernel_for
from repro.core import engine_options, reinforce
from repro.core.deletion_order import (DeletionOrder, reachable_counts,
                                       reachable_from)
from repro.core import engine as engine_module
from repro.core.engine import _filter_stage, run_engine
from repro.core.followers import compute_followers
from repro.core.incremental import VerificationCache
from repro.core.order_maintenance import OrderState
from repro.core import sharded as sharded_module
from repro.core.sharded import CampaignShard, IdentityView
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
    component, so dirty regions are genuinely partial and the default
    shard plan leaves most shards pristine for several iterations."""
    parts = [planted_core_graph(alpha=3, beta=3, core_upper=8, core_lower=8,
                                n_chains=10, max_chain_length=8,
                                seed=seed_base + i)
             for i in range(n_parts)]
    return disjoint_union(parts)


def flat_orders(g, positions):
    """Upper and lower orders over ``g`` that both hold ``positions``."""
    table = array("q", [-1]) * g.n_vertices
    for v, p in positions.items():
        table[v] = p
    return tuple(DeletionOrder(side=side, position=array("q", table),
                               core=set(), relaxed_core=set(), alpha=1,
                               beta=1)
                 for side in ("upper", "lower"))


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
        """The soundness half of the dirty-region contract: a
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
        apply must leave part of the shell untouched, otherwise the
        regions say nothing the whole vertex set would not."""
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

    @pytest.mark.parametrize("seeded", [True, False])
    def test_one_reachable_call_per_side_per_pass_with_misses(
            self, seeded, monkeypatch):
        """Through a whole FILVER++ campaign on ER graphs, whose order
        DAGs branch, the engine calls ``FollowerKernel.reachable`` once
        per side per filter pass with two-hop survivors, on exactly those
        survivors: the branching ends are counted inside the call, never
        by calling it again (perfbench's ``filter.reachable_calls`` counts
        these calls).  A seeded campaign's passes are the context's
        warm-up and those of shards an anchor touched."""
        survivors, calls, branched = [], [], []
        real_filter = engine_module.two_hop_filter_cached
        real_reachable = FollowerKernel.reachable
        real_walk = kernel_module.walk_counts

        def spy_filter(graph, order, candidates):
            kept = real_filter(graph, order, candidates)
            if kept:
                survivors.append((order.side, list(kept)))
            return kept

        def spy_reachable(self, side, sources):
            sources = list(sources)
            calls.append((side, sources))
            return real_reachable(self, side, sources)

        def spy_walk(rows, position, sources):
            branched.append(len(calls))
            return real_walk(rows, position, sources)

        monkeypatch.setattr(engine_module, "two_hop_filter_cached",
                            spy_filter)
        monkeypatch.setattr(FollowerKernel, "reachable", spy_reachable)
        monkeypatch.setattr(kernel_module, "walk_counts", spy_walk)
        for seed in (3, 4, 5):
            g = er_graph(seed, nu=40, nl=40, p=0.08, backend="csr")
            if seeded:
                with SharedCampaignContext(g, 3, 3) as ctx:
                    reinforce(g, 3, 3, 4, 4, method="filver++", t=2,
                              context=ctx)
            else:
                reinforce(g, 3, 3, 4, 4, method="filver++", t=2)
        assert calls and calls == survivors
        if frontier._np is not None:
            # The fallback ran inside calls, one walk per call at most.
            assert branched and len(set(branched)) == len(branched)

    def test_release_is_idempotent(self):
        kernel = FollowerKernel(er_graph(0, backend="csr"))
        kernel.release()
        kernel.release()


# ----------------------------------------------------------------------
# Signatures on demand: only decided candidates and their pools read sig(x)
# ----------------------------------------------------------------------

class TestSignaturesOnDemand:
    def test_signatures_are_computed_only_for_verdict_misses(
            self, monkeypatch):
        """On the row path (a list-backed graph), ``two_hop_filter_cached``
        decides every candidate, so it computes ``sig(v)`` for every
        candidate and for nothing else — each dominator pool (Definition
        9) holds candidates only — and each at most once per call, before
        and after applies; survivors equal the oracle's as a set
        throughout."""
        g = planted_composite(6, seed_base=500)
        state = OrderState(g, 3, 3, maintain=True)
        real = signatures_module.signature
        calls = []

        def counting(graph, order, v):
            calls.append(v)
            return real(graph, order, v)

        monkeypatch.setattr(signatures_module, "signature", counting)
        rng = random.Random(11)
        passes = 0
        for _step in range(4):
            for order in (state.upper, state.lower):
                cands = order.candidates(g)
                if not cands:
                    continue
                ref, _ = two_hop_filter(g, order, cands)
                del calls[:]
                got = two_hop_filter_cached(g, order, cands)
                assert sorted(got) == sorted(ref), order.side
                assert sorted(calls) == sorted(cands), order.side
                passes += 1
            pool = sorted(v for v in table_dict(state.upper.position)
                          if v not in state.anchors)
            state.apply_anchors([rng.choice(pool)])
        assert passes > 2

    @pytest.mark.skipif(frontier._np is None, reason="numpy not installed")
    def test_array_pass_gathers_only_misses_and_their_two_hop_pools(
            self, monkeypatch):
        """On CSR, ``Frontier.undominated`` computes signatures only for
        the candidates it decides (the misses) and for candidates in
        their order-obeying two-hop pools (``w`` adjacent to some
        ``v ∈ sig(x)`` below it, Definition 9); every other row it
        gathers is a miss's signature vertex.  Deciding no candidate
        gathers no row at all, deciding half of them computes part of a
        side, and verdicts equal the oracle's throughout."""
        g = planted_composite(6, seed_base=500).to_csr()
        state = OrderState(g, 3, 3, maintain=True)
        walk = frontier.frontier_for(g)
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

        def decide(order, cands, misses):
            """Decide ``misses``; returns the candidates whose signature
            may be computed and the vertices it was computed for."""
            position = table_dict(order.position)
            allowed = set(misses)
            sig_vertices = set()
            for x in misses:
                sig_x = signatures_module.signature(g, order, x)
                sig_vertices |= sig_x
                allowed |= {w for v in sig_x for w in g.neighbors(v)
                            if w in position and w != x
                            and position[w] < position[v]}
            allowed &= set(cands)
            ref = set(two_hop_filter(g, order, cands)[0])
            del gathered[:], signed[:]
            got = walk.undominated(misses, order.position, cands)
            assert got == [x in ref for x in misses], order.side
            assert set(gathered) <= allowed | sig_vertices, order.side
            return allowed, set(signed)

        rng = random.Random(11)
        partial = 0
        for _step in range(4):
            for order in (state.upper, state.lower):
                cands = order.candidates(g)
                if not cands:
                    continue
                allowed, computed = decide(order, cands, cands)
                assert set(cands) <= computed <= allowed
                assert decide(order, cands, []) == (set(), set())
                assert not gathered
                half = rng.sample(cands, len(cands) // 2)
                allowed, computed = decide(order, cands, half)
                assert set(half) <= computed <= allowed
                partial += 0 < len(computed) < len(cands)
            pool = sorted(v for v in table_dict(state.upper.position)
                          if v not in state.anchors)
            state.apply_anchors([rng.choice(pool)])
        assert partial > 0  # some pass computed only part of a side


# ----------------------------------------------------------------------
# Metamorphic: an invalidated cache == a cold cache
# ----------------------------------------------------------------------

def warm_seed(g):
    """The context's seed for the one-shard plan of ``g``: each side's
    pristine ranked list under FILVER++'s filter pass."""
    with SharedCampaignContext(g, 3, 3) as ctx:
        [seed] = ctx.seed_tables(shards=1)
    return seed


SIDES = ("upper", "lower")


class TestMetamorphicInvalidation:
    def test_full_region_invalidation_equals_cold_cache(self):
        """After :meth:`VerificationCache.invalidate`, a seeded cache
        behaves exactly like a fresh one: every read misses and counts
        nothing, the seed's entries are counted as evicted once, and the
        shared seed is untouched."""
        g = planted_composite(3).to_csr()
        seed = warm_seed(g)
        entries = sum(len(seed[side][0]) for side in SIDES)
        lists = [list(seed[side][0]) for side in SIDES]
        warm = VerificationCache(seed)
        assert [warm.ranked(side)[0] for side in SIDES] == lists
        assert warm.seed_hits == entries > 0

        warm.invalidate()
        assert warm.evictions == entries
        assert [seed[side][0] for side in SIDES] == lists

        cold = VerificationCache()
        warm.seed_hits = 0
        for cache in (warm, cold):
            assert [cache.ranked(side) for side in SIDES] == [None, None]
            assert cache.seed_hits == 0
        warm.invalidate()
        assert warm.evictions == entries  # nothing left to drop

    def test_none_region_clears_everything(self):
        """An apply that reports ``None`` (unmaintained orders: no region
        information, plain FILVER) ends a shard's seed like any other
        apply: every entry is dropped, the shard holds no cache, and the
        next list is refiltered from the applied state."""
        g = planted_composite(2).to_csr()
        seed = warm_seed(g)
        options = engine_options("filver++", 3)
        state = OrderState(g, 3, 3, maintain=False)
        cache = VerificationCache(seed)
        shard = CampaignShard(0, IdentityView(g), state, cache, None)
        assert shard.ranked("upper", options) is seed["upper"]
        x = min(table_dict(state.upper.position))
        shard.apply([x])
        assert shard.cache is None
        assert cache.evictions == sum(len(seed[side][0]) for side in SIDES)
        assert cache.ranked("upper") is None
        got = shard.ranked("upper", options)
        assert got is not seed["upper"]
        assert got == _filter_stage(shard, "upper", options)


# ----------------------------------------------------------------------
# A seeded campaign serves each shard's seed until the shard's first apply
# ----------------------------------------------------------------------

class TestPristineSeed:
    def test_seeded_shard_reads_the_seed_until_its_first_apply(
            self, monkeypatch):
        """In a seeded FILVER++ campaign each shard's cache is read only
        before the shard's first apply, is invalidated once, by that
        apply, and every read serves the seed's list; the shard holds no
        cache after it.  The result is byte-identical to a cold run's."""
        g = planted_composite().to_csr()
        cold = canon(reinforce(g, 3, 3, 8, 8, method="filver++", t=3))
        events = []
        first_applies = []
        real_invalidate = VerificationCache.invalidate
        real_ranked = VerificationCache.ranked
        real_apply = CampaignShard.apply

        def spy_invalidate(self):
            events.append(("invalidate", self))
            real_invalidate(self)

        def spy_ranked(self, side):
            events.append(("read", self))
            hit = real_ranked(self, side)
            assert hit is not None
            return hit

        def spy_apply(self, batch):
            cache = self.cache
            real_apply(self, batch)
            assert self.cache is None
            if cache is not None:
                first_applies.append((self.index, cache))

        monkeypatch.setattr(VerificationCache, "invalidate", spy_invalidate)
        monkeypatch.setattr(VerificationCache, "ranked", spy_ranked)
        monkeypatch.setattr(CampaignShard, "apply", spy_apply)
        with SharedCampaignContext(g, 3, 3) as ctx:
            got = canon(reinforce(g, 3, 3, 8, 8, method="filver++", t=3,
                                  context=ctx))
        assert got == cold

        invalidated = []
        for kind, cache in events:
            assert not any(cache is seen for seen in invalidated), kind
            if kind == "invalidate":
                invalidated.append(cache)
        shards = [index for index, _cache in first_applies]
        assert len(shards) == len(set(shards)) > 1
        assert [cache for _index, cache in first_applies] == invalidated
        read = {id(cache): cache for kind, cache in events
                if kind == "read"}
        assert read and all(cache.seed_hits for cache in read.values())

    def test_pristine_seeded_shard_never_filters(self, monkeypatch):
        """Before its first apply a seeded shard runs no filter stage, no
        two-hop filter and no ``|rf(x)|`` count: every list it serves is
        the context's own object.  Canonical JSON equals a cold run's."""
        g = planted_composite().to_csr()
        cold = canon(reinforce(g, 3, 3, 8, 8, method="filver++", t=3))
        applied, served, filtering = set(), [], []
        real_filter = sharded_module._filter_stage
        real_two_hop = engine_module.two_hop_filter_cached
        real_reachable = FollowerKernel.reachable
        real_ranked = CampaignShard.ranked
        real_apply = CampaignShard.apply

        def spy_filter(shard, *args):
            assert shard.index in applied and shard.cache is None
            filtering.append(shard.index)
            try:
                return real_filter(shard, *args)
            finally:
                filtering.pop()

        def spy_two_hop(*args):
            assert filtering
            return real_two_hop(*args)

        def spy_reachable(self, *args):
            assert filtering
            return real_reachable(self, *args)

        def spy_ranked(self, side, *args):
            got = real_ranked(self, side, *args)
            if self.index not in applied:
                served.append((self.index, side, got))
            return got

        def spy_apply(self, batch):
            applied.add(self.index)
            return real_apply(self, batch)

        with SharedCampaignContext(g, 3, 3) as ctx:
            seeds = ctx.seed_tables(None)  # warm before spying
            monkeypatch.setattr(sharded_module, "_filter_stage", spy_filter)
            monkeypatch.setattr(engine_module, "two_hop_filter_cached",
                                spy_two_hop)
            monkeypatch.setattr(FollowerKernel, "reachable", spy_reachable)
            monkeypatch.setattr(CampaignShard, "ranked", spy_ranked)
            monkeypatch.setattr(CampaignShard, "apply", spy_apply)
            got = canon(reinforce(g, 3, 3, 8, 8, method="filver++", t=3,
                                  context=ctx))
        assert got == cold
        assert applied and len(seeds) > 1
        # Pristine shards were asked again in later iterations.
        assert len(served) > 2 * len(seeds)
        for index, side, ranked in served:
            assert ranked is seeds[index][side]

    def test_seeded_flat_kernel_verifies_unfiltered_shards(
            self, monkeypatch):
        """The follower kernel is stamped when a shard is built, so a
        seeded flat-kernel campaign verifies candidates of shards that
        never filtered: every follower set equals
        :func:`compute_followers` over the shard's state."""
        g = planted_composite().to_csr()
        built, refiltered, checked = [], set(), []
        real_build = sharded_module.build_shards
        real_filter = sharded_module._filter_stage
        real_followers = FollowerKernel.followers

        def spy_build(*args, **kwargs):
            shard_list, route = real_build(*args, **kwargs)
            built.extend(shard_list)
            return shard_list, route

        def spy_filter(shard, *args):
            refiltered.add(shard.index)
            return real_filter(shard, *args)

        def spy_followers(self, side, x, alpha, beta):
            got = real_followers(self, side, x, alpha, beta)
            [shard] = [s for s in built if s.kernel is self]
            state = shard.state
            order = state.upper if side == "upper" else state.lower
            assert got == compute_followers(shard.graph, order, x,
                                            core=state.core), (side, x)
            checked.append(shard.index not in refiltered)
            return got

        cold = canon(reinforce(g, 3, 3, 8, 8, method="filver++", t=3,
                               flat_kernel=False))
        monkeypatch.setattr(sharded_module, "build_shards", spy_build)
        monkeypatch.setattr(sharded_module, "_filter_stage", spy_filter)
        monkeypatch.setattr(FollowerKernel, "followers", spy_followers)
        with SharedCampaignContext(g, 3, 3) as ctx:
            got = canon(reinforce(g, 3, 3, 8, 8, method="filver++", t=3,
                                  flat_kernel=True, context=ctx))
        assert got == cold
        assert any(checked)  # some verification hit a never-filtered shard


class TestRankedMemo:
    def test_clean_shards_keep_the_other_sides_list(self, monkeypatch):
        """Once the upper budget is spent, a shard no anchor touched since
        the last pass that ranked both sides refilters neither: its lower
        list is kept.  Only shards anchored since then filter again."""
        g = planted_composite().to_csr()
        b1 = 1
        progress = {"iteration": 0, "spent": None, "uppers": 0}
        last_apply, late = {}, []
        real_filter = sharded_module._filter_stage
        real_apply = CampaignShard.apply

        def spy_filter(shard, *args):
            spent = progress["spent"]
            if spent is not None and last_apply.get(shard.index, -1) < spent:
                late.append(shard.index)
            return real_filter(shard, *args)

        def spy_apply(self, batch):
            last_apply[self.index] = progress["iteration"]
            return real_apply(self, batch)

        def observe(record):
            progress["uppers"] += sum(1 for x in record.anchors
                                      if g.is_upper(x))
            if progress["uppers"] >= b1 and progress["spent"] is None:
                progress["spent"] = progress["iteration"]
            progress["iteration"] += 1

        cold = canon(reinforce(g, 3, 3, b1, 6, method="filver+"))
        monkeypatch.setattr(sharded_module, "_filter_stage", spy_filter)
        monkeypatch.setattr(CampaignShard, "apply", spy_apply)
        result = run_engine(g, 3, 3, b1, 6, engine_options("filver+", 1),
                            "filver+", on_iteration=observe)
        assert canon(result) == cold
        spent = progress["spent"]
        assert spent is not None and progress["iteration"] > spent + 1
        touched = {index for index, it in last_apply.items() if it >= spent}
        assert set(range(5)) - touched  # some shard stayed clean
        assert late == []


# ----------------------------------------------------------------------
# Engine layer: byte-identity across memoize / flat_kernel settings
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
        the serial memo-off baseline."""
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
