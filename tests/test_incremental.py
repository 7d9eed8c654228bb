"""Cross-iteration verification memoization: differential and unit tests.

The acceptance bar for ``repro.core.incremental`` and the flat CSR kernel
is *byte-identity*: a memoized campaign must equal the memo-off engine in
anchors, follower sets, and per-iteration diagnostics (``verifications``
counts cache hits exactly as the serial scan counts recomputations), under
canonical JSON (:func:`repro.experiments.export.canonical_result_dict`).

Layers of evidence, cheapest first:

* unit contracts — the dirty regions :meth:`OrderState.apply_anchors`
  reports, and the kernel's set-identity with the generic follower code;
* a stale-entry differential that replays a random anchoring campaign and
  cross-checks every cache read against a fresh recomputation;
* engine-level byte-identity across all three FILVER variants, both
  adjacency backends, ``workers`` in {1, 4}, and resume-from-checkpoint;
* a metamorphic check: invalidating with a region covering the whole graph
  leaves the cache indistinguishable from a cold one.
"""

import functools
import json
import os
import random

import pytest

from repro.bigraph import disjoint_union, from_edge_list
from repro.bigraph.kernel import FollowerKernel, kernel_for
from repro.core import engine_options, reinforce
from repro.core.deletion_order import reachable_from
from repro.core.engine import run_engine
from repro.core.followers import compute_followers
from repro.core.incremental import VerificationCache
from repro.core.order_maintenance import OrderState
from repro.core.signatures import two_hop_filter, two_hop_filter_cached
from repro.exceptions import AbortCampaign, GraphConstructionError
from repro.experiments.export import canonical_result_dict
from repro.generators.planted import planted_core_graph


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
        x = min(state.upper.position)
        assert state.apply_anchors([x]) is None

    def test_no_fresh_anchors_reports_empty_sides(self):
        g = planted_composite(2)
        state = OrderState(g, 3, 3, maintain=True)
        x = min(state.upper.position)
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
            pool = sorted(set(state.upper.position)
                          | set(state.lower.position))
            pool = [v for v in pool if v not in state.anchors]
            if not pool:
                break
            before = {
                "upper": dict(state.upper.position),
                "lower": dict(state.lower.position),
            }
            core_before = set(state.core)
            dirty = state.apply_anchors(rng.sample(pool, min(2, len(pool))))
            assert dirty is not None
            core_after = state.core
            for side, order in (("upper", state.upper),
                                ("lower", state.lower)):
                old = before[side]
                new = order.position
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
            pool = sorted(set(state.upper.position)
                          | set(state.lower.position))
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
        """rf(x) and F(x) match the dict/set reference for every shell
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
                    assert kernel.reachable(side, x) == rf_ref, (side, x)
                    f_ref = compute_followers(g, order, x, core=state.core)
                    assert kernel.followers(side, x, 3, 3) == f_ref, (side, x)
                    assert kernel.followers(
                        side, x, 3, 3, candidates=rf_ref) == f_ref, (side, x)
            pool = sorted(set(state.upper.position)
                          | set(state.lower.position))
            pool = [v for v in pool if v not in state.anchors]
            if not pool:
                break
            state.apply_anchors([rng.choice(pool)])

    def test_release_is_idempotent(self):
        kernel = FollowerKernel(er_graph(0, backend="csr"))
        kernel.release()
        kernel.release()


# ----------------------------------------------------------------------
# Stale-entry differential: every cache read vs a fresh recomputation
# ----------------------------------------------------------------------

class TestCacheDifferential:
    def test_campaign_replay_never_serves_stale_entries(self):
        """Replays a random anchoring campaign; at every step, every
        cached signature, survivor verdict, rf set, bound, and follower
        set must equal a from-scratch recomputation.  Also asserts the
        cache actually got hits — a hit rate of zero would make this test
        pass vacuously."""
        g = planted_composite(6, seed_base=500).to_csr()
        state = OrderState(g, 3, 3, maintain=True)
        cache = VerificationCache(g)
        rng = random.Random(7)
        checked = 0
        for step in range(10):
            for order in (state.upper, state.lower):
                side = order.side
                cands = order.candidates(g)
                if not cands:
                    continue
                ref_surv, ref_sigs = two_hop_filter(g, order, cands)
                got_surv, got_sigs = two_hop_filter_cached(
                    g, order, cands, cache)
                assert got_surv == ref_surv, (step, side)
                assert got_sigs == ref_sigs, (step, side)
                for x in ref_surv:
                    checked += 1
                    rf_ref = reachable_from(g, order, x)
                    entry = cache.rf_entry(side, x)
                    if entry is None:
                        entry = cache.store_rf(side, x, rf_ref)
                    else:
                        assert entry.rf == rf_ref, (step, side, x)
                    assert entry.bound == len(rf_ref)
                    f_ref = compute_followers(g, order, x, core=state.core)
                    cached = cache.followers_for(side, x)
                    if cached is None:
                        cache.store_followers(side, x, f_ref)
                    else:
                        assert cached == f_ref, (step, side, x)
            pool = sorted(set(state.upper.position)
                          | set(state.lower.position))
            pool = [v for v in pool if v not in state.anchors]
            if not pool:
                break
            dirty = state.apply_anchors(rng.sample(pool, min(2, len(pool))))
            cache.invalidate(dirty)
        assert checked > 100
        assert cache.rf_hits > 0
        assert cache.sig_hits > 0
        assert cache.survivor_hits > 0
        assert cache.follower_hits > 0
        assert cache.evictions > 0  # invalidation actually fired


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
            surv, _ = two_hop_filter_cached(g, order,
                                            order.candidates(g), warm)
            for x in surv:
                warm.store_rf(side=order.side, x=x,
                              rf=reachable_from(g, order, x))
        assert warm.sig_misses > 0

        everything = set(range(g.n_upper + g.n_lower))
        warm.invalidate({"upper": everything, "lower": everything})

        cold = VerificationCache(g)
        for cache in (warm, cold):
            cache.rf_hits = cache.rf_misses = 0
            cache.sig_hits = cache.sig_misses = 0
            cache.survivor_hits = cache.survivor_misses = 0
        for order in (state.upper, state.lower):
            cands = order.candidates(g)
            warm_out = two_hop_filter_cached(g, order, cands, warm)
            cold_out = two_hop_filter_cached(g, order, cands, cold)
            assert warm_out == cold_out
            for x in warm_out[0]:
                assert warm.rf_entry(order.side, x) is None
        assert warm.rf_hits == cold.rf_hits == 0
        assert (warm.sig_hits, warm.sig_misses) == \
            (cold.sig_hits, cold.sig_misses)
        assert (warm.survivor_hits, warm.survivor_misses) == \
            (cold.survivor_hits, cold.survivor_misses)

    def test_none_region_clears_everything(self):
        """``None`` (unmaintained orders: no region information) must be
        treated as 'anything may have changed'."""
        g = planted_composite(2).to_csr()
        state = OrderState(g, 3, 3, maintain=True)
        cache = VerificationCache(g)
        order = state.upper
        surv, _ = two_hop_filter_cached(g, order, order.candidates(g), cache)
        for x in surv:
            cache.store_rf(order.side, x, reachable_from(g, order, x))
        cache.invalidate(None)
        assert cache.full_invalidations == 1
        for x in surv:
            assert cache.rf_entry(order.side, x) is None
            assert cache.signature_for(order.side, x) is None
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
