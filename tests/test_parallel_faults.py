"""Failure semantics of the parallel evaluator, provoked deterministically.

The contract under test (``docs/PARALLEL.md``): worker-side failures never
surface as pool tracebacks.  An :class:`AbortCampaign` raised in a worker
finalizes the engine's usual clean ``interrupted=True`` result; a worker
observing the deadline or the shared stop flag yields the usual partial
``timed_out=True`` result; a worker that dies mid-chunk (``SystemExit``,
``SIGKILL``) is buried and its work recomputed in the parent, with campaign
output byte-identical to serial.

All faults are injected through :class:`FaultPlan` sites (``parallel.chunk``
in workers, ``parallel.dispatch`` in the parent) or by killing worker PIDs
directly — counted, never timed, so every test replays identically.
"""

import os
import signal
import time

import pytest

from repro.core.anchor_set import AnchorSetMaintainer
from repro.core.api import engine_options, reinforce
from repro.core.engine import (
    _pooled_follower_sets,
    _verification_stage,
    run_engine,
)
from repro.core.followers import compute_followers
from repro.core.order_maintenance import OrderState
from repro.core.sharded import CampaignShard, IdentityView, build_shards
from repro.exceptions import AbortCampaign, FaultInjected
from repro.parallel import EvaluationStopped, ShardedEvaluator
from repro.resilience.faults import (
    FaultPlan,
    active_plan,
    deactivate_inherited_plan,
)

from conftest import table_dict
from test_parallel_differential import (assert_identical, campaign_graph,
                                        state_items)


def state_and_items(graph):
    """A frozen iteration state plus every shell candidate from both sides."""
    state = OrderState(graph, 3, 3, maintain=False)
    items = state_items(state)
    assert items, "fixture must provide at least one candidate"
    expected = [compute_followers(
        graph, state.upper if side == "upper" else state.lower, x,
        core=state.core) for _shard, side, x in items]
    return state, items, expected


class TestWorkerAbort:
    def test_abort_in_worker_becomes_clean_interrupted_result(self):
        """AbortCampaign crossing the process boundary: no traceback, the
        engine finalizes best-so-far exactly as for a serial abort."""
        graph = campaign_graph()
        plan = FaultPlan().add("parallel.chunk",
                               exc=AbortCampaign("observer said stop"))
        with plan.active():
            result = reinforce(graph, 3, 3, 3, 3, method="filver++", t=2,
                               workers=2)
        assert result.interrupted
        assert not result.timed_out
        # The abort fired during iteration one's verification, so nothing
        # was placed — but the result is still a fully valid object.
        assert result.anchors == []
        assert result.followers == set()

    def test_abort_after_one_iteration_keeps_verified_prefix(self):
        """Aborting in a later iteration keeps the placed prefix verified."""
        graph = campaign_graph()
        serial = reinforce(graph, 3, 3, 3, 3, method="filver++", t=2)
        assert len(serial.iterations) >= 2
        first = serial.iterations[0].anchors
        # Workers count their own parallel.chunk calls; a high call index is
        # reached only after earlier chunks succeeded, i.e. mid-campaign.
        plan = FaultPlan().add("parallel.chunk", call=4,
                               exc=AbortCampaign("late abort"))
        with plan.active():
            result = reinforce(graph, 3, 3, 3, 3, method="filver++", t=2,
                               workers=2)
        assert result.interrupted
        if result.anchors:  # whatever prefix completed matches serial
            assert result.anchors[:len(first)] == first[:len(result.anchors)]


class TestDeadlineAndStopFlag:
    def test_expired_deadline_with_workers_is_clean_timed_out(self):
        """A pool is built and torn down, but the pre-loop deadline check
        still wins: partial result, no worker traceback."""
        graph = campaign_graph()
        result = run_engine(graph, 3, 3, 3, 3, engine_options("filver++", 2),
                            "filver++(t=2)", workers=2,
                            deadline=time.perf_counter() - 1.0)
        assert result.timed_out
        assert not result.interrupted
        assert result.anchors == []

    def test_stop_flag_raises_evaluation_stopped(self):
        """The shared budget flag: every worker declines its next candidate
        and the consuming stream raises the internal stop signal."""
        graph = campaign_graph()
        state, items, _expected = state_and_items(graph)
        with ShardedEvaluator([graph], workers=2) as evaluator:
            evaluator.begin_iteration([state], {0}, deadline=None)
            evaluator.request_stop()
            with pytest.raises(EvaluationStopped):
                list(evaluator.evaluate(items))

    def test_past_deadline_in_worker_raises_evaluation_stopped(self):
        """Workers check the (monotonic, cross-process) deadline per
        candidate and reply ``stopped`` instead of raising."""
        graph = campaign_graph()
        state, items, expected = state_and_items(graph)
        with ShardedEvaluator([graph], workers=2) as evaluator:
            evaluator.begin_iteration([state], {0},
                                      deadline=time.perf_counter() - 1.0)
            with pytest.raises(EvaluationStopped):
                list(evaluator.evaluate(items))
            # The pool survives a stopped iteration: a fresh epoch without
            # a deadline evaluates exactly.
            evaluator.begin_iteration([state], {0}, deadline=None)
            assert list(evaluator.evaluate(items)) == expected

    def test_engine_translates_stop_into_timed_out(self):
        """The verification stage maps EvaluationStopped to the same
        ``(verifications, True)`` the serial deadline check returns."""
        graph = campaign_graph()
        state = OrderState(graph, 3, 3, maintain=False)

        class StoppedEvaluator:
            def begin_iteration(self, shard_states, dirty_shards, deadline):
                pass

            def evaluate(self, items):
                raise EvaluationStopped()
                yield  # pragma: no cover - makes this a generator

        shard = CampaignShard(0, IdentityView(graph), state, None, None)
        scored = [(-1, x, shard, x, state.upper)
                  for x in sorted(table_dict(state.upper.position))]
        assert scored, "fixture must provide at least one candidate"

        class NullMaintainer:
            def skip_threshold(self):
                return 0

            def offer(self, x, followers):  # pragma: no cover
                raise AssertionError("no candidate should be offered")

        pooled = _pooled_follower_sets(scored, StoppedEvaluator(), [state],
                                       {0}, None)
        verifications, timed_out = _verification_stage(
            scored, NullMaintainer(), 2, 3, 3, None, pooled)
        assert (verifications, timed_out) == (0, True)


class RecordingEvaluator:
    """An in-process stand-in for the pool that records its traffic.

    Follower sets are computed lazily, one per ``next``, so ``streamed``
    is exactly what the scan consumed, in consumption order.
    """

    def __init__(self):
        self.items = []
        self.streamed = []

    def begin_iteration(self, shard_states, dirty_shards, deadline):
        self.states = list(shard_states)

    def evaluate(self, items):
        self.items = list(items)
        for shard_index, side, x in items:
            state = self.states[shard_index]
            order = state.upper if side == "upper" else state.lower
            follower_set = compute_followers(state.graph, order, x,
                                             core=state.core)
            self.streamed.append(((shard_index, side, x), follower_set))
            yield follower_set


class RecordingMaintainer(AnchorSetMaintainer):
    def __init__(self, *args):
        super().__init__(*args)
        self.offers = []

    def offer(self, x, followers):
        self.offers.append((x, set(followers)))
        return super().offer(x, followers)


class TestOneScan:
    """The pooled scan is the serial scan fed by the pool: same counts,
    same offers, the stream consumed in rank order and cached."""

    def ranked(self, shard, real):
        """Real candidates under crafted bounds: the top candidate, then
        candidates inside its follower set (coverage skips), then the
        rest, then a zero-bound tail (threshold skips, for any ``T``)."""
        top = max(real, key=lambda key: (len(real[key]), key))
        covered = [key for key in sorted(real)
                   if key != top and key[1] in real[top]]
        rest = [key for key in sorted(real)
                if key != top and key not in covered]
        head, tail = rest[:-3], rest[-3:]
        assert covered and head, "fixture must exercise both skip rules"
        keys = [top] + covered + head
        bounds = [1000 - rank for rank in range(len(keys))] + [0] * len(tail)
        entries = []
        for bound, (side, x) in zip(bounds, keys + tail):
            order = shard.state.upper if side == "upper" else shard.state.lower
            entries.append((-bound, x, shard, x, order))
        return entries

    def make_shard(self, graph, memoize, real=None):
        """A one-shard campaign's shard after its first filter pass; with
        ``memoize``, every third follower set in ``real`` is pre-cached."""
        options = engine_options("filver++", 3)
        [shard], _route = build_shards(graph, 3, 3, options, memoize, False,
                                       1)
        ranked, _total = shard.ranked(3, 3, options)
        if memoize and real is not None:
            for key in self.precached(real):
                shard.cache.store_followers(*key, real[key])
        return shard, ranked

    @staticmethod
    def precached(real):
        return {key for index, key in enumerate(sorted(real))
                if index % 3 == 0}

    @pytest.mark.parametrize("memoize", [False, True])
    @pytest.mark.parametrize("t", [1, 3])
    def test_pooled_scan_equals_serial_scan(self, t, memoize):
        graph = campaign_graph(seed=6)
        _shard, filtered = self.make_shard(graph, False)
        real = {(order.side, x): compute_followers(graph, order, x,
                                                   core=shard.state.core)
                for _bound, _gx, shard, x, order in filtered}

        serial_shard, _ranked = self.make_shard(graph, memoize, real)
        serial_maintainer = RecordingMaintainer(graph, t, 3, 3)
        serial = _verification_stage(
            self.ranked(serial_shard, real), serial_maintainer, t,
            3, 3, None)

        pooled_shard, _ranked = self.make_shard(graph, memoize, real)
        pooled_maintainer = RecordingMaintainer(graph, t, 3, 3)
        ranked = self.ranked(pooled_shard, real)
        evaluator = RecordingEvaluator()
        dirty = {0}
        pooled = _verification_stage(
            ranked, pooled_maintainer, t, 3, 3, None,
            _pooled_follower_sets(ranked, evaluator, [pooled_shard.state],
                                  dirty, None))

        assert pooled == serial
        assert not serial[1]
        assert serial[0] < len(ranked)  # something was skipped
        assert pooled_maintainer.offers == serial_maintainer.offers
        assert pooled_maintainer.anchors == serial_maintainer.anchors
        assert dirty == set()
        # Only cache misses are dispatched, in rank order, and the scan
        # consumes a prefix of them in that order (t = 1 stops early).
        hits = self.precached(real) if memoize else set()
        misses = [(0, order.side, x)
                  for _bound, _gx, _shard, x, order in ranked
                  if (order.side, x) not in hits]
        assert evaluator.items == misses
        consumed = [item for item, _set in evaluator.streamed]
        assert consumed == misses[:len(consumed)]
        if t == 1:
            assert len(consumed) < len(misses)
        else:
            assert consumed == misses
        for (_index, side, x), follower_set in evaluator.streamed:
            assert follower_set == real[(side, x)]
            if memoize:
                assert pooled_shard.cache.followers_for(side, x) \
                    == follower_set


class TestWorkerDeath:
    @pytest.mark.parametrize("call", [1, 2])
    def test_injected_worker_exit_degrades_to_serial_results(self, call):
        """SystemExit at the fault site kills workers mid-chunk; the parent
        buries them, recomputes their chunks, and the campaign's output is
        byte-identical to serial — the acceptance bar for degradation."""
        graph = campaign_graph()
        serial = reinforce(graph, 3, 3, 3, 3, method="filver++", t=2)
        plan = FaultPlan().add("parallel.chunk", call=call, exc=SystemExit)
        with plan.active():
            parallel = reinforce(graph, 3, 3, 3, 3, method="filver++", t=2,
                                 workers=2)
        assert not parallel.interrupted
        assert not parallel.timed_out
        assert_identical(parallel, serial)

    def test_transient_worker_error_is_recomputed_in_parent(self):
        """A worker-only exception (the ``error`` reply) degrades: the
        parent recomputes the chunk, where the injected fault does not
        exist, and the campaign completes identically to serial."""
        graph = campaign_graph()
        serial = reinforce(graph, 3, 3, 3, 3, method="filver++", t=2)
        plan = FaultPlan().add("parallel.chunk",
                               exc=ValueError("worker-only glitch"))
        with plan.active():
            parallel = reinforce(graph, 3, 3, 3, 3, method="filver++", t=2,
                                 workers=2)
        assert not parallel.interrupted
        assert_identical(parallel, serial)

    def test_sigkilled_worker_is_buried_and_results_stay_exact(self):
        """Killing one worker outright (no Python cleanup at all) loses no
        chunk: the parent detects the broken pipe, buries the worker, and
        recomputes whatever was in flight."""
        graph = campaign_graph()
        state, items, expected = state_and_items(graph)
        with ShardedEvaluator([graph], workers=2, chunk_size=1) as evaluator:
            evaluator.begin_iteration([state], {0}, deadline=None)
            os.kill(evaluator.worker_pids()[0], signal.SIGKILL)
            assert list(evaluator.evaluate(items)) == expected
            assert evaluator.alive_workers == 1
            # The survivor keeps serving subsequent iterations.
            evaluator.begin_iteration([state], {0}, deadline=None)
            assert list(evaluator.evaluate(items)) == expected

    def test_all_workers_dead_falls_back_to_in_process_evaluation(self):
        graph = campaign_graph()
        state, items, expected = state_and_items(graph)
        with ShardedEvaluator([graph], workers=2, chunk_size=1) as evaluator:
            evaluator.begin_iteration([state], {0}, deadline=None)
            for pid in evaluator.worker_pids():
                os.kill(pid, signal.SIGKILL)
            assert list(evaluator.evaluate(items)) == expected
            assert evaluator.alive_workers == 0


class TestParentDispatchSite:
    def test_memory_error_at_dispatch_is_graceful_interrupt(self):
        """The parent-side site feeds the engine's existing
        KeyboardInterrupt/MemoryError best-so-far path."""
        graph = campaign_graph()
        plan = FaultPlan().add("parallel.dispatch", exc=MemoryError)
        with plan.active():
            result = reinforce(graph, 3, 3, 3, 3, method="filver++", t=2,
                               workers=2)
        assert result.interrupted
        assert plan.fired == [("parallel.dispatch", 1)]

    def test_default_fault_at_dispatch_propagates(self):
        """An unhandled injected fault escapes like any engine-stage fault
        (the evaluator is still shut down by the engine's finally)."""
        graph = campaign_graph()
        plan = FaultPlan().add("parallel.dispatch")
        with plan.active():
            with pytest.raises(FaultInjected):
                reinforce(graph, 3, 3, 3, 3, method="filver++", t=2,
                          workers=2)


class TestInheritedPlanHygiene:
    def test_deactivate_inherited_plan_clears_active(self):
        """Forked workers must drop the parent's plan before activating
        their own; the helper is an unconditional reset."""
        plan = FaultPlan().add("parallel.chunk")
        with plan.active():
            assert active_plan() is plan
            deactivate_inherited_plan()
            assert active_plan() is None
        assert active_plan() is None

    def test_parent_plan_counters_untouched_by_worker_replay(self):
        """Workers replay ``parallel.*`` specs against their *own* counters:
        the parent's plan never registers a ``parallel.chunk`` hit because
        only workers call that site."""
        graph = campaign_graph()
        plan = FaultPlan().add("parallel.chunk", call=1000)  # never fires
        with plan.active():
            reinforce(graph, 3, 3, 2, 2, method="filver++", t=2, workers=2)
            assert plan.call_count("parallel.chunk") == 0
            assert plan.call_count("parallel.dispatch") > 0
