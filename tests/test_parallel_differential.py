"""Differential proof that parallel campaigns are byte-identical to serial.

Every test runs the same campaign twice — ``workers=1`` against
``workers=N`` — and asserts equality of everything the engine reports:
anchors (in placement order), follower sets, per-iteration records
including ``verifications`` counts, and the canonical JSON export.  The
parallel evaluator speculates (it computes follower sets the serial scan
would skip), so equal ``verifications`` counts are the sharpest check that
the serial replay logic is exact.

Also covered: checkpoints written by a serial campaign resume under
workers and vice versa (nothing about the schedule is persisted), and the
evaluator's own lifecycle invariants.
"""

import json

import pytest

from repro.core.api import reinforce
from repro.core.engine import EngineOptions, run_engine
from repro.core.followers import compute_followers
from repro.core.order_maintenance import OrderState
from repro.exceptions import FaultInjected, InvalidParameterError
from repro.experiments.export import canonical_result_dict
from repro.parallel import ShardedEvaluator, create_sharded_evaluator
from repro.resilience.checkpoint import load_checkpoint
from repro.resilience.faults import FaultPlan

from conftest import random_bigraph, table_dict

METHODS = ("filver", "filver+", "filver++")


def campaign_graph(seed=1):
    """Dense enough for multi-iteration (3,3) campaigns with real followers."""
    return random_bigraph(seed, n1_range=(12, 16), n2_range=(12, 16),
                          density=0.2)


def structural(record):
    """IterationRecord comparison key: everything except wall-clock time."""
    return (record.anchors, record.marginal_followers,
            record.candidates_total, record.candidates_after_filter,
            record.verifications)


def canonical_json(result):
    return json.dumps(canonical_result_dict(result), sort_keys=True)


def assert_identical(parallel, serial):
    assert parallel.anchors == serial.anchors
    assert parallel.followers == serial.followers
    assert parallel.base_core_size == serial.base_core_size
    assert parallel.final_core_size == serial.final_core_size
    assert ([structural(r) for r in parallel.iterations]
            == [structural(r) for r in serial.iterations])
    assert canonical_json(parallel) == canonical_json(serial)


class TestDifferentialCampaigns:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    @pytest.mark.parametrize("method", METHODS)
    def test_parallel_equals_serial(self, method, workers):
        graph = campaign_graph()
        serial = reinforce(graph, 3, 3, 3, 3, method=method, t=2)
        parallel = reinforce(graph, 3, 3, 3, 3, method=method, t=2,
                             workers=workers)
        assert len(serial.iterations) >= 2
        assert serial.n_followers > 0
        assert_identical(parallel, serial)

    @pytest.mark.parametrize("backend", ["list", "csr"])
    def test_both_backends(self, backend):
        graph = campaign_graph(seed=4)
        if backend == "csr":
            graph = graph.to_csr()
        serial = reinforce(graph, 3, 3, 2, 2, method="filver++", t=2)
        parallel = reinforce(graph, 3, 3, 2, 2, method="filver++", t=2,
                             workers=2)
        assert_identical(parallel, serial)

    def test_workers_one_is_the_serial_path(self):
        graph = campaign_graph()
        assert_identical(reinforce(graph, 3, 3, 2, 2, workers=1),
                         reinforce(graph, 3, 3, 2, 2))

    def test_non_engine_methods_reject_workers(self):
        graph = campaign_graph()
        for method in ("random", "top-degree", "degree-greedy", "naive"):
            with pytest.raises(InvalidParameterError, match="workers"):
                reinforce(graph, 2, 2, 1, 1, method=method, workers=2)

    def test_invalid_worker_count_rejected(self):
        graph = campaign_graph()
        with pytest.raises(InvalidParameterError):
            reinforce(graph, 2, 2, 1, 1, workers=0)


class TestResumeAcrossWorkerCounts:
    """Checkpoints carry no trace of the schedule, so a campaign can swap
    between serial and parallel execution at any iteration boundary."""

    @pytest.mark.parametrize("first,second", [(1, 3), (3, 1), (2, 4)])
    def test_kill_then_resume_with_different_workers(self, tmp_path, first,
                                                     second):
        graph = campaign_graph()
        full = reinforce(graph, 3, 3, 3, 3, method="filver++", t=2)
        assert len(full.iterations) >= 2
        ckpt = tmp_path / ("w%d_to_w%d.json" % (first, second))
        # Kill at the start of iteration 2's filter stage: the checkpoint
        # holds exactly one finished iteration.
        plan = FaultPlan().add("engine.filter", call=2)
        with plan.active():
            with pytest.raises(FaultInjected):
                reinforce(graph, 3, 3, 3, 3, method="filver++", t=2,
                          checkpoint=str(ckpt), workers=first)
        assert len(load_checkpoint(ckpt).iterations) == 1
        resumed = reinforce(graph, 3, 3, 3, 3, method="filver++", t=2,
                            resume_from=str(ckpt), workers=second)
        assert_identical(resumed, full)

    def test_parallel_checkpoint_stream_matches_serial(self, tmp_path):
        graph = campaign_graph(seed=7)
        serial_ckpt = tmp_path / "serial.json"
        parallel_ckpt = tmp_path / "parallel.json"
        serial = reinforce(graph, 3, 3, 2, 2, method="filver++", t=2,
                           checkpoint=str(serial_ckpt))
        parallel = reinforce(graph, 3, 3, 2, 2, method="filver++", t=2,
                             checkpoint=str(parallel_ckpt),
                             workers=2)
        assert_identical(parallel, serial)
        a = load_checkpoint(serial_ckpt)
        b = load_checkpoint(parallel_ckpt)
        assert a.anchors == b.anchors
        assert ([structural(r) for r in a.iterations]
                == [structural(r) for r in b.iterations])


def state_items(state):
    """Shard-0 evaluation items for every entry of both orders."""
    return [(0, order.side, x) for order in (state.upper, state.lower)
            for x in sorted(table_dict(order.position))]


class TestEvaluatorUnit:
    def test_follower_sets_match_in_process_computation(self):
        graph = campaign_graph()
        state = OrderState(graph, 3, 3, maintain=False)
        items = state_items(state)
        assert items, "fixture must provide at least one candidate"
        expected = [compute_followers(
            graph, state.upper if side == "upper" else state.lower, x,
            core=state.core) for _shard, side, x in items]
        with ShardedEvaluator([graph], workers=2) as evaluator:
            evaluator.begin_iteration([state], {0}, deadline=None)
            assert list(evaluator.evaluate(items)) == expected
            # A second iteration over the same pool must also be exact.
            evaluator.begin_iteration([state], {0}, deadline=None)
            assert list(evaluator.evaluate(items)) == expected

    def test_early_close_then_reuse(self):
        graph = campaign_graph()
        state = OrderState(graph, 3, 3, maintain=False)
        items = state_items(state)
        assert items, "fixture must provide at least one candidate"
        expected = [compute_followers(
            graph, state.upper if side == "upper" else state.lower, x,
            core=state.core) for _shard, side, x in items]
        with ShardedEvaluator([graph], workers=2, chunk_size=1) as evaluator:
            evaluator.begin_iteration([state], {0}, deadline=None)
            stream = evaluator.evaluate(items)
            assert next(stream) == expected[0]
            stream.close()  # abandon mid-iteration, like the t=1 break
            evaluator.begin_iteration([state], {0}, deadline=None)
            assert list(evaluator.evaluate(items)) == expected

    def test_create_evaluator_serial_is_none(self):
        graph = campaign_graph()
        assert create_sharded_evaluator([graph], workers=1) is None

    def test_rejects_bad_parameters(self):
        graph = campaign_graph()
        with pytest.raises(InvalidParameterError):
            ShardedEvaluator([graph], workers=1)
        with pytest.raises(InvalidParameterError):
            ShardedEvaluator([graph], workers=2, chunk_size=0)

    def test_shutdown_is_idempotent(self):
        graph = campaign_graph()
        evaluator = ShardedEvaluator([graph], workers=2)
        assert evaluator.alive_workers == 2
        assert len(evaluator.worker_pids()) == 2
        evaluator.shutdown()
        evaluator.shutdown()
        assert evaluator.alive_workers == 0
