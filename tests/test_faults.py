"""Deterministic fault-injection tests: kill campaigns at chosen points and
prove that checkpoint/resume, per-method isolation, and the suite guards
recover exactly.  No sleeps, no randomness — every fault fires at a counted
call of a named site."""

import pytest

from repro.bigraph.io import read_edge_list, write_edge_list
from repro.core import reinforce
from repro.exceptions import FaultInjected, InvalidParameterError
from repro.experiments.runner import run_method
from repro.experiments.suite import run_full_suite
from repro.experiments.runner import ExperimentDefaults
from repro.resilience import FaultPlan, FaultSpec, active_plan, fault_site
from repro.resilience.checkpoint import load_checkpoint

from conftest import random_bigraph

TINY = ExperimentDefaults(b1=3, b2=3, t=2, scale=0.12, time_limit=60.0)


def campaign_graph():
    """A fixture tuned to give the (3,3) campaign 4-5 greedy iterations —
    enough boundaries to kill and resume at."""
    return random_bigraph(1, n1_range=(12, 16), n2_range=(12, 16),
                          density=0.2)


def structural(record):
    """IterationRecord comparison key: everything except wall-clock time."""
    return (record.anchors, record.marginal_followers,
            record.candidates_total, record.candidates_after_filter,
            record.verifications)


class TestFaultPlan:
    def test_inactive_site_is_a_noop(self):
        assert active_plan() is None
        fault_site("engine.filter")  # must not raise

    def test_fires_at_exact_call_index(self):
        plan = FaultPlan().add("site.x", call=3)
        with plan.active():
            fault_site("site.x")
            fault_site("site.x")
            with pytest.raises(FaultInjected, match="site.x#3"):
                fault_site("site.x")
        assert plan.fired == [("site.x", 3)]
        assert plan.call_count("site.x") == 3

    def test_sites_are_counted_independently(self):
        plan = FaultPlan().add("site.b", call=2)
        with plan.active():
            fault_site("site.a")
            fault_site("site.b")
            fault_site("site.a")
            with pytest.raises(FaultInjected):
                fault_site("site.b")
        assert plan.call_count("site.a") == 2

    def test_custom_exception_class_and_instance(self):
        plan = (FaultPlan().add("site.cls", exc=MemoryError)
                .add("site.inst", exc=OSError("disk on fire")))
        with plan.active():
            with pytest.raises(MemoryError):
                fault_site("site.cls")
            with pytest.raises(OSError, match="disk on fire"):
                fault_site("site.inst")

    def test_from_seed_is_reproducible(self):
        sites = ("engine.filter", "engine.verify", "checkpoint.write")
        a = FaultPlan.from_seed(7, sites, n_faults=4)
        b = FaultPlan.from_seed(7, sites, n_faults=4)
        assert a.specs == b.specs
        assert FaultPlan.from_seed(8, sites, n_faults=4).specs != a.specs

    def test_plans_do_not_nest(self):
        with FaultPlan().active():
            with pytest.raises(InvalidParameterError, match="nest"):
                with FaultPlan().active():
                    pass
        assert active_plan() is None

    def test_invalid_call_index_rejected(self):
        with pytest.raises(InvalidParameterError):
            FaultSpec("site", call=0)


class TestReplayEquivalence:
    """A campaign killed after any iteration k resumes to a byte-identical
    result — anchors, followers, and iteration records — on both adjacency
    backends."""

    @pytest.mark.parametrize("backend", ["list", "csr"])
    @pytest.mark.parametrize("method,kwargs", [
        ("filver", {}),
        ("filver++", {"t": 2}),
    ])
    def test_resume_matches_fault_free_run_at_every_boundary(
            self, tmp_path, backend, method, kwargs):
        graph = campaign_graph()
        if backend == "csr":
            graph = graph.to_csr()
        full = reinforce(graph, 3, 3, 3, 3, method=method, **kwargs)
        n_iters = len(full.iterations)
        assert n_iters >= 2, "fixture must produce a multi-iteration campaign"

        for k in range(1, n_iters):
            ckpt = tmp_path / ("%s_%s_k%d.json" % (backend, full.algorithm, k))
            # Kill the campaign at the start of iteration k+1's filter
            # stage; the checkpoint then holds exactly k iterations.
            plan = FaultPlan().add("engine.filter", call=k + 1)
            with plan.active():
                with pytest.raises(FaultInjected):
                    reinforce(graph, 3, 3, 3, 3, method=method,
                              checkpoint=str(ckpt), **kwargs)
            restored = load_checkpoint(ckpt)
            assert len(restored.iterations) == k

            resumed = reinforce(graph, 3, 3, 3, 3, method=method,
                                resume_from=str(ckpt), **kwargs)
            assert resumed.anchors == full.anchors, (k,)
            assert resumed.followers == full.followers, (k,)
            assert resumed.n_followers == full.n_followers
            assert ([structural(r) for r in resumed.iterations]
                    == [structural(r) for r in full.iterations]), (k,)
            assert not resumed.interrupted and not resumed.timed_out

    def test_resuming_a_completed_campaign_is_stable(self, tmp_path):
        graph = campaign_graph()
        ckpt = tmp_path / "done.json"
        full = reinforce(graph, 3, 3, 2, 2, method="filver",
                         checkpoint=str(ckpt))
        again = reinforce(graph, 3, 3, 2, 2, method="filver",
                          resume_from=str(ckpt))
        assert again.anchors == full.anchors
        assert again.followers == full.followers
        assert ([structural(r) for r in again.iterations]
                == [structural(r) for r in full.iterations])


class TestGracefulDegradation:
    def test_memory_error_mid_campaign_returns_best_so_far(self):
        graph = campaign_graph()
        full = reinforce(graph, 3, 3, 3, 3, method="filver")
        assert len(full.iterations) >= 2
        plan = FaultPlan().add("engine.verify", call=2, exc=MemoryError)
        with plan.active():
            partial = reinforce(graph, 3, 3, 3, 3, method="filver")
        assert partial.interrupted
        assert len(partial.iterations) == 1
        assert partial.anchors == full.iterations[0].anchors
        # Best-so-far is still globally verified.
        from repro.abcore import abcore, anchored_abcore
        base = abcore(graph, 3, 3)
        anchored = anchored_abcore(graph, 3, 3, partial.anchors)
        assert partial.followers == anchored - base - set(partial.anchors)

    def test_interrupt_between_shards_repeels_the_final_core(
            self, monkeypatch):
        """A ``KeyboardInterrupt`` on the second shard of a batch leaves the
        first shard holding anchors the result does not list, so the final
        core must come from a re-peel of the listed anchors, not from the
        shard states."""
        import repro.core.engine as engine_mod
        from repro.bigraph import disjoint_union
        from repro.core.sharded import CampaignShard, shard_views
        from repro.core.verify import verify_result
        from repro.generators.planted import planted_core_graph

        graph = disjoint_union([
            planted_core_graph(alpha=3, beta=3, core_upper=6, core_lower=6,
                               n_chains=6, max_chain_length=4, seed=100 + i)
            for i in range(3)])
        full = reinforce(graph, 3, 3, 4, 4, method="filver++", t=4)
        _views, route = shard_views(graph, None)
        spans = [len({route(x) for x in record.anchors})
                 for record in full.iterations]
        torn = next((k for k, span in enumerate(spans) if span >= 2), None)
        assert torn is not None, "fixture needs a batch spanning two shards"

        target = sum(spans[:torn]) + 2  # the batch's second shard apply
        applies = []
        real_apply = CampaignShard.apply

        def tearing_apply(shard, batch):
            applies.append(shard.index)
            if len(applies) == target:
                raise KeyboardInterrupt
            real_apply(shard, batch)

        peels = []
        real_peel = engine_mod.anchored_abcore

        def counting_peel(*args):
            peels.append(args)
            return real_peel(*args)

        monkeypatch.setattr(CampaignShard, "apply", tearing_apply)
        monkeypatch.setattr(engine_mod, "anchored_abcore", counting_peel)
        partial = reinforce(graph, 3, 3, 4, 4, method="filver++", t=4)
        assert partial.interrupted and not partial.timed_out
        assert partial.anchors == [x for record in full.iterations[:torn]
                                   for x in record.anchors]
        assert verify_result(graph, partial).ok
        assert len(peels) == len(_views)  # every shard was re-peeled

    def test_checkpoint_write_fault_preserves_previous_checkpoint(
            self, tmp_path):
        graph = campaign_graph()
        ckpt = tmp_path / "c.json"
        # The save retries transient OSError (CHECKPOINT_WRITE_BACKOFF has
        # 3 attempts), so the second iteration's write only fails for good
        # when all three attempts die: site calls 2, 3, and 4.
        plan = FaultPlan()
        for call in (2, 3, 4):
            plan.add("checkpoint.write", call=call, exc=OSError)
        with plan.active():
            with pytest.raises(OSError):
                reinforce(graph, 3, 3, 3, 3, method="filver",
                          checkpoint=str(ckpt))
        assert plan.call_count("checkpoint.write") == 4
        # The first iteration's checkpoint survives intact and resumable.
        restored = load_checkpoint(ckpt)
        assert len(restored.iterations) == 1
        resumed = reinforce(graph, 3, 3, 3, 3, method="filver",
                            resume_from=str(ckpt))
        full = reinforce(graph, 3, 3, 3, 3, method="filver")
        assert resumed.anchors == full.anchors

    def test_transient_checkpoint_write_fault_is_absorbed(self, tmp_path):
        graph = campaign_graph()
        ckpt = tmp_path / "c.json"
        baseline = reinforce(graph, 3, 3, 3, 3, method="filver")
        # One transient OSError on the second iteration's first write
        # attempt: the retry wrapper absorbs it and the campaign finishes.
        plan = FaultPlan().add("checkpoint.write", call=2, exc=OSError)
        with plan.active():
            result = reinforce(graph, 3, 3, 3, 3, method="filver",
                               checkpoint=str(ckpt))
        assert result.anchors == baseline.anchors
        restored = load_checkpoint(ckpt)
        assert restored.anchors == list(baseline.anchors)
        assert restored.exhausted or len(restored.iterations) > 1

    def test_loader_fault_site(self, tmp_path):
        graph = random_bigraph(3)
        path = tmp_path / "g.txt"
        write_edge_list(graph, path)
        plan = FaultPlan().add("io.read_edge_list", exc=OSError)
        with plan.active():
            with pytest.raises(OSError):
                read_edge_list(path)
        assert read_edge_list(path).n_edges == graph.n_edges


class TestPerMethodIsolation:
    def test_crashing_method_is_recorded_and_the_rest_still_run(self):
        graph = random_bigraph(11)
        runs = []
        # Three methods; the second one dies inside the engine.
        plan = FaultPlan().add("runner.run_method", call=2)
        with plan.active():
            for method in ("random", "filver", "filver+"):
                runs.append(run_method(graph, "G", method, 2, 2, 2, 2,
                                       seed=0, on_error="record"))
        assert [r.error is not None for r in runs] == [False, True, False]
        crashed = runs[1]
        assert crashed.n_followers == -1
        assert "FaultInjected" in crashed.error
        assert crashed.display_time == "CRASH"
        assert runs[0].result is not None and runs[2].result is not None

    def test_on_error_raise_propagates(self):
        graph = random_bigraph(11)
        with FaultPlan().add("runner.run_method").active():
            with pytest.raises(FaultInjected):
                run_method(graph, "G", "filver", 2, 2, 2, 2,
                           on_error="raise")

    def test_on_error_validated(self):
        graph = random_bigraph(11)
        with pytest.raises(InvalidParameterError):
            run_method(graph, "G", "filver", 2, 2, 2, 2, on_error="quietly")


class TestSuiteIsolation:
    def test_one_crashed_method_still_reports_every_other_method(self):
        # Methods run in a deterministic order, so call 3 of the
        # runner.run_method site lands inside Fig. 7(a)'s sweep; with
        # on_error="record" it must surface as a CRASH row, not a dead
        # section — and every section must still be produced.
        plan = FaultPlan().add("runner.run_method", call=3)
        with plan.active():
            result = run_full_suite(TINY)
        titles = [title for title, _body in result.sections]
        assert not any("CRASHED" in t for t in titles)
        assert any(t.startswith("Fig. 7(a)") for t in titles)
        assert any(t.startswith("Fig. 8") for t in titles)
        assert any(t.startswith("Table III") for t in titles)

    def test_crashed_section_is_recorded_and_the_rest_still_run(
            self, monkeypatch):
        import repro.experiments.suite as suite_mod

        def boom(**_kwargs):
            raise RuntimeError("table2 exploded")

        monkeypatch.setattr(suite_mod.tables, "table2_datasets", boom)
        result = run_full_suite(TINY)
        titles = [title for title, _body in result.sections]
        assert "Table II — CRASHED" in titles
        body = dict(result.sections)["Table II — CRASHED"]
        assert "table2 exploded" in body
        assert any(t.startswith("Fig. 8") for t in titles)
        failed = [c for c in result.checks if not c.passed]
        assert any("Table II" in c.claim for c in failed)

    def test_report_write_retries_transient_errors(self, tmp_path,
                                                   monkeypatch):
        import repro.experiments.suite as suite_mod
        from repro.resilience.retry import retry as real_retry

        # Make backoff sleeps instantaneous for the test.
        monkeypatch.setattr(
            suite_mod, "retry",
            lambda fn, **kw: real_retry(fn, sleep=lambda _s: None, **kw))
        out = tmp_path / "report.md"
        plan = FaultPlan().add("export.write", exc=OSError)
        with plan.active():
            result = run_full_suite(TINY, output_path=str(out))
        assert out.exists()
        assert "# Reproduction report" in out.read_text()
        assert plan.fired  # the first write attempt really did fail
        assert result.sections
