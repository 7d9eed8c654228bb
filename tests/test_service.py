"""Functional tests of the campaign service: specs, admission, queue,
cache/coalescing, deadlines, drain, restart recovery, and the CLI.  The
chaos suite (fault injection, worker deaths) lives in
``test_service_faults.py``; byte-identity against one-shot runs in
``test_service_differential.py``."""

import json
import signal
import threading
import time

import pytest

from repro.core.api import reinforce
from repro.exceptions import (
    AdmissionError,
    InvalidParameterError,
    QuarantinedJobError,
    ServiceError,
)
from repro.experiments.export import canonical_result_dict
from repro.service import (
    AdmissionController,
    CampaignService,
    JobQueue,
    JobSpec,
    JobState,
    cache_key,
)
from repro.service.jobs import FailureRecord, Job, JobHandle
from repro.service.queue import load_queue_state, save_queue_state

from conftest import random_bigraph


def service_graph(seed=7):
    """Small but non-trivial: several greedy iterations per campaign."""
    return random_bigraph(seed, n1_range=(12, 16), n2_range=(12, 16),
                          density=0.2)


def canonical(result):
    return json.dumps(canonical_result_dict(result), sort_keys=True)


class FakeClock:
    """Injectable monotonic clock for deadline tests."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestJobSpec:
    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown method"):
            JobSpec(alpha=2, beta=2, b1=1, b2=1, method="magic").validate()

    def test_workers_on_baseline_rejected(self):
        spec = JobSpec(alpha=2, beta=2, b1=1, b2=1, method="degree-greedy",
                       workers=4)
        with pytest.raises(InvalidParameterError, match="workers"):
            spec.validate()

    def test_non_positive_deadline_rejected(self):
        with pytest.raises(InvalidParameterError, match="deadline"):
            JobSpec(alpha=2, beta=2, b1=1, b2=1, deadline=0).validate()

    def test_non_positive_workers_rejected(self):
        with pytest.raises(InvalidParameterError, match="workers"):
            JobSpec(alpha=2, beta=2, b1=1, b2=1, workers=0).validate()

    def test_non_positive_time_limit_rejected(self):
        with pytest.raises(InvalidParameterError, match="time_limit"):
            JobSpec(alpha=2, beta=2, b1=1, b2=1, time_limit=-1.0).validate()

    @pytest.mark.parametrize("spec,match", [
        (JobSpec(alpha=2, beta=2, b1=1, b2=1, t=0), "anchors_per_iteration"),
        (JobSpec(alpha=2, beta=2, b1=1, b2=1, shards=0), "shards"),
        (JobSpec(alpha=2, beta=2, b1=1, b2=1, method="degree-greedy",
                 shards=2), "only supported by"),
    ], ids=["t0", "shards0", "shards-on-baseline"])
    def test_specs_reinforce_refuses_are_rejected(self, spec, match):
        with pytest.raises(InvalidParameterError, match=match):
            spec.validate()

    def test_missing_payload_field_rejected(self):
        with pytest.raises(ServiceError, match="missing field"):
            JobSpec.from_payload({"alpha": 1, "beta": 1, "b1": 0})

    def test_payload_round_trip(self):
        spec = JobSpec(alpha=3, beta=2, b1=4, b2=5, method="filver+",
                       seed=11, priority=2, deadline=9.5, shards=3)
        assert JobSpec.from_payload(spec.to_payload()) == spec

    def test_unknown_payload_fields_rejected(self):
        with pytest.raises(ServiceError, match="unknown job spec"):
            JobSpec.from_payload({"alpha": 1, "beta": 1, "b1": 0, "b2": 0,
                                  "bogus": True})

    def test_cache_key_ignores_execution_strategy(self):
        base = JobSpec(alpha=2, beta=2, b1=3, b2=3)
        parallel = JobSpec(alpha=2, beta=2, b1=3, b2=3, workers=8,
                           shards=4, priority=9, deadline=60.0)
        assert cache_key("fp", base) == cache_key("fp", parallel)
        other = JobSpec(alpha=2, beta=2, b1=3, b2=3, seed=1)
        assert cache_key("fp", base) != cache_key("fp", other)


class TestFailureRecordAndJob:
    def test_failure_record_round_trip(self):
        record = FailureRecord(attempt=2, stage="execute", error="boom",
                               traceback="tb", at=1.5)
        assert FailureRecord.from_payload(record.to_payload()) == record

    def test_malformed_failure_record_rejected(self):
        with pytest.raises(ServiceError, match="malformed failure record"):
            FailureRecord.from_payload({"attempt": "NaN", "stage": "x"})
        with pytest.raises(ServiceError, match="malformed failure record"):
            FailureRecord.from_payload({})

    def test_malformed_persisted_job_rejected(self):
        with pytest.raises(ServiceError, match="malformed persisted job"):
            Job.from_payload({"spec": {"alpha": 1, "beta": 1,
                                       "b1": 0, "b2": 0}})

    def test_cancel_is_refused_once_terminal(self):
        job = Job(1, JobSpec(alpha=2, beta=2, b1=1, b2=1))
        job.quarantine()
        assert not job.cancel()
        assert job.state == JobState.QUARANTINED

    def test_quarantine_without_failure_log_still_reports(self):
        job = Job(1, JobSpec(alpha=2, beta=2, b1=1, b2=1))
        job.quarantine()
        with pytest.raises(QuarantinedJobError, match="no failure recorded"):
            JobHandle(job).result(0)

    def test_result_times_out_on_a_pending_job(self):
        job = Job(1, JobSpec(alpha=2, beta=2, b1=1, b2=1))
        with pytest.raises(TimeoutError, match="still pending"):
            JobHandle(job).result(0.001)


class TestAdmissionController:
    FOOTPRINT = {"resident_bytes": 100, "mapped_bytes": 0}

    def test_queue_full_rejection(self):
        ctl = AdmissionController(self.FOOTPRINT, max_pending=2)
        ctl.admit(1)
        with pytest.raises(AdmissionError, match="full"):
            ctl.admit(2)

    def test_no_budget_means_unbounded_dispatch(self):
        ctl = AdmissionController(self.FOOTPRINT)
        assert ctl.dispatch_allowed(10_000)

    def test_budget_below_graph_degrades_to_serial_not_wedged(self):
        ctl = AdmissionController(self.FOOTPRINT, budget_bytes=50,
                                  job_cost_bytes=10)
        assert ctl.max_concurrent() == 1
        assert ctl.dispatch_allowed(0)
        assert not ctl.dispatch_allowed(1)

    def test_headroom_buys_concurrency(self):
        ctl = AdmissionController(self.FOOTPRINT, budget_bytes=150,
                                  job_cost_bytes=10)
        assert ctl.max_concurrent() == 5

    def test_mapped_bytes_are_discounted(self):
        resident = AdmissionController(
            {"resident_bytes": 1000, "mapped_bytes": 0},
            budget_bytes=1100, job_cost_bytes=10)
        mapped = AdmissionController(
            {"resident_bytes": 0, "mapped_bytes": 1000},
            budget_bytes=1100, job_cost_bytes=10)
        # Same bytes, but the memmap graph's pages are evictable: the
        # out-of-core backend admits far more concurrency per budget byte.
        assert mapped.max_concurrent() > resident.max_concurrent()

    def test_bad_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            AdmissionController(self.FOOTPRINT, max_pending=0)
        with pytest.raises(InvalidParameterError):
            AdmissionController(self.FOOTPRINT, job_cost_bytes=0)
        with pytest.raises(InvalidParameterError):
            AdmissionController(self.FOOTPRINT, budget_bytes=0)


class TestJobQueue:
    def make_job(self, job_id, priority=0):
        return Job(job_id, JobSpec(alpha=2, beta=2, b1=1, b2=1,
                                   priority=priority))

    def claim(self, queue):
        return queue.claim(lambda: True, threading.Event(), timeout=0)

    def test_priority_order_then_fifo(self):
        queue = JobQueue()
        for job_id, priority in ((1, 0), (2, 5), (3, 5), (4, 1)):
            queue.push(self.make_job(job_id, priority))
        order = [self.claim(queue).job_id for _ in range(4)]
        assert order == [2, 3, 4, 1]

    def test_cancelled_jobs_are_skipped(self):
        queue = JobQueue()
        first, second = self.make_job(1), self.make_job(2)
        queue.push(first)
        queue.push(second)
        assert first.cancel()
        assert self.claim(queue).job_id == 2
        assert self.claim(queue) is None
        assert len(queue) == 0

    def test_empty_queue_claim_times_out(self):
        queue = JobQueue()
        assert queue.claim(lambda: True, threading.Event(),
                           timeout=0.01) is None

    def test_stop_event_wins_over_available_work(self):
        queue = JobQueue()
        queue.push(self.make_job(1))
        stop = threading.Event()
        stop.set()
        assert queue.claim(lambda: True, stop, timeout=0) is None

    def test_dispatch_gate_is_respected(self):
        queue = JobQueue()
        queue.push(self.make_job(1))
        assert queue.claim(lambda: False, threading.Event(),
                           timeout=0) is None
        assert self.claim(queue).job_id == 1

    def test_persistence_round_trip(self, tmp_path):
        job = Job(7, JobSpec(alpha=2, beta=2, b1=1, b2=1, priority=3,
                             deadline=9.5))
        job.attempts = 2
        path = str(tmp_path / "queue.json")
        save_queue_state(path, "fp", 8, [job], sleep=lambda s: None)
        fingerprint, next_id, payloads = load_queue_state(path)
        assert (fingerprint, next_id) == ("fp", 8)
        restored = Job.from_payload(payloads[0], restored_at=5.0)
        assert restored.job_id == 7
        assert restored.attempts == 2
        assert restored.spec.priority == 3
        # The relative deadline restarts from the restore time.
        assert restored.deadline_at == 5.0 + 9.5

    def test_corrupt_persisted_queue_is_refused(self, tmp_path):
        path = tmp_path / "queue.json"
        save_queue_state(str(path), "fp", 1, [], sleep=lambda s: None)
        envelope = json.loads(path.read_text())
        envelope["payload"]["next_job_id"] = 99
        path.write_text(json.dumps(envelope))
        with pytest.raises(ServiceError, match="checksum"):
            load_queue_state(str(path))

    def test_unreadable_or_malformed_queue_files_are_refused(self,
                                                             tmp_path):
        with pytest.raises(ServiceError, match="cannot read"):
            load_queue_state(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        with pytest.raises(ServiceError, match="not valid JSON"):
            load_queue_state(str(bad))
        bad.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ServiceError, match="no payload envelope"):
            load_queue_state(str(bad))

    def test_wrong_schema_and_missing_fields_are_refused(self, tmp_path):
        import hashlib

        def checksum(payload):
            text = json.dumps(payload, sort_keys=True,
                              separators=(",", ":"))
            return hashlib.sha256(text.encode("utf-8")).hexdigest()

        path = tmp_path / "queue.json"
        payload = {"graph_fingerprint": "fp"}  # next_job_id missing
        path.write_text(json.dumps({"schema": "service-queue-0",
                                    "checksum": checksum(payload),
                                    "payload": payload}))
        with pytest.raises(ServiceError, match="schema"):
            load_queue_state(str(path))
        path.write_text(json.dumps({"schema": "service-queue-1",
                                    "checksum": checksum(payload),
                                    "payload": payload}))
        with pytest.raises(ServiceError, match="malformed service queue"):
            load_queue_state(str(path))


class TestServiceInline:
    def test_result_matches_direct_reinforce(self):
        graph = service_graph()
        with CampaignService(graph) as service:
            handle = service.submit(JobSpec(alpha=3, beta=3, b1=3, b2=3))
            assert service.run_until_idle() == 1
            assert canonical(handle.result()) == canonical(
                reinforce(graph, 3, 3, 3, 3))

    def test_baseline_methods_are_served_too(self):
        graph = service_graph()
        with CampaignService(graph) as service:
            handle = service.submit(JobSpec(alpha=2, beta=2, b1=2, b2=2,
                                            method="degree-greedy"))
            service.run_until_idle()
            assert canonical(handle.result()) == canonical(
                reinforce(graph, 2, 2, 2, 2, method="degree-greedy"))

    def test_identical_specs_coalesce_to_one_campaign(self):
        graph = service_graph()
        with CampaignService(graph) as service:
            spec = JobSpec(alpha=3, beta=3, b1=3, b2=3)
            first = service.submit(spec)
            second = service.submit(spec)
            assert second.job_id == first.job_id
            assert service.run_until_idle() == 1
            assert second.result() is first.result()
            assert service.stats()["cache"]["coalesced"] == 1

    def test_completed_results_are_cached(self):
        graph = service_graph()
        with CampaignService(graph) as service:
            spec = JobSpec(alpha=3, beta=3, b1=3, b2=3)
            first = service.submit(spec)
            service.run_until_idle()
            again = service.submit(spec)
            # Cache hit: terminal immediately, no second campaign.
            assert again.state == JobState.COMPLETED
            assert again.result() is first.result()
            assert service.run_until_idle() == 0
            assert service.stats()["cache"]["hits"] == 1

    def test_invalid_problem_rejected_at_the_door(self):
        graph = service_graph()
        with CampaignService(graph) as service:
            with pytest.raises(InvalidParameterError, match="budget"):
                service.submit(JobSpec(alpha=2, beta=2,
                                       b1=graph.n_upper + 1, b2=0))
            assert service.job_ids() == []

    def test_valid_request_after_a_refused_twin_completes(self):
        # The twin differs only in ``shards``, which the cache key ignores:
        # refused at the door, it never claims the in-flight slot the
        # valid request would otherwise be coalesced onto.
        graph = service_graph()
        with CampaignService(graph) as service:
            with pytest.raises(InvalidParameterError, match="shards"):
                service.submit(JobSpec(alpha=2, beta=2, b1=1, b2=1,
                                       shards=0))
            handle = service.submit(JobSpec(alpha=2, beta=2, b1=1, b2=1))
            assert service.run_until_idle() == 1
            assert canonical(handle.result()) == canonical(
                reinforce(graph, 2, 2, 1, 1))

    def test_cancel_pending_job(self):
        graph = service_graph()
        with CampaignService(graph) as service:
            doomed = service.submit(JobSpec(alpha=3, beta=3, b1=3, b2=3))
            assert doomed.cancel()
            assert service.run_until_idle() == 0
            with pytest.raises(ServiceError, match="cancelled"):
                doomed.result(0)

    def test_drain_blocks_new_admissions(self):
        graph = service_graph()
        with CampaignService(graph) as service:
            service.request_drain()
            assert service.draining
            with pytest.raises(AdmissionError, match="draining"):
                service.submit(JobSpec(alpha=3, beta=3, b1=2, b2=2))

    def test_max_pending_admission_rejection(self):
        graph = service_graph()
        with CampaignService(graph, max_pending=1) as service:
            service.submit(JobSpec(alpha=3, beta=3, b1=2, b2=2))
            with pytest.raises(AdmissionError, match="full"):
                service.submit(JobSpec(alpha=3, beta=3, b1=3, b2=3))

    def test_deadline_expired_job_is_quarantined_not_run(self):
        graph = service_graph()
        clock = FakeClock()
        with CampaignService(graph, clock=clock,
                             sleep=lambda s: None) as service:
            handle = service.submit(JobSpec(alpha=3, beta=3, b1=2, b2=2,
                                            deadline=5.0))
            clock.now += 10.0
            service.run_until_idle()
            assert handle.state == JobState.QUARANTINED
            with pytest.raises(QuarantinedJobError) as excinfo:
                handle.result(0)
            assert excinfo.value.failures[-1].stage == "deadline"

    def test_stale_heartbeat_is_flagged_by_supervision(self):
        graph = service_graph()
        clock = FakeClock()
        reports = []
        service = None

        def advance_and_sweep(job, record):
            # Every iteration "takes" 100 fake seconds, so the running
            # job's last beat is always stale by sweep time.
            clock.now += 100.0
            reports.append(service.supervise())

        service = CampaignService(graph, clock=clock, sleep=lambda s: None,
                                  heartbeat_timeout=30.0,
                                  on_iteration=advance_and_sweep)
        handle = service.submit(JobSpec(alpha=3, beta=3, b1=3, b2=3))
        service.run_until_idle()
        assert handle.state == JobState.COMPLETED
        assert reports and all(r["stalled"] == [handle.job_id]
                               for r in reports)
        stalls = [e for e in service.events() if e["event"] == "supervise"]
        assert stalls and stalls[0]["stalled"] == [handle.job_id]
        service.shutdown()

    def test_unknown_job_id_is_an_error(self):
        with CampaignService(service_graph()) as service:
            with pytest.raises(ServiceError, match="unknown job"):
                service.handle(42)


class TestRestartRecovery:
    def test_pending_backlog_survives_restart(self, tmp_path):
        graph = service_graph()
        state = str(tmp_path / "state")
        service = CampaignService(graph, state_dir=state)
        service.submit(JobSpec(alpha=3, beta=3, b1=3, b2=3, priority=1))
        service.submit(JobSpec(alpha=3, beta=3, b1=2, b2=2))
        service.request_drain()
        assert service.run_until_idle() == 0
        service.shutdown()

        restarted = CampaignService(graph, state_dir=state)
        assert restarted.job_ids() == [1, 2]
        assert restarted.run_until_idle() == 2
        assert restarted.handle(1).state == JobState.COMPLETED
        assert canonical(restarted.handle(1).result()) == canonical(
            reinforce(graph, 3, 3, 3, 3))
        # New submissions continue the id sequence, no collisions.
        fresh = restarted.submit(JobSpec(alpha=2, beta=2, b1=1, b2=1))
        assert fresh.job_id >= 3
        restarted.shutdown()

    def test_state_dir_of_a_different_graph_is_refused(self, tmp_path):
        state = str(tmp_path / "state")
        service = CampaignService(service_graph(1), state_dir=state)
        service.submit(JobSpec(alpha=2, beta=2, b1=2, b2=2))
        service.shutdown()
        with pytest.raises(ServiceError, match="different graph"):
            CampaignService(service_graph(2), state_dir=state)

    def test_drain_interrupted_job_resumes_byte_identically(self, tmp_path):
        graph = service_graph()
        state = str(tmp_path / "state")
        full = reinforce(graph, 3, 3, 3, 3)
        assert len(full.iterations) >= 2

        service = None

        def drain_after_first_iteration(job, record):
            service.request_drain()

        service = CampaignService(
            graph, state_dir=state,
            on_iteration=drain_after_first_iteration)
        handle = service.submit(JobSpec(alpha=3, beta=3, b1=3, b2=3))
        service.run_until_idle()
        partial = handle.result()
        assert partial.interrupted
        assert len(partial.iterations) < len(full.iterations)
        service.shutdown()

        restarted = CampaignService(graph, state_dir=state)
        assert restarted.run_until_idle() == 1
        resumed = restarted.handle(handle.job_id).result()
        assert canonical(resumed) == canonical(full)
        restarted.shutdown()


class TestServiceLifecycle:
    def test_negative_workers_rejected(self):
        with pytest.raises(ServiceError, match="workers must be >= 0"):
            CampaignService(service_graph(), workers=-1)

    def test_negative_max_retries_rejected(self):
        with pytest.raises(InvalidParameterError, match="max_retries"):
            CampaignService(service_graph(), max_retries=-1)

    def test_shutdown_is_idempotent(self):
        service = CampaignService(service_graph())
        service.shutdown()
        service.shutdown()

    def test_signal_handlers_refused_off_main_thread(self):
        with CampaignService(service_graph()) as service:
            outcome = []
            thread = threading.Thread(
                target=lambda: outcome.append(
                    service.install_signal_handlers()))
            thread.start()
            thread.join()
            assert outcome == [False]
            assert not service.draining

    def test_uninstallable_signal_reports_false(self):
        import signal

        with CampaignService(service_graph()) as service:
            assert service.install_signal_handlers(
                signals=(signal.NSIG + 7,)) is False
            assert not service.draining

    def test_sigterm_requests_drain(self):
        import os
        import signal

        saved = {signum: signal.getsignal(signum)
                 for signum in (signal.SIGTERM, signal.SIGINT)}
        try:
            with CampaignService(service_graph()) as service:
                assert service.install_signal_handlers()
                os.kill(os.getpid(), signal.SIGTERM)
                deadline = time.monotonic() + 5.0
                while not service.draining and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert service.draining
        finally:
            for signum, handler in saved.items():
                signal.signal(signum, handler)


class TestServiceThreaded:
    def test_jobs_complete_on_worker_threads(self):
        graph = service_graph()
        with CampaignService(graph, workers=2) as service:
            handles = [
                service.submit(JobSpec(alpha=3, beta=3, b1=3, b2=3)),
                service.submit(JobSpec(alpha=3, beta=3, b1=2, b2=2)),
                service.submit(JobSpec(alpha=2, beta=2, b1=2, b2=2,
                                       method="filver")),
            ]
            for handle in handles:
                assert handle.wait(60), "job did not finish"
                assert handle.state == JobState.COMPLETED
            assert canonical(handles[0].result()) == canonical(
                reinforce(graph, 3, 3, 3, 3))

    def test_run_until_idle_refused_with_workers(self):
        with CampaignService(service_graph(), workers=1) as service:
            with pytest.raises(ServiceError, match="workers=0"):
                service.run_until_idle()

    def test_supervise_reports_clean_sweep(self):
        with CampaignService(service_graph(), workers=1) as service:
            report = service.supervise()
            assert report == {"respawned": 0, "stalled": []}

    def test_idle_workers_keep_polling_until_work_arrives(self):
        with CampaignService(service_graph(), workers=1) as service:
            time.sleep(0.12)  # at least one empty claim timeout
            handle = service.submit(JobSpec(alpha=2, beta=2, b1=1, b2=1))
            assert handle.wait(60)
            assert handle.state == JobState.COMPLETED


class TestServiceCLI:
    def run_cli(self, tmp_path, extra_args=(), jobs=None):
        from repro.bigraph import write_edge_list
        from repro.service.__main__ import main

        graph_path = tmp_path / "g.txt"
        write_edge_list(service_graph(), graph_path)
        jobs_path = tmp_path / "jobs.json"
        jobs_path.write_text(json.dumps(
            jobs if jobs is not None else
            [{"alpha": 3, "beta": 3, "b1": 3, "b2": 3},
             {"alpha": 2, "beta": 2, "b1": 2, "b2": 2,
              "method": "degree-greedy"}]))
        report_path = tmp_path / "report.json"
        code = main(["--input", str(graph_path), "--jobs", str(jobs_path),
                     "--json", str(report_path),
                     "--state-dir", str(tmp_path / "state")]
                    + list(extra_args))
        report = (json.loads(report_path.read_text())
                  if report_path.exists() else None)
        return code, report

    def test_batch_completes_with_report(self, tmp_path):
        code, report = self.run_cli(tmp_path, ["--workers", "1"])
        assert code == 0
        assert [row["state"] for row in report] == ["completed"] * 2
        assert report[0]["result"]["anchors"]

    def test_inline_workers_zero(self, tmp_path):
        code, report = self.run_cli(tmp_path, ["--workers", "0"])
        assert code == 0
        assert all(row["state"] == "completed" for row in report)

    def test_invalid_spec_is_a_clean_error(self, tmp_path):
        code, _ = self.run_cli(
            tmp_path, ["--workers", "0"],
            jobs=[{"alpha": 2, "beta": 2, "b1": 10_000, "b2": 0}])
        assert code == 2

    @pytest.mark.parametrize("jobs", [
        None, [{"alpha": 2, "beta": 2, "b1": 1, "b2": 1, "t": 0}],
    ], ids=["completed", "refused"])
    def test_signal_handlers_restored_after_main(self, tmp_path, jobs):
        guarded = (signal.SIGTERM, signal.SIGINT)
        before = [signal.getsignal(signum) for signum in guarded]
        code, _ = self.run_cli(tmp_path, ["--workers", "0"], jobs=jobs)
        assert code == (0 if jobs is None else 2)
        assert [signal.getsignal(signum) for signum in guarded] == before

    def test_missing_jobs_file_is_a_clean_error(self, tmp_path, capsys):
        from repro.bigraph import write_edge_list
        from repro.service.__main__ import main

        graph_path = tmp_path / "g.txt"
        write_edge_list(service_graph(), graph_path)
        argv = ["--input", str(graph_path)]
        assert main(argv + ["--jobs", str(tmp_path / "absent.json")]) == 2
        assert "cannot read jobs file" in capsys.readouterr().err

        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        assert main(argv + ["--jobs", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

        bad.write_text(json.dumps({"alpha": 2}))
        assert main(argv + ["--jobs", str(bad)]) == 2
        assert "JSON list" in capsys.readouterr().err
