"""Tests for repro.resilience: atomic writes, retry, campaign checkpoints."""

import json
import os

import pytest

from repro.bigraph import from_biadjacency
from repro.core.result import IterationRecord
from repro.exceptions import CheckpointError, InvalidParameterError
from repro.resilience import (
    CHECKPOINT_SCHEMA,
    Backoff,
    CampaignCheckpoint,
    atomic_write_text,
    atomic_writer,
    graph_fingerprint,
    load_checkpoint,
)
from repro.resilience.retry import retry


def square_graph():
    return from_biadjacency([
        [1, 1, 1, 0],
        [1, 1, 1, 1],
        [1, 1, 0, 1],
        [0, 1, 1, 1],
    ])


def make_checkpoint(graph, **overrides):
    fields = dict(
        algorithm="filver", alpha=2, beta=2, b1=2, b2=2,
        options={"use_two_hop_filter": False, "maintain_orders": False,
                 "use_rf_bound": False, "anchors_per_iteration": 1},
        graph_fingerprint=graph_fingerprint(graph),
        anchors=[3, 7], upper_used=1,
        iterations=[IterationRecord(anchors=[3], marginal_followers=2,
                                    candidates_total=5,
                                    candidates_after_filter=3,
                                    verifications=3, elapsed=0.01),
                    IterationRecord(anchors=[7], marginal_followers=1,
                                    candidates_total=4,
                                    candidates_after_filter=2,
                                    verifications=2, elapsed=0.02)],
        exhausted=False, elapsed=0.5)
    fields.update(overrides)
    return CampaignCheckpoint(**fields)


class TestAtomicWriter:
    def test_success_replaces_target(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with atomic_writer(path) as handle:
            handle.write("new")
        assert path.read_text() == "new"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failure_preserves_target_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_writer(path) as handle:
                handle.write("half-writ")
                raise RuntimeError("killed mid-write")
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failure_without_prior_target_leaves_nothing(self, tmp_path):
        path = tmp_path / "fresh.txt"
        with pytest.raises(ValueError):
            with atomic_writer(path) as handle:
                handle.write("partial")
                raise ValueError
        assert os.listdir(tmp_path) == []

    def test_atomic_write_text(self, tmp_path):
        path = tmp_path / "t.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"


class TestRetry:
    def test_first_try_success_never_sleeps(self):
        sleeps = []
        assert retry(lambda: 42, sleep=sleeps.append) == 42
        assert sleeps == []

    def test_retries_until_success_with_fake_clock(self):
        sleeps = []
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "ok"

        policy = Backoff(attempts=4, base=0.1, multiplier=2.0, max_delay=2.0)
        assert retry(flaky, backoff=policy, sleep=sleeps.append) == "ok"
        assert len(attempts) == 3
        assert sleeps == [0.1, 0.2]

    def test_delays_are_capped_and_deterministic(self):
        policy = Backoff(attempts=5, base=0.5, multiplier=3.0, max_delay=2.0)
        assert list(policy.delays()) == [0.5, 1.5, 2.0, 2.0]
        assert list(policy.delays()) == list(policy.delays())

    def test_non_matching_exception_propagates_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise KeyError("bug, not a transient fault")

        with pytest.raises(KeyError):
            retry(broken, sleep=lambda _s: None)
        assert len(calls) == 1

    def test_final_failure_propagates_unchanged(self):
        marker = OSError("still down")

        def always_down():
            raise marker

        sleeps = []
        with pytest.raises(OSError) as info:
            retry(always_down, backoff=Backoff(attempts=3, base=1.0),
                  sleep=sleeps.append)
        assert info.value is marker
        assert sleeps == [1.0, 2.0]

    def test_on_retry_observer(self):
        seen = []

        def flaky():
            if len(seen) < 1:
                raise OSError("once")
            return True

        assert retry(flaky, sleep=lambda _s: None,
                     on_retry=lambda attempt, exc: seen.append((attempt,
                                                                str(exc))))
        assert seen == [(1, "once")]

    def test_bad_policy_rejected(self):
        with pytest.raises(InvalidParameterError):
            Backoff(attempts=0)
        with pytest.raises(InvalidParameterError):
            Backoff(multiplier=0.5)


class TestGraphFingerprint:
    def test_backend_independent(self):
        graph = square_graph()
        assert graph_fingerprint(graph) == graph_fingerprint(graph.to_csr())

    def test_structure_sensitive(self):
        a = from_biadjacency([[1, 1], [1, 0]])
        b = from_biadjacency([[1, 1], [0, 1]])
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_chunked_digest_matches_across_chunk_boundary(self):
        # 70 x 70 complete bipartite graph: 4900 edges, crossing the
        # 4096-edge digest chunk; the fingerprint must not depend on
        # where the chunk boundary falls.
        big = from_biadjacency([[1] * 70 for _ in range(70)])
        assert big.n_edges > 4096
        assert graph_fingerprint(big) == graph_fingerprint(big.to_csr())


class TestCheckpointRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        graph = square_graph()
        path = tmp_path / "c.json"
        original = make_checkpoint(graph)
        original.save(path)
        loaded = load_checkpoint(path)
        assert loaded == original

    def test_envelope_layout(self, tmp_path):
        path = tmp_path / "c.json"
        make_checkpoint(square_graph()).save(path)
        envelope = json.loads(path.read_text())
        assert set(envelope) == {"schema", "checksum", "payload"}
        assert envelope["schema"] == CHECKPOINT_SCHEMA

    def test_corrupt_file_is_refused(self, tmp_path):
        path = tmp_path / "c.json"
        make_checkpoint(square_graph()).save(path)
        text = path.read_text()
        assert '"upper_used": 1' in text
        path.write_text(text.replace('"upper_used": 1', '"upper_used": 2'))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_json_is_refused(self, tmp_path):
        path = tmp_path / "c.json"
        make_checkpoint(square_graph()).save(path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(CheckpointError, match="JSON"):
            load_checkpoint(path)

    def test_unknown_schema_version_is_refused(self, tmp_path):
        path = tmp_path / "c.json"
        make_checkpoint(square_graph()).save(path)
        envelope = json.loads(path.read_text())
        envelope["schema"] = CHECKPOINT_SCHEMA + 1
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="schema version"):
            load_checkpoint(path)

    def test_missing_file_is_a_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.json")

    def test_file_without_payload_envelope_is_refused(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(CheckpointError, match="no payload envelope"):
            load_checkpoint(path)

    def test_malformed_payload_is_refused(self):
        with pytest.raises(CheckpointError, match="malformed"):
            CampaignCheckpoint.from_payload({"algorithm": "filver"})


class TestResumeValidation:
    def test_accepts_matching_problem(self):
        graph = square_graph()
        ckpt = make_checkpoint(graph)
        ckpt.validate_for(graph, 2, 2, 2, 2, dict(ckpt.options))

    def test_refuses_different_graph(self):
        graph = square_graph()
        other = from_biadjacency([[1, 1], [1, 1]])
        with pytest.raises(CheckpointError, match="different graph"):
            make_checkpoint(graph).validate_for(other, 2, 2, 2, 2,
                                                make_checkpoint(graph).options)

    def test_refuses_different_constraints_or_budgets(self):
        graph = square_graph()
        ckpt = make_checkpoint(graph)
        with pytest.raises(CheckpointError, match="parameters"):
            ckpt.validate_for(graph, 3, 2, 2, 2, dict(ckpt.options))
        with pytest.raises(CheckpointError, match="parameters"):
            ckpt.validate_for(graph, 2, 2, 1, 2, dict(ckpt.options))

    def test_refuses_different_engine_options(self):
        graph = square_graph()
        ckpt = make_checkpoint(graph)
        changed = dict(ckpt.options, use_two_hop_filter=True)
        with pytest.raises(CheckpointError, match="options"):
            ckpt.validate_for(graph, 2, 2, 2, 2, changed)


    @pytest.mark.parametrize("field,value,match", [
        ("anchors", [], "inconsistent"),
        ("exhausted", "x", "malformed"),
        ("upper_used", -1, "inconsistent"),
        ("alpha", float("inf"), "malformed"),
        ("b1", True, "malformed"),
        ("anchors", [10 ** 6], "inconsistent"),
    ])
    def test_refuses_checksum_valid_but_inconsistent_progress(
            self, tmp_path, field, value, match):
        """A well-formed envelope whose payload contradicts itself (or
        changed a field's type) is refused, never resumed wrongly."""
        import hashlib

        from repro.bigraph import disjoint_union
        from repro.core import reinforce
        from repro.exceptions import FaultInjected
        from repro.generators.planted import planted_core_graph
        from repro.resilience import FaultPlan

        graph = disjoint_union([
            planted_core_graph(alpha=3, beta=3, core_upper=6, core_lower=6,
                               n_chains=6, max_chain_length=4, seed=100 + i)
            for i in range(3)])
        path = tmp_path / "c.json"
        with FaultPlan().add("engine.filter", call=3).active():
            with pytest.raises(FaultInjected):
                reinforce(graph, 3, 3, 3, 3, method="filver++", t=2,
                          checkpoint=str(path))
        envelope = json.loads(path.read_text())
        envelope["payload"][field] = value
        envelope["checksum"] = hashlib.sha256(json.dumps(
            envelope["payload"], sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")).hexdigest()
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match=match):
            reinforce(graph, 3, 3, 3, 3, method="filver++", t=2,
                      resume_from=str(path))


class TestTerminationFlag:
    def test_sigterm_sets_flag_and_restore_reinstates_handler(self):
        import os
        import signal

        from repro.resilience import TerminationFlag

        previous = signal.getsignal(signal.SIGTERM)
        flag = TerminationFlag().install()
        try:
            assert not flag.is_set()
            os.kill(os.getpid(), signal.SIGTERM)
            assert flag.is_set()
        finally:
            flag.restore()
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_programmatic_set(self):
        from repro.resilience import TerminationFlag

        flag = TerminationFlag()
        assert not flag.is_set()
        flag.set()
        assert flag.is_set()

    def test_uninstallable_signal_degrades_to_never_firing(self):
        import signal

        from repro.resilience import TerminationFlag

        previous = signal.getsignal(signal.SIGTERM)
        flag = TerminationFlag(signals=(signal.NSIG + 7,)).install()
        try:
            assert flag._installed is False
            assert not flag.is_set()
        finally:
            flag.restore()
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_double_install_is_a_noop(self):
        import signal

        from repro.resilience import TerminationFlag

        previous = signal.getsignal(signal.SIGTERM)
        flag = TerminationFlag().install()
        try:
            assert flag.install() is flag
        finally:
            flag.restore()
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_context_manager_restores(self):
        import signal

        from repro.resilience import TerminationFlag

        previous = signal.getsignal(signal.SIGTERM)
        with TerminationFlag():
            assert signal.getsignal(signal.SIGTERM) is not previous
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_install_is_a_noop_off_the_main_thread(self):
        import signal
        import threading

        from repro.resilience import TerminationFlag

        previous = signal.getsignal(signal.SIGTERM)
        outcome = {}

        def target():
            flag = TerminationFlag().install()
            outcome["installed"] = flag._installed
            flag.restore()

        worker = threading.Thread(target=target)
        worker.start()
        worker.join()
        assert outcome["installed"] is False
        assert signal.getsignal(signal.SIGTERM) is previous


class TestEngineGracefulSigterm:
    def test_sigterm_yields_verified_best_so_far(self, tmp_path):
        import os
        import signal

        from repro.core import reinforce
        from conftest import random_bigraph

        graph = random_bigraph(1, n1_range=(12, 16), n2_range=(12, 16),
                               density=0.2)
        full = reinforce(graph, 3, 3, 3, 3, method="filver")
        assert len(full.iterations) >= 2

        fired = {"n": 0}

        def terminate_after_first(record):
            fired["n"] += 1
            if fired["n"] == 1:
                os.kill(os.getpid(), signal.SIGTERM)

        ckpt = tmp_path / "c.json"
        partial = reinforce(graph, 3, 3, 3, 3, method="filver",
                            checkpoint=str(ckpt),
                            on_iteration=terminate_after_first,
                            handle_sigterm=True)
        assert partial.interrupted
        assert len(partial.iterations) < len(full.iterations)
        # The flushed checkpoint resumes to the byte-identical full result.
        resumed = reinforce(graph, 3, 3, 3, 3, method="filver",
                            resume_from=str(ckpt))
        assert resumed.anchors == full.anchors
        assert not resumed.interrupted
        # The process-level handler was restored on the way out.
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL

    def test_without_flag_sigterm_is_not_intercepted(self):
        import signal

        from repro.core import reinforce
        from conftest import random_bigraph

        graph = random_bigraph(2, n1_range=(8, 10), n2_range=(8, 10),
                               density=0.25)
        previous = signal.getsignal(signal.SIGTERM)
        result = reinforce(graph, 2, 2, 2, 2, method="filver")
        assert signal.getsignal(signal.SIGTERM) is previous
        assert not result.interrupted
