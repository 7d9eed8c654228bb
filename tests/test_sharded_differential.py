"""Differential proof that sharded campaigns match the unsharded engine.

The component-sharded substrate (:mod:`repro.core.sharded`) re-plans the
campaign as per-component sub-campaigns merged through a global ranked
stream.  Every test here runs the same campaign twice — unsharded serial
against ``shards>1`` (crossed with worker counts and adjacency backends) —
and asserts equality of everything the engine reports: anchors in
placement order, follower sets, per-iteration records including
``verifications`` counts, and the canonical JSON export.

Also covered: the LPT shard planner, sharded-checkpoint envelopes (schema
cross-rejection against plain checkpoints, checksum, resume), dead-shard
degradation, and the ``shards=`` thread through the API and CLI.
"""

import json
import warnings

import pytest

from repro.bigraph import disjoint_union, from_edge_list, write_edge_list
from repro.core.api import reinforce
from repro.core.filver_plus_plus import run_filver_plus_plus
from repro.bigraph.components import ComponentDecomposition
from repro.core.sharded import CampaignShard, plan_shards
from repro.exceptions import (
    CheckpointError,
    FaultInjected,
    InvalidParameterError,
)
from repro.experiments.export import canonical_result_dict
from repro.generators.planted import planted_core_graph
from repro.resilience import load_sharded_checkpoint, shard_checkpoint_path
from repro.resilience.checkpoint import load_checkpoint
from repro.resilience.faults import FaultPlan

from conftest import random_bigraph

METHODS = ("filver", "filver+", "filver++")


def multi_component_graph(seed=1, parts=3):
    """Several planted-core components — the regime sharding is planned for.

    Each part has a (3,3)-core plus anchorable support chains, so (3,3,3,3)
    campaigns run multiple iterations with real followers in every part.
    """
    return disjoint_union([
        planted_core_graph(alpha=3, beta=3, core_upper=6, core_lower=6,
                           n_chains=6, max_chain_length=4,
                           seed=seed * 100 + i)
        for i in range(parts)
    ])


def structural(record):
    return (record.anchors, record.marginal_followers,
            record.candidates_total, record.candidates_after_filter,
            record.verifications)


def canonical_json(result):
    return json.dumps(canonical_result_dict(result), sort_keys=True)


def assert_identical(sharded, serial):
    assert sharded.anchors == serial.anchors
    assert sharded.followers == serial.followers
    assert sharded.base_core_size == serial.base_core_size
    assert sharded.final_core_size == serial.final_core_size
    assert ([structural(r) for r in sharded.iterations]
            == [structural(r) for r in serial.iterations])
    assert canonical_json(sharded) == canonical_json(serial)


class TestShardedEqualsSerial:
    @pytest.mark.parametrize("shards", [1, 2, 3, 16])
    @pytest.mark.parametrize("method", METHODS)
    def test_all_methods_and_shard_counts(self, method, shards):
        graph = multi_component_graph()
        serial = reinforce(graph, 3, 3, 3, 3, method=method, t=2)
        sharded = reinforce(graph, 3, 3, 3, 3, method=method, t=2,
                            shards=shards)
        assert len(serial.iterations) >= 2
        assert serial.n_followers > 0
        assert_identical(sharded, serial)

    @pytest.mark.parametrize("backend,shards", [
        pytest.param(backend, shards, id=backend + suffix)
        for shards, suffix in ((3, ""), (None, "-unsharded"))
        for backend in ("list", "csr", "memmap")])
    def test_all_backends(self, backend, shards, tmp_path, monkeypatch):
        """``shards=None`` is one identity shard: the input graph object
        itself (a memmap graph stays memmap), and no decomposition."""
        graph = multi_component_graph(seed=5)
        if backend == "csr":
            graph = graph.to_csr()
        elif backend == "memmap":
            edges = [(u, v - graph.n_upper) for u, v in graph.edges()]
            graph = from_edge_list(edges, n_upper=graph.n_upper,
                                   n_lower=graph.n_lower, backend="memmap",
                                   memmap_dir=str(tmp_path / "g"))
        serial = reinforce(graph, 3, 3, 3, 3, method="filver++", t=2)
        shard_graphs, decompositions = [], []
        real_ranked = CampaignShard.ranked
        real_decompose = ComponentDecomposition.__init__

        def ranked(shard, *args, **kwargs):
            shard_graphs.append(shard.graph)
            return real_ranked(shard, *args, **kwargs)

        def decompose(self, *args, **kwargs):
            decompositions.append(self)
            real_decompose(self, *args, **kwargs)

        monkeypatch.setattr(CampaignShard, "ranked", ranked)
        monkeypatch.setattr(ComponentDecomposition, "__init__", decompose)
        sharded = reinforce(graph, 3, 3, 3, 3, method="filver++", t=2,
                            shards=shards)
        monkeypatch.undo()
        assert shard_graphs
        if shards is None:
            assert all(g is graph for g in shard_graphs)
            assert decompositions == []
        else:
            assert all(g is not graph for g in shard_graphs)
            assert len(decompositions) == 1
        assert serial.n_followers > 0
        assert_identical(sharded, serial)
        if backend == "memmap":
            graph.adjacency.close()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_sharded_workers_equal_serial(self, workers):
        graph = multi_component_graph(seed=9)
        serial = reinforce(graph, 3, 3, 3, 3, method="filver++", t=2)
        sharded = reinforce(graph, 3, 3, 3, 3, method="filver++", t=2,
                            shards=2, workers=workers)
        assert_identical(sharded, serial)

    def test_memoize_off_matches_too(self):
        graph = multi_component_graph(seed=13)
        serial = reinforce(graph, 3, 3, 2, 2, method="filver++", t=2,
                           memoize=False)
        sharded = reinforce(graph, 3, 3, 2, 2, method="filver++", t=2,
                            memoize=False, shards=4)
        assert_identical(sharded, serial)

    def test_single_component_graph_still_works(self):
        graph = random_bigraph(2, n1_range=(12, 16), n2_range=(12, 16),
                               density=0.25)
        serial = reinforce(graph, 3, 3, 2, 2, method="filver++", t=2)
        sharded = reinforce(graph, 3, 3, 2, 2, method="filver++", t=2,
                            shards=8)
        assert_identical(sharded, serial)


class TestPlanShards:
    def test_rejects_non_positive_shard_count(self):
        with pytest.raises(InvalidParameterError):
            plan_shards([(1, 1, 1)], 0)

    def test_fewer_components_than_shards(self):
        groups = plan_shards([(1, 1, 5), (1, 1, 3)], 8)
        assert sorted(sum(groups, ())) == [0, 1]
        assert len(groups) == 2

    def test_single_shard_takes_everything(self):
        groups = plan_shards([(1, 1, 5), (1, 1, 3), (1, 1, 9)], 1)
        assert groups == [(0, 1, 2)]

    def test_lpt_balances_edge_load(self):
        sizes = [(1, 1, e) for e in (10, 9, 5, 5, 4, 3)]
        groups = plan_shards(sizes, 2)
        loads = sorted(sum(sizes[c][2] for c in group) for group in groups)
        # Greedy LPT on these sizes lands within one unit of the optimum.
        assert loads == [18, 18]

    def test_groups_cover_each_component_once(self):
        sizes = [(1, 1, e) for e in (7, 1, 3, 9, 2, 8, 4)]
        groups = plan_shards(sizes, 3)
        assert sorted(c for group in groups for c in group) \
            == list(range(len(sizes)))


class TestShardedCheckpointAndResume:
    def campaign(self, **kwargs):
        return run_filver_plus_plus(multi_component_graph(), 3, 3, 3, 3,
                                    t=2, **kwargs)

    def interrupted_checkpoint(self, tmp_path, name="ckpt.json"):
        """Kill at iteration 2's filter stage; returns the envelope path."""
        ckpt = tmp_path / name
        plan = FaultPlan().add("engine.filter", call=2)
        with plan.active():
            with pytest.raises(FaultInjected):
                self.campaign(checkpoint=str(ckpt), shards=3)
        return ckpt

    def test_envelope_and_shard_files_exist(self, tmp_path):
        ckpt = self.interrupted_checkpoint(tmp_path)
        envelope = load_sharded_checkpoint(ckpt)
        assert len(envelope.campaign.iterations) == 1
        assert envelope.shards == 3
        for index in range(envelope.shards):
            shard_file = shard_checkpoint_path(ckpt, index)
            local = load_checkpoint(shard_file)
            assert len(local.iterations) <= 1

    def test_resume_is_byte_identical(self, tmp_path):
        full = self.campaign()
        ckpt = self.interrupted_checkpoint(tmp_path)
        resumed = self.campaign(resume_from=str(ckpt), shards=3)
        assert_identical(resumed, full)

    def test_resume_under_different_plan_and_workers(self, tmp_path):
        full = self.campaign()
        ckpt = self.interrupted_checkpoint(tmp_path)
        # Neither shard count nor worker count is part of the checkpoint.
        resumed = self.campaign(resume_from=str(ckpt), shards=8, workers=2)
        assert_identical(resumed, full)

    def test_dead_shard_degrades_with_a_warning(self, tmp_path):
        full = self.campaign()
        ckpt = self.interrupted_checkpoint(tmp_path)
        import os
        os.unlink(shard_checkpoint_path(ckpt, 1))
        with pytest.warns(RuntimeWarning, match="shard 1"):
            resumed = self.campaign(resume_from=str(ckpt), shards=3)
        assert_identical(resumed, full)

    def test_corrupt_shard_file_degrades_with_a_warning(self, tmp_path):
        full = self.campaign()
        ckpt = self.interrupted_checkpoint(tmp_path)
        with open(shard_checkpoint_path(ckpt, 0), "w") as fh:
            fh.write("{not json")
        with pytest.warns(RuntimeWarning, match="shard 0"):
            resumed = self.campaign(resume_from=str(ckpt), shards=3)
        assert_identical(resumed, full)

    def test_intact_shard_files_resume_without_warning(self, tmp_path):
        ckpt = self.interrupted_checkpoint(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.campaign(resume_from=str(ckpt), shards=3)

    def test_plain_loader_rejects_envelope_and_vice_versa(self, tmp_path):
        ckpt = self.interrupted_checkpoint(tmp_path)
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint(ckpt)
        plain = tmp_path / "plain.json"
        plan = FaultPlan().add("engine.filter", call=2)
        with plan.active():
            with pytest.raises(FaultInjected):
                self.campaign(checkpoint=str(plain))
        with pytest.raises(CheckpointError, match="schema"):
            load_sharded_checkpoint(plain)

    def test_checksum_tamper_is_rejected(self, tmp_path):
        ckpt = self.interrupted_checkpoint(tmp_path)
        envelope = json.loads(ckpt.read_text())
        envelope["payload"]["shards"] = 99
        ckpt.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="checksum"):
            load_sharded_checkpoint(ckpt)

    def test_unsharded_resume_from_envelope_is_refused(self, tmp_path):
        ckpt = self.interrupted_checkpoint(tmp_path)
        with pytest.raises(CheckpointError, match="schema"):
            self.campaign(resume_from=str(ckpt))

    def test_loaded_checkpoint_of_the_other_format_is_refused(self,
                                                              tmp_path):
        """Loaded checkpoints get the same typed refusal as files."""
        plain = tmp_path / "plain.json"
        plan = FaultPlan().add("engine.filter", call=2)
        with plan.active():
            with pytest.raises(FaultInjected):
                self.campaign(checkpoint=str(plain))
        with pytest.raises(CheckpointError, match="plain campaign"):
            self.campaign(resume_from=load_checkpoint(plain), shards=2)
        envelope = load_sharded_checkpoint(self.interrupted_checkpoint(
            tmp_path, name="sharded.json"))
        with pytest.raises(CheckpointError, match="sharded checkpoint"):
            self.campaign(resume_from=envelope)


class TestShardedEnvelopeErrors:
    def test_malformed_payload_is_refused(self):
        from repro.resilience import ShardedCampaignCheckpoint

        with pytest.raises(CheckpointError, match="malformed sharded"):
            ShardedCampaignCheckpoint.from_payload({"shards": 2})

    def test_shard_count_mismatch_refused_at_save(self, tmp_path):
        from repro.resilience import ShardedCampaignCheckpoint

        envelope = ShardedCampaignCheckpoint(
            campaign=None, shards=2, shard_fingerprints=["a", "b"])
        with pytest.raises(CheckpointError,
                           match="0 shard checkpoints for 2"):
            envelope.save(tmp_path / "e.json", shard_checkpoints=[])

    def test_unreadable_or_malformed_envelopes_are_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_sharded_checkpoint(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_sharded_checkpoint(bad)
        bad.write_text(json.dumps([1, 2]))
        with pytest.raises(CheckpointError, match="no payload envelope"):
            load_sharded_checkpoint(bad)


class TestApiAndCliThreading:
    def test_non_engine_methods_reject_shards(self):
        graph = multi_component_graph()
        for method in ("random", "top-degree", "degree-greedy", "naive"):
            with pytest.raises(InvalidParameterError, match="shards"):
                reinforce(graph, 2, 2, 1, 1, method=method, shards=2)

    def test_invalid_shard_count_rejected(self):
        graph = multi_component_graph()
        with pytest.raises(InvalidParameterError):
            reinforce(graph, 2, 2, 1, 1, shards=0)

    def test_cli_shards_and_memmap_match_plain_run(self, tmp_path, capsys):
        from repro.__main__ import main

        source = tmp_path / "edges.txt"
        write_edge_list(multi_component_graph(), source)
        base = ["reinforce", "--input", str(source), "--alpha", "3",
                "--beta", "3", "--b1", "2", "--b2", "2", "--t", "2"]
        outputs = {}
        for name, extra in (
                ("plain", []),
                ("sharded", ["--shards", "3"]),
                ("memmap", ["--shards", "3", "--backend", "memmap",
                            "--memmap-dir", str(tmp_path / "mm")])):
            json_path = tmp_path / ("%s.json" % name)
            assert main(base + extra + ["--json", str(json_path)]) == 0
            capsys.readouterr()
            payload = json.loads(json_path.read_text())
            payload.pop("elapsed", None)
            for record in payload.get("iterations", []):
                record.pop("elapsed", None)
            outputs[name] = json.dumps(payload, sort_keys=True)
        assert outputs["sharded"] == outputs["plain"]
        assert outputs["memmap"] == outputs["plain"]
