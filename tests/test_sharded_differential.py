"""Differential proof that sharded campaigns match the unsharded engine.

The component-sharded substrate (:mod:`repro.core.sharded`) re-plans the
campaign as per-component sub-campaigns merged through a global ranked
stream.  Every test here runs the same campaign twice — unsharded serial
against ``shards>1`` (crossed with worker counts and adjacency backends) —
and asserts equality of everything the engine reports: anchors in
placement order, follower sets, per-iteration records including
``verifications`` counts, and the canonical JSON export.

Also covered: the LPT shard planner, checkpoint/resume across shard plans
and worker counts (one checkpoint format for every ``shards`` value; the
retired ``"sharded-1"`` envelope is refused), and the ``shards=`` thread
through the API and CLI.
"""

import hashlib
import json
import os

import pytest

from repro.bigraph import disjoint_union, from_edge_list, write_edge_list
from repro.core.api import reinforce
from repro.bigraph.components import ComponentDecomposition
from repro.core.sharded import CampaignShard, plan_shards
from repro.exceptions import (
    CheckpointError,
    FaultInjected,
    InvalidParameterError,
)
from repro.experiments.export import canonical_result_dict
from repro.generators.planted import planted_core_graph
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
        return reinforce(multi_component_graph(), 3, 3, 3, 3,
                         method="filver++", t=2, **kwargs)

    def interrupted_checkpoint(self, tmp_path, name="ckpt.json", shards=3,
                               workers=1):
        """Kill at iteration 2's filter stage; returns the checkpoint path."""
        ckpt = tmp_path / name
        plan = FaultPlan().add("engine.filter", call=2)
        with plan.active():
            with pytest.raises(FaultInjected):
                self.campaign(checkpoint=str(ckpt), shards=shards,
                              workers=workers)
        return ckpt

    def test_sharded_run_leaves_one_checkpoint_file(self, tmp_path):
        ckpt = self.interrupted_checkpoint(tmp_path)
        assert os.listdir(tmp_path) == [ckpt.name]
        assert len(load_checkpoint(ckpt).iterations) == 1

    def test_resume_is_byte_identical(self, tmp_path):
        full = self.campaign()
        ckpt = self.interrupted_checkpoint(tmp_path)
        resumed = self.campaign(resume_from=str(ckpt), shards=3)
        assert_identical(resumed, full)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("resumer", [None, 1, 3, 8])
    @pytest.mark.parametrize("writer", [None, 1, 3, 8])
    def test_resume_under_different_plan_and_workers(self, tmp_path, writer,
                                                     resumer, workers):
        """Neither shard plan nor worker count is part of the checkpoint.

        ``workers`` is the resumer's pool size; the writer uses the other
        one, so both serial-to-parallel and parallel-to-serial resumes
        are covered.
        """
        full = self.campaign()
        ckpt = self.interrupted_checkpoint(tmp_path, shards=writer,
                                           workers=3 - workers)
        resumed = self.campaign(resume_from=str(ckpt), shards=resumer,
                                workers=workers)
        assert canonical_json(resumed) == canonical_json(full)
        assert_identical(resumed, full)

    def test_checksum_tamper_is_rejected(self, tmp_path):
        ckpt = self.interrupted_checkpoint(tmp_path)
        envelope = json.loads(ckpt.read_text())
        envelope["payload"]["elapsed"] = 99.0
        ckpt.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="checksum"):
            self.campaign(resume_from=str(ckpt), shards=3)

    @pytest.mark.parametrize("shards", [None, 3])
    def test_unsharded_resume_from_envelope_is_refused(self, tmp_path,
                                                       shards):
        """A ``"sharded-1"`` envelope (the retired per-shard format) is a
        typed refusal under every plan, never a wrong resume."""
        campaign = load_checkpoint(
            self.interrupted_checkpoint(tmp_path)).to_payload()
        payload = {"campaign": campaign, "shards": 3,
                   "shard_fingerprints": ["sha256:0"] * 3}
        envelope = tmp_path / "sharded.json"
        envelope.write_text(json.dumps({
            "schema": "sharded-1", "payload": payload,
            "checksum": hashlib.sha256(json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")).hexdigest()}))
        with pytest.raises(CheckpointError, match="schema"):
            self.campaign(resume_from=str(envelope), shards=shards)


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
