"""Fuzzing the persisted artifacts: every damaged file loads, or is refused.

Each format this repository persists — campaign checkpoints, the campaign
service's queue file, result and seed cache entries, and the memmap graph
header — is damaged in every way a crash or a bad disk produces:

* truncation at every byte offset (a torn write);
* 500 seeded single-bit flips;
* substitution of another format's file at its path;
* for the cache, an entry stored under another key.

The contract: the load equals the original, or it is a typed refusal
(:class:`CheckpointError` / :class:`ServiceError` /
:class:`GraphConstructionError`), or — for the cache — a miss.  No other
exception may escape.  The memmap header carries no checksum (its format
is unchanged), so for it only the second half is asserted: a flip may
yield a different well-formed header, but never an untyped error.
"""

import hashlib
import json
import os
import random
import shutil

import pytest

from repro.bigraph import disjoint_union, save_graph_memmap
from repro.bigraph.memmap import load_graph_memmap
from repro.core import reinforce
from repro.core.batch import SharedCampaignContext
from repro.exceptions import (
    CheckpointError,
    FaultInjected,
    GraphConstructionError,
    ServiceError,
)
from repro.experiments.export import result_to_dict
from repro.generators.planted import planted_core_graph
from repro.resilience import FaultPlan, load_checkpoint
from repro.service.cache import CACHE_SCHEMA, DiskCacheTier
from repro.service.jobs import Job, JobSpec
from repro.service.queue import load_queue_state, save_queue_state

FLIPS = 500


def small_graph():
    return disjoint_union([
        planted_core_graph(alpha=2, beta=2, core_upper=3, core_lower=3,
                           n_chains=2, max_chain_length=2, seed=40 + i)
        for i in range(2)])


def bit_flips(data, seed):
    rng = random.Random(seed)
    for _ in range(FLIPS):
        bit = rng.randrange(len(data) * 8)
        damaged = bytearray(data)
        damaged[bit // 8] ^= 1 << (bit % 8)
        yield bytes(damaged)


def truncations(data):
    for cut in range(len(data)):
        yield data[:cut]


class Artifact:
    """One persisted file: its path, pristine bytes, and its loader."""

    def __init__(self, path, load, original, refusal):
        self.path = path
        self.load = load
        self.original = original
        self.refusal = refusal
        with open(path, "rb") as handle:
            self.data = handle.read()

    def write(self, data):
        with open(self.path, "wb") as handle:
            handle.write(data)

    def outcome(self, data):
        """Load ``data`` from the path and classify the result; the
        pristine bytes are put back afterwards."""
        self.write(data)
        try:
            loaded = self.load()
        except self.refusal:
            return "refused"
        finally:
            self.write(self.data)
        if loaded is None and self.original is not None:
            return "miss"
        assert loaded == self.original
        return "loaded"


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    graph = small_graph()

    ckpt = str(root / "checkpoint.json")
    plan = FaultPlan().add("engine.filter", call=3)
    with plan.active():
        with pytest.raises(FaultInjected):
            reinforce(graph, 2, 2, 2, 2, method="filver++", t=2,
                      checkpoint=ckpt)

    queue = str(root / "queue.json")
    job = Job(7, JobSpec(alpha=2, beta=2, b1=1, b2=1, priority=3,
                         deadline=9.5))
    save_queue_state(queue, "sha256:fp", 8, [job], sleep=lambda s: None)

    tier = DiskCacheTier(str(root / "cache"), sleep=lambda s: None)
    result_key = ["sha256:fp", 2, 2, 2, 2, "filver++"]
    result = json.loads(json.dumps(result_to_dict(
        reinforce(graph, 2, 2, 2, 2, method="filver++", t=2))))
    assert tier.store("result", result_key, result)
    seed_key = ["sha256:fp", 2, 2]
    with SharedCampaignContext(graph.to_csr(), 2, 2) as context:
        context.seed_tables()
        seed = json.loads(json.dumps(context.seed_payload()))
    assert tier.store("seed", seed_key, seed)

    memmap_dir = save_graph_memmap(graph, str(root / "graph"))

    def load_memmap():
        loaded = load_graph_memmap(memmap_dir)
        edges = sorted(loaded.edges())
        loaded.adjacency.close()
        return loaded.n_upper, loaded.n_lower, edges

    built = {
        "checkpoint": Artifact(ckpt, lambda: load_checkpoint(ckpt),
                               load_checkpoint(ckpt), CheckpointError),
        "queue": Artifact(queue, lambda: load_queue_state(queue),
                          load_queue_state(queue), ServiceError),
        "result": Artifact(tier._path("result", result_key),
                           lambda: tier.load("result", result_key),
                           result, ()),
        "seed": Artifact(tier._path("seed", seed_key),
                         lambda: tier.load("seed", seed_key), seed, ()),
        "header": Artifact(os.path.join(memmap_dir, "header.json"),
                           load_memmap, (graph.n_upper, graph.n_lower,
                                         sorted(graph.edges())),
                           GraphConstructionError),
    }
    return built


ENVELOPED = ("checkpoint", "queue", "result", "seed")


@pytest.mark.parametrize("name", ENVELOPED + ("header",))
def test_pristine_file_loads_unchanged(artifacts, name):
    artifact = artifacts[name]
    assert artifact.outcome(artifact.data) == "loaded"


@pytest.mark.parametrize("name", ENVELOPED + ("header",))
def test_truncation_at_every_offset(artifacts, name):
    artifact = artifacts[name]
    outcomes = {artifact.outcome(data) for data in truncations(artifact.data)}
    assert outcomes & {"refused", "miss"}


@pytest.mark.parametrize("name", ENVELOPED)
def test_single_bit_flips(artifacts, name):
    artifact = artifacts[name]
    outcomes = [artifact.outcome(data)
                for data in bit_flips(artifact.data, seed=13)]
    # Every flip changes the bytes; only the ones JSON cannot see (e.g.
    # an exponent's case) may load, and they load equal to the original.
    assert outcomes.count("loaded") < FLIPS // 10


def test_header_bit_flips_raise_only_typed_errors(artifacts):
    artifact = artifacts["header"]
    try:
        for data in bit_flips(artifact.data, seed=13):
            artifact.write(data)
            try:
                artifact.load()
            except GraphConstructionError:
                pass
    finally:
        artifact.write(artifact.data)


@pytest.mark.parametrize("name,other", [
    (name, other) for name in ENVELOPED + ("header",)
    for other in ENVELOPED + ("header",) if other != name])
def test_another_formats_file_is_refused(artifacts, name, other):
    artifact = artifacts[name]
    assert artifact.outcome(artifacts[other].data) in {"refused", "miss"}


def test_entry_under_another_key_is_a_miss(artifacts):
    result = artifacts["result"]
    tier = DiskCacheTier(os.path.dirname(result.path))
    other_key = ["sha256:fp", 2, 2, 1, 1, "filver++"]
    shutil.copyfile(result.path, tier._path("result", other_key))
    assert tier.load("result", other_key) is None
    assert tier.stats()["corrupt"] == 1


@pytest.mark.parametrize("name", ("result", "seed"))
def test_compact_layout_cache_entry_loads(artifacts, name):
    """Entries written compact (the older cache layout) still load."""
    artifact = artifacts[name]
    envelope = json.loads(artifact.data)
    compact = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    assert envelope["schema"] == CACHE_SCHEMA
    assert artifact.outcome((compact + "\n").encode("utf-8")) == "loaded"


@pytest.mark.parametrize("name", ENVELOPED)
def test_envelope_text_layout(artifacts, name):
    """Every envelope is ``indent=2, sort_keys`` JSON plus a newline, with
    the checksum taken over the compact sorted payload."""
    artifact = artifacts[name]
    envelope = json.loads(artifact.data)
    payload = json.dumps(envelope["payload"], sort_keys=True,
                         separators=(",", ":"))
    assert envelope["checksum"] \
        == hashlib.sha256(payload.encode("utf-8")).hexdigest()
    text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    assert artifact.data == text.encode("utf-8")
