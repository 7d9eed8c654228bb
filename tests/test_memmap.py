"""Tests for the memory-mapped CSR backend (repro.bigraph.memmap).

Covers the on-disk store lifecycle (open/close, header-last write order,
schema rejection), the out-of-core builder (round trips, dedupe both
ways, validation), the ``backend="memmap"`` thread through
``from_edge_list``/``read_edge_list``, the resident-vs-mapped accounting
in ``memory_footprint``, and the end-to-end guarantee: a campaign on a
memmap graph is byte-identical to the same campaign on the in-RAM CSR
built from the same edge stream.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap

import pytest

import repro

from repro.bigraph import from_edge_list, read_edge_list, write_edge_list
from repro.bigraph.memmap import (
    MEMMAP_SCHEMA,
    MemmapCSRAdjacency,
    MemmapStore,
    load_graph_memmap,
    memmap_graph_from_indexed_edges,
    save_graph_memmap,
)
from repro.bigraph.stats import memory_footprint
from repro.core.api import reinforce
from repro.exceptions import GraphConstructionError
from repro.experiments.export import canonical_result_dict

from conftest import random_bigraph

EDGES = [(0, 0), (0, 1), (1, 0), (1, 2), (2, 2), (3, 1)]


def same_structure(a, b):
    assert (a.n_upper, a.n_lower, a.n_edges) == (b.n_upper, b.n_lower,
                                                 b.n_edges)
    for v in range(a.n_vertices):
        assert list(a.neighbors(v)) == list(b.neighbors(v))


class TestSaveLoadRoundTrip:
    def test_round_trip_preserves_structure_and_labels(self, tmp_path):
        graph = from_edge_list(EDGES, n_upper=4, n_lower=3,
                               upper_labels=["u%d" % i for i in range(4)],
                               lower_labels=["l%d" % i for i in range(3)])
        target = save_graph_memmap(graph, tmp_path / "g")
        loaded = load_graph_memmap(target)
        assert loaded.backend == "memmap"
        same_structure(graph, loaded)
        assert loaded.label_of(0) == "u0"
        assert loaded.label_of(loaded.n_upper) == "l0"
        loaded.adjacency.close()

    def test_round_trip_of_random_graph(self, tmp_path):
        graph = random_bigraph(3, density=0.3).to_csr()
        loaded = load_graph_memmap(save_graph_memmap(graph, tmp_path / "g"))
        same_structure(graph, loaded)
        loaded.adjacency.close()

    def test_empty_graph_round_trips(self, tmp_path):
        graph = from_edge_list([], n_upper=2, n_lower=2)
        loaded = load_graph_memmap(save_graph_memmap(graph, tmp_path / "g"))
        assert loaded.n_edges == 0 and loaded.n_vertices == 4
        loaded.adjacency.close()


class TestStoreLifecycle:
    def test_close_is_idempotent_and_releases_views(self, tmp_path):
        target = save_graph_memmap(
            from_edge_list(EDGES, n_upper=4, n_lower=3), tmp_path / "g")
        store = MemmapStore(target)
        assert store.nbytes > 0
        store.close()
        store.close()
        assert store.offsets is None and store.nbytes == 0

    def test_store_is_a_context_manager(self, tmp_path):
        target = save_graph_memmap(
            from_edge_list(EDGES, n_upper=4, n_lower=3), tmp_path / "g")
        with MemmapStore(target) as store:
            assert store.neighbors is not None
        assert store.neighbors is None

    def test_adjacency_refuses_closed_store(self, tmp_path):
        target = save_graph_memmap(
            from_edge_list(EDGES, n_upper=4, n_lower=3), tmp_path / "g")
        store = MemmapStore(target)
        store.close()
        with pytest.raises(GraphConstructionError, match="closed"):
            MemmapCSRAdjacency(store)

    def test_graph_adjacency_close_is_safe_after_use(self, tmp_path):
        target = save_graph_memmap(
            from_edge_list(EDGES, n_upper=4, n_lower=3), tmp_path / "g")
        graph = load_graph_memmap(target)
        assert sorted(graph.neighbors(0)) == [4, 5]
        graph.adjacency.close()


class TestHeaderValidation:
    def make_dir(self, tmp_path):
        return save_graph_memmap(
            from_edge_list(EDGES, n_upper=4, n_lower=3), tmp_path / "g")

    def test_wrong_schema_is_rejected(self, tmp_path):
        target = self.make_dir(tmp_path)
        header_path = tmp_path / "g" / "header.json"
        header = json.loads(header_path.read_text())
        header["schema"] = MEMMAP_SCHEMA + 1
        header_path.write_text(json.dumps(header))
        with pytest.raises(GraphConstructionError, match="schema"):
            load_graph_memmap(target)

    def test_missing_header_is_rejected(self, tmp_path):
        target = self.make_dir(tmp_path)
        (tmp_path / "g" / "header.json").unlink()
        with pytest.raises(GraphConstructionError, match="header"):
            load_graph_memmap(target)

    def test_corrupt_header_is_rejected(self, tmp_path):
        target = self.make_dir(tmp_path)
        (tmp_path / "g" / "header.json").write_text("{truncated")
        with pytest.raises(GraphConstructionError, match="JSON"):
            load_graph_memmap(target)

    @pytest.mark.parametrize("field", ["n_entries", "upper_labels"])
    def test_changed_digit_in_well_formed_header_is_rejected(self, tmp_path,
                                                             field):
        """One digit of ``n_entries`` (or of a label) changes and the JSON
        stays well formed: the checksum refuses the load, instead of a
        shorter neighbor table or another label ever being read."""
        target = save_graph_memmap(
            from_edge_list(EDGES, n_upper=4, n_lower=3,
                           upper_labels=[10, 11, 12, 13]), tmp_path / "g")
        header_path = tmp_path / "g" / "header.json"
        text = header_path.read_text()
        match = re.search(r'"%s": \[?\s*(\d+)' % field, text)
        assert match.group(1) in (str(2 * len(EDGES)), "10")
        end = match.end(1)
        changed = text[:end - 1] + "1" + text[end:]  # 12 -> 11, 10 -> 11
        header_path.write_text(changed)
        json.loads(changed)  # still well formed
        with pytest.raises(GraphConstructionError, match="checksum"):
            load_graph_memmap(target)

    def test_schema_one_header_is_rejected(self, tmp_path):
        """The bare, unchecksummed header of schema 1 is refused."""
        target = self.make_dir(tmp_path)
        (tmp_path / "g" / "header.json").write_text(json.dumps({
            "schema": 1, "n_upper": 4, "n_lower": 3,
            "n_entries": 2 * len(EDGES), "upper_labels": None,
            "lower_labels": None}))
        with pytest.raises(GraphConstructionError, match="header"):
            load_graph_memmap(target)


class TestBodyValidation:
    """Truncated/missing body segments must fail loudly at open time.

    The header is written last, so a readable header normally implies
    complete bodies — but bytes can vanish after the fact (filesystem
    corruption, a partial copy of the directory).  The loader must catch
    that with a clear error instead of an mmap failure or, worse, a
    silently short neighbor table."""

    def make_dir(self, tmp_path):
        return save_graph_memmap(
            from_edge_list(EDGES, n_upper=4, n_lower=3), tmp_path / "g")

    @pytest.mark.parametrize("filename", ["offsets.bin", "neighbors.bin",
                                          "degrees.bin"])
    def test_truncated_body_is_rejected(self, tmp_path, filename):
        target = self.make_dir(tmp_path)
        body = tmp_path / "g" / filename
        body.write_bytes(body.read_bytes()[:-4])
        with pytest.raises(GraphConstructionError, match="truncated"):
            load_graph_memmap(target)

    @pytest.mark.parametrize("filename", ["offsets.bin", "neighbors.bin",
                                          "degrees.bin"])
    def test_missing_body_is_rejected(self, tmp_path, filename):
        target = self.make_dir(tmp_path)
        (tmp_path / "g" / filename).unlink()
        with pytest.raises(GraphConstructionError, match="missing"):
            load_graph_memmap(target)

    def test_error_names_the_bad_file(self, tmp_path):
        target = self.make_dir(tmp_path)
        body = tmp_path / "g" / "neighbors.bin"
        body.write_bytes(body.read_bytes()[:3])
        with pytest.raises(GraphConstructionError, match="neighbors.bin"):
            load_graph_memmap(target)

    @pytest.mark.parametrize("padding", [8, 3])
    def test_oversized_neighbors_file_is_fine(self, tmp_path, padding):
        # The dedupe-compacted tail legitimately leaves the neighbors file
        # longer than n_entries; padding must not be mistaken for damage,
        # even when it is not a whole number of entries.
        target = self.make_dir(tmp_path)
        body = tmp_path / "g" / "neighbors.bin"
        body.write_bytes(body.read_bytes() + b"\x00" * padding)
        graph = load_graph_memmap(target)
        assert graph.n_edges == len(EDGES)
        graph.adjacency.close()


class TestOutOfCoreBuilder:
    @pytest.mark.parametrize("edges, n_upper, n_lower", [
        (EDGES, 4, 3),
        ([], 0, 0),
        (EDGES, 6, 5),
        (EDGES + EDGES[:3], 4, 3),
    ], ids=["plain", "empty", "trailing-isolated", "duplicates"])
    def test_matches_in_ram_builder(self, tmp_path, edges, n_upper,
                                    n_lower):
        in_ram = from_edge_list(edges, n_upper=n_upper, n_lower=n_lower,
                                backend="csr")
        built = memmap_graph_from_indexed_edges(
            lambda: iter(edges), n_upper, n_lower, path=tmp_path / "g")
        same_structure(in_ram, built)
        ram, disk = in_ram.adjacency, built.adjacency
        assert list(disk.offsets) == list(ram.offsets)
        assert list(disk.degrees) == list(ram.degrees)
        n_entries = disk.store.header["n_entries"]
        assert list(disk.neighbors[:n_entries]) == list(ram.neighbors)
        built.adjacency.close()

    def test_dedupe_collapses_duplicates(self, tmp_path):
        built = memmap_graph_from_indexed_edges(
            lambda: iter(EDGES + [EDGES[0], EDGES[3]]), 4, 3,
            path=tmp_path / "g")
        same_structure(from_edge_list(EDGES, n_upper=4, n_lower=3), built)
        built.adjacency.close()

    def test_duplicate_with_dedupe_off_is_rejected(self, tmp_path):
        with pytest.raises(GraphConstructionError, match="duplicate"):
            memmap_graph_from_indexed_edges(
                lambda: iter(EDGES + [EDGES[0]]), 4, 3,
                path=tmp_path / "g", dedupe=False)

    def test_out_of_range_edge_is_rejected(self, tmp_path):
        with pytest.raises(GraphConstructionError, match="out of range"):
            memmap_graph_from_indexed_edges(
                lambda: iter([(5, 0)]), 4, 3, path=tmp_path / "g")
        with pytest.raises(GraphConstructionError, match="non-negative"):
            memmap_graph_from_indexed_edges(lambda: iter([]), -1, 3)

    def test_failed_build_removes_its_temporary_directory(self, tmp_path,
                                                          monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        with pytest.raises(GraphConstructionError, match="duplicate"):
            from_edge_list([(0, 0), (0, 0)], backend="memmap", dedupe=False)
        with pytest.raises(GraphConstructionError, match="out of range"):
            memmap_graph_from_indexed_edges(lambda: iter([(5, 0)]), 4, 3)
        assert list(scratch.iterdir()) == []

    def test_unnamed_temporary_directory(self):
        built = memmap_graph_from_indexed_edges(lambda: iter(EDGES), 4, 3)
        same_structure(from_edge_list(EDGES, n_upper=4, n_lower=3), built)
        built.adjacency.close()


class TestBackendThreading:
    def test_from_edge_list_backend_memmap(self, tmp_path):
        graph = from_edge_list(EDGES, n_upper=4, n_lower=3,
                               backend="memmap",
                               memmap_dir=str(tmp_path / "g"))
        assert graph.backend == "memmap"
        same_structure(from_edge_list(EDGES, n_upper=4, n_lower=3), graph)
        graph.adjacency.close()

    def test_read_edge_list_backend_memmap(self, tmp_path):
        source = tmp_path / "edges.txt"
        write_edge_list(random_bigraph(9, density=0.3), source)
        csr = read_edge_list(source, backend="csr")
        mm = read_edge_list(source, backend="memmap",
                            memmap_dir=str(tmp_path / "g"))
        same_structure(csr, mm)
        mm.adjacency.close()


    @pytest.mark.parametrize("backend", ["list", "csr"])
    def test_memmap_dir_needs_the_memmap_backend(self, tmp_path, backend):
        source = tmp_path / "edges.txt"
        write_edge_list(from_edge_list(EDGES), source)
        with pytest.raises(GraphConstructionError, match="memmap_dir"):
            from_edge_list(EDGES, backend=backend, memmap_dir=str(tmp_path))
        with pytest.raises(GraphConstructionError, match="memmap_dir"):
            read_edge_list(source, backend=backend, memmap_dir=str(tmp_path))

    def test_memmap_backend_needs_no_numpy(self, tmp_path):
        script = textwrap.dedent("""\
            import sys
            sys.modules["numpy"] = None
            import repro
            from repro.bigraph import from_edge_list, read_edge_list
            from repro.bigraph import write_edge_list
            from repro.bigraph.memmap import load_graph_memmap

            root = sys.argv[1]
            edges = %r
            csr = from_edge_list(edges, n_upper=4, n_lower=3, backend="csr")
            built = from_edge_list(edges, n_upper=4, n_lower=3,
                                   backend="memmap",
                                   memmap_dir=root + "/built")
            built.adjacency.close()
            reopened = load_graph_memmap(root + "/built")
            assert reopened.adjacency == csr.adjacency

            write_edge_list(csr, root + "/edges.txt")
            read = read_edge_list(root + "/edges.txt", backend="memmap",
                                  memmap_dir=root + "/read")
            read.adjacency.close()
            reopened = load_graph_memmap(root + "/read")
            read_csr = read_edge_list(root + "/edges.txt", backend="csr")
            assert reopened.adjacency == read_csr.adjacency
            print("ok")
        """) % (EDGES,)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


class TestFootprintAccounting:
    def test_memmap_bytes_are_mapped_not_resident(self, tmp_path):
        graph = random_bigraph(4, density=0.3)
        mm = load_graph_memmap(
            save_graph_memmap(graph, tmp_path / "g"))
        resident = memory_footprint(graph.to_csr())
        mapped = memory_footprint(mm)
        assert resident["mapped_bytes"] == 0
        assert resident["resident_bytes"] == resident["adjacency_bytes"] > 0
        assert mapped["resident_bytes"] == 0
        assert mapped["mapped_bytes"] == mapped["adjacency_bytes"] > 0
        mm.adjacency.close()

    def test_per_component_breakdown_covers_all_edges(self, tmp_path):
        graph = random_bigraph(4, density=0.3)
        mm = load_graph_memmap(save_graph_memmap(graph, tmp_path / "g"))
        rows = memory_footprint(mm, per_component=True)["components"]
        assert sum(row["n_edges"] for row in rows) == graph.n_edges
        assert all(row["adjacency_bytes"] > 0 for row in rows
                   if row["n_edges"])
        mm.adjacency.close()


class TestMemmapCampaign:
    def test_campaign_is_byte_identical_to_in_ram_csr(self, tmp_path):
        base = random_bigraph(1, n1_range=(12, 16), n2_range=(12, 16),
                              density=0.2)
        edges = [(u, v - base.n_upper) for u, v in base.edges()]
        csr = from_edge_list(edges, n_upper=base.n_upper,
                             n_lower=base.n_lower, backend="csr")
        mm = from_edge_list(edges, n_upper=base.n_upper,
                            n_lower=base.n_lower, backend="memmap",
                            memmap_dir=str(tmp_path / "g"))
        on_csr = reinforce(csr, 3, 3, 3, 3, method="filver++", t=2)
        on_mm = reinforce(mm, 3, 3, 3, 3, method="filver++", t=2)
        assert on_csr.n_followers > 0
        assert (json.dumps(canonical_result_dict(on_mm), sort_keys=True)
                == json.dumps(canonical_result_dict(on_csr), sort_keys=True))
        mm.adjacency.close()
