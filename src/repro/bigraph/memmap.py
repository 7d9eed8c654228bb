"""Memory-mapped CSR adjacency: the out-of-core graph backend.

``backend="memmap"`` keeps the three CSR buffers
(``offsets``/``neighbors``/``degrees``, see :mod:`repro.bigraph.csr`) in
files under one directory and maps them with the standard library's
:mod:`mmap`, so a campaign touches graph pages on demand instead of holding
the whole adjacency resident.  The buffers reach :class:`CSRAdjacency` as
``memoryview`` casts of the maps — the same buffer-protocol route the
shared-memory attach path uses — so every algorithm layer works unchanged.
The builder is the in-RAM two-pass routine of :mod:`repro.bigraph.csr`
with file-backed output buffers.

On-disk layout (one directory per graph)::

    header.json     the persisted envelope (repro.resilience.envelope) of
                    {"n_upper", "n_lower", "n_entries",
                     "upper_labels", "lower_labels"}, schema 2
    offsets.bin     int64[n_vertices + 1]
    neighbors.bin   int32[>= n_entries]   (file may be longer after dedupe)
    degrees.bin     int32[n_vertices]

The header is written last (atomically), so a directory with a readable
header is always complete.  Its checksum means a damaged header is
refused rather than read as different counts; schema-1 headers (the
bare, unchecksummed object) are refused too.

Lifecycle: :class:`MemmapStore` owns the maps and releases them in
:meth:`MemmapStore.close`; :class:`MemmapCSRAdjacency` holds the store and
forwards :meth:`MemmapCSRAdjacency.close`.  Graphs built into an unnamed
temporary directory clean the files up when the store is collected, and a
build that fails removes that directory at once.
"""

from __future__ import annotations

import mmap
import os
import shutil
import tempfile
import weakref
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.bigraph.csr import CSRAdjacency, _fill_csr
from repro.bigraph.graph import BipartiteGraph
from repro.exceptions import GraphConstructionError
from repro.resilience.envelope import (
    EnvelopeError,
    read_envelope,
    write_envelope,
)

__all__ = [
    "MEMMAP_SCHEMA",
    "MemmapStore",
    "MemmapCSRAdjacency",
    "save_graph_memmap",
    "load_graph_memmap",
    "memmap_graph_from_indexed_edges",
]

#: Bump when the on-disk layout changes; loaders reject other versions.
#: Version 2 wraps the header in the checksummed persisted envelope.
MEMMAP_SCHEMA = 2

_HEADER = "header.json"
#: buffer name -> (file name, item typecode, item size in bytes)
_FILES = {"offsets": ("offsets.bin", "q", 8),
          "neighbors": ("neighbors.bin", "i", 4),
          "degrees": ("degrees.bin", "i", 4)}


class MemmapStore:
    """Owner of the three file-backed buffer maps of one graph directory.

    The store maps its files in :meth:`open` (called by the constructor)
    and releases the views in :meth:`close`; each view owns its
    ``mmap.mmap``, so the OS reclaims a mapping once the last view over it
    (the adjacency drops its own in :meth:`MemmapCSRAdjacency.close`) is
    released.  Safe to close twice.
    """

    def __init__(self, path: "os.PathLike[str] | str") -> None:
        self.path = os.fspath(path)
        self.header = _read_header(self.path)
        self.offsets: Optional[memoryview] = None
        self.neighbors: Optional[memoryview] = None
        self.degrees: Optional[memoryview] = None
        self._closed = False
        self.open()

    def open(self) -> None:
        """Map the three buffer files read-only.

        Before mapping, each body file's on-disk size is checked against
        the length the header promises (``>=``, not ``==`` — the
        neighbors file legitimately keeps a dead tail after dedupe
        compaction), and only the promised bytes are mapped.  A shorter
        file means the write was truncated or the body was damaged after
        the header landed; that raises a :class:`GraphConstructionError`
        naming the file instead of a baffling mmap/IndexError deep inside
        a campaign.
        """
        header = self.header
        n = int(header["n_upper"]) + int(header["n_lower"])
        lengths = {"offsets": n + 1, "neighbors": int(header["n_entries"]),
                   "degrees": n}
        views = {}
        for name, (filename, typecode, itemsize) in _FILES.items():
            if lengths[name] == 0:
                # mmap refuses empty maps; an edge-free graph has an
                # empty neighbor table, which needs no backing pages.
                views[name] = memoryview(b"").cast(typecode)
                continue
            file_path = os.path.join(self.path, filename)
            needed = itemsize * lengths[name]
            try:
                actual = os.path.getsize(file_path)
            except OSError as error:
                raise GraphConstructionError(
                    "memmap graph %s is missing its %s file %s: %s"
                    % (self.path, name, filename, error)) from error
            if actual < needed:
                raise GraphConstructionError(
                    "memmap graph %s has a truncated %s file: %s holds "
                    "%d bytes but the header requires at least %d "
                    "(%d entries of %d bytes); the graph directory is "
                    "corrupt — rebuild it with save_graph_memmap"
                    % (self.path, name, filename, actual, needed,
                       lengths[name], itemsize))
            with open(file_path, "rb") as handle:
                views[name] = memoryview(mmap.mmap(
                    handle.fileno(), needed,
                    access=mmap.ACCESS_READ)).cast(typecode)
        self.offsets = views["offsets"]
        self.neighbors = views["neighbors"]
        self.degrees = views["degrees"]
        self._closed = False

    @property
    def nbytes(self) -> int:
        """Bytes covered by the three maps."""
        total = 0
        for view in (self.offsets, self.neighbors, self.degrees):
            if view is not None:
                total += view.itemsize * len(view)
        return total

    def close(self) -> None:
        """Release the three views, unmapping the files; safe to call twice.

        A caller that still holds row memoryviews keeps the pages mapped
        until those views die — same contract as the shared-memory attach
        path.
        """
        if self._closed:
            return
        self._closed = True
        for view in (self.offsets, self.neighbors, self.degrees):
            if view is not None:
                view.release()
        self.offsets = self.neighbors = self.degrees = None

    def __enter__(self) -> "MemmapStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class MemmapCSRAdjacency(CSRAdjacency):
    """A :class:`CSRAdjacency` whose buffers live in a :class:`MemmapStore`.

    Structurally identical to the in-RAM CSR table (rows are memoryview
    slices, equality is value-based across backends); the only additions
    are the owning ``store`` and :meth:`close`.
    """

    __slots__ = ("store",)

    #: Reported through :attr:`BipartiteGraph.backend`.
    backend_name = "memmap"

    def __init__(self, store: MemmapStore) -> None:
        if store.offsets is None or store.neighbors is None \
                or store.degrees is None:
            raise GraphConstructionError(
                "memmap store %s is closed" % store.path)
        super().__init__(
            store.offsets,  # type: ignore[arg-type]
            store.neighbors,  # type: ignore[arg-type]
            store.degrees,  # type: ignore[arg-type]
        )
        self.store = store

    def close(self) -> None:
        """Drop the row view and release the underlying store."""
        self._view.release()
        self.store.close()


def _read_header(path: str) -> dict:
    """The verified, type-checked ``header.json`` of graph directory ``path``.

    Anything unusable — an envelope that does not load (unreadable,
    non-UTF-8, bad JSON, another schema, a failed checksum), a count that
    is missing or not a non-negative JSON integer, labels that are neither
    null nor one per vertex of their layer — raises
    :class:`GraphConstructionError`.
    """
    header_path = os.path.join(path, _HEADER)
    try:
        header = read_envelope(header_path, MEMMAP_SCHEMA,
                               "memmap graph header")
    except EnvelopeError as error:
        raise GraphConstructionError(str(error)) from error
    for name in ("n_upper", "n_lower", "n_entries"):
        value = header.get(name)
        if type(value) is not int or value < 0:
            raise GraphConstructionError(
                "memmap graph header %s has %s=%r; expected a non-negative "
                "integer" % (header_path, name, value))
    for name, size in (("upper_labels", header["n_upper"]),
                       ("lower_labels", header["n_lower"])):
        labels = header.get(name)
        if labels is not None and (not isinstance(labels, list)
                                   or len(labels) != size):
            raise GraphConstructionError(
                "memmap graph header %s has malformed %s; expected null or "
                "a list of %d labels" % (header_path, name, size))
    return header


def _write_header(path: str, n_upper: int, n_lower: int, n_entries: int,
                  upper_labels: Optional[Sequence[object]],
                  lower_labels: Optional[Sequence[object]]) -> None:
    header = {
        "n_upper": n_upper,
        "n_lower": n_lower,
        "n_entries": n_entries,
        # Labels round-trip through JSON: strings and ints come back
        # unchanged, tuples come back as lists.
        "upper_labels": list(upper_labels) if upper_labels is not None else None,
        "lower_labels": list(lower_labels) if lower_labels is not None else None,
    }
    write_envelope(os.path.join(path, _HEADER), MEMMAP_SCHEMA, header)


def save_graph_memmap(graph: BipartiteGraph,
                      path: "os.PathLike[str] | str") -> str:
    """Persist ``graph`` as a memmap directory; returns the directory path.

    List-backed graphs are converted (one transient CSR copy); the source
    graph is never mutated.  The header is written last, so a crash leaves
    no readable-but-truncated graph behind.
    """
    csr_graph = graph.to_csr()
    adj = csr_graph.adjacency
    assert isinstance(adj, CSRAdjacency)
    target = os.fspath(path)
    os.makedirs(target, exist_ok=True)
    for name, (filename, _, _) in _FILES.items():
        buf = getattr(adj, name)
        with open(os.path.join(target, filename), "wb") as handle:
            if len(buf):
                handle.write(memoryview(buf).cast("B"))
    _write_header(target, csr_graph.n_upper, csr_graph.n_lower,
                  len(adj.neighbors),
                  csr_graph._upper_labels, csr_graph._lower_labels)
    return target


def load_graph_memmap(path: "os.PathLike[str] | str",
                      _cleanup_dir: bool = False) -> BipartiteGraph:
    """Open a memmap graph directory as a :class:`BipartiteGraph`.

    The returned graph's adjacency pages stream from disk on access; call
    ``graph.adjacency.close()`` (or drop the graph) to release the maps.
    With ``_cleanup_dir`` (used for unnamed temporary directories) the
    directory is deleted once the store is garbage-collected.
    """
    store = MemmapStore(path)
    if _cleanup_dir:
        # rmtree on a still-mapped file is fine on POSIX: the pages live
        # until the mapping dies, the directory entry goes away now.
        weakref.finalize(store, shutil.rmtree, store.path,
                         ignore_errors=True)
    adjacency = MemmapCSRAdjacency(store)
    header = store.header
    return BipartiteGraph(
        int(header["n_upper"]), int(header["n_lower"]), adjacency,
        upper_labels=header.get("upper_labels"),
        lower_labels=header.get("lower_labels"),
        _validate=False)


def memmap_graph_from_indexed_edges(
    pairs: Callable[[], Iterable[Tuple[int, int]]],
    n_upper: int,
    n_lower: int,
    path: Optional["os.PathLike[str] | str"] = None,
    dedupe: bool = True,
    upper_labels: Optional[Sequence[object]] = None,
    lower_labels: Optional[Sequence[object]] = None,
) -> BipartiteGraph:
    """Build a memmap-backed graph from per-layer index pairs, out of core.

    Runs the two-pass CSR construction of
    :func:`repro.bigraph.csr.csr_from_indexed_edges` with the output
    buffers file-backed from the start, so peak resident memory is the
    caller's edge iterator plus one int64 cursor per vertex — never the
    neighbor table itself.  ``pairs`` is invoked twice (counts pass, fill
    pass), exactly like the in-RAM builder.

    ``path=None`` builds into a fresh temporary directory that is removed
    when the returned graph's store is garbage-collected, or at once when
    the build fails.
    """
    cleanup = path is None
    target = (tempfile.mkdtemp(prefix="repro-memmap-")
              if path is None else os.fspath(path))
    views: List[memoryview] = []
    maps: List[mmap.mmap] = []

    def allocate(name: str, typecode: str, length: int) -> memoryview:
        # mmap refuses empty maps, so an empty buffer keeps one item of
        # file; the header's counts say how much of each file is live.
        filename, _, itemsize = _FILES[name]
        size = itemsize * max(1, length)
        with open(os.path.join(target, filename), "w+b") as handle:
            handle.truncate(size)
            maps.append(mmap.mmap(handle.fileno(), size))
        views.append(memoryview(maps[-1]).cast(typecode)[:length])
        return views[-1]

    try:
        os.makedirs(target, exist_ok=True)
        try:
            n_entries = _fill_csr(pairs, n_upper, n_lower, dedupe,
                                  allocate)[3]
        finally:
            # The failing frame may still hold the views: release them
            # before the maps close.
            for view in views:
                view.release()
            for mapped in maps:
                mapped.flush()
                mapped.close()
        _write_header(target, n_upper, n_lower, n_entries,
                      upper_labels, lower_labels)
        return load_graph_memmap(target, _cleanup_dir=cleanup)
    except BaseException:  # repro: boundary - drop a half-built temp dir
        if cleanup:
            shutil.rmtree(target, ignore_errors=True)
        raise
