"""Edge-list persistence in the KONECT-style text format.

The paper's 15 KONECT datasets ship as whitespace-separated edge lists with
``%`` comment headers; the Taobao dataset uses a CSV-like layout.  This module
reads and writes a compatible format so that a user with the real files can
feed them straight into the library:

* lines starting with ``%`` or ``#`` are comments;
* each data line is ``<upper id> <lower id>`` (extra columns such as weights
  or timestamps are ignored);
* ids are arbitrary tokens — they are treated as labels per layer, so datasets
  whose two layers share an id space are handled correctly.
"""

from __future__ import annotations

import gzip
import io
import os
import zlib
from array import array
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    TextIO,
    Tuple,
    Union,
)

from repro.bigraph.builder import GraphBuilder, _check_backend, _flat_graph
from repro.bigraph.graph import BipartiteGraph
from repro.exceptions import GraphConstructionError, InvalidParameterError
from repro.resilience.atomic import atomic_writer
from repro.resilience.faults import fault_site

__all__ = ["read_edge_list", "write_edge_list", "parse_edge_lines",
           "loads", "dumps", "LoadStats"]

PathOrFile = Union[str, os.PathLike, TextIO]


@dataclass
class LoadStats:
    """Counters filled in by the loaders when an instance is passed in.

    ``edges`` counts well-formed data lines (before dedup); ``skipped``
    counts malformed lines dropped under ``on_error="skip"``.
    """

    edges: int = 0
    skipped: int = 0


def parse_edge_lines(lines: Iterable[str], on_error: str = "raise",
                     stats: Optional[LoadStats] = None,
                     ) -> Iterable[Tuple[str, str]]:
    """Yield ``(upper_token, lower_token)`` pairs from edge-list lines.

    ``on_error="raise"`` (the default) raises
    :class:`GraphConstructionError` on malformed data lines;
    ``on_error="skip"`` drops them, counting each drop in
    ``stats.skipped`` when a :class:`LoadStats` is supplied.
    """
    if on_error not in ("raise", "skip"):
        raise InvalidParameterError(
            "on_error must be 'raise' or 'skip', got %r" % (on_error,))
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("%") or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) < 2:
            if on_error == "skip":
                if stats is not None:
                    stats.skipped += 1
                continue
            raise GraphConstructionError(
                "line %d: expected at least two columns, got %r" % (lineno, raw))
        if stats is not None:
            stats.edges += 1
        yield parts[0], parts[1]


def _open_text(path, mode: str):
    """Open a text file, transparently gzip-compressed for ``.gz`` paths.

    KONECT distributes large edge lists compressed; accepting ``.gz``
    directly avoids a 100M-line decompress-to-disk step.
    """
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


#: What a damaged file raises while it is read: bytes that are not UTF-8,
#: and a truncated (``EOFError``) or corrupted ``.gz`` stream.
_DAMAGED = (UnicodeDecodeError, EOFError, gzip.BadGzipFile, zlib.error)


def _source_lines(source: PathOrFile) -> Iterator[str]:
    """The text lines of a path (``.gz`` decompressed) or an open file.

    A damaged file raises :class:`GraphConstructionError` naming it, so
    callers see the library's own error instead of a decoder's.
    """
    try:
        if isinstance(source, (str, os.PathLike)):
            with _open_text(source, "r") as handle:
                yield from handle
        else:
            yield from source
    except _DAMAGED as error:
        name = (os.fspath(source) if isinstance(source, (str, os.PathLike))
                else getattr(source, "name", "<stream>"))
        raise GraphConstructionError(
            "%s: unreadable edge list (%s: %s)"
            % (name, type(error).__name__, error)) from error


def read_edge_list(source: PathOrFile, dedupe: bool = True,
                   backend: str = "list", on_error: str = "raise",
                   stats: Optional[LoadStats] = None,
                   memmap_dir: Optional[str] = None) -> BipartiteGraph:
    """Read a bipartite graph from a path (optionally ``.gz``) or open file.

    Tokens in the first column become upper-layer labels and tokens in the
    second column lower-layer labels; duplicate edges are collapsed unless
    ``dedupe=False``.

    ``backend="csr"`` streams the file once and builds the flat-array
    adjacency directly (counts pass → fill pass) without materializing
    per-vertex Python lists — the loader to use for large datasets.
    ``backend="memmap"`` goes one step further and writes those flat arrays
    file-backed under ``memmap_dir`` (a temporary directory when ``None``,
    removed when the graph is collected), so the neighbor table itself
    never has to be resident.  Label ids are assigned in first-seen order
    in every backend, so all three produce identical vertex numbering.

    ``on_error="skip"`` tolerates malformed data lines instead of raising,
    recording how many were dropped in ``stats`` (see
    :func:`parse_edge_lines`); all backends honour it identically.  A
    damaged file — bytes that are not UTF-8, a truncated or corrupted
    ``.gz`` stream — raises :class:`GraphConstructionError` naming the
    path under every ``on_error`` setting and backend.
    """
    fault_site("io.read_edge_list")
    _check_backend(backend, memmap_dir)
    if backend != "list":
        return _read_edge_list_csr(source, dedupe, on_error, stats,
                                   backend=backend, memmap_dir=memmap_dir)
    builder = GraphBuilder()
    builder.add_edges(parse_edge_lines(_source_lines(source), on_error, stats))
    return builder.build(dedupe=dedupe)


def _read_edge_list_csr(source: PathOrFile, dedupe: bool,
                        on_error: str = "raise",
                        stats: Optional[LoadStats] = None,
                        backend: str = "csr",
                        memmap_dir: Optional[str] = None) -> BipartiteGraph:
    """Streaming CSR loader: one parse of the input, two passes over flat
    index buffers (degree counts, then neighbor fill).

    The only per-edge state kept between the parse and the CSR build is a
    pair of flat ``array('i')`` index buffers (8 bytes per edge) — never a
    Python list per vertex.  Re-reading the source is deliberately avoided:
    for ``.gz`` inputs a second pass would decompress the whole file again,
    and arbitrary file objects may not be seekable.

    With ``backend="memmap"`` the output buffers are file-backed from the
    start, so peak resident memory is the index buffers plus label tables —
    never the neighbor table.
    """
    upper_index: Dict[str, int] = {}
    lower_index: Dict[str, int] = {}
    upper_labels: List[str] = []
    lower_labels: List[str] = []
    us = array("i")
    vs = array("i")

    def _consume(lines: Iterable[str]) -> None:
        for tok_u, tok_v in parse_edge_lines(lines, on_error, stats):
            ui = upper_index.get(tok_u)
            if ui is None:
                ui = len(upper_labels)
                upper_index[tok_u] = ui
                upper_labels.append(tok_u)
            vi = lower_index.get(tok_v)
            if vi is None:
                vi = len(lower_labels)
                lower_index[tok_v] = vi
                lower_labels.append(tok_v)
            us.append(ui)
            vs.append(vi)

    _consume(_source_lines(source))

    return _flat_graph(lambda: zip(us, vs), len(upper_labels),
                       len(lower_labels), dedupe, backend, memmap_dir,
                       upper_labels, lower_labels)


def write_edge_list(graph: BipartiteGraph, target: PathOrFile,
                    header: str = "") -> None:
    """Write ``graph`` as a KONECT-style edge list.

    Labels are emitted when present; otherwise per-layer integer indices are
    used (so round-tripping an unlabeled graph preserves structure).

    Path targets (including ``.gz``) are written crash-safely: the edge list
    appears atomically or not at all, never truncated mid-stream.
    """
    def _emit(handle: TextIO) -> None:
        if header:
            for line in header.splitlines():
                handle.write("%% %s\n" % line)
        handle.write("%% bip n_upper=%d n_lower=%d n_edges=%d\n"
                     % (graph.n_upper, graph.n_lower, graph.n_edges))
        for u, v in graph.edges():
            handle.write("%s %s\n" % (graph.label_of(u), graph.label_of(v)))

    if isinstance(target, (str, os.PathLike)):
        # The temp file has a ``.tmp`` suffix, so compression must key off
        # the *target* name, not the temp path.
        opener = ((lambda tmp: gzip.open(tmp, "wt", encoding="utf-8"))
                  if str(target).endswith(".gz") else None)
        with atomic_writer(target, opener=opener) as handle:
            _emit(handle)
    else:
        _emit(target)


def loads(text: str, dedupe: bool = True, backend: str = "list",
          on_error: str = "raise",
          stats: Optional[LoadStats] = None) -> BipartiteGraph:
    """Parse a graph from an in-memory edge-list string (tests, docs)."""
    return read_edge_list(io.StringIO(text), dedupe=dedupe, backend=backend,
                          on_error=on_error, stats=stats)


def dumps(graph: BipartiteGraph, header: str = "") -> str:
    """Serialize ``graph`` to an edge-list string."""
    buffer = io.StringIO()
    write_edge_list(graph, buffer, header=header)
    return buffer.getvalue()
