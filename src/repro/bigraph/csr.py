"""Compressed-sparse-row (CSR) adjacency backend for :class:`BipartiteGraph`.

The list-of-lists adjacency keeps one Python ``list`` object per vertex and
one boxed ``int`` per edge endpoint — roughly 40–80 bytes per edge once
object headers and pointers are counted.  At the scales the paper targets
(billions of edges) that layout is the bottleneck before any algorithm runs.

:class:`CSRAdjacency` stores the same structure in three flat buffers:

* ``offsets`` — ``array('q')`` of length ``n_vertices + 1``; row ``v`` spans
  ``neighbors[offsets[v]:offsets[v + 1]]``.  64-bit so edge counts past
  2\\ :sup:`31` stay addressable.
* ``neighbors`` — ``array('i')`` holding every (sorted) neighbor id, upper
  rows first; 4 bytes per entry, two entries per undirected edge.
* ``degrees`` — ``array('i')`` cache of row lengths, so degree lookups and
  peeling initialisation never re-derive ``offsets[v + 1] - offsets[v]``.

Rows are exposed as ``memoryview`` slices, which support ``len``, indexing,
iteration, ``in`` and ``bisect`` — everything the algorithm layers do with a
neighbor list.  The buffers also speak the buffer protocol, so the optional
numpy frontier passes (:mod:`repro.bigraph.frontier`) wrap them zero-copy.

Code outside :mod:`repro.bigraph` should not poke at the buffers directly;
use :func:`adjacency_arrays` to get them (or ``None`` for a list-backed
graph) so both backends keep working through one call site.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import GraphConstructionError

__all__ = ["CSRAdjacency", "adjacency_arrays", "csr_from_indexed_edges",
           "row_slices"]

_OFFSET_TYPECODE = "q"   # 64-bit: safe past 2**31 total edge endpoints
_NEIGHBOR_TYPECODE = "i"  # 32-bit vertex ids: 4 bytes per endpoint


class CSRAdjacency:
    """Flat-array adjacency table, row-compatible with ``List[List[int]]``.

    Instances behave like a read-only sequence of sorted neighbor rows:
    ``adj[v]`` returns a ``memoryview`` slice over the shared ``neighbors``
    buffer, ``len(adj)`` is the vertex count and iteration yields the rows in
    id order.  Equality is structural and also accepts a list-of-lists table,
    so cross-backend ``BipartiteGraph`` comparisons keep working.
    """

    __slots__ = ("offsets", "neighbors", "degrees", "_view")

    #: Reported through :attr:`BipartiteGraph.backend`; subclasses with a
    #: different storage substrate (e.g. the memory-mapped variant) override.
    backend_name = "csr"

    def __init__(
        self,
        offsets: array,
        neighbors: array,
        degrees: Optional[array] = None,
    ) -> None:
        if len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != len(neighbors):
            raise GraphConstructionError(
                "CSR offsets must start at 0 and end at len(neighbors)")
        if degrees is None:
            degrees = array(_NEIGHBOR_TYPECODE,
                            (offsets[i + 1] - offsets[i]
                             for i in range(len(offsets) - 1)))
        elif len(degrees) != len(offsets) - 1:
            raise GraphConstructionError(
                "CSR degrees length %d does not match %d rows"
                % (len(degrees), len(offsets) - 1))
        self.offsets = offsets
        self.neighbors = neighbors
        self.degrees = degrees
        self._view = memoryview(neighbors)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "CSRAdjacency":
        """Pack already-canonical (sorted, unique) neighbor rows into CSR."""
        offsets = array(_OFFSET_TYPECODE, [0]) * (len(rows) + 1)
        total = 0
        for v, row in enumerate(rows):
            total += len(row)
            offsets[v + 1] = total
        neighbors = array(_NEIGHBOR_TYPECODE, [0]) * total
        degrees = array(_NEIGHBOR_TYPECODE, [0]) * len(rows)
        pos = 0
        for v, row in enumerate(rows):
            degrees[v] = len(row)
            for w in row:
                neighbors[pos] = w
                pos += 1
        return cls(offsets, neighbors, degrees)

    # ------------------------------------------------------------------
    # Sequence-of-rows protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, v: int) -> memoryview:
        if v < 0:
            v += len(self.offsets) - 1
        return self._view[self.offsets[v]:self.offsets[v + 1]]

    def __iter__(self) -> Iterator[memoryview]:
        view = self._view
        offsets = self.offsets
        start = 0
        for i in range(1, len(offsets)):
            end = offsets[i]
            yield view[start:end]
            start = end

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CSRAdjacency):
            return (self.offsets == other.offsets
                    and self.neighbors == other.neighbors)
        if isinstance(other, (list, tuple)):
            if len(other) != len(self):
                return False
            for row, other_row in zip(self, other):
                if len(row) != len(other_row):
                    return False
                for a, b in zip(row, other_row):
                    if a != b:
                        return False
            return True
        return NotImplemented

    # Defining __eq__ clears the inherited __hash__; the buffers are mutable
    # so staying unhashable is correct.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return "CSRAdjacency(n_vertices=%d, n_entries=%d)" % (
            len(self), len(self.neighbors))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Bytes held by the three flat buffers (excludes object headers)."""
        return (self.offsets.itemsize * len(self.offsets)
                + self.neighbors.itemsize * len(self.neighbors)
                + self.degrees.itemsize * len(self.degrees))

    def to_rows(self) -> List[List[int]]:
        """Materialize a list-of-lists copy (for the list backend)."""
        return [list(row) for row in self]


def adjacency_arrays(
    graph: object,
) -> Optional[Tuple[array, array, array]]:
    """Return ``(offsets, neighbors, degrees)`` for a CSR-backed graph.

    Returns ``None`` when ``graph`` uses the list backend, so callers can
    keep their list code path unchanged::

        arrays = adjacency_arrays(graph)
        if arrays is not None:
            offsets, neighbors, degrees = arrays
            ...  # flat-buffer fast path
        else:
            ...  # per-row list path

    This is the only sanctioned way for code outside :mod:`repro.bigraph`
    to reach the flat buffers.
    """
    adj = getattr(graph, "adjacency", None)
    if isinstance(adj, CSRAdjacency):
        return adj.offsets, adj.neighbors, adj.degrees
    return None


def row_slices(graph: object,
               vertices: Iterable[int]) -> Iterator[Sequence[int]]:
    """The neighbor rows of ``vertices``, in their order.

    On a CSR graph each row is a slice of the ``neighbors`` buffer, cut
    without a method call per row (``CSRAdjacency.__getitem__`` is one);
    on a list graph it is the row list itself.
    """
    arrays = adjacency_arrays(graph)
    if arrays is None:
        yield from map(getattr(graph, "adjacency").__getitem__, vertices)
        return
    offsets, neighbors = arrays[0], arrays[1]
    for v in vertices:
        yield neighbors[offsets[v]:offsets[v + 1]]


def csr_from_indexed_edges(
    pairs: Callable[[], Iterable[Tuple[int, int]]],
    n_upper: int,
    n_lower: int,
    dedupe: bool = True,
) -> CSRAdjacency:
    """Build a :class:`CSRAdjacency` from per-layer index pairs in two passes.

    ``pairs`` is a zero-argument callable returning a fresh iterator over
    ``(upper_index, lower_index)`` edges; it is invoked twice — once for the
    counts pass (degree histogram → offsets) and once for the fill pass that
    scatters neighbor ids into their final slots.  No per-vertex Python list
    is ever created; the only transient state besides the output buffers is a
    cursor array and one sorted row at a time during canonicalisation.

    Duplicate edges are dropped when ``dedupe`` is true and raise
    :class:`GraphConstructionError` otherwise, matching
    :func:`repro.bigraph.builder.from_edge_list`.
    """
    offsets, neighbors, degrees, n_entries = _fill_csr(
        pairs, n_upper, n_lower, dedupe,
        lambda name, typecode, length: array(typecode, [0]) * length)
    del neighbors[n_entries:]
    return CSRAdjacency(offsets, neighbors, degrees)


def _fill_csr(
    pairs: Callable[[], Iterable[Tuple[int, int]]],
    n_upper: int,
    n_lower: int,
    dedupe: bool,
    allocate: Callable[[str, str, int], Any],
) -> Tuple[Any, Any, Any, int]:
    """The two-pass CSR build shared by the in-RAM and memmap backends.

    ``allocate(name, typecode, length)`` returns a zero-filled, writable
    buffer of ``length`` items (``name`` is ``"degrees"``, ``"offsets"`` or
    ``"neighbors"``): an ``array`` for the in-RAM table, a file-backed
    ``memoryview`` for :mod:`repro.bigraph.memmap`.  Returns the three
    buffers and ``n_entries``; dedupe compacts rows towards the front, so
    only the first ``n_entries`` neighbor slots are meaningful.
    """
    if n_upper < 0 or n_lower < 0:
        raise GraphConstructionError("layer sizes must be non-negative")
    n = n_upper + n_lower

    # Pass 1: count per-vertex degrees (and validate index ranges).
    degrees = allocate("degrees", _NEIGHBOR_TYPECODE, n)
    for u, v in pairs():
        if not 0 <= u < n_upper or not 0 <= v < n_lower:
            raise GraphConstructionError(
                "edge index out of range: (%d, %d) with layers (%d, %d)"
                % (u, v, n_upper, n_lower))
        degrees[u] += 1
        degrees[n_upper + v] += 1

    offsets = allocate("offsets", _OFFSET_TYPECODE, n + 1)
    total = 0
    for i in range(n):
        total += degrees[i]
        offsets[i + 1] = total

    # Pass 2: scatter neighbor ids into their rows.
    neighbors = allocate("neighbors", _NEIGHBOR_TYPECODE, total)
    cursor = array(_OFFSET_TYPECODE, offsets)
    for u, v in pairs():
        gv = n_upper + v
        slot = cursor[u]
        neighbors[slot] = gv
        cursor[u] = slot + 1
        slot = cursor[gv]
        neighbors[slot] = u
        cursor[gv] = slot + 1

    # Canonicalise: sort each row in place, drop (or reject) duplicates.
    write = 0
    for v in range(n):
        start = offsets[v]
        end = offsets[v + 1]
        row = sorted(neighbors[start:end])
        row_start = write
        prev = -1
        for w in row:
            if w == prev:
                if not dedupe:
                    raise GraphConstructionError(
                        "duplicate edge with dedupe=False")
                continue
            neighbors[write] = w
            write += 1
            prev = w
        offsets[v] = row_start
        degrees[v] = write - row_start
    offsets[n] = write
    return offsets, neighbors, degrees, write
