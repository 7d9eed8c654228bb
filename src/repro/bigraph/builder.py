"""Constructors that turn edge collections into :class:`BipartiteGraph`.

Two entry points cover the common cases:

* :class:`GraphBuilder` — incremental, label-based construction.  Labels from
  each layer live in separate namespaces, so the same label may appear on both
  layers (as in user-item datasets where ids overlap).
* :func:`from_edge_list` — fast path for integer edges that are already in
  per-layer index spaces ``0..n_upper-1`` and ``0..n_lower-1``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bigraph.csr import csr_from_indexed_edges
from repro.bigraph.graph import BipartiteGraph
from repro.bigraph.memmap import memmap_graph_from_indexed_edges
from repro.exceptions import GraphConstructionError

__all__ = ["GraphBuilder", "from_edge_list", "from_biadjacency"]


class GraphBuilder:
    """Incrementally assemble a bipartite graph from labeled edges.

    Example
    -------
    >>> b = GraphBuilder()
    >>> b.add_edge("alice", "bread")
    >>> b.add_edge("alice", "milk")
    >>> g = b.build()
    >>> g.n_upper, g.n_lower, g.n_edges
    (1, 2, 2)
    """

    def __init__(self) -> None:
        self._upper_index: Dict[object, int] = {}
        self._lower_index: Dict[object, int] = {}
        self._upper_labels: List[object] = []
        self._lower_labels: List[object] = []
        self._edges: List[Tuple[int, int]] = []

    def add_upper(self, label: object) -> int:
        """Register an upper vertex (idempotent); return its layer index."""
        idx = self._upper_index.get(label)
        if idx is None:
            idx = len(self._upper_labels)
            self._upper_index[label] = idx
            self._upper_labels.append(label)
        return idx

    def add_lower(self, label: object) -> int:
        """Register a lower vertex (idempotent); return its layer index."""
        idx = self._lower_index.get(label)
        if idx is None:
            idx = len(self._lower_labels)
            self._lower_index[label] = idx
            self._lower_labels.append(label)
        return idx

    def add_edge(self, upper_label: object, lower_label: object) -> None:
        """Add an edge between two labeled vertices, creating them if new."""
        self._edges.append((self.add_upper(upper_label),
                            self.add_lower(lower_label)))

    def add_edges(self, pairs: Iterable[Tuple[object, object]]) -> None:
        """Add many labeled edges at once."""
        for upper_label, lower_label in pairs:
            self.add_edge(upper_label, lower_label)

    @property
    def n_edges_staged(self) -> int:
        """Number of edge records staged so far (duplicates included)."""
        return len(self._edges)

    def build(self, dedupe: bool = True, backend: str = "list") -> BipartiteGraph:
        """Materialize the graph.

        Parameters
        ----------
        dedupe:
            Silently drop duplicate edges when ``True`` (the default, matching
            how multi-interaction datasets such as Taobao are usually
            collapsed to simple graphs).  When ``False`` a duplicate edge
            raises :class:`GraphConstructionError`.
        backend:
            Adjacency backend: ``"list"`` (default), ``"csr"`` for the
            flat-array layout built directly from the staged edges without
            intermediate per-vertex lists, or ``"memmap"`` for the same
            layout file-backed in a temporary directory.
        """
        return from_edge_list(
            self._edges,
            n_upper=len(self._upper_labels),
            n_lower=len(self._lower_labels),
            upper_labels=self._upper_labels,
            lower_labels=self._lower_labels,
            dedupe=dedupe,
            backend=backend,
        )


def from_edge_list(
    edges: Iterable[Tuple[int, int]],
    n_upper: Optional[int] = None,
    n_lower: Optional[int] = None,
    upper_labels: Optional[Sequence[object]] = None,
    lower_labels: Optional[Sequence[object]] = None,
    dedupe: bool = True,
    backend: str = "list",
    memmap_dir: Optional[str] = None,
) -> BipartiteGraph:
    """Build a graph from ``(upper_index, lower_index)`` pairs.

    Indices are per-layer (both zero-based); layer sizes default to one plus
    the largest index seen.  Isolated vertices beyond the largest index can be
    forced by passing explicit ``n_upper`` / ``n_lower``.  ``backend="csr"``
    packs the adjacency into flat arrays instead of per-vertex lists;
    ``backend="memmap"`` builds the same flat arrays file-backed under
    ``memmap_dir`` (a fresh temporary directory when ``None``, removed when
    the graph is collected) so the adjacency never has to be resident.
    """
    _check_backend(backend, memmap_dir)
    edge_list = list(edges)
    max_u = max((e[0] for e in edge_list), default=-1)
    max_v = max((e[1] for e in edge_list), default=-1)
    if n_upper is None:
        n_upper = max_u + 1
    if n_lower is None:
        n_lower = max_v + 1
    if max_u >= n_upper or max_v >= n_lower:
        raise GraphConstructionError(
            "edge index out of range: max (%d, %d) with layers (%d, %d)"
            % (max_u, max_v, n_upper, n_lower))
    for u, v in edge_list:
        if u < 0 or v < 0:
            raise GraphConstructionError("negative vertex index in edge (%d, %d)" % (u, v))

    if backend != "list":
        return _flat_graph(lambda: iter(edge_list), n_upper, n_lower, dedupe,
                           backend, memmap_dir, upper_labels, lower_labels)

    adjacency: List[List[int]] = [[] for _ in range(n_upper + n_lower)]
    for u, v in edge_list:
        gv = n_upper + v
        adjacency[u].append(gv)
        adjacency[gv].append(u)

    seen_duplicate = False
    for row in adjacency:
        row.sort()
        if dedupe:
            if len(row) > 1:
                deduped = [row[0]]
                for w in row[1:]:
                    if w != deduped[-1]:
                        deduped.append(w)
                if len(deduped) != len(row):
                    row[:] = deduped
        else:
            for i in range(1, len(row)):
                if row[i] == row[i - 1]:
                    seen_duplicate = True
                    break
    if seen_duplicate:
        raise GraphConstructionError("duplicate edge with dedupe=False")

    return BipartiteGraph(n_upper, n_lower, adjacency,
                          upper_labels=upper_labels,
                          lower_labels=lower_labels,
                          _validate=False)


def _check_backend(backend: str, memmap_dir: Optional[str]) -> None:
    """Refuse an unknown ``backend`` or a ``memmap_dir`` it does not use."""
    if backend not in ("list", "csr", "memmap"):
        raise GraphConstructionError(
            "unknown adjacency backend %r (expected 'list', 'csr' or"
            " 'memmap')" % (backend,))
    if memmap_dir is not None and backend != "memmap":
        raise GraphConstructionError(
            "memmap_dir only applies to backend='memmap'")


def _flat_graph(
    pairs: Callable[[], Iterable[Tuple[int, int]]],
    n_upper: int,
    n_lower: int,
    dedupe: bool,
    backend: str,
    memmap_dir: Optional[str],
    upper_labels: Optional[Sequence[object]],
    lower_labels: Optional[Sequence[object]],
) -> BipartiteGraph:
    """A ``"csr"`` or ``"memmap"`` graph built from per-layer index pairs.

    The one place both flat backends are chosen, for
    :func:`from_edge_list` and the streaming edge-list loader alike;
    ``pairs`` is invoked twice, as :func:`csr_from_indexed_edges` needs.
    """
    if backend == "memmap":
        return memmap_graph_from_indexed_edges(
            pairs, n_upper, n_lower, path=memmap_dir, dedupe=dedupe,
            upper_labels=upper_labels, lower_labels=lower_labels)
    csr = csr_from_indexed_edges(pairs, n_upper, n_lower, dedupe=dedupe)
    return BipartiteGraph(n_upper, n_lower, csr,
                          upper_labels=upper_labels,
                          lower_labels=lower_labels,
                          _validate=False)


def from_biadjacency(rows: Sequence[Sequence[int]]) -> BipartiteGraph:
    """Build a graph from a 0/1 biadjacency matrix (rows = upper layer).

    Convenient for spelling out small worked examples in tests::

        g = from_biadjacency([[1, 1, 0],
                              [0, 1, 1]])
    """
    edges = []
    width = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        if len(row) != width:
            raise GraphConstructionError("ragged biadjacency matrix")
        for j, cell in enumerate(row):
            if cell:
                edges.append((i, j))
    return from_edge_list(edges, n_upper=len(rows), n_lower=width)
