"""Connected components and component-local subgraph views.

Followers never cross connected components: every follower of an anchor
``x`` is order-reachable from ``x`` (Lemma 1), and order-reachability walks
edges.  The sharded campaign substrate (:mod:`repro.core.sharded`) exploits
that by decomposing the graph into components once and running each shard's
filter–verification loop on a component-local subgraph.

The correctness currency of that decomposition is the **monotone
renumbering** provided by :class:`SubgraphView`: local ids are assigned in
ascending global-id order, uppers first.  Because the global id space also
places all uppers before all lowers, ascending local order coincides with
ascending global order over the view's vertices — so every id-ordered
tie-break (peel seeding, candidate ranking, two-hop visitation, batch-apply
ordering) resolves identically in the local and the global id space.  The
shard-merge determinism argument in ``docs/PERF.md`` builds on exactly this
property.

All functions work on both adjacency backends (and on the memory-mapped CSR
variant, which is just a :class:`~repro.bigraph.csr.CSRAdjacency` with
file-backed buffers).  Which code runs depends on the backend:

* **CSR graphs with numpy** (in-RAM and memmap) run array passes over the
  flat buffers.  :func:`component_labels` hooks and shortcuts
  (Shiloach–Vishkin): each round hooks every root under the smallest root
  it shares an edge with, when that one is smaller; jumps pointers until
  every vertex points at its root; and drops the edges whose endpoints
  now share a root, so later rounds only see the edges between trees
  still being merged.  A root never hooks under a larger id, so each
  component's final root is its smallest id, and numbering the roots in
  id order gives the canonical numbering.  :func:`component_sizes` is
  three ``bincount`` calls, and :meth:`ComponentDecomposition.subgraph_view`
  cuts a view out of one stable argsort of the vertices by component and
  one gather of the buffers, whose results become the view's
  ``offsets``, ``neighbors`` and ``degrees`` arrays.
* **List graphs, and CSR graphs without numpy,** run the row loops: a
  breadth-first scan, per-vertex counters and a per-row relabel.  They
  are the oracle the array passes are tested against
  (``tests/test_components.py``).

numpy comes from :func:`repro.bigraph.frontier._numpy`, imported on the
first array pass, never by ``import repro``; setting ``frontier._np`` to
``None`` hides it and selects the row loops.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Any, Iterable, List, Optional, Sequence, Set, Tuple

from repro.bigraph import frontier
from repro.bigraph.csr import CSRAdjacency, adjacency_arrays
from repro.bigraph.graph import BipartiteGraph
from repro.exceptions import InvalidParameterError

__all__ = [
    "component_labels",
    "component_sizes",
    "ComponentDecomposition",
    "SubgraphView",
    "decompose",
]

#: numpy plus numpy views of a CSR graph's ``(offsets, neighbors,
#: degrees)`` buffers.
_Flat = Tuple[Any, Any, Any, Any]


def _flat(graph: BipartiteGraph) -> Optional[_Flat]:
    """numpy and views of ``graph``'s CSR buffers, or ``None`` for a list
    graph or a host without numpy (the row loops' case)."""
    arrays = adjacency_arrays(graph)
    if arrays is None:
        return None
    np = frontier._numpy()
    if np is None:
        return None
    return (np, np.asarray(arrays[0]), np.asarray(arrays[1]),
            np.asarray(arrays[2]))


def _to_array(typecode: str, values: Any) -> array:
    """An ``array(typecode)`` copy of a numpy array of the matching item
    size."""
    out = array(typecode)
    out.frombytes(values.tobytes())
    return out


def component_labels(graph: BipartiteGraph) -> array:
    """Label every vertex with its connected-component index.

    Returns an ``array('i')`` of length ``n_vertices``.  Components are
    numbered in discovery order of an id-ascending scan, so the component
    containing the smallest unvisited vertex id gets the next label —
    a canonical numbering independent of adjacency backend.  Isolated
    vertices each form their own singleton component.
    """
    flat = _flat(graph)
    if flat is not None:
        return _to_array("i", _hooked_labels(flat, graph.n_upper))
    n = graph.n_vertices
    labels = array("i", [-1]) * n if n else array("i")
    adj = graph.adjacency
    next_label = 0
    queue: List[int] = []
    enqueue = queue.append
    for start in range(n):
        if labels[start] != -1:
            continue
        labels[start] = next_label
        enqueue(start)
        head = 0
        while head < len(queue):  # hot-loop
            v = queue[head]
            head += 1
            for w in adj[v]:
                if labels[w] == -1:
                    labels[w] = next_label
                    enqueue(w)
        queue.clear()
        next_label += 1
    return labels


def _hooked_labels(flat: _Flat, n_upper: int) -> Any:
    """Canonical component labels (``intc``) by hook-and-shortcut rounds."""
    np, offsets, neighbors, degrees = flat
    n = len(degrees)
    root = np.arange(n, dtype=np.intc)
    # The upper rows hold every edge once; each round's edges join roots.
    tail = np.repeat(root[:n_upper], degrees[:n_upper])
    head = neighbors[:offsets[n_upper]]
    while tail.size:
        # Hook each root under the smallest root across its edges, when
        # that one is smaller: pointers only ever aim at smaller ids.
        np.minimum.at(root, np.maximum(tail, head), np.minimum(tail, head))
        # Shortcut: jump until every vertex points at its root.
        jumped = root.take(root)
        while not np.array_equal(jumped, root):
            root = jumped
            jumped = root.take(root)
        tail = root.take(tail)
        head = root.take(head)
        crossing = tail != head
        tail = tail[crossing]
        head = head[crossing]
    # Each root is its component's smallest id, so numbering the roots in
    # id order numbers the components by their smallest id.
    rank = np.cumsum(root == np.arange(n, dtype=np.intc), dtype=np.intc)
    rank -= 1
    return rank.take(root)


def _label_count(labels: array, flat: Optional[_Flat]) -> int:
    """The number of components ``labels`` numbers (its largest + 1)."""
    if not len(labels):
        return 0
    if flat is not None:
        return int(flat[0].asarray(labels).max()) + 1
    return max(labels) + 1


def component_sizes(
    graph: BipartiteGraph,
    labels: Optional[array] = None,
) -> List[Tuple[int, int, int]]:
    """Per-component ``(n_upper, n_lower, n_edges)`` triples of plain ints.

    ``labels`` defaults to a fresh :func:`component_labels` pass.  The list
    index is the component index.
    """
    if labels is None:
        labels = component_labels(graph)
    flat = _flat(graph)
    n_components = _label_count(labels, flat)
    n_upper = graph.n_upper
    if flat is not None:
        np, degrees = flat[0], flat[3]
        upper_labels = np.asarray(labels)[:n_upper]
        lower_labels = np.asarray(labels)[n_upper:]
        # The edge count is exact: float64 holds integers up to 2**53.
        return list(zip(
            np.bincount(upper_labels, minlength=n_components).tolist(),
            np.bincount(lower_labels, minlength=n_components).tolist(),
            np.bincount(upper_labels, weights=degrees[:n_upper],
                        minlength=n_components).astype(np.int64).tolist()))
    uppers = [0] * n_components
    lowers = [0] * n_components
    edges = [0] * n_components
    adj = graph.adjacency
    for v in range(graph.n_vertices):
        label = labels[v]
        if v < n_upper:
            uppers[label] += 1
            edges[label] += len(adj[v])
        else:
            lowers[label] += 1
    return list(zip(uppers, lowers, edges))


class SubgraphView:
    """A component-local subgraph with stable global↔local id maps.

    ``graph`` is a fresh :class:`BipartiteGraph` over the view's vertices,
    renumbered monotonically: local upper ids ``0..k-1`` are the member
    upper vertices in ascending global order, local lower ids follow in
    ascending global order.  ``to_global[local]`` recovers the global id;
    :meth:`to_local` and :meth:`localize` convert the other way by
    bisecting the ascending ``to_global``, so a view holds no per-vertex
    map besides it.

    Rows stay sorted under the renumbering (the map is monotone over the
    whole vertex set), so the local graph is built without re-sorting.
    """

    __slots__ = ("components", "to_global", "graph")

    def __init__(self, components: Tuple[int, ...], to_global: array,
                 graph: BipartiteGraph) -> None:
        self.components = components
        self.to_global = to_global
        self.graph = graph

    @property
    def n_vertices(self) -> int:
        return len(self.to_global)

    def to_local(self, global_id: int) -> int:
        """Local id of a member vertex (``KeyError`` for non-members)."""
        to_global = self.to_global
        local = bisect_left(to_global, global_id)
        if local < len(to_global) and to_global[local] == global_id:
            return local
        raise KeyError(global_id)

    def localize(self, global_ids: Iterable[int]) -> List[int]:
        """Map global ids to local ids, preserving order."""
        return [self.to_local(g) for g in global_ids]

    def globalize(self, local_ids: Iterable[int]) -> Set[int]:
        """Map local ids back to the global id space."""
        to_global = self.to_global
        return {to_global[v] for v in local_ids}

    def __contains__(self, global_id: int) -> bool:
        try:
            self.to_local(global_id)
        except KeyError:
            return False
        return True

    def __repr__(self) -> str:
        return "SubgraphView(components=%r, n_vertices=%d)" % (
            self.components, len(self.to_global))


class ComponentDecomposition:
    """One :func:`component_labels` pass plus view extraction on top of it.

    On the array path every view is relabeled through one ``n``-long
    scratch the decomposition owns, so one thread at a time extracts
    views from a decomposition (:func:`repro.core.sharded.shard_views`
    makes its own).
    """

    def __init__(self, graph: BipartiteGraph,
                 labels: Optional[array] = None) -> None:
        self.graph = graph
        self.labels = labels if labels is not None else component_labels(graph)
        self.n_components = _label_count(self.labels, _flat(graph))
        self._sizes: Optional[List[Tuple[int, int, int]]] = None
        self._members: Optional[List[List[int]]] = None
        # Array path: the vertices stably sorted by label, each label's
        # start in that order and an n-long local-id scratch, built once.
        self._by_label: Optional[Tuple[Any, Any, Any]] = None

    @property
    def sizes(self) -> List[Tuple[int, int, int]]:
        """Per-component ``(n_upper, n_lower, n_edges)`` (computed lazily)."""
        if self._sizes is None:
            self._sizes = component_sizes(self.graph, self.labels)
        return self._sizes

    def _check(self, components: Iterable[int]) -> Tuple[int, ...]:
        """``components`` deduplicated and ascending, each in range."""
        wanted = tuple(sorted(set(components)))
        for c in wanted[:1] + wanted[-1:]:
            if not 0 <= c < self.n_components:
                raise InvalidParameterError(
                    "component %d out of range [0, %d)"
                    % (c, self.n_components))
        return wanted

    def members(self, components: Sequence[int]) -> List[int]:
        """Global ids belonging to any of ``components``, ascending."""
        wanted = self._check(components)
        flat = _flat(self.graph)
        if flat is not None:
            return self._member_array(flat[0], wanted).tolist()
        member_lists = self._member_lists()
        return sorted(v for c in wanted for v in member_lists[c])

    def _member_lists(self) -> List[List[int]]:
        """Each component's global ids, ascending — one pass, built once,
        so a plan of ``k`` views costs O(n) in all, not O(k·n)."""
        if self._members is None:
            members: List[List[int]] = [[] for _ in range(self.n_components)]
            for v, label in enumerate(self.labels):
                members[label].append(v)
            self._members = members
        return self._members

    def _member_array(self, np: Any, wanted: Tuple[int, ...]) -> Any:
        """The ascending ``intc`` global ids of the checked components
        ``wanted``: slices of one stable argsort by label, sorted when
        there are several."""
        if self._by_label is None:
            labels = np.asarray(self.labels)
            starts = np.zeros(self.n_components + 1, dtype=np.int64)
            np.cumsum(np.bincount(labels, minlength=self.n_components),
                      out=starts[1:])
            self._by_label = (
                np.argsort(labels, kind="stable").astype(np.intc),
                starts, np.empty(len(labels), dtype=np.intc))
        by_label, starts = self._by_label[0], self._by_label[1]
        if len(wanted) == 1:
            c = wanted[0]
            return by_label[starts[c]:starts[c + 1]]
        picked = np.asarray(wanted, dtype=np.intp)
        first = starts[picked]
        return np.sort(by_label.take(frontier.Frontier._spans(
            first, starts[picked + 1] - first)))

    def subgraph_view(self, components: Sequence[int]) -> SubgraphView:
        """Extract the induced subgraph of one or more whole components.

        The view inherits the parent's adjacency layout: CSR-family parents
        — including memmap — get an in-RAM CSR, list parents get lists.
        Vertices are renumbered monotonically (see :class:`SubgraphView`);
        because the members are whole components, every neighbor of a
        member is a member, so the rows translate without filtering.
        """
        wanted = self._check(components)
        graph = self.graph
        local_adj: object
        flat = _flat(graph)
        if flat is not None:
            to_global, local_adj = self._gathered(flat, wanted)
        else:
            # Global ids put every upper before every lower, so the
            # ascending member list is already "uppers first, each side
            # ascending".
            to_global = array("i", self.members(wanted))
            to_local = {g: i for i, g in enumerate(to_global)}
            adj = graph.adjacency
            rows: List[List[int]] = []
            for g in to_global:
                rows.append([to_local[w] for w in adj[g]])
            local_adj = rows
            if isinstance(adj, CSRAdjacency):
                local_adj = CSRAdjacency.from_rows(rows)
        local_n_upper = bisect_left(to_global, graph.n_upper)
        local = BipartiteGraph(local_n_upper, len(to_global) - local_n_upper,
                               local_adj,  # type: ignore[arg-type]
                               _validate=False)
        return SubgraphView(wanted, to_global, local)

    def _gathered(self, flat: _Flat, wanted: Tuple[int, ...],
                  ) -> Tuple[array, CSRAdjacency]:
        """The array path of :meth:`subgraph_view`: the members' rows in
        one gather, relabeled through the local-id scratch."""
        np, offsets, neighbors, degrees = flat
        members = self._member_array(np, wanted)
        local_id = self._by_label[2]  # type: ignore[index]
        # Whole components see only each other, so a scratch that still
        # holds an earlier view's ids is exact on this view's members.
        local_id[members] = np.arange(members.size, dtype=np.intc)
        counts = degrees.take(members)
        local_offsets = np.zeros(members.size + 1, dtype=np.int64)
        np.cumsum(counts, out=local_offsets[1:])
        local_neighbors = local_id.take(neighbors.take(
            frontier.Frontier._spans(offsets.take(members), counts)))
        return (_to_array("i", members),
                CSRAdjacency(_to_array("q", local_offsets),
                             _to_array("i", local_neighbors),
                             _to_array("i", counts)))

    def group_of_vertex(self, groups: Sequence[Sequence[int]]) -> array:
        """Each vertex's index in ``groups`` (lists of component ids), as
        an ``n``-long ``array('i')``; ``-1`` for a vertex whose component
        is in no group."""
        group_of = [-1] * self.n_components
        for index, group in enumerate(groups):
            for c in self._check(group):
                group_of[c] = index
        flat = _flat(self.graph)
        if flat is not None:
            np = flat[0]
            return _to_array("i", np.asarray(group_of, dtype=np.intc).take(
                np.asarray(self.labels)))
        return array("i", [group_of[label] for label in self.labels])


def decompose(graph: BipartiteGraph) -> ComponentDecomposition:
    """Label components and return the decomposition handle."""
    return ComponentDecomposition(graph)
