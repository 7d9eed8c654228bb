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
file-backed buffers).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.bigraph.csr import CSRAdjacency
from repro.bigraph.graph import BipartiteGraph
from repro.exceptions import InvalidParameterError

__all__ = [
    "component_labels",
    "component_sizes",
    "ComponentDecomposition",
    "SubgraphView",
    "decompose",
]


def component_labels(graph: BipartiteGraph) -> array:
    """Label every vertex with its connected-component index.

    Returns an ``array('i')`` of length ``n_vertices``.  Components are
    numbered in discovery order of an id-ascending scan, so the component
    containing the smallest unvisited vertex id gets the next label —
    a canonical numbering independent of adjacency backend.  Isolated
    vertices each form their own singleton component.
    """
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


def component_sizes(
    graph: BipartiteGraph,
    labels: Optional[array] = None,
) -> List[Tuple[int, int, int]]:
    """Per-component ``(n_upper, n_lower, n_edges)`` triples.

    ``labels`` defaults to a fresh :func:`component_labels` pass.  The list
    index is the component index.
    """
    if labels is None:
        labels = component_labels(graph)
    n_components = (max(labels) + 1) if len(labels) else 0
    uppers = [0] * n_components
    lowers = [0] * n_components
    edges = [0] * n_components
    n_upper = graph.n_upper
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
    :meth:`to_local` and :meth:`globalize` convert the other way.

    Rows stay sorted under the renumbering (the map is monotone over the
    whole vertex set), so the local graph is built without re-sorting.
    """

    __slots__ = ("components", "to_global", "_to_local", "graph")

    def __init__(self, components: Tuple[int, ...], to_global: array,
                 to_local: Dict[int, int], graph: BipartiteGraph) -> None:
        self.components = components
        self.to_global = to_global
        self._to_local = to_local
        self.graph = graph

    @property
    def n_vertices(self) -> int:
        return len(self.to_global)

    def to_local(self, global_id: int) -> int:
        """Local id of a member vertex (``KeyError`` for non-members)."""
        return self._to_local[global_id]

    def localize(self, global_ids: Iterable[int]) -> List[int]:
        """Map global ids to local ids, preserving order."""
        to_local = self._to_local
        return [to_local[g] for g in global_ids]

    def globalize(self, local_ids: Iterable[int]) -> Set[int]:
        """Map local ids back to the global id space."""
        to_global = self.to_global
        return {to_global[v] for v in local_ids}

    def __contains__(self, global_id: int) -> bool:
        return global_id in self._to_local

    def __repr__(self) -> str:
        return "SubgraphView(components=%r, n_vertices=%d)" % (
            self.components, len(self.to_global))


class ComponentDecomposition:
    """One :func:`component_labels` pass plus view extraction on top of it."""

    def __init__(self, graph: BipartiteGraph,
                 labels: Optional[array] = None) -> None:
        self.graph = graph
        self.labels = labels if labels is not None else component_labels(graph)
        self.n_components = (max(self.labels) + 1) if len(self.labels) else 0
        self._sizes: Optional[List[Tuple[int, int, int]]] = None
        self._members: Optional[List[List[int]]] = None

    @property
    def sizes(self) -> List[Tuple[int, int, int]]:
        """Per-component ``(n_upper, n_lower, n_edges)`` (computed lazily)."""
        if self._sizes is None:
            self._sizes = component_sizes(self.graph, self.labels)
        return self._sizes

    def members(self, components: Sequence[int]) -> List[int]:
        """Global ids belonging to any of ``components``, ascending."""
        wanted = set(components)
        for c in wanted:
            if not 0 <= c < self.n_components:
                raise InvalidParameterError(
                    "component %d out of range [0, %d)"
                    % (c, self.n_components))
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

    def subgraph_view(self, components: Sequence[int],
                      backend: Optional[str] = None) -> SubgraphView:
        """Extract the induced subgraph of one or more whole components.

        ``backend`` picks the local adjacency layout: ``"list"``, ``"csr"``,
        or ``None`` to inherit (CSR-family parents — including memmap — get
        an in-RAM CSR; list parents get lists).  Vertices are renumbered
        monotonically (see :class:`SubgraphView`); because the members are
        whole components, every neighbor of a member is a member, so the
        rows translate without filtering.
        """
        graph = self.graph
        # Global ids put every upper before every lower, so the ascending
        # member list is already "uppers first, each side ascending".
        to_global = array("i", self.members(components))
        local_n_upper = bisect_left(to_global, graph.n_upper)
        local_n_lower = len(to_global) - local_n_upper
        to_local = {g: i for i, g in enumerate(to_global)}

        if backend is None:
            backend = "csr" if isinstance(graph.adjacency,
                                          CSRAdjacency) else "list"
        adj = graph.adjacency
        rows: List[List[int]] = []
        for g in to_global:
            rows.append([to_local[w] for w in adj[g]])
        if backend == "csr":
            local_adj: object = CSRAdjacency.from_rows(rows)
        elif backend == "list":
            local_adj = rows
        else:
            raise InvalidParameterError(
                "unknown subgraph backend %r (expected 'list' or 'csr')"
                % (backend,))
        local = BipartiteGraph(local_n_upper, local_n_lower,
                               local_adj,  # type: ignore[arg-type]
                               _validate=False)
        return SubgraphView(tuple(sorted(set(components))), to_global,
                            to_local, local)


def decompose(graph: BipartiteGraph) -> ComponentDecomposition:
    """Label components and return the decomposition handle."""
    return ComponentDecomposition(graph)
