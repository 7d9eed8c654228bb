"""Vectorized (numpy) (α,β)-core peeling — the scale escape hatch.

Pure-Python peeling is the reproduction's known bottleneck (the paper's
artifact is C++).  This module provides a round-synchronous, numpy-vectorized
peel that computes the exact same cores 10-50× faster on large graphs:
each round removes *all* currently violating vertices at once and updates
degrees with one scatter-add over the affected edges.  Round-synchronous
deletion converges to the same unique (α,β)-core as vertex-at-a-time peeling
(the core is the unique maximal fixed point; `tests/test_accel.py` checks
equality on random graphs).

numpy is optional: :func:`available` reports whether the fast path can be
used, and the Naive greedy — whose cost is one global peel per candidate —
takes an ``accel="auto"`` knob that picks it up automatically.

The FILVER family's region peels do not use this path: ``core_sweep`` runs
one affected graph at a time and keeps its degree counters across levels.
Affected graphs are not small, though: on a connected random graph each
anchor's covers most of the graph, so the walk that finds one (and the
verification cache's dilations) run as numpy frontier passes on CSR
graphs (:mod:`repro.bigraph.frontier`).
"""

from __future__ import annotations

from typing import Collection, Optional, Set, Tuple

from repro.bigraph.csr import adjacency_arrays
from repro.bigraph.graph import BipartiteGraph

try:  # pragma: no cover - exercised implicitly by available()
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = ["available", "CsrCache", "fast_anchored_abcore", "fast_abcore",
           "fast_delta"]

import weakref

_csr_cache: "weakref.WeakKeyDictionary[BipartiteGraph, Tuple[object, object, object]]" \
    = weakref.WeakKeyDictionary()


def available() -> bool:
    """Whether the numpy fast path can be used."""
    return _np is not None


class CsrCache:
    """Per-graph CSR arrays (indptr, indices, edge-source), built lazily.

    Entries are held in a ``WeakKeyDictionary`` keyed by the (immutable)
    graph itself, so they are dropped exactly when the graph is collected.

    A CSR-backed graph already holds the flat buffers; those wrap into numpy
    zero-copy via the buffer protocol (``indptr`` stays int64, ``indices``
    int32).  Only list-backed graphs pay the row-by-row conversion.
    """

    @staticmethod
    def get(graph: BipartiteGraph):
        hit = _csr_cache.get(graph)
        if hit is not None:
            return hit
        if _np is None:  # pragma: no cover - guarded by available()
            raise RuntimeError("numpy is not available")
        arrays = adjacency_arrays(graph)
        if arrays is not None:
            offsets, neighbor_buf, degree_buf = arrays
            indptr = _np.asarray(offsets)
            indices = _np.asarray(neighbor_buf)
            edge_src = _np.repeat(
                _np.arange(graph.n_vertices, dtype=_np.int64),
                _np.asarray(degree_buf, dtype=_np.int64))
        else:
            degrees = [len(row) for row in graph.adjacency]
            indptr = _np.zeros(graph.n_vertices + 1, dtype=_np.int64)
            _np.cumsum(_np.asarray(degrees, dtype=_np.int64), out=indptr[1:])
            indices = _np.empty(int(indptr[-1]), dtype=_np.int64)
            position = 0
            for row in graph.adjacency:
                indices[position:position + len(row)] = row
                position += len(row)
            edge_src = _np.repeat(
                _np.arange(graph.n_vertices, dtype=_np.int64), degrees)
        # Every caller shares these cached arrays (and in the CSR branch
        # they may alias the graph's own buffers): freeze them so a stray
        # in-place op raises instead of corrupting the graph for everyone.
        indptr.setflags(write=False)
        indices.setflags(write=False)
        edge_src.setflags(write=False)
        entry = (indptr, indices, edge_src)
        _csr_cache[graph] = entry
        return entry


def fast_anchored_abcore(
    graph: BipartiteGraph,
    alpha: int,
    beta: int,
    anchors: Collection[int] = (),
) -> Set[int]:
    """Anchored (α,β)-core via round-synchronous vectorized peeling."""
    if _np is None:  # pragma: no cover
        raise RuntimeError("numpy is not available; use anchored_abcore")
    n = graph.n_vertices
    if n == 0:
        return set()
    indptr, indices, edge_src = CsrCache.get(graph)

    thresholds = _np.full(n, beta, dtype=_np.int64)
    thresholds[:graph.n_upper] = alpha
    exempt = _np.zeros(n, dtype=bool)
    anchor_list = list(anchors)
    if anchor_list:
        exempt[_np.asarray(anchor_list, dtype=_np.int64)] = True

    deg = (indptr[1:] - indptr[:-1]).astype(_np.int64)
    alive = _np.ones(n, dtype=bool)

    # Each round removes all violating vertices, gathers exactly their
    # adjacency slices (the multi-slice arange trick), and decrements the
    # touched neighbors via unique-with-counts.  Every edge is processed at
    # most twice over the whole peel and each round costs O(t log t) in the
    # round's touched edges t — not O(n) (a per-round bincount over all
    # vertices loses badly on long cascade tails of small waves).
    removing = _np.flatnonzero(~exempt & (deg < thresholds))
    while removing.size:
        alive[removing] = False
        starts = indptr[removing]
        counts = indptr[removing + 1] - starts
        nonempty = counts > 0
        starts, counts = starts[nonempty], counts[nonempty]
        if starts.size:
            boundaries = _np.cumsum(counts)
            seq = _np.ones(int(boundaries[-1]), dtype=_np.int64)
            seq[0] = starts[0]
            seq[boundaries[:-1]] = starts[1:] - starts[:-1] - counts[:-1] + 1
            touched = indices[_np.cumsum(seq)]
            affected, hits = _np.unique(touched, return_counts=True)
            deg[affected] -= hits
            mask = (alive[affected] & ~exempt[affected]
                    & (deg[affected] < thresholds[affected]))
            removing = affected[mask]
        else:
            removing = _np.empty(0, dtype=_np.int64)
    return set(_np.flatnonzero(alive).tolist())


def fast_abcore(graph: BipartiteGraph, alpha: int, beta: int) -> Set[int]:
    """(α,β)-core via the vectorized peel."""
    return fast_anchored_abcore(graph, alpha, beta, ())


def fast_delta(graph: BipartiteGraph) -> int:
    """δ (max k with a non-empty (k,k)-core) via the vectorized peel.

    Unlike :func:`repro.abcore.decomposition.delta` this recomputes from the
    full graph per level; the vectorized constant keeps it competitive and
    the implementation trivially correct.
    """
    k = 0
    while True:
        if not fast_abcore(graph, k + 1, k + 1):
            return k
        k += 1
