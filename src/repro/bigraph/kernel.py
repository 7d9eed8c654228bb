"""Flat-array follower/reachability kernel over a CSR-backed graph.

The filter and verification stages' inner loops — the order-respecting
walk behind ``rf(x)`` and the local support peel behind ``F(x)`` — are pure
functions of (positions, core, adjacency, x).  The generic implementations
in :mod:`repro.core` walk Python dicts and sets and allocate a fresh
support dict per candidate.  At thousands of candidates per iteration
those constant factors dominate the campaign profile.  :meth:`reachable`
answers a whole filter pass's ``|rf(x)|`` misses at once
(``docs/PERF.md``, "rf in one sweep"); only :meth:`followers` reads a set
``rf(x)``, from its own single-source DFS.

:meth:`reachable` runs as frontier passes when numpy is importable
(:meth:`repro.bigraph.frontier.Frontier.order_paths`): level passes over
the CSR buffers gather each closure row once and keep the order DAG's
edges, and pointer jumping along out-degree-1 successors gives each source
its run length ``d(x)`` and the run's end ``e(x)``.  Positions strictly
increase along a run, so ``|rf(x)| = d(x) + |rf(e(x))|`` exactly; only an
end with several successors needs :func:`walk_counts`, over the successor
lists the passes gathered.  Without numpy :func:`walk_counts` walks the
CSR rows.  It is the one Python ``rf`` walk: list graphs
(:func:`repro.core.deletion_order.reachable_counts`) run it too.

:class:`FollowerKernel` replaces the per-candidate churn with flat
buffers sized once per graph and *epoch-stamped* instead of cleared:

* the order state's own per-side position tables (``n``-long
  ``array('q')``, ``-1`` for "no entry"), held by reference — loading an
  iteration's order copies nothing, and since a walk's source holds a
  position ``≥ 0``, the test ``pos[w] <= pv`` also skips every vertex
  without an entry;
* an iteration-stamped core-membership buffer;
* call-stamped ``visited`` / candidate-membership / support buffers shared
  by every follower walk and peel — a new call bumps the stamp, implicitly
  resetting ``O(n)`` state in ``O(1)``;
* the frontier passes' ``n``-long numpy slot scratch, all negative
  between calls: a call writes only its closure's slots and resets them
  before it returns;
* a preallocated ``int32`` vertex stack for the follower peel's
  single-source DFS, so it pushes plain ids (positions are re-read from
  the flat table on pop) and never allocates a tuple — each vertex is
  pushed at most once per call, so ``n`` slots always suffice;
* neighbor rows iterated as ``memoryview`` slices of the CSR neighbor
  buffer — C-level iteration, no index arithmetic per edge.

The stamp and support buffers are dense Python lists rather than
``array`` objects: CPython re-boxes an ``array`` element on every read,
while a list slot hands back its cached int object — measured ~35% faster
on the walk's inner loop, at 8 bytes per vertex per buffer.  The position
tables are ``array('q')`` all the same: they belong to the order state,
which numpy reads without a copy, and a per-iteration copy into a list
would cost a pass over both tables.  The DFS stack stays ``array('i')``:
it is written/read once per visited vertex, not once per edge.

The kernel lives in :mod:`repro.bigraph` because it is pure graph
machinery: it knows nothing about deletion orders or engines — callers feed
it plain position tables and vertex sets.  Follower sets are
*set-identical* to ``repro.core.followers.compute_followers`` and bounds
equal ``len(reachable_from(...))`` (property checked by
``tests/test_incremental.py``); the engine selects it automatically on
CSR-backed graphs.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.bigraph.csr import adjacency_arrays
from repro.bigraph.frontier import frontier_for
from repro.exceptions import GraphConstructionError

__all__ = ["FollowerKernel", "closure_counts", "kernel_for", "walk_counts"]

_STACK_TYPECODE = "i"  # vertex ids fit the CSR neighbor width


class FollowerKernel:
    """Reusable scratch buffers for ``rf(x)`` / ``F(x)`` on one CSR graph.

    A kernel instance is bound to one graph and is **not** thread-safe:
    every method reuses the same scratch arrays.  The engine owns one per
    campaign (workers build their own from the shared-memory graph).

    Usage per engine iteration::

        kernel.begin_iteration(upper_position, lower_position, core)
        bounds = kernel.reachable("upper", survivors)  # x -> |rf(x)|
        for x in ranked:
            followers = kernel.followers("upper", x, alpha, beta)
    """

    def __init__(self, graph: object) -> None:
        arrays = adjacency_arrays(graph)
        if arrays is None:
            raise GraphConstructionError(
                "FollowerKernel requires a CSR-backed graph; call "
                "graph.to_csr() first")
        offsets, neighbors, _degrees = arrays
        self._offsets = offsets
        self._rows = memoryview(neighbors)
        self._n_upper = graph.n_upper  # type: ignore[attr-defined]
        n = len(offsets) - 1
        self._positions: Dict[str, array] = {}
        self._core_stamp: List[int] = [0] * n
        self._visited: List[int] = [0] * n
        self._cand: List[int] = [0] * n
        self._support: List[int] = [0] * n
        self._stack = array(_STACK_TYPECODE, [0]) * n if n else array(
            _STACK_TYPECODE)
        self._walk = frontier_for(graph)
        self._slot = self._walk.scratch() if self._walk is not None else None
        self._epoch = 0
        self._call = 0

    def release(self) -> None:
        """Drop the CSR buffer references; the kernel is unusable after.

        Required where the buffers live in shared memory (pool workers): a
        surviving ``memoryview`` would pin the segment mapping past
        ``AttachedGraph.close()`` and the interpreter would complain about
        exported pointers at shutdown.  Idempotent.
        """
        self._walk = None
        rows = self._rows
        self._rows = memoryview(b"")
        rows.release()
        self._offsets = array("q")

    # ------------------------------------------------------------------
    # Per-iteration state load
    # ------------------------------------------------------------------

    def begin_iteration(self, upper_position: array, lower_position: array,
                        core: Iterable[int]) -> None:
        """Hold this iteration's position tables and stamp its core.

        The tables are referenced, not copied (the caller must not write
        them until the iteration's last read); the core costs one pass,
        paid once per engine iteration, after which every candidate
        evaluation reads flat buffers only.
        """
        self._positions = {"upper": upper_position, "lower": lower_position}
        self._epoch += 1
        epoch = self._epoch
        core_stamp = self._core_stamp
        for v in core:
            core_stamp[v] = epoch

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------

    def reachable(self, side: str, sources: Iterable[int]) -> Dict[int, int]:
        """``{x: |rf(x)|}`` for every source under the held order.

        Each count is ``len`` of
        :func:`repro.core.deletion_order.reachable_from`'s set; a source
        without a position entry raises ``KeyError``.  With numpy the
        order DAG below the sources is walked in level passes over the
        CSR buffers and cut into out-degree-1 paths
        (:meth:`~repro.bigraph.frontier.Frontier.order_paths`): a source's
        count is its path's length plus ``|rf(e)|`` of the path's end
        ``e``, zero at a sink.  Only ends with several successors need a
        set-based count, which :func:`walk_counts` takes over the walk's
        gathered successor lists, from those ends alone.  Without numpy
        :func:`walk_counts` walks the CSR rows, as it walks list rows for
        :func:`repro.core.deletion_order.reachable_counts`.
        """
        pos = self._positions[side]
        roots = list(sources)
        walk = self._walk
        if walk is None:
            return walk_counts(self._row, pos, roots)
        lengths, ends, successors = walk.order_paths(roots, pos, self._slot)
        if successors is None:
            return dict(zip(roots, lengths))
        branched = walk_counts(successors, pos, [e for e in ends if e >= 0])
        return {x: d + branched[e] if e >= 0 else d
                for x, d, e in zip(roots, lengths, ends)}

    def followers(self, side: str, x: int, alpha: int, beta: int) -> Set[int]:
        """``F(x)`` under the held order and stamped core — set-identical to
        :func:`repro.core.followers.compute_followers`.

        The candidate set ``rf(x)`` comes from a single-source
        order-respecting DFS; the filter's sweep keeps only its size.
        """
        offsets = self._offsets
        rows = self._rows
        cand = self._cand
        self._call += 1
        call = self._call
        cand_list = self._collect_candidates(side, x, call)
        if not cand_list:
            return set()

        # Support pass: count neighbors in {x} ∪ core ∪ candidates.  The
        # candidate stamps are still all live here; they only start dropping
        # in the peel below.
        support = self._support
        core_stamp = self._core_stamp
        epoch = self._epoch
        n_upper = self._n_upper
        for u in cand_list:  # hot-loop
            count = 0
            for w in rows[offsets[u]:offsets[u + 1]]:
                if w == x or core_stamp[w] == epoch or cand[w] == call:
                    count += 1
            support[u] = count

        # Local peel.  A zeroed stamp marks death; the final survivor set is
        # the unique maximal subset meeting the thresholds, so the peel
        # order cannot affect the returned set.
        dead: List[int] = []
        push = dead.append
        for u in cand_list:  # hot-loop
            threshold = alpha if u < n_upper else beta
            if support[u] < threshold:
                cand[u] = 0
                push(u)
        head = 0
        while head < len(dead):  # hot-loop
            u = dead[head]
            head += 1
            for w in rows[offsets[u]:offsets[u + 1]]:
                if cand[w] != call:
                    continue
                remaining = support[w] - 1
                support[w] = remaining
                if remaining < (alpha if w < n_upper else beta):
                    cand[w] = 0
                    push(w)
        return {u for u in cand_list if cand[u] == call}

    # ------------------------------------------------------------------

    def _row(self, v: int) -> memoryview:
        return self._rows[self._offsets[v]:self._offsets[v + 1]]

    def _collect_candidates(self, side: str, x: int, call: int) -> List[int]:
        """The ``rf(x)`` DFS, stamping ``cand`` instead of building a set."""
        pos = self._positions[side]
        if pos[x] < 0:
            raise KeyError(x)
        offsets = self._offsets
        rows = self._rows
        cand = self._cand
        stack = self._stack
        out: List[int] = []
        push_out = out.append
        visited = self._visited
        visited[x] = call
        stack[0] = x
        top = 1
        while top:  # hot-loop
            top -= 1
            v = stack[top]
            pv = pos[v]
            for w in rows[offsets[v]:offsets[v + 1]]:
                if visited[w] == call or pos[w] <= pv:
                    continue
                visited[w] = call
                cand[w] = call
                push_out(w)
                stack[top] = w
                top += 1
        return out


def closure_counts(succ: Dict[int, Tuple[int, ...]],
                   position: Callable[[int], int],
                   readers: Dict[int, int],
                   roots: List[int]) -> Dict[int, int]:
    """Second pass of an ``rf`` sweep: ``{x: |rf(x)|}`` for every root.

    ``succ`` maps each vertex of the roots' closure that has order
    successors to them; a vertex left out has none, so its ``rf`` is
    empty.  ``readers`` counts, per closure vertex, the closure vertices
    whose set reads its set; a root adds no reader, because only its size
    is returned.  Visiting in decreasing position completes every
    successor's set before its predecessors read it, and each vertex's
    size is recorded once its set is complete.  The last reader of a set
    takes it over instead of copying it, and a set nobody reads is
    dropped, so on chains the pass costs one insert per closure vertex.
    The second pass of :func:`walk_counts`.
    """
    rf: Dict[int, Set[int]] = {}
    size: Dict[int, int] = {}
    take = rf.pop
    get = rf.get
    for v in sorted(succ, key=position, reverse=True):  # hot-loop
        out = succ[v]
        merged: Optional[Set[int]] = None
        for w in out:
            left = readers[w] - 1
            readers[w] = left
            part = get(w) if left else take(w, None)
            if part is None:  # w has no successors
                continue
            if merged is None:
                merged = set(part) if left else part
            else:
                merged |= part
        if merged is None:
            merged = set(out)
        else:
            merged.update(out)
        size[v] = len(merged)
        if readers[v]:
            rf[v] = merged
    return {x: size.get(x, 0) for x in roots}


def walk_counts(rows: Callable[[int], Iterable[int]], position: array,
                sources: Iterable[int]) -> Dict[int, int]:
    """``{x: |rf(x)|}`` for every source, in one Python walk of the order
    DAG.

    ``rows(v)`` iterates ``v``'s neighbors (a superset of its order
    successors will do) and ``position`` is an order's ``n``-long table,
    ``-1`` for "no entry"; a source without an entry raises ``KeyError``.
    Reachability only follows strictly increasing positions, so
    ``rf(v) = ⋃_{w ∈ N(v), pos(w) > pos(v)} ({w} ∪ rf(w))``.  One walk
    from all sources records each visited vertex's successors and how many
    visited vertices read its set; :func:`closure_counts` then visits the
    closure in decreasing position.  The one Python ``rf`` walk: list
    graphs (:func:`repro.core.deletion_order.reachable_counts`), CSR graphs
    without numpy, and the branching ends of
    :meth:`FollowerKernel.reachable`'s frontier passes all run it.
    """
    roots = list(sources)
    readers: Dict[int, int] = {}
    stack: List[int] = []
    push = stack.append
    pop = stack.pop
    for x in roots:
        if position[x] < 0:
            raise KeyError(x)
        if x not in readers:
            readers[x] = 0
            push(x)
    succ: Dict[int, Tuple[int, ...]] = {}
    found: List[int] = []
    keep = found.append
    clear = found.clear
    while stack:  # hot-loop
        v = pop()
        pv = position[v]
        for w in rows(v):
            if position[w] <= pv:
                continue
            keep(w)
            if w in readers:
                readers[w] += 1
            else:
                readers[w] = 1
                push(w)
        if found:
            succ[v] = tuple(found)
            clear()
    return closure_counts(succ, position.__getitem__, readers, roots)


def kernel_for(graph: object) -> Optional[FollowerKernel]:
    """A :class:`FollowerKernel` for CSR-backed graphs, else ``None``.

    The auto-selection hook: callers that want "flat kernel when the
    backend supports it, generic path otherwise" use this instead of
    handling :class:`~repro.exceptions.GraphConstructionError` themselves.
    """
    if adjacency_arrays(graph) is None:
        return None
    return FollowerKernel(graph)
