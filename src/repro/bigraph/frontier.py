"""Level-synchronous frontier passes over a CSR graph's flat buffers.

Order repair's affected-graph BFS (Algorithm 4, Line 2) covers most of a
connected graph when each anchor dirties most of it.  Walked row by row
in Python it costs one interpreter iteration per edge.  :class:`Frontier`
runs it breadth-first, one level at a time, as whole-array passes over
the CSR buffers wrapped zero-copy in numpy, after chainer-compiler's
``policy_gt``: vertex sets are bool vectors, and each level is a pass
over its whole frontier.  The order state's ``n``-long ``array('q')``
tables (positions, core numbers) are wrapped the same way, so no walk
converts a table first.

* :meth:`Frontier.expand` gathers the frontier's rows in one call, masks
  the neighbors against per-vertex arrays (allowed, seen) and dedupes the
  survivors without a sort: it scatters ``arange(k)`` into the seen
  stamps and keeps the neighbors whose own index survived (exactly one
  copy of each repeated id does, whichever write landed last).
  ``np.unique`` sorts, and measured about ten times slower on a level of
  30,000 entries.
* :meth:`Frontier.component` is the affected-graph walk: the vertices
  connected to ``x`` whose ``reach`` number passes a level, with each
  member's degree inside that set.
  Every allowed neighbor of a member is a member, so a member's degree is
  how often the walk reached it: one ``bincount``.  The walk hands back
  only the members below a cap (outside order repair's current core),
  so the caller never filters the whole set in Python.
* :meth:`Frontier.sweep` is the repair's core sweep over that open part
  (and the whole-graph one of an order build): the levels below the cap
  peel in rounds, as :meth:`Frontier.peel` does, and only the cap level,
  whose removal order is the deletion order, runs its FIFO cascade in
  Python over slices of the buffers.  It and :meth:`Frontier.renumber`
  write core numbers and positions straight into the order state's
  tables.

The two-hop domination filter (Algorithm 3) uses the same gathers.
:meth:`Frontier.undominated` decides every miss's survivor verdict
together: each signature is a masked gather of the miss's row, the
dominator pool is a masked gather of one signature vertex's row, and
``sig(x) ⊆ sig(w)`` is a sorted search of encoded ``(w, v)`` signature
entries, instead of one neighbor-list intersection per candidate in
Python.

The full-graph (anchored) (α,β)-core is :meth:`Frontier.peel`, the
round-synchronous peel: each round removes every violating vertex at
once, gathers their rows and takes each touched neighbor's degree loss
from one unique-with-counts.  Rounds converge to the same unique core as
vertex-at-a-time peeling, since the core is the unique maximal fixed
point.

The filter's ``|rf(x)|`` bounds come from :meth:`Frontier.order_paths`:
level passes from the sources keep each gathered row's entries above the
row's position, which are the order DAG's edges over the closure, and
pointer jumping along out-degree-1 successors cuts the DAG into runs
(:meth:`repro.bigraph.kernel.FollowerKernel.reachable` turns the runs into
counts).

Scratch arrays are allocated per call, so threads that share one graph
(the service's workers) never share them; the one exception is
:meth:`Frontier.order_paths`, whose slot scratch belongs to the caller (a
:class:`~repro.bigraph.kernel.FollowerKernel`, which is per campaign and
never shared) because it runs once per filter pass.  numpy is optional:
:func:`frontier_for` returns ``None`` for list-backed graphs or when numpy
is not installed, and callers keep their per-row loops for that case.
This is the only module that imports numpy, and it does so on the first
:func:`frontier_for` (or :func:`held_entries`) call, not on import.
"""

from __future__ import annotations

from array import array
from importlib.util import find_spec
from typing import Any, Callable, Collection, List, Optional, Sequence, Tuple

from repro.bigraph.csr import adjacency_arrays

__all__ = ["Frontier", "frontier_for", "held_entries"]

#: Stands for numpy until the first :func:`frontier_for` call imports it.
_PENDING = object()

#: numpy, or ``None`` when it is not installed (tests set it to ``None``
#: to hide numpy).  It is imported on first use, not with the package:
#: numpy is most of ``import repro``'s time, and a process that never
#: makes a frontier pass (a memmap reader, a CLI ``--help``) never pays.
_np: Any = _PENDING if find_spec("numpy") is not None else None


def _numpy() -> Any:
    """numpy, imported on the first call, or ``None``."""
    global _np
    if _np is _PENDING:
        try:
            import numpy
        except ImportError:  # pragma: no cover - present but broken
            numpy = None
        _np = numpy
    return _np


def frontier_for(graph: object) -> Optional["Frontier"]:
    """A :class:`Frontier` over ``graph``'s CSR buffers, or ``None``.

    ``None`` when the graph is list-backed or numpy is not importable —
    the rule :func:`repro.abcore.decomposition.anchored_abcore` follows
    for its vectorized full-graph peel.
    """
    arrays = adjacency_arrays(graph)
    if arrays is None or _numpy() is None:
        return None
    return Frontier(arrays[0], arrays[1])


def held_entries(position: array, start: int, stop: int) -> Optional[List[int]]:
    """The ids ``v`` in ``[start, stop)`` with ``position[v] >= 0``, in
    increasing order, from one pass over an order's ``array('q')`` table;
    ``None`` when numpy is not importable."""
    if _numpy() is None:
        return None
    held = _np.flatnonzero(_table(position)[start:stop] >= 0)
    held += start
    return held.tolist()


class Frontier:
    """Frontier passes over one CSR graph.

    Holds read-only numpy views of the graph's ``offsets`` and
    ``neighbors`` buffers and nothing else: every walk allocates its own
    scratch arrays, except :meth:`order_paths`, which takes the caller's
    (:meth:`scratch`).
    """

    __slots__ = ("offsets", "neighbors", "n", "_index")

    def __init__(self, offsets: Any, neighbors: Any) -> None:
        self.offsets = _np.asarray(offsets)
        self.neighbors = _np.asarray(neighbors)
        # The views alias the graph's own buffers: a stray write raises.
        self.offsets.setflags(write=False)
        self.neighbors.setflags(write=False)
        self.n = len(self.offsets) - 1
        # Positions within one level's gathered neighbors: 32 bits unless
        # the graph has 2**31 neighbor entries.
        self._index = (_np.int32 if len(self.neighbors) < 2 ** 31
                       else _np.int64)

    # ------------------------------------------------------------------
    # The primitive
    # ------------------------------------------------------------------

    @staticmethod
    def _spans(starts: Any, counts: Any) -> Any:
        """The flat indices of the spans ``[starts[i], starts[i] +
        counts[i])``, span after span."""
        ends = _np.cumsum(counts)
        total = int(ends[-1]) if ends.size else 0
        # The j-th index of span i is starts[i] + j, and j is the entry's
        # place minus the number of entries before span i.
        at = _np.repeat(starts - (ends - counts), counts)
        at += _np.arange(total, dtype=at.dtype)
        return at

    def _gather(self, rows: Any) -> Tuple[Any, Any]:
        """``(reached, counts)``: the neighbors of ``rows``, row after row,
        as one ``intp`` array (numpy converts narrower index arrays on
        every fancy-index use), and each row's length."""
        offsets = self.offsets
        starts = offsets.take(rows)
        counts = offsets.take(rows + 1) - starts
        at = self._spans(starts, counts)
        return self.neighbors.take(at).astype(_np.intp), counts

    def expand(self, frontier: Any, stamp: Any,
               allowed: Any) -> Tuple[Any, Any]:
        """One level: the unseen allowed neighbors of ``frontier``.

        ``stamp`` is the walk's ``n``-long scratch array of the index
        dtype: negative marks a vertex not yet seen.  Returns ``(fresh,
        reached)``: ``fresh`` holds each newly seen vertex once (they are
        marked seen), ``reached`` every allowed neighbor entry gathered.
        """
        reached = self._gather(frontier)[0]
        reached = reached[allowed.take(reached)]
        fresh = reached[stamp.take(reached) < 0]
        slots = _np.arange(fresh.size, dtype=self._index)
        stamp[fresh] = slots
        return fresh[stamp.take(fresh) == slots], reached

    def scratch(self) -> Any:
        """An ``n``-long stamp array of the index dtype, every slot unseen
        (negative)."""
        return _np.full(self.n, -1, dtype=self._index)

    def _stamp(self, sources: Any) -> Any:
        stamp = self.scratch()
        stamp[sources] = 0
        return stamp

    # ------------------------------------------------------------------
    # The (α,β)-core
    # ------------------------------------------------------------------

    def peel(self, alpha: int, beta: int, n_upper: int,
             anchors: Collection[int] = ()) -> Any:
        """The anchored (α,β)-core as an ``n``-long bool mask.

        Vertices below ``n_upper`` need degree ``alpha``, the others
        ``beta``; ``anchors`` are never removed.  Each round removes every
        violating vertex at once and costs ``O(t log t)`` in the round's
        touched entries ``t``, not ``O(n)``: a per-round ``bincount`` over
        every vertex loses badly on long cascade tails of small rounds.
        Every edge is gathered at most twice over the whole peel.
        """
        n = self.n
        degree = _np.diff(self.offsets)
        # An anchor's threshold is 0, which no degree falls below.
        threshold = _np.full(n, beta, dtype=degree.dtype)
        threshold[:n_upper] = alpha
        threshold[_np.fromiter(anchors, dtype=_np.intp,
                               count=len(anchors))] = 0
        alive = _np.ones(n, dtype=bool)
        removing = _np.flatnonzero(degree < threshold)
        while removing.size:
            alive[removing] = False
            touched, hits = _np.unique(self._gather(removing)[0],
                                       return_counts=True)
            degree[touched] -= hits
            touched = touched[alive.take(touched)]
            removing = touched[degree.take(touched) < threshold.take(touched)]
        return alive

    # ------------------------------------------------------------------
    # Walks
    # ------------------------------------------------------------------

    def component(self, x: int, reach: array, level: int, numbers: array,
                  cap: int) -> Tuple[Any, Any]:
        """The vertices ``v`` connected to ``x`` through ``reach[v] >=
        level`` (``x`` itself always counts) that are open, ``numbers[v] <
        cap``, as a sorted index array, and as an ``n``-long int64 array
        each member's degree inside the whole connected set, closed members
        included.

        Closed vertices are walked through like any other member: they
        connect the open ones and count toward their degrees, but only the
        open members are handed back.  Every allowed neighbor of a member
        is a member, and each member's row is gathered once, so a member's
        degree is the number of times it was reached.  Both arrays feed
        :meth:`sweep` as they are.
        """
        allowed = _table(reach) >= level
        allowed[x] = True
        frontier = _np.array([x], dtype=_np.intp)
        stamp = self._stamp(frontier)
        levels = []
        reached = []
        while frontier.size:
            levels.append(frontier)
            frontier, entries = self.expand(frontier, stamp, allowed)
            reached.append(entries)
        region = _np.concatenate(levels)
        degrees = _np.bincount(_np.concatenate(reached), minlength=self.n)
        open_part = region[_table(numbers).take(region) < cap]
        open_part.sort()
        return open_part, degrees.astype(_np.int64, copy=False)

    # ------------------------------------------------------------------
    # Order repair (Algorithm 4)
    # ------------------------------------------------------------------

    def sweep(self, alpha: int, beta: int, side: str, n_upper: int,
              anchors: Collection[int], members: Optional[Any],
              start_level: int, degree: Optional[Any],
              numbers: array) -> Tuple[List[int], List[int], List[int]]:
        """:func:`repro.abcore.core_numbers.core_sweep` on this graph's
        buffers: ``(sequence, relaxed_core, core)``, with each member's
        capped core number written into the ``array('q')`` table
        ``numbers``.

        ``members`` is a sorted index array (``None``: every vertex) and
        ``degree`` an ``n``-long int64 array of each member's degree
        inside the swept region (``None``: the whole graph's degrees),
        which the sweep decrements in place; ``start_level`` is
        ``core_sweep``'s.  ``relaxed_core`` and ``core`` come back in
        increasing id, ``sequence`` in removal order.

        A level below the cap removes a *set*: every alive non-anchor
        vertex outside the level's core, whatever the order of removal.
        So those levels peel as :meth:`peel` does, in rounds that each
        remove every violating vertex at once, and each level writes its
        core number once.  Only the cap level's removal order matters: it
        is the deletion order.  Its seeds (the violators, in increasing id)
        come from one mask pass, and its FIFO cascade runs in Python over
        slices of the buffers, because a cap cascade is typically many
        rounds of a few vertices each, where a round's array calls cost
        more than its Python loop.  A bipartite row holds only the other
        layer, so the cascade reads one threshold per row.
        """
        n = self.n
        int64 = _np.int64
        if members is None:
            members = _np.arange(n, dtype=_np.intp)
            degree = _np.diff(self.offsets).astype(int64)
        alive = _np.zeros(n, dtype=_np.uint8)
        alive[members] = 1
        # An anchor never peels: lift its degree above every threshold.
        pinned = _np.fromiter(anchors, dtype=_np.intp, count=len(anchors))
        degree[pinned[alive.take(pinned) == 1]] += _PINNED
        vary_lower = side == "upper"
        cap = beta if vary_lower else alpha
        table = _table(numbers)
        live = members
        seeds = members
        first = start_level + 1 if start_level else 0
        for k in range(first, cap):
            upper_min, lower_min = (alpha, k) if vary_lower else (k, beta)
            removing = seeds[degree.take(seeds)
                             < _np.where(seeds < n_upper, upper_min,
                                         lower_min)]
            while removing.size:
                alive[removing] = 0
                reached = self._gather(removing)[0]
                touched, hits = _np.unique(reached[alive.take(reached) == 1],
                                           return_counts=True)
                degree[touched] -= hits
                removing = touched[degree.take(touched)
                                   < _np.where(touched < n_upper, upper_min,
                                               lower_min)]
            kept = alive.take(live) == 1
            table[live[~kept]] = k - 1 if k else 0
            live = live[kept]
            # Past the first level only the varied layer can violate.
            split = _np.searchsorted(live, n_upper)
            seeds = live[split:] if vary_lower else live[:split]

        if first > cap:  # Nothing to peel: every member keeps the cap.
            table[members] = cap
            return [], members.tolist(), members.tolist()
        # The cap level: a FIFO cascade from the relaxed core.
        upper_min, lower_min = (alpha, cap) if vary_lower else (cap, beta)
        removing = seeds[degree.take(seeds)
                         < _np.where(seeds < n_upper, upper_min, lower_min)]
        alive[removing] = 0
        queue = removing.tolist()
        flags = bytearray(alive)
        deg = degree.tolist()
        offsets = memoryview(self.offsets)
        neighbors = memoryview(self.neighbors)
        push = queue.append
        for v in queue:  # hot-loop
            least = lower_min if v < n_upper else upper_min
            for w in neighbors[offsets[v]:offsets[v + 1]]:
                if flags[w]:
                    d = deg[w] - 1
                    deg[w] = d
                    if d < least:
                        flags[w] = 0
                        push(w)
        kept = _np.frombuffer(flags, dtype=_np.uint8).take(live) == 1
        table[live] = _np.where(kept, cap, cap - 1)
        return queue, live.tolist(), live[kept].tolist()

    def renumber(self, position: array, region: Any,
                 sequence: List[int], start: int) -> List[int]:
        """Drop every entry of ``region`` (a sorted index array) from the
        ``array('q')`` table ``position``, then number ``sequence``
        ``start, start + 1, ...``.  Returns the members of ``region`` that
        held an entry before, in increasing id."""
        table = _table(position)
        held = region[table.take(region) >= 0].tolist()
        table[region] = -1
        at = _np.fromiter(sequence, dtype=_np.intp, count=len(sequence))
        table[at] = _np.arange(start, start + at.size, dtype=_np.int64)
        return held

    def order_paths(self, sources: Sequence[int], position: array,
                    slot: Any) -> Tuple[List[int], List[int],
                                        Optional[Callable[[int], List[int]]]]:
        """The order DAG below ``sources``, cut into out-degree-1 paths.

        The order DAG has an edge ``v → w`` for each neighbor ``w`` of
        ``v`` with ``position[w] > position[v]`` (``-1`` in the
        ``array('q')`` table means no entry); ``rf(x)`` is what ``x``
        reaches in it.  Returns ``(lengths, ends, successors)``, the
        first two aligned with ``sources``: for each source ``x``, walking
        its successor path while the current vertex has exactly one
        successor stops at the first vertex ``e(x)`` that has none or
        several; ``lengths[i]`` is the number of steps, ``d(x)``, and
        ``ends[i]`` is ``e(x)`` when it has several successors, else
        ``-1``.  ``successors(v)`` lists the order successors of any
        vertex of the closure, and is ``None`` when no end branches.

        Positions strictly increase along a path, so no vertex before
        ``e(x)`` lies in ``rf(e(x))``, and ``|rf(x)| = d(x) +
        |rf(e(x))|`` exactly, with ``|rf(e)| = 0`` at a sink.

        Level passes from the distinct sources gather each closure row
        once and keep its entries above the row's position: the DAG's
        edges, grouped by tail in closure order.  Pointer jumping along
        the out-degree-1 successors then finds every ``e`` and ``d`` in
        ``O(log L)`` passes for paths of length ``L``.  ``slot`` is the
        caller's ``n``-long scratch of the index dtype: every entry must be
        negative on entry and is again on return (only the closure's are
        written).  A source without an entry raises ``KeyError``.
        """
        if not sources:
            return [], [], None
        pos = _table(position)
        index = self._index
        xs = _np.fromiter(sources, dtype=_np.intp, count=len(sources))
        missing = _np.flatnonzero(pos.take(xs) < 0)
        if missing.size:
            raise KeyError(int(xs[missing[0]]))

        # The walk.  Level 0 holds each source once (the one whose write
        # landed last); each later level holds the fresh successors.
        slots = _np.arange(xs.size, dtype=index)
        slot[xs] = slots
        frontier = xs[slot.take(xs) == slots]
        levels = []
        tails = []
        heads = []
        while frontier.size:
            levels.append(frontier)
            reached, counts = self._gather(frontier)
            keep = pos.take(reached) > _np.repeat(pos.take(frontier), counts)
            head = reached[keep]
            tails.append(_np.repeat(frontier, counts)[keep])
            heads.append(head)
            fresh = head[slot.take(head) < 0]
            slots = _np.arange(fresh.size, dtype=index)
            slot[fresh] = slots
            frontier = fresh[slot.take(fresh) == slots]

        # Local ids: each closure vertex's place in the walk.
        closure = _np.concatenate(levels)
        size = closure.size
        slot[closure] = _np.arange(size, dtype=index)
        local = slot.take(xs)
        targets = _np.concatenate(heads)
        tail = slot.take(_np.concatenate(tails))
        head = slot.take(targets)
        slot[closure] = -1

        # Pointer jumping: after each pass, nxt[v] lies dist[v] steps down
        # v's path, or is e(v) when the path stops sooner.
        degree = _np.bincount(tail, minlength=size)
        single = degree == 1
        nxt = _np.arange(size, dtype=index)
        step = single.take(tail)
        nxt[tail[step]] = head[step]
        dist = single.astype(index)
        while single.take(nxt).any():
            dist += dist.take(nxt)
            nxt = nxt.take(nxt)

        end = nxt.take(local)
        lengths = dist.take(local).tolist()
        branches = degree.take(end) > 1
        if not branches.any():
            return lengths, [-1] * len(lengths), None
        ends = _np.where(branches, closure.take(end), -1).tolist()
        bounds = _np.concatenate(([0], _np.cumsum(degree))).tolist()
        rows = targets.tolist()
        place = dict(zip(closure.tolist(), range(size)))

        def successors(v: int) -> List[int]:
            i = place[v]
            return rows[bounds[i]:bounds[i + 1]]

        return lengths, ends, successors

    # ------------------------------------------------------------------
    # Two-hop domination (Algorithm 3)
    # ------------------------------------------------------------------

    def _signatures(self, rows: Any, position: Any) -> Tuple[Any, Any, Any]:
        """``(entries, owner, sizes)``: ``sig(x)`` of every ``x`` in
        ``rows`` — the neighbors with a larger ``position`` — row after
        row, the index into ``rows`` each entry belongs to, and each
        signature's size."""
        reached, counts = self._gather(rows)
        owner = _np.repeat(_np.arange(rows.size, dtype=self._index), counts)
        keep = position.take(reached) > _np.repeat(position.take(rows),
                                                   counts)
        owner = owner[keep]
        return (reached[keep], owner,
                _np.bincount(owner, minlength=rows.size))

    def undominated(self, misses: Sequence[int], position: array,
                    candidates: Collection[int]) -> List[bool]:
        """Algorithm 3's verdict for each of ``misses``, in their order.

        ``x`` survives iff ``sig(x) ≠ ∅`` and no candidate ``w ≠ x`` with
        a larger ``(|sig(w)|, w)`` key has ``sig(x) ⊆ sig(w)``, where
        ``sig(v)`` is the neighbors of ``v`` with a larger ``position``
        (Definition 8) in the order's ``array('q')`` table, where ``-1``
        means no entry.  ``misses`` must be candidates, and every
        candidate must hold an entry.  Five passes over the CSR buffers
        decide every miss together:

        1. gather the misses' rows and keep the entries above each
           miss's position: every ``sig(x)``, and a ``bincount`` of sizes;
        2. pick one signature vertex ``v1`` per miss, the least degree;
        3. gather the ``v1`` rows and keep each candidate ``w ≠ x`` below
           ``v1``: the pairs ``(x, w)`` with ``v1 ∈ sig(w)``, a superset
           of ``x``'s dominator pool, whichever ``v1`` was picked;
        4. gather the distinct ``w``'s rows for ``sig(w)`` and drop each
           pair whose ``w`` key is not larger than ``x``'s;
        5. test ``sig(x) ⊆ sig(w)`` for the pairs left: every ``(w, v)``
           signature entry encoded as one int, searched in sorted order
           for each ``v ∈ sig(x)`` of each pair.

        Two ids encode as ``a * n + b`` in an int64, which holds for
        graphs below three billion vertices.
        """
        n = self.n
        pos = _table(position)
        is_candidate = _np.zeros(n, dtype=bool)
        is_candidate[_np.fromiter(candidates, dtype=_np.intp,
                                  count=len(candidates))] = True
        xs = _np.fromiter(misses, dtype=_np.intp, count=len(misses))

        # 1. Every sig(x), grouped by miss.
        sig_x, _, size_x = self._signatures(xs, pos)
        live = _np.flatnonzero(size_x).astype(self._index)
        verdict = size_x > 0
        if not live.size:
            return verdict.tolist()
        starts_x = _np.cumsum(size_x) - size_x

        # 2. The least-degree signature vertex of each live miss (ties by
        #    id): the smallest degree * n + v of its group.
        offsets = self.offsets
        key = (offsets.take(sig_x + 1) - offsets.take(sig_x)) * n + sig_x
        v1 = _np.minimum.reduceat(key, starts_x.take(live)) % n

        # 3. Pairs (x, w): candidates w != x adjacent to v1 below it.
        reached, counts = self._gather(v1)
        pair_x = _np.repeat(live, counts)
        keep = (is_candidate.take(reached)
                & (pos.take(reached) < _np.repeat(pos.take(v1), counts))
                & (reached != xs.take(pair_x)))
        pair_w = reached[keep]
        pair_x = pair_x[keep]
        if not pair_w.size:
            return verdict.tolist()

        # 4. sig(w) of the distinct w; keep the pairs whose w key is larger.
        mark = _np.zeros(n, dtype=bool)
        mark[pair_w] = True
        ws = _np.flatnonzero(mark)
        sig_w, owner_w, size_w = self._signatures(ws, pos)
        size_of = _np.zeros(n, dtype=_np.int64)
        size_of[ws] = size_w
        sw = size_of.take(pair_w)
        sx = size_x.take(pair_x)
        larger = (sw > sx) | ((sw == sx) & (pair_w > xs.take(pair_x)))
        pair_w = pair_w[larger]
        pair_x = pair_x[larger]
        if not pair_w.size:
            return verdict.tolist()

        # 5. sig(x) ⊆ sig(w) for each pair: a pair fails on any v of
        #    sig(x) whose (w, v) is no signature entry of w.
        entries = ws.take(owner_w) * n + sig_w
        entries.sort()
        counts = size_x.take(pair_x)
        queries = (_np.repeat(pair_w * n, counts)
                   + sig_x.take(self._spans(starts_x.take(pair_x), counts)))
        at = _np.searchsorted(entries, queries)
        at[at == entries.size] = 0
        missing = entries.take(at) != queries
        pair_of = _np.repeat(_np.arange(pair_w.size, dtype=self._index),
                             counts)
        failed = _np.zeros(pair_w.size, dtype=bool)
        failed[pair_of[missing]] = True
        verdict[pair_x[~failed]] = False
        return verdict.tolist()


#: Added to an anchor's degree so that no decrement brings it below a
#: threshold: anchors never peel.
_PINNED = 1 << 62


def _table(values: array) -> Any:
    """An order-state ``array('q')`` table as an int64 view, no copy."""
    return _np.frombuffer(values, dtype=_np.int64)
