"""Connectivity-based order maintenance across greedy iterations (Section IV-B).

Recomputing the upper/lower deletion orders from scratch after every placed
anchor costs ``O(m)`` per iteration.  Algorithm 4 avoids this by confining the
update to the *affected graph* of the new anchor ``x*``:

* ``AG_U(x*)`` — the connected component of the ``(α, core_U(x*))``-core that
  contains ``x*`` (and symmetrically ``AG_L`` with ``core_L``).

Anchoring ``x*`` only adds support, and that support can only change core
membership at levels above ``core_U(x*)``, propagating along edges inside
``x*``'s component of the ``(α, core_U(x*))``-core.  Whole components of the
``(α,β-1)``-core lie inside the affected graph, so renumbering the affected
region with fresh positions (above every existing position) still yields a
valid deletion order: an order-increasing path never crosses between the old
and new regions, because adjacent shell vertices always share an
``(α,β-1)``-core component.

A repair sweeps only the affected graph's *open part* ``R° = AG ∖ C``,
where ``C`` is the current anchored ``(α,β)``-core.  Anchors are only ever
added, so ``C`` only grows, and ``C ∩ AG`` supports itself inside ``AG``
(every ``C``-neighbor of a member has the cap number and lies in the same
component).  A sweep of the whole affected graph would therefore never
remove, renumber or re-label a ``C`` member, which holds no position
entry; the core is never peeled, renumbered or re-scanned, and a repair
costs ``O(|E(R°)| + cap·|R°|)`` plus the walk.

:class:`OrderState` bundles both orders, the capped upper/lower core numbers
(Definition 10), and the current anchored core, and keeps them all consistent
as anchors are placed one at a time (FILVER+) or in batches (FILVER++).
Positions and core numbers are ``n_vertices``-long ``array('q')`` tables
that every reader indexes and every repair writes in place.
Equivalence with full recomputation is property-tested in
``tests/test_order_maintenance.py``.
"""

from __future__ import annotations

from array import array
from typing import Any, Collection, Dict, Optional, Sequence, Set, Tuple

from repro.abcore.core_numbers import core_sweep
from repro.abcore.decomposition import anchored_abcore
from repro.bigraph.csr import row_slices
from repro.bigraph.frontier import Frontier, frontier_for
from repro.bigraph.graph import BipartiteGraph
from repro.core.deletion_order import (DeletionOrder, compute_order,
                                       order_from_peel)

__all__ = ["OrderState"]

#: Per-side dirty regions reported by :meth:`OrderState.apply_anchors`:
#: ``{"upper": ..., "lower": ...}`` where each set holds every vertex whose
#: position entry in that side's order — or whose anchored-core membership —
#: changed during the apply.  ``None`` means "assume everything changed"
#: (the full-recompute path).
DirtyRegions = Optional[Dict[str, Set[int]]]


class OrderState:
    """Deletion orders, core numbers and anchored core, maintained incrementally.

    Parameters
    ----------
    graph, alpha, beta:
        The problem instance.  The graph is never mutated.
    maintain:
        When ``False`` the state falls back to full recomputation on every
        :meth:`apply_anchor` call — used by plain FILVER and by the
        order-maintenance ablation benchmark.

    ``core_u``/``core_l`` hold every vertex's capped upper/lower core
    number in one ``array('q')`` slot per vertex (0 for a vertex outside
    every level).  They are empty without ``maintain``, which never
    reads them.
    """

    def __init__(self, graph: BipartiteGraph, alpha: int, beta: int,
                 maintain: bool = True) -> None:
        self.graph = graph
        self.alpha = alpha
        self.beta = beta
        self.maintain = maintain
        self.anchors: Set[int] = set()
        self.upper: DeletionOrder
        self.lower: DeletionOrder
        self.core_u: array
        self.core_l: array
        self._counter_u = 0
        self._counter_l = 0
        self._level0_core: Optional[array] = None
        self.rebuild()

    # ------------------------------------------------------------------
    # Full recomputation
    # ------------------------------------------------------------------

    def rebuild(self) -> None:
        """Recompute everything from the graph and the current anchor set.

        With ``maintain`` one :func:`core_sweep` per side over the whole
        graph yields the core numbers and the order together; without it
        the core numbers are never read, so plain order peels suffice.
        """
        g, a, b = self.graph, self.alpha, self.beta
        if self.maintain:
            self.upper, self.core_u = self._swept_order("upper")
            self.lower, self.core_l = self._swept_order("lower")
        else:
            self.upper = compute_order(g, a, b, "upper", self.anchors)
            self.lower = compute_order(g, a, b, "lower", self.anchors)
            self.core_u = array("q")
            self.core_l = array("q")
        self._counter_u = self.upper.max_position()
        self._counter_l = self.lower.max_position()

    def _swept_order(self, side: str) -> Tuple[DeletionOrder, array]:
        """One side's full order and core numbers from a whole-graph sweep.

        The sweep's cap-level sequence is ``compute_order``'s peel of the
        relaxed core, so the order is the one ``compute_order`` builds.  On
        CSR graphs (with numpy) the sweep is :meth:`Frontier.sweep`, which
        writes the core numbers into the table itself.
        """
        graph, alpha, beta = self.graph, self.alpha, self.beta
        numbers = array("q", [0]) * graph.n_vertices
        walk = frontier_for(graph)
        if walk is None:
            sweep = core_sweep(graph, alpha, beta, side, self.anchors)
            for v, k in sweep.numbers.items():
                numbers[v] = k
            sequence, relaxed, core = (sweep.sequence, sweep.relaxed_core,
                                       sweep.core)
        else:
            sequence, relaxed_ids, core_ids = walk.sweep(
                alpha, beta, side, graph.n_upper, self.anchors, None, 0,
                None, numbers)
            relaxed, core = set(relaxed_ids), set(core_ids)
        order = order_from_peel(graph, alpha, beta, side, self.anchors,
                                sequence, core, relaxed)
        return order, numbers

    def clone_pristine(self, maintain: Optional[bool] = None) -> "OrderState":
        """An independent copy of this *pristine* state (no anchors applied).

        Produces exactly the state a fresh ``OrderState(graph, alpha, beta,
        maintain=...)`` construction would: the pristine deletion orders are a
        pure function of ``(graph, α, β)``, so copying the position tables and
        core sets is equivalent to re-peeling them — that equivalence is what
        lets :class:`repro.core.batch.SharedCampaignContext` pay the order
        build once per ``(α, β)`` and serve clones to every campaign.  All
        mutable tables are copied (campaigns repair their own clone freely);
        the graph itself is shared, as it is never mutated.

        ``maintain`` defaults to this state's setting.  A ``maintain=False``
        seed cannot produce a ``maintain=True`` clone (the capped core-number
        tables were never computed), and a state with applied anchors cannot
        be cloned at all — its tables no longer equal the pristine peel.
        """
        if self.anchors:
            raise ValueError(
                "clone_pristine() requires a pristine state; %d anchors "
                "already applied" % len(self.anchors))
        want = self.maintain if maintain is None else maintain
        if want and not self.maintain:
            raise ValueError(
                "cannot clone maintain=True from a maintain=False seed: "
                "core-number tables were never computed")
        clone = OrderState.__new__(OrderState)
        clone.graph = self.graph
        clone.alpha = self.alpha
        clone.beta = self.beta
        clone.maintain = want
        clone.anchors = set()
        clone.upper = DeletionOrder(
            side="upper", position=array("q", self.upper.position),
            core=set(self.upper.core),
            relaxed_core=set(self.upper.relaxed_core),
            alpha=self.alpha, beta=self.beta)
        clone.lower = DeletionOrder(
            side="lower", position=array("q", self.lower.position),
            core=set(self.lower.core),
            relaxed_core=set(self.lower.relaxed_core),
            alpha=self.alpha, beta=self.beta)
        clone.core_u = array("q", self.core_u if want else ())
        clone.core_l = array("q", self.core_l if want else ())
        clone._counter_u = self._counter_u
        clone._counter_l = self._counter_l
        clone._level0_core = None
        return clone

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def core(self) -> Set[int]:
        """Vertex set of the current anchored (α,β)-core."""
        return self.upper.core

    def apply_anchor(self, x: int) -> DirtyRegions:
        """Register one new anchor and repair both orders (Algorithm 4)."""
        return self.apply_anchors([x])

    def apply_anchors(self, new_anchors: Sequence[int]) -> DirtyRegions:
        """Register a batch of anchors (FILVER++'s per-iteration set ``T``).

        Per Section V-B, each side processes the batch in non-decreasing core
        number; an anchor that falls inside an earlier anchor's affected
        graph is skipped because its own affected graph is contained in the
        already-repaired region, and so is an anchor already in the core.

        Returns the per-side *dirty regions*: for each order, the exact set
        of vertices whose position entry (zero entries included) or anchored
        core membership changed during this apply.  The converse is the
        contract: **every position entry and every core membership outside
        the returned sets is bit-identical to its value before the
        call**.  Algorithm 4 renumbers the open part of each
        affected region (the part outside the core) with fresh positions,
        so the dirty sets are the repaired regions' shells plus
        core-membership flips plus zero-entry churn — not just the placed
        anchors.  ``None`` is returned on the full-recompute path
        (``maintain=False``), where nothing can be said about what moved.
        """
        fresh = [x for x in new_anchors if x not in self.anchors]
        if not fresh:
            return {"upper": set(), "lower": set()}
        if not self.maintain:
            self.anchors.update(fresh)
            self.rebuild()
            return None

        start_core_u = {x: self.core_u[x] for x in fresh}
        start_core_l = {x: self.core_l[x] for x in fresh}
        self.anchors.update(fresh)

        joined, dirty_u = self._repair_side("upper", fresh, start_core_u)
        _, dirty_l = self._repair_side("lower", fresh, start_core_l)
        # Both repairs independently arrive at the anchored (α,β)-core; share
        # one set object so the two orders can never drift apart.
        new_core = self.upper.core | joined
        self.upper.core = new_core
        self.lower.core = new_core
        return {"upper": dirty_u, "lower": dirty_l}

    # ------------------------------------------------------------------
    # The actual Algorithm-4 machinery
    # ------------------------------------------------------------------

    def _repair_side(self, side: str, fresh: Sequence[int],
                     start_levels: Dict[int, int],
                     ) -> Tuple[Set[int], Set[int]]:
        """Repair one side's order and core numbers.

        Returns ``(joined, dirty)``: the vertices that joined the anchored
        core, and every vertex whose position entry (zero entries
        included) or core membership this side's repairs changed.  The
        zero entries are refreshed last, around the open parts and the
        fresh anchors only.

        Anchors are only ever added, so the anchored core ``C`` only grows,
        within a batch as across batches.  An anchor already in ``C`` when
        the batch starts (the side's ``order.core``, untouched until
        :meth:`apply_anchors` publishes the new core) changes nothing.  An
        anchor inside an earlier region of the batch is repaired already,
        since its own affected graph lies in that region; it sits in that
        region's open part, which ``covered`` collects, or in ``C`` (a
        vertex that joined the core during the batch was in an open part).
        Either way it is skipped.
        """
        order = self.upper if side == "upper" else self.lower
        core = order.core
        covered: Set[int] = set()
        joined: Set[int] = set()
        dirty: Set[int] = set()
        flipped: Set[int] = set()
        ordered = sorted(fresh, key=lambda x: (start_levels[x], x))
        walk = frontier_for(self.graph)
        self._level0_core = None  # per-batch cache for _affected_graph
        for x in ordered:
            if x in covered or x in core:
                continue
            region, degrees = self._affected_graph(side, x, start_levels[x])
            members = region if walk is None else region.tolist()
            grown, changed, shell_flips = self._repair_region(
                side, region, members, degrees, max(1, start_levels[x]), walk)
            covered.update(members)
            joined |= grown
            dirty |= changed
            flipped |= shell_flips
        self._level0_core = None
        covered.update(fresh)
        dirty |= self._refresh_zero_entries(side, covered, flipped)
        return joined, dirty

    def _affected_graph(self, side: str, x: int, level: int,
                        ) -> Tuple[Any, Any]:
        """BFS from ``x`` restricted to core numbers ≥ ``level`` (Line 2).

        Returns the region's *open part* ``R° = region ∖ C``, where ``C``
        is the side's current anchored core (the vertices whose capped
        core number is the cap), and, ``n_vertices`` long, each region
        member's degree inside the whole region, ``C`` members included:
        the walk tests every edge of the region anyway, so it counts them
        for the sweep.  The walk runs through ``C``, which connects the
        open vertices.  On CSR graphs (with numpy) it is one
        level-synchronous :meth:`Frontier.component` pass per BFS level
        over the core-number tables, which hands back ``R°`` as a sorted
        index array and the degrees as an array, both ready for
        :meth:`Frontier.sweep`; on list graphs it is a row loop that
        collects ``R°`` as a set as it marks members and the degrees in a
        list.

        For ``level = 0`` the stored core numbers are vacuous, so the walk is
        instead confined to the (α,1)-core (upper side) / (1,β)-core (lower
        side) of the *anchored* graph: ``x``'s core number can only rise to
        ≥ 1, every vertex whose order or core number changes sits in that
        core, influence chains from ``x`` run inside it, and whole
        relaxed-core components lie inside its components.  This costs one
        extra peel but typically shrinks the region from "the whole connected
        component" to a small neighborhood.
        """
        graph = self.graph
        if side == "upper":
            numbers, cap = self.core_u, self.beta
        else:
            numbers, cap = self.core_l, self.alpha
        walk = frontier_for(graph)
        reach = numbers
        if level < 1:
            # The anchored graph is fixed for the whole batch, so the level-0
            # core peel is shared across the batch's anchors; its members
            # get "core number" 1 so one membership test serves both cases.
            if self._level0_core is None:
                self._level0_core = self._level0_table(side, walk)
            reach = self._level0_core
            level = 1
        if walk is not None:
            return walk.component(x, reach, level, numbers, cap)

        # A neighbor counts toward a member's degree when it is already in
        # the region (``x`` is, whatever its number) or passes the
        # membership test and joins it; a joining vertex below the cap is
        # open.
        row_of = graph.adjacency.__getitem__
        degrees = [0] * graph.n_vertices
        region = {x}
        open_part = {x} if numbers[x] < cap else set()
        keep = open_part.add
        stack = [x]
        pop = stack.pop
        push = stack.append
        mark = region.add
        while stack:  # hot-loop
            v = pop()
            d = 0
            for w in row_of(v):
                if w in region:
                    d += 1
                elif reach[w] >= level:
                    d += 1
                    mark(w)
                    push(w)
                    if numbers[w] < cap:
                        keep(w)
            degrees[v] = d
        return open_part, degrees

    def _level0_table(self, side: str, walk: Optional[Frontier]) -> array:
        """The anchored (α,1)-core (upper side) or (1,β)-core (lower side)
        as an ``n_vertices``-long ``array('q')`` table: 1 for a member,
        else 0.  On CSR graphs the table is :meth:`Frontier.peel`'s mask
        copied into the buffer whole."""
        graph = self.graph
        if side == "upper":
            alpha, beta = self.alpha, 1
        else:
            alpha, beta = 1, self.beta
        if walk is not None:
            mask = walk.peel(alpha, beta, graph.n_upper, self.anchors)
            return array("q", mask.astype("q").tobytes())
        table = array("q", [0]) * graph.n_vertices
        for v in anchored_abcore(graph, alpha, beta, self.anchors):
            table[v] = 1
        return table

    def _repair_region(self, side: str, region: Any, members: Collection[int],
                       degrees: Any, level: int, walk: Optional[Frontier],
                       ) -> Tuple[Set[int], Set[int], Set[int]]:
        """Recompute core numbers and order positions in one region's open
        part ``R°`` (the affected graph less the current core).

        ``region`` is ``R°`` as :meth:`_affected_graph` returns it and
        ``members`` its vertices as Python ints.  ``level`` is the placed
        anchor's old core number (at least 1): every region member has a
        core number ≥ ``level``, so one sweep from there (Algorithm 4,
        Line 4) yields the region's core numbers, relaxed core, core and —
        as its cap-level removal sequence — the region's deletion order,
        numbered from the side's counter upward.  With a frontier ``walk``
        the sweep is :meth:`Frontier.sweep`, and it and
        :meth:`Frontier.renumber` write the tables in place; otherwise it
        is :func:`core_sweep`, the oracle, written back here.

        Sweeping ``R°`` alone gives what a sweep of the whole affected
        graph gives, restricted to ``R°``.  The current core ``C`` only
        grows, and ``C ∩ region`` supports itself inside the region: every
        ``C``-neighbor of a member has the cap number and is connected to
        it, so it lies in the region too.  So the whole-region sweep never
        removes a ``C`` member, and those members keep the cap number, stay
        out of the removal sequence and hold no position entry.  ``degrees``
        counts their edges toward ``R°`` members; they sit outside the
        sweep's ``alive`` set, so the sweep never decrements them, exactly
        as if they were alive and never peeled.

        Returns ``(joined, changed, flipped)``.  ``joined`` is the part of
        ``R°`` that is now in the core.  ``changed`` is the subset of
        ``R°`` whose position entry or core membership actually differs
        after the repair.  Renumbering assigns fresh positions above every
        existing one, so that is the new relaxed core of ``R°`` (each
        member is renumbered or joined the core) plus every member that
        lost an entry.  ``flipped`` holds the members of ``R°`` with an
        entry before or after the repair but not both; on the layer
        opposite the side's zero entries that is exactly the members that
        gained or lost a positive entry, the shell vertices whose
        neighbors' zero entries may change.  Only ``R°`` positions are
        ever deleted or (re)assigned here, so vertices outside it cannot
        change.
        """
        graph, alpha, beta = self.graph, self.alpha, self.beta
        if side == "upper":
            order, numbers = self.upper, self.core_u
            start = self._counter_u + 1
        else:
            order, numbers = self.lower, self.core_l
            start = self._counter_l + 1
        position = order.position
        if walk is not None:
            sequence, relaxed_part, joined = walk.sweep(
                alpha, beta, side, graph.n_upper, self.anchors, region,
                level, degrees, numbers)
            held = walk.renumber(position, region, sequence, start)
        else:
            sweep = core_sweep(graph, alpha, beta, side, self.anchors,
                               region, level, degrees)
            sequence, relaxed_part, joined = (sweep.sequence,
                                              sweep.relaxed_core, sweep.core)
            for v, k in sweep.numbers.items():
                numbers[v] = k
            held = [v for v in region if position[v] >= 0]
            for v in region:
                position[v] = -1
            for p, v in enumerate(sequence, start):
                position[v] = p
        if side == "upper":
            self._counter_u += len(sequence)
        else:
            self._counter_l += len(sequence)

        changed = set(held)
        flipped = changed.symmetric_difference(sequence)
        relaxed = order.relaxed_core
        relaxed.difference_update(members)
        relaxed.update(relaxed_part)
        changed.update(relaxed_part)
        return set(joined), changed, flipped

    def _refresh_zero_entries(self, side: str, touched: Set[int],
                              flipped: Set[int]) -> Set[int]:
        """Refresh the position-0 promising-anchor entries a repair can
        change.

        ``w`` holds a zero entry iff it is on the side's layer, outside
        the relaxed core, not an anchor, and adjacent to a shell vertex
        (one with a positive entry): the rule
        :func:`~repro.core.deletion_order.zero_order_anchors` applies to a
        fresh peel.  A repair changes position entries and relaxed-core
        membership only inside its open parts, and the anchor set only at
        the batch's fresh anchors; ``touched`` holds both.  So ``w``'s
        status can change only if ``w`` is touched, or adjacent to a
        vertex that gained or lost a positive entry: an other-layer vertex
        in ``flipped``.  Only those vertices are refreshed.

        Returns the churn — vertices whose zero entry appeared or
        vanished, the set a global rebuild's ``old ^ new`` would give.
        """
        order = self.upper if side == "upper" else self.lower
        position = order.position
        relaxed = order.relaxed_core
        anchors = self.anchors
        graph = self.graph
        own, other = ((graph.is_upper, graph.is_lower) if side == "upper"
                      else (graph.is_lower, graph.is_upper))
        # A touched vertex holds no zero entry after the repair (an open
        # part loses every entry but the fresh positive ones, and a core
        # member holds none), so inside the relaxed core it stays
        # non-zero.  A bipartite row holds only the other layer.
        around = set(filter(own, touched - relaxed))
        for row in row_slices(graph, filter(other, flipped)):
            around.update(row)
        churn: Set[int] = set()
        # Order-free: each test reads other-layer entries only, and every
        # write is an own-layer entry.
        # ``rows`` walks ``around`` in the same order as the loop does.
        rows = row_slices(graph, around)
        for w in around:  # repro: ignore[determinism]
            row = next(rows)
            zero = False
            if w not in relaxed and w not in anchors:
                for v in row:
                    if position[v] > 0:
                        zero = True
                        break
            if zero != (position[w] == 0):
                churn.add(w)
                position[w] = 0 if zero else -1
        return churn
