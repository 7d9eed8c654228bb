"""The one-pass core sweep against the level-by-level peel it replaced.

``core_sweep`` keeps its degree counters across levels.  The oracle below is
the former implementation: one full anchored (α,β)-core peel of the previous
level's survivors per level.  Its numbers, plus ``compute_order`` on the
region's relaxed core (what order repair used to run), must equal the
sweep's numbers, relaxed core, cap-level removal sequence and core.
"""

import copy
import random

import pytest

from repro.abcore import anchored_abcore
from repro.abcore.core_numbers import core_sweep
from repro.bigraph import from_edge_list
from repro.core import OrderState, compute_order, order_maintenance

from conftest import random_bigraph, table_dict
from test_order_maintenance import assert_state_matches_fresh


def level_by_level_core_numbers(graph, fixed, cap, anchors, vary_upper_side,
                                subset=None, start_level=0):
    """The former ``_capped_core_numbers``: one anchored peel per level."""
    members = None if subset is None else list(subset)
    numbers = {v: start_level
               for v in (graph.vertices() if members is None else members)}
    survivors = members
    for k in range(start_level + 1, cap + 1):
        if vary_upper_side:
            alpha, beta = fixed, k
        else:
            alpha, beta = k, fixed
        core = anchored_abcore(graph, alpha, beta, anchors, survivors)
        for v in core:
            numbers[v] = k
        if not core:
            break
        survivors = core
    return numbers


def oracle(graph, alpha, beta, side, anchors, subset, start_level):
    """Numbers from the old loop; order and cores as order repair built them."""
    upper = side == "upper"
    fixed, cap = (alpha, beta) if upper else (beta, alpha)
    numbers = level_by_level_core_numbers(graph, fixed, cap, anchors, upper,
                                          subset, start_level)
    relaxed = None
    if cap - 1 >= 1:
        relaxed = {v for v, k in numbers.items() if k >= cap - 1}
    order = compute_order(graph, alpha, beta, side, anchors, subset=subset,
                          relaxed_core=relaxed)
    return numbers, order


def assert_sweep_matches_oracle(graph, alpha, beta, side, anchors,
                                subset=None, start_level=0, degrees=None):
    sweep = core_sweep(graph, alpha, beta, side, anchors, subset,
                       start_level, degrees)
    numbers, order = oracle(graph, alpha, beta, side, anchors, subset,
                            start_level)
    assert sweep.numbers == numbers
    assert sweep.relaxed_core == order.relaxed_core
    assert sweep.sequence == order.deleted_in_order()
    assert sweep.core == order.core
    return sweep


def induced_degrees(graph, region):
    degrees = [0] * graph.n_vertices
    for v in region:
        degrees[v] = sum(1 for w in graph.neighbors(v) if w in region)
    return degrees


def affected_region(state, side, x, level):
    """The whole affected graph of ``x``, walked apart from ``OrderState``:
    ``x``'s component of the vertices whose capped core number reaches
    ``level`` (``level = 0``: of the anchored level-1 core)."""
    g = state.graph
    if level >= 1:
        numbers = table_dict(state.core_u if side == "upper"
                             else state.core_l)
        inside = {v for v, k in numbers.items() if k >= level}
    else:
        inside = level_core(g, state.alpha, state.beta, side, state.anchors, 1)
    region = {x}
    stack = [x]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w in inside and w not in region:
                region.add(w)
                stack.append(w)
    return region


def assert_open_sweep_matches_whole(graph, alpha, beta, side, anchors,
                                    whole, closed, level, degrees):
    """Sweeping the open part ``whole ∖ closed`` with the whole region's
    degrees gives the whole region's sweep restricted to the open part,
    and the whole sweep never removes a closed vertex."""
    cap = beta if side == "upper" else alpha
    open_part = whole - closed
    part = core_sweep(graph, alpha, beta, side, anchors, open_part, level,
                      list(degrees))
    full = core_sweep(graph, alpha, beta, side, anchors, whole, level,
                      list(degrees))
    assert closed <= full.core
    assert all(full.numbers[v] == cap for v in closed)
    assert part.sequence == full.sequence
    assert part.numbers == {v: k for v, k in full.numbers.items()
                            if v in open_part}
    assert part.core == full.core - closed
    assert part.relaxed_core == full.relaxed_core - closed
    return part


def level_core(graph, alpha, beta, side, anchors, level):
    """The (α, level)-core (upper side) / (level, β)-core (lower side)."""
    if side == "upper":
        return anchored_abcore(graph, alpha, level, anchors)
    return anchored_abcore(graph, level, beta, anchors)


def two_components(seed):
    """Two disjoint random graphs: repairs in one never reach the other."""
    parts = [random_bigraph(seed + i, n1_range=(8, 16), n2_range=(8, 16),
                            density=0.2) for i in (0, 1000)]
    first = parts[0]
    edges = [(u, v - first.n_upper) for u, v in first.edges()]
    edges += [(u + first.n_upper, v - parts[1].n_upper + first.n_lower)
              for u, v in parts[1].edges()]
    return from_edge_list(edges, n_upper=first.n_upper + parts[1].n_upper,
                          n_lower=first.n_lower + parts[1].n_lower)


CASES = [(seed, alpha, beta)
         for seed in range(8)
         for alpha, beta in ((1, 1), (1, 3), (3, 1), (2, 2), (3, 4), (4, 2))]


@pytest.mark.parametrize("backend", ["list", "csr"])
@pytest.mark.parametrize("seed,alpha,beta", CASES)
def test_whole_vertex_set(seed, alpha, beta, backend):
    g = random_bigraph(seed, density=0.3 + 0.05 * (seed % 4))
    if backend == "csr":
        g = g.to_csr()
    rng = random.Random(seed)
    anchor_sets = [[], rng.sample(list(g.vertices()), 2)]
    for anchors in anchor_sets:
        for side in ("upper", "lower"):
            assert_sweep_matches_oracle(g, alpha, beta, side, anchors)
            assert_sweep_matches_oracle(g, alpha, beta, side, anchors,
                                        subset=list(g.vertices()))


@pytest.mark.parametrize("seed,alpha,beta", CASES)
def test_every_start_level_up_to_the_cap(seed, alpha, beta):
    """Regions that are their own level-``s`` core, anchors inside, s = 0..cap.

    ``start_level = s`` promises exactly that: every member is in the
    region's varied-``s`` core.  Whole components of the (anchored)
    level-``s`` core qualify.
    """
    g = random_bigraph(100 + seed, density=0.4)
    rng = random.Random(seed)
    anchors = rng.sample(list(g.vertices()), 2)
    for side in ("upper", "lower"):
        cap = beta if side == "upper" else alpha
        for s in range(cap + 1):
            region = (set(g.vertices()) if s == 0
                      else level_core(g, alpha, beta, side, anchors, s))
            assert set(anchors) <= region
            assert_sweep_matches_oracle(g, alpha, beta, side, anchors,
                                        subset=region, start_level=s)


@pytest.mark.parametrize("backend", ["list", "csr"])
@pytest.mark.parametrize("seed", range(12))
def test_regions_from_order_repair(seed, backend):
    """Affected graphs exactly as ``OrderState`` walks them, with its degrees:
    the walk hands back the open part (the region less the current core)
    and every region member's degree inside the whole region."""
    rng = random.Random(seed)
    alpha, beta = rng.choice([(1, 2), (2, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
    g = two_components(200 + seed)
    if backend == "csr":
        g = g.to_csr()
    state = OrderState(g, alpha, beta)
    pool = [v for v in g.vertices() if v not in state.core]
    rng.shuffle(pool)
    checked = 0
    for x in pool[:8]:
        if x in state.anchors:
            continue
        start = {"upper": table_dict(state.core_u).get(x, 0),
                 "lower": table_dict(state.core_l).get(x, 0)}
        state.anchors.add(x)
        for side in ("upper", "lower"):
            cap = beta if side == "upper" else alpha
            numbers = table_dict(state.core_u if side == "upper"
                                 else state.core_l)
            whole = affected_region(state, side, x, start[side])
            open_part, degrees = state._affected_graph(side, x, start[side])
            state._level0_core = None
            assert x in whole
            closed = whole & state.core
            assert closed == {v for v in whole if numbers.get(v, 0) == cap}
            assert open_part == whole - closed
            assert degrees == induced_degrees(g, whole)
            if backend == "csr":
                assert row_walk(state, side, x, start[side]) == \
                    (open_part, degrees)
            level = max(1, start[side])
            assert_sweep_matches_oracle(g, alpha, beta, side, state.anchors,
                                        subset=whole, start_level=level,
                                        degrees=list(degrees))
            assert_open_sweep_matches_whole(g, alpha, beta, side,
                                            state.anchors, whole, closed,
                                            level, degrees)
            checked += 1
        state.anchors.discard(x)
        state.apply_anchor(x)
        # Repairs number their regions above every position in use.
        for order in (state.upper, state.lower):
            shell = [p for p in table_dict(order.position).values()
                     if p >= 1]
            assert len(shell) == len(set(shell))
    assert checked


@pytest.mark.parametrize("backend", ["list", "csr"])
@pytest.mark.parametrize("seed", range(10))
def test_repairs_sweep_only_the_open_part(seed, backend, monkeypatch):
    """Every repair sweep of ``apply_anchor`` and of FILVER++ batches of
    2-3 anchors runs over the open part of its affected graph: disjoint
    from the core before that repair, and equal to the whole region's
    sweep with the same degrees, restricted to the open part."""
    rng = random.Random(seed)
    g = (two_components(300 + seed) if seed % 2 == 0
         else random_bigraph(300 + seed, n1_range=(10, 20),
                             n2_range=(10, 20), density=0.15))
    if backend == "csr":
        g = g.to_csr()
    # The first constraints with a core to split the regions by.
    constraints = [(2, 2), (3, 2), (2, 3), (3, 3)]
    rng.shuffle(constraints)
    for alpha, beta in constraints + [(2, 1), (1, 2)]:
        state = OrderState(g, alpha, beta)
        if state.core:
            break
    walks = []
    real_walk = OrderState._affected_graph

    def walk_spy(self, side, x, level):
        walks.append((side, affected_region(self, side, x, level)))
        return real_walk(self, side, x, level)

    batch = {}
    seen = {"sweeps": 0, "closed": 0}

    def sweep_spy(graph, alpha, beta, side, anchors=(), subset=None,
                  start_level=0, degrees=None):
        if subset is None:  # a whole-graph rebuild, not a repair
            return core_sweep(graph, alpha, beta, side, anchors, subset,
                              start_level, degrees)
        walked_side, whole = walks[-1]
        assert walked_side == side
        cap = beta if side == "upper" else alpha
        numbers = table_dict(state.core_u if side == "upper"
                             else state.core_l)
        pre_core = batch["core"] | batch[side]
        assert pre_core == {v for v, k in numbers.items() if k == cap}
        assert not set(subset) & pre_core
        closed = whole & pre_core
        assert set(subset) == whole - closed
        part = assert_open_sweep_matches_whole(
            graph, alpha, beta, side, anchors, whole, closed, start_level,
            degrees)
        sweep = core_sweep(graph, alpha, beta, side, anchors, subset,
                           start_level, degrees)
        assert sweep == part
        batch[side] |= sweep.core
        seen["sweeps"] += 1
        seen["closed"] += len(closed)
        return sweep

    monkeypatch.setattr(OrderState, "_affected_graph", walk_spy)
    monkeypatch.setattr(order_maintenance, "core_sweep", sweep_spy)
    # Vertices outside the core, and one inside it, which changes nothing.
    pool = [v for v in g.vertices() if v not in state.core]
    rng.shuffle(pool)
    pool.insert(1, min(state.core))
    while pool:
        size = rng.choice([1, 2, 3])
        fresh, pool = pool[:size], pool[size:]
        batch.update(core=set(state.core), upper=set(), lower=set())
        if size == 1:
            state.apply_anchor(fresh[0])
        else:
            state.apply_anchors(fresh)
        assert batch["upper"] == batch["lower"] == state.core - batch["core"]
        assert_state_matches_fresh(g, alpha, beta, state, state.anchors)
        if len(state.anchors) >= 12:
            break
    assert seen["sweeps"] and seen["closed"]


def row_walk(state, side, x, level):
    """The same walk on a list-backed twin of ``state`` (the row loop)."""
    twin = copy.copy(state)
    twin.graph = state.graph.to_list()
    twin._level0_core = None
    return twin._affected_graph(side, x, level)


@pytest.mark.parametrize("backend", ["list", "csr"])
def test_walk_from_an_anchor_with_an_empty_row(backend):
    """An isolated anchor's affected graph is the anchor alone, at any
    level, and every degree inside it is 0."""
    g = from_edge_list([(0, 0), (0, 1), (1, 0), (1, 1)], n_upper=3,
                       n_lower=2, backend=backend)
    x = 2
    assert len(g.adjacency[x]) == 0
    state = OrderState(g, 2, 2)
    state.anchors.add(x)
    for side in ("upper", "lower"):
        for level in (0, 1, 2):
            state._level0_core = None
            region, degrees = state._affected_graph(side, x, level)
            assert region == {x}
            assert degrees == [0] * g.n_vertices
            if backend == "csr":
                assert row_walk(state, side, x, level) == (region, degrees)


def test_region_that_empties_before_the_cap():
    """A star: everything drops out at level 2, so the cap level (3) is empty."""
    g = from_edge_list([(0, j) for j in range(5)], n_upper=1, n_lower=5)
    sweep = assert_sweep_matches_oracle(g, 3, 3, "upper", (),
                                        subset=list(g.vertices()))
    assert sweep.numbers == {v: 1 for v in g.vertices()}
    assert sweep.relaxed_core == set()
    assert sweep.sequence == []
    assert sweep.core == set()


def test_rejects_unknown_side():
    g = random_bigraph(0)
    with pytest.raises(ValueError):
        core_sweep(g, 2, 2, "diagonal")
