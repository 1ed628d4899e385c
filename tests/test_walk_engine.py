"""Walk engine behavior on hand-built networks and random graphs."""

import numpy as np
import pytest

import handnets as H
from marks import mask_of, marked_nodes
from drw_overlay.geom_graph import GraphGenConfig, generate_network, network_from_positions
from drw_overlay.overlay import OverlayRegistry
from drw_overlay.rng import stream
from drw_overlay.walk_engine import (
    ACTIVE,
    BACKTRACKED,
    EXHAUSTED,
    EXHAUSTED_STEP,
    EXTENDED,
    INTERSECTED,
    INTERSECTED_STEP,
    CostStrategy,
    IsolatedInitiator,
    StepBudgetExceeded,
    WalkNotActive,
    WalkState,
    cost_first_neighborhood,
    cost_two_hop,
    cost_weighted,
    default_step_budget,
    init_walk,
    parse_strategy,
    run_walk_until_stop,
    step,
)

DRW = CostStrategy("drw")
PRW = CostStrategy("prw")


def fresh(net, initiator, seed=0, walk_id=0, registry=None, **kw):
    reg = registry if registry is not None else OverlayRegistry(net.n)
    walk, out = init_walk(net, initiator, walk_id, reg, seed, strategy=DRW, **kw)
    return walk, out, reg


# --- strategy parsing -------------------------------------------------------

def test_parse_strategy_tokens():
    assert parse_strategy("drw").kind == "drw"
    assert parse_strategy("PRW").kind == "prw"
    assert parse_strategy("twohop").kind == "twohop"
    w = parse_strategy("weighted", alpha=2.0, beta=0.5)
    assert (w.kind, w.alpha, w.beta) == ("weighted", 2.0, 0.5)
    with pytest.raises(ValueError):
        parse_strategy("dfs")


def test_strategy_labels():
    assert CostStrategy("drw").label == "drw"
    assert CostStrategy("weighted").label == "weighted"
    assert CostStrategy("weighted", alpha=2.0, beta=0.5).label == "weighted-a2-b0.5"
    with pytest.raises(ValueError):
        CostStrategy("weighted", alpha=-1.0)


# --- cost functions against the worked fan example -------------------------

def test_fan_costs_first_neighborhood():
    """Scored fan: a=3 b=2 c=3 d=2 z=1 with marked = N(x)."""
    net = H.fan_network()
    walk = WalkState(id=0, rng=np.random.default_rng(0))
    walk.marked = mask_of(net, net.neighbors(H.FAN_X))
    for node, expected in H.FAN_COSTS.items():
        assert cost_first_neighborhood(walk, net, node) == expected


def test_fan_costs_match_naive_set_intersection():
    net = H.fan_network()
    walk = WalkState(id=0, rng=np.random.default_rng(0))
    marked = set(net.neighbors(H.FAN_X))
    walk.marked = mask_of(net, marked)
    for v in range(net.n):
        naive = len(set(net.neighbors(v)) & marked)
        assert cost_first_neighborhood(walk, net, v) == naive


def test_cost_two_hop_counts_common_neighbors():
    net = H.fan_network()
    for a in range(net.n):
        for b in range(net.n):
            naive = len(set(net.neighbors(a)) & set(net.neighbors(b)))
            assert cost_two_hop(net, a, b) == naive


def test_cost_weighted_combines_rings():
    net = H.fan_network()
    walk = WalkState(id=0, rng=np.random.default_rng(0))
    marked, marked2 = {1, 7}, {2, 3, 11}
    walk.marked, walk.marked2 = mask_of(net, marked), mask_of(net, marked2)
    for v in range(net.n):
        first = len(set(net.neighbors(v)) & marked)
        second = len(set(net.neighbors(v)) & marked2)
        assert cost_weighted(walk, net, v, 2.0, 0.5) == 2.0 * first + 0.5 * second


def test_fan_guided_step_picks_unique_minimum():
    """From [x, y] the guided walk must take z, the only cost-1 candidate."""
    net = H.fan_network()
    reg = OverlayRegistry(net.n)
    # steer the uniform first hop onto y (seed probed for this layout)
    walk, out = init_walk(net, H.FAN_X, 0, reg, stream(4, "walk", 0), strategy=DRW)
    assert out is None and walk.path == [H.FAN_X, H.FAN_Y]
    result = step(walk, net, reg, DRW)
    assert result.kind == EXTENDED and result.node == H.FAN_SCORED["z"]
    assert marked_nodes(walk.marked) == set(net.neighbors(H.FAN_X))


# --- init behavior ----------------------------------------------------------

def test_init_records_initiator_and_second_node():
    net = H.crossing_network()
    walk, out, reg = fresh(net, 0)
    assert out is None
    assert walk.path == [0, 1]          # node 0 has a single neighbor
    assert walk.parents == [-1, 0]
    assert walk.cursor == 2
    assert reg.owner[0] == 0 and reg.owner[1] == 0 and not reg.brokers
    assert walk.status == ACTIVE and walk.steps == 0


def test_init_second_node_uniform():
    """Crossing node 2 has neighbors {1, 3, 7}; picks should be even."""
    net = H.crossing_network()
    counts = {1: 0, 3: 0, 7: 0}
    trials = 3000
    for seed in range(trials):
        walk, _, _ = fresh(net, 2, seed=seed)
        counts[walk.path[1]] += 1
    expect = trials / 3
    bound = 3 * (trials * (1 / 3) * (2 / 3)) ** 0.5
    for node, got in counts.items():
        assert abs(got - expect) < bound, (node, got)


def test_init_takes_already_recruited_neighbor():
    net = H.crossing_network()
    reg = OverlayRegistry(net.n)
    reg.register(1, 7)
    walk, out = init_walk(net, 0, 1, reg, 0, strategy=DRW)
    assert out is not None
    assert out.kind == INTERSECTED_STEP and out.node == 1 and out.other_walk == 7
    assert walk.status == INTERSECTED and walk.broker == 1
    assert walk.path == [0, 1]


def test_init_on_foreign_member_intersects_in_place():
    net = H.crossing_network()
    reg = OverlayRegistry(net.n)
    reg.register(2, 3)
    walk, out = init_walk(net, 2, 4, reg, 0, strategy=DRW)
    assert out.kind == INTERSECTED_STEP and out.node == 2 and out.other_walk == 3
    assert walk.status == INTERSECTED and walk.broker == 2
    assert walk.path == [2]
    assert reg.owner[2] == 3 and reg.brokers == {2}


def test_init_isolated_initiator_raises():
    net = network_from_positions([[0.1, 0.1], [0.2, 0.1], [0.9, 0.9]], r=0.15)
    reg = OverlayRegistry(net.n)
    with pytest.raises(IsolatedInitiator):
        init_walk(net, 2, 0, reg, 0, strategy=DRW)


# --- stepping, forced moves, precedence -------------------------------------

def test_forced_chain_steps():
    net = H.crossing_network()
    walk, _, reg = fresh(net, 0)
    out = step(walk, net, reg, DRW)
    assert out.kind == EXTENDED and out.node == 2
    assert walk.path == [0, 1, 2] and walk.cursor == 3
    assert marked_nodes(walk.marked) == {1}   # N(initiator) marked on the first step


def test_intersection_beats_cost():
    """An owned candidate wins even when an unowned one scores lower."""
    net = H.crossing_network()
    reg = OverlayRegistry(net.n)
    reg.register(7, 9)
    walk, _ = init_walk(net, 0, 0, reg, 0, strategy=DRW)
    step(walk, net, reg, DRW)           # -> 2
    out = step(walk, net, reg, DRW)     # candidates {3, 7}: 7 owned
    assert out.kind == INTERSECTED_STEP and out.node == 7 and out.other_walk == 9
    assert walk.status == INTERSECTED and walk.broker == 7
    assert walk.path == [0, 1, 2, 7]
    assert reg.owner[7] == 0 and reg.brokers == {7}


def test_step_after_termination_raises():
    net = H.crossing_network()
    reg = OverlayRegistry(net.n)
    reg.register(1, 7)
    walk, _ = init_walk(net, 0, 1, reg, 0, strategy=DRW)
    with pytest.raises(WalkNotActive):
        step(walk, net, reg, DRW)


def test_weighted_requires_second_ring_marks():
    net = H.crossing_network()
    walk, _, reg = fresh(net, 0)        # initialized for plain drw
    with pytest.raises(ValueError):
        step(walk, net, reg, CostStrategy("weighted"))


# --- the pocket walk: dead end, backtrack, resume ---------------------------

def test_pocket_full_trace():
    net = H.pocket_network()
    reg = OverlayRegistry(net.n)
    reg.register(7, 99)                 # terminal node held by a foreign walk
    walk, out = init_walk(net, 0, 0, reg, 1, strategy=DRW)
    assert out is None and walk.path == [0, 1]

    kinds, nodes = [], []
    while walk.status == ACTIVE:
        o = step(walk, net, reg, DRW)
        kinds.append(o.kind)
        nodes.append(o.node)

    assert kinds == [EXTENDED, EXTENDED, EXTENDED, BACKTRACKED,
                     EXTENDED, EXTENDED, INTERSECTED_STEP]
    assert nodes == [2, 3, 4, None, 5, 6, 7]
    assert walk.path == [0, 1, 2, 3, 4, 5, 6, 7]
    assert walk.parents == [-1, 0, 1, 2, 3, 3, 5, 6]
    assert walk.steps == 7 and walk.backtracks == 1
    assert walk.status == INTERSECTED and walk.broker == 7
    assert all(reg.owner[v] == 0 for v in walk.path) and reg.brokers == {7}


def test_pocket_backtrack_cursor_arithmetic():
    net = H.pocket_network()
    reg = OverlayRegistry(net.n)
    reg.register(7, 99)
    walk, _ = init_walk(net, 0, 0, reg, 1, strategy=DRW)
    for _ in range(3):
        step(walk, net, reg, DRW)
    assert walk.path == [0, 1, 2, 3, 4] and walk.cursor == 5
    out = step(walk, net, reg, DRW)
    assert out.kind == BACKTRACKED and out.new_cursor == 5
    assert walk.cursor == 5 and len(walk.path) == 5
    out = step(walk, net, reg, DRW)     # resumes from node 3, takes bypass 5
    assert out.kind == EXTENDED and out.node == 5
    assert walk.cursor == 6 and walk.path[-1] == 5


def test_exhaustion_after_retreat_past_initiator():
    """Two isolated corridor nodes: the walk dead-ends and exhausts."""
    net = network_from_positions([[0.3, 0.5], [0.4, 0.5]], r=0.15)
    walk, _, reg = fresh(net, 0)
    assert walk.path == [0, 1]
    out = step(walk, net, reg, DRW)     # head 1 has no unvisited neighbors
    assert out.kind == BACKTRACKED and out.new_cursor == 2
    out = step(walk, net, reg, DRW)     # initiator has none either
    assert out.kind == EXHAUSTED_STEP
    assert walk.status == EXHAUSTED
    assert walk.backtracks == 1


# --- strategy equivalences and distributions --------------------------------

def test_weighted_alpha_only_equals_first_neighborhood():
    """alpha=1, beta=0 scores candidates exactly like the plain guided rule."""
    weighted = CostStrategy("weighted", alpha=1.0, beta=0.0)
    for seed in range(10):
        net = generate_network(GraphGenConfig(n=120, r=0.14, seed=seed))
        paths = []
        for strat in (DRW, weighted):
            reg = OverlayRegistry(net.n)
            reg.register(net.n - 1, 50)  # give the walk something to hit
            walk, out = init_walk(net, 0, 0, reg, seed, strategy=strat)
            if out is None:
                run_walk_until_stop(walk, net, reg, strat,
                                    default_step_budget(net.n))
            paths.append(list(walk.path))
        assert paths[0] == paths[1]


def test_pure_choice_uniform_over_candidates():
    """Crossing node 2 seen from node 1: candidates {2}... then {3, 7}."""
    net = H.crossing_network()
    counts = {3: 0, 7: 0}
    trials = 2000
    for seed in range(trials):
        reg = OverlayRegistry(net.n)
        walk, _ = init_walk(net, 0, 0, reg, seed, strategy=PRW)
        step(walk, net, reg, PRW)       # forced onto 2
        out = step(walk, net, reg, PRW)
        counts[out.node] += 1
    bound = 3 * (trials * 0.25) ** 0.5
    assert abs(counts[3] - trials / 2) < bound


def test_guided_tie_break_uniform():
    """Pocket step 2 ties candidates {3, 5}; both should appear evenly."""
    net = H.pocket_network()
    counts = {3: 0, 5: 0}
    trials = 2000
    for seed in range(trials):
        reg = OverlayRegistry(net.n)
        walk, _ = init_walk(net, 0, 0, reg, seed, strategy=DRW)
        step(walk, net, reg, DRW)
        out = step(walk, net, reg, DRW)
        counts[out.node] += 1
    bound = 3 * (trials * 0.25) ** 0.5
    assert abs(counts[3] - trials / 2) < bound


def test_same_seed_same_walk():
    net = generate_network(GraphGenConfig(n=150, r=0.12, seed=3))
    runs = []
    for _ in range(2):
        reg = OverlayRegistry(net.n)
        reg.register(net.n - 1, 50)
        walk, out = init_walk(net, 0, 0, reg, 42, strategy=DRW)
        if out is None:
            run_walk_until_stop(walk, net, reg, DRW, default_step_budget(net.n))
        runs.append((list(walk.path), walk.steps, walk.backtracks, walk.status))
    assert runs[0] == runs[1]


# --- structural invariants on random networks -------------------------------

def test_walk_invariants_random_networks():
    """Tabu walks: distinct nodes, parent edges real, marks superset checks."""
    for seed in range(15):
        net = generate_network(GraphGenConfig(n=100, r=0.15, seed=seed))
        for strat in (DRW, PRW, CostStrategy("twohop")):
            reg = OverlayRegistry(net.n)
            target = net.n // 2
            reg.register(target, 50)
            walk, out = init_walk(net, 0, 0, reg, seed, strategy=strat)
            if out is None:
                run_walk_until_stop(walk, net, reg, strat,
                                    default_step_budget(net.n))
            assert len(set(walk.path)) == len(walk.path)
            for i, parent in enumerate(walk.parents):
                if parent == -1:
                    assert i == 0
                else:
                    assert walk.path[i] in net.neighbors(walk.path[parent])
            if strat.kind == "drw" and walk.steps > 0:
                assert set(net.neighbors(walk.path[0])) <= marked_nodes(walk.marked)
            for node in walk.path:
                assert reg.owner[node] == 0


def test_twohop_walk_terminates_and_stays_tabu():
    net = generate_network(GraphGenConfig(n=200, r=0.1, seed=8))
    strat = CostStrategy("twohop")
    reg = OverlayRegistry(net.n)
    reg.register(100, 50)
    walk, out = init_walk(net, 0, 0, reg, 9, strategy=strat)
    if out is None:
        run_walk_until_stop(walk, net, reg, strat, default_step_budget(net.n))
    assert walk.status == INTERSECTED
    assert marked_nodes(walk.marked) == set()   # twohop never maintains marks


# --- budget -------------------------------------------------------------------

def test_budget_zero_raises_immediately():
    net = H.crossing_network()
    walk, _, reg = fresh(net, 0)
    with pytest.raises(StepBudgetExceeded):
        run_walk_until_stop(walk, net, reg, DRW, 0)
    assert walk.steps == 0


def test_budget_exact_allows_completion():
    net = H.pocket_network()
    reg = OverlayRegistry(net.n)
    reg.register(7, 99)
    walk, _ = init_walk(net, 0, 0, reg, 1, strategy=DRW)
    run_walk_until_stop(walk, net, reg, DRW, 7)
    assert walk.status == INTERSECTED and walk.steps == 7


def test_budget_one_short_raises():
    net = H.pocket_network()
    reg = OverlayRegistry(net.n)
    reg.register(7, 99)
    walk, _ = init_walk(net, 0, 0, reg, 1, strategy=DRW)
    with pytest.raises(StepBudgetExceeded) as err:
        run_walk_until_stop(walk, net, reg, DRW, 6)
    assert err.value.walk_id == 0 and err.value.budget == 6


def test_default_step_budget_scales_with_n():
    assert default_step_budget(1000) == 50000
    assert default_step_budget(200) == 10000
