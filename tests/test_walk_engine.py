"""Walk engine behavior on hand-built networks and random graphs, one
step or one pick at a time. Whole builds, with their draws and their bit
layout, are compared with the reference build in tests/test_reference.py."""

import dataclasses
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import handnets as H
from costs import candidate_costs
from marks import mask_of, marked_nodes
from drw_overlay import overlay, walk_engine
from drw_overlay.geom_graph import GraphGenConfig, generate_network, network_from_positions
from drw_overlay.overlay import (
    BuildFailed,
    OverlayBuildConfig,
    OverlayRegistry,
    SeedDraws,
    build_overlay,
    run_walk_until_stop,
)
from drw_overlay.walk_engine import (
    ACTIVE,
    BACKTRACKED,
    EXHAUSTED,
    EXTENDED,
    INTERSECTED,
    STRATEGY_KINDS,
    CostStrategy,
    IsolatedInitiator,
    WalkNotActive,
    WalkState,
    _pick,
    default_step_budget,
    init_walk,
    parse_strategy,
    step,
    stream_words,
)

DRW = CostStrategy("drw")
PRW = CostStrategy("prw")
TWOHOP = CostStrategy("twohop")
WEIGHTED = CostStrategy("weighted", alpha=2.0, beta=0.5)


def seeded(seed):
    """Words factory for init_walk: any walk reads np.random.default_rng(seed)'s words."""
    return lambda walk_id: stream_words(np.random.default_rng(seed))


def fresh(net, initiator, seed=0):
    reg = OverlayRegistry(net.n)
    walk, _ = init_walk(net, initiator, 0, reg, seeded(seed))
    return walk, reg


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
    walk = WalkState(id=0)
    walk.marked = mask_of(net, net.neighbors(H.FAN_X))
    for node, expected in H.FAN_COSTS.items():
        assert candidate_costs(walk, net, DRW, [node], 0)[0] == expected


def test_fan_costs_match_naive_set_intersection():
    net = H.fan_network()
    walk = WalkState(id=0)
    marked = set(net.neighbors(H.FAN_X))
    walk.marked = mask_of(net, marked)
    for v in range(net.n):
        naive = len(set(net.neighbors(v)) & marked)
        assert candidate_costs(walk, net, DRW, [v], 0)[0] == naive


def test_cost_two_hop_counts_common_neighbors():
    net = H.fan_network()
    for a in range(net.n):
        for b in range(net.n):
            naive = len(set(net.neighbors(a)) & set(net.neighbors(b)))
            assert candidate_costs(WalkState(id=-1, path=[a]), net, TWOHOP, [b], 1)[0] == naive


def test_cost_weighted_combines_rings():
    net = H.fan_network()
    walk = WalkState(id=0)
    marked, marked2 = {1, 7}, {2, 3, 11}
    walk.marked, walk.marked2 = mask_of(net, marked), mask_of(net, marked2)
    for v in range(net.n):
        first = len(set(net.neighbors(v)) & marked)
        second = len(set(net.neighbors(v)) & marked2)
        assert candidate_costs(walk, net, WEIGHTED, [v], 0)[0] == 2.0 * first + 0.5 * second


def test_fan_guided_step_picks_unique_minimum():
    """From [x, y] the guided walk must take z, the only cost-1 candidate."""
    net = H.fan_network()
    reg = OverlayRegistry(net.n)
    # steer the uniform first hop onto y (seed probed for this layout)
    walk, _ = init_walk(net, H.FAN_X, 0, reg, SeedDraws(4).words)
    assert walk.path == [H.FAN_X, H.FAN_Y]
    result = step(walk, net, reg, DRW)
    assert result.kind == EXTENDED and walk.path[-1] == H.FAN_SCORED["z"]
    assert marked_nodes(net, walk.marked) == set(net.neighbors(H.FAN_X))


# --- init behavior ----------------------------------------------------------

def test_init_records_initiator_and_second_node():
    net = H.crossing_network()
    walk, reg = fresh(net, 0)
    assert walk.path == [0, 1]          # node 0 has a single neighbor
    assert walk.parents == [-1, 0]
    assert walk.head == 1
    assert reg.owner[0] == 0 and reg.owner[1] == 0 and walk.broker is None
    assert walk.status == ACTIVE and walk.steps == 0


def test_init_second_node_uniform():
    """Crossing node 2 has neighbors {1, 3, 7}; picks should be even."""
    net = H.crossing_network()
    counts = {1: 0, 3: 0, 7: 0}
    trials = 3000
    for seed in range(trials):
        walk, _ = fresh(net, 2, seed=seed)
        counts[walk.path[1]] += 1
    expect = trials / 3
    bound = 3 * (trials * (1 / 3) * (2 / 3)) ** 0.5
    for node, got in counts.items():
        assert abs(got - expect) < bound, (node, got)


def test_init_isolated_initiator_raises():
    net = network_from_positions([[0.1, 0.1], [0.2, 0.1], [0.9, 0.9]], r=0.15)
    reg = OverlayRegistry(net.n)
    with pytest.raises(IsolatedInitiator):
        init_walk(net, 2, 0, reg, seeded(0))


# --- stepping, forced moves, precedence -------------------------------------

def test_forced_chain_steps():
    net = H.crossing_network()
    walk, reg = fresh(net, 0)
    out = step(walk, net, reg, DRW)
    assert out.kind == EXTENDED
    assert walk.path == [0, 1, 2] and walk.head == 2
    assert marked_nodes(net, walk.marked) == {1}   # N(initiator) marked on the first step


def test_intersection_beats_cost():
    """An owned candidate wins even when an unowned one scores lower."""
    net = H.crossing_network()
    reg = OverlayRegistry(net.n)
    reg.owner[7] = 9
    walk, _ = init_walk(net, 0, 0, reg, seeded(0))
    step(walk, net, reg, DRW)           # -> 2
    out = step(walk, net, reg, DRW)     # candidates {3, 7}: 7 owned
    assert out.kind == INTERSECTED
    assert walk.status == INTERSECTED and walk.broker == 7
    assert walk.path == [0, 1, 2, 7]
    assert reg.owner[7] == 9


def test_step_after_termination_raises():
    """A walk that met another takes no further step; born walks: see
    test_lazy_walks.test_born_walk_state."""
    net = H.crossing_network()
    reg = OverlayRegistry(net.n)
    reg.owner[2] = 7
    walk, _ = init_walk(net, 0, 1, reg, seeded(0))
    assert step(walk, net, reg, DRW).kind == INTERSECTED
    with pytest.raises(WalkNotActive):
        step(walk, net, reg, DRW)
    assert walk.steps == 1 and walk.path == [0, 1, 2]


@pytest.mark.parametrize("strategy", [DRW, WEIGHTED], ids=["drw", "weighted"])
def test_init_walk_steps_like_build_overlay(strategy):
    """init_walk marks nothing and step keeps the marks its strategy scores,
    so a pair of walks stepped by hand traces the same steps and costs as
    build_overlay's pair."""
    net = generate_network(GraphGenConfig(n=300, r=0.1, seed=7))
    far = int(np.argmax(((net.positions - net.positions[0]) ** 2).sum(axis=1)))
    cfg = OverlayBuildConfig(2, strategy, seed=3, initiators=(0, far))
    want = []
    build_overlay(net, cfg, want)
    reg, got = OverlayRegistry(net.n), []
    walks = [init_walk(net, v, wid, reg, SeedDraws(cfg.seed).words, trace=got)[0]
             for wid, v in enumerate(cfg.initiators)]
    assert all(w.marked == w.marked2 == 0 for w in walks)
    while all(w.status == ACTIVE for w in walks):
        for w in walks:
            if step(w, net, reg, strategy, got).kind == INTERSECTED:
                break
    assert got == want and any(r.cost for r in got)
    for w in walks:
        assert w.marked != 0 and (w.marked2 != 0) == (strategy is WEIGHTED)


@pytest.mark.parametrize("init_kind", [PRW.kind, TWOHOP.kind])
def test_drw_requires_marks(init_kind):
    """drw scores against the marks that its own steps fold in. A walk whose
    first step ran under prw or twohop comes to drw with none, and drw marks
    the neighborhood behind the head before it scores, so no candidate is
    scored against an empty set; the neighborhood the unmarked step passed
    is not marked after the fact."""
    net = H.crossing_network()
    reg = OverlayRegistry(net.n)
    walk, _ = init_walk(net, 0, 0, reg, seeded(0))
    assert step(walk, net, reg, parse_strategy(init_kind)).kind == EXTENDED
    assert walk.steps == 1 and walk.path == [0, 1, 2] and walk.marked == 0
    trace = []
    out = step(walk, net, reg, DRW, trace)
    assert out.kind == EXTENDED and walk.path[-1] in (3, 7)
    assert marked_nodes(net, walk.marked) == {0, 2}        # N(1) only, not N(0)
    assert trace[-1].cost == 1                             # |N(3) & {0,2}| = |N(7) & {0,2}|


@pytest.mark.parametrize("init_kind", STRATEGY_KINDS)
@pytest.mark.parametrize("strategy", [PRW, TWOHOP], ids=["prw", "twohop"])
def test_unmarked_strategies_step_any_walk(strategy, init_kind):
    """prw and twohop read no marks, so they step a walk whose first step
    ran under any strategy."""
    net = H.crossing_network()
    reg = OverlayRegistry(net.n)
    walk, _ = init_walk(net, 0, 0, reg, seeded(0))
    assert step(walk, net, reg, parse_strategy(init_kind)).kind == EXTENDED
    out = step(walk, net, reg, strategy)
    assert out.kind == EXTENDED and walk.path[:3] == [0, 1, 2] and walk.path[-1] in (3, 7)


# --- the pocket walk: dead end, backtrack, resume ---------------------------

def test_pocket_full_trace():
    net = H.pocket_network()
    reg = OverlayRegistry(net.n)
    reg.owner[7] = 99                 # terminal node held by a foreign walk
    walk, _ = init_walk(net, 0, 0, reg, seeded(1))
    assert walk.path == [0, 1]

    kinds, trace = [], []
    while walk.status == ACTIVE:
        kinds.append(step(walk, net, reg, DRW, trace).kind)

    assert kinds == [EXTENDED, EXTENDED, EXTENDED, BACKTRACKED,
                     EXTENDED, EXTENDED, INTERSECTED]
    assert [t.node for t in trace] == [2, 3, 4, None, 5, 6, 7]
    assert walk.path == [0, 1, 2, 3, 4, 5, 6, 7]
    assert walk.parents == [-1, 0, 1, 2, 3, 3, 5, 6]
    assert walk.steps == 7 and walk.backtracks == 1
    assert walk.status == INTERSECTED and walk.broker == 7
    # The broker 7 stays the foreign walk's; the walk owns the rest.
    assert [reg.owner[v] for v in walk.path] == [0] * 7 + [99]


def test_pocket_backtrack_cursor_arithmetic():
    net = H.pocket_network()
    reg = OverlayRegistry(net.n)
    reg.owner[7] = 99
    walk, _ = init_walk(net, 0, 0, reg, seeded(1))
    for _ in range(3):
        step(walk, net, reg, DRW)
    assert walk.path == [0, 1, 2, 3, 4] and walk.head == 4
    out = step(walk, net, reg, DRW)
    assert out.kind == BACKTRACKED
    assert walk.head == 3 and len(walk.path) == 5
    out = step(walk, net, reg, DRW)     # resumes from node 3, takes bypass 5
    assert out.kind == EXTENDED
    assert walk.head == 5 and walk.path[-1] == 5 and len(walk.path) == 6


def test_exhaustion_after_retreat_past_initiator():
    """Two isolated corridor nodes: the walk dead-ends and exhausts."""
    net = network_from_positions([[0.3, 0.5], [0.4, 0.5]], r=0.15)
    walk, reg = fresh(net, 0)
    assert walk.path == [0, 1]
    out = step(walk, net, reg, DRW)     # head 1 has no unvisited neighbors
    assert out.kind == BACKTRACKED and walk.head == 0 and len(walk.path) == 2
    out = step(walk, net, reg, DRW)     # initiator has none either
    assert out.kind == EXHAUSTED
    assert walk.status == EXHAUSTED
    assert walk.backtracks == 1


# --- outcomes: four immutable values, shared across walks and builds --------

def build_outcomes(net, cfg):
    """Every outcome step returns while build_overlay(net, cfg) runs, in
    order, up to the end of the build or its failure."""
    outcomes = []

    def recording(*args, **kwargs):
        out = step(*args, **kwargs)
        outcomes.append(out)
        return out

    with mock.patch.object(overlay, "step", recording):
        try:
            build_overlay(net, cfg)
        except BuildFailed:
            pass
    return outcomes


def test_every_step_outcome_is_frozen():
    """No outcome step returns can be changed: not an extension or a meeting
    (builds under every strategy), a backtrack (the pocket walk) or an
    exhaustion (a walk with nowhere to go)."""
    outcomes = [out for kind in STRATEGY_KINDS
                for out in build_outcomes(H.fan_network(),
                                          OverlayBuildConfig(2, parse_strategy(kind), seed=3,
                                                             initiators=H.FAN_INITIATORS))]
    net = H.pocket_network()
    reg = OverlayRegistry(net.n)
    reg.owner[7] = 99
    walk, _ = init_walk(net, 0, 0, reg, seeded(1))
    while walk.status == ACTIVE:
        outcomes.append(step(walk, net, reg, DRW))
    net = network_from_positions([[0.3, 0.5], [0.4, 0.5]], r=0.15)
    walk, reg = fresh(net, 0)
    outcomes += [step(walk, net, reg, PRW), step(walk, net, reg, PRW)]
    assert {out.kind for out in outcomes} == {EXTENDED, INTERSECTED, BACKTRACKED, EXHAUSTED}
    for out in outcomes:
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.kind = EXTENDED


def test_every_step_outcome_is_a_shared_constant():
    """step makes no outcome: whole builds under every strategy, on a sparse
    network where the walks meet and on one where a walk exhausts, get the
    module's one value of each kind, whatever node a step took."""
    shared = {out.kind: out for out in (walk_engine._EXTENDED, walk_engine._INTERSECTED,
                                        walk_engine._BACKTRACKED, walk_engine._EXHAUSTED)}
    nets = [network_from_positions(np.random.default_rng(s).random((30, 2)), 0.2)
            for s in (1, 2)]
    outcomes = [out for net in nets for kind in STRATEGY_KINDS
                for out in build_outcomes(net, OverlayBuildConfig(2, parse_strategy(kind),
                                                                  seed=1))]
    assert {out.kind for out in outcomes} == shared.keys()
    for out in outcomes:
        assert out is shared[out.kind]


# --- strategy equivalences and distributions --------------------------------

def test_weighted_alpha_only_equals_first_neighborhood():
    """alpha=1, beta=0 scores candidates exactly like the plain guided rule."""
    weighted = CostStrategy("weighted", alpha=1.0, beta=0.0)
    for seed in range(10):
        net = generate_network(GraphGenConfig(n=120, r=0.14, seed=seed))
        paths = []
        for strat in (DRW, weighted):
            reg = OverlayRegistry(net.n)
            reg.owner[net.n - 1] = 50  # give the walk something to hit
            walk, _ = init_walk(net, 0, 0, reg, seeded(seed))
            run_walk_until_stop([walk], net, reg, strat, default_step_budget(net.n))
            paths.append(list(walk.path))
        assert paths[0] == paths[1]


def test_pure_choice_uniform_over_candidates():
    """Crossing node 2 seen from node 1: candidates {2}... then {3, 7}."""
    net = H.crossing_network()
    counts = {3: 0, 7: 0}
    trials = 2000
    for seed in range(trials):
        reg = OverlayRegistry(net.n)
        walk, _ = init_walk(net, 0, 0, reg, seeded(seed))
        step(walk, net, reg, PRW)       # forced onto 2
        step(walk, net, reg, PRW)
        counts[walk.path[-1]] += 1
    bound = 3 * (trials * 0.25) ** 0.5
    assert abs(counts[3] - trials / 2) < bound


def test_guided_tie_break_uniform():
    """Pocket step 2 ties candidates {3, 5}; both should appear evenly."""
    net = H.pocket_network()
    counts = {3: 0, 5: 0}
    trials = 2000
    for seed in range(trials):
        reg = OverlayRegistry(net.n)
        walk, _ = init_walk(net, 0, 0, reg, seeded(seed))
        step(walk, net, reg, DRW)
        step(walk, net, reg, DRW)
        counts[walk.path[-1]] += 1
    bound = 3 * (trials * 0.25) ** 0.5
    assert abs(counts[3] - trials / 2) < bound


def test_same_seed_same_walk():
    net = generate_network(GraphGenConfig(n=150, r=0.12, seed=3))
    runs = []
    for _ in range(2):
        reg = OverlayRegistry(net.n)
        reg.owner[net.n - 1] = 50
        walk, _ = init_walk(net, 0, 0, reg, seeded(42))
        run_walk_until_stop([walk], net, reg, DRW, default_step_budget(net.n))
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
            reg.owner[target] = 50
            walk, _ = init_walk(net, 0, 0, reg, seeded(seed))
            run_walk_until_stop([walk], net, reg, strat, default_step_budget(net.n))
            assert len(set(walk.path)) == len(walk.path)
            for i, parent in enumerate(walk.parents):
                if parent == -1:
                    assert i == 0
                else:
                    assert walk.path[i] in net.neighbors(walk.path[parent])
            if strat.kind == "drw" and walk.steps > 0:
                assert set(net.neighbors(walk.path[0])) <= marked_nodes(net, walk.marked)
            assert walk.broker == target
            assert [reg.owner[v] for v in walk.path] == [0] * (len(walk.path) - 1) + [50]


def test_twohop_walk_terminates_and_stays_tabu():
    net = generate_network(GraphGenConfig(n=200, r=0.1, seed=8))
    strat = CostStrategy("twohop")
    reg = OverlayRegistry(net.n)
    reg.owner[100] = 50
    walk, _ = init_walk(net, 0, 0, reg, seeded(9))
    run_walk_until_stop([walk], net, reg, strat, default_step_budget(net.n))
    assert walk.status == INTERSECTED
    assert marked_nodes(net, walk.marked) == set()   # twohop never maintains marks


# --- budget -------------------------------------------------------------------

def test_budget_zero_raises_immediately():
    net = H.crossing_network()
    walk, reg = fresh(net, 0)
    with pytest.raises(BuildFailed) as err:
        run_walk_until_stop([walk], net, reg, DRW, 0)
    assert err.value.walk_id == 0 and err.value.reason == "step budget 0 spent"
    assert walk.steps == 0


def test_budget_exact_allows_completion():
    net = H.pocket_network()
    reg = OverlayRegistry(net.n)
    reg.owner[7] = 99
    walk, _ = init_walk(net, 0, 0, reg, seeded(1))
    run_walk_until_stop([walk], net, reg, DRW, 7)
    assert walk.status == INTERSECTED and walk.steps == 7


def test_budget_one_short_raises():
    net = H.pocket_network()
    reg = OverlayRegistry(net.n)
    reg.owner[7] = 99
    walk, _ = init_walk(net, 0, 0, reg, seeded(1))
    with pytest.raises(BuildFailed) as err:
        run_walk_until_stop([walk], net, reg, DRW, 6)
    assert err.value.walk_id == 0 and err.value.reason == "step budget 6 spent"


def test_default_step_budget_scales_with_n():
    assert default_step_budget(1000) == 50000
    assert default_step_budget(200) == 10000


# --- draws: _pick equals Generator.integers ---------------------------------

# Item counts: 1 draws nothing; small counts as in a step; 3*2**30 rejects
# about a quarter of its words, so it runs the rejection loop; 2**32 - 1 is
# the largest count numpy draws by that method from 32-bit words.
PICK_COUNTS = st.one_of(st.just(1), st.integers(2, 40), st.sampled_from([3 * 2**30, 2**32 - 1]))


def pick_items(k):
    return list(range(100, 100 + k)) if k <= 40 else range(k)


def counted_generator(seed, calls):
    """default_rng(seed) as stream_words reads it, with one item appended
    to calls per random_raw call."""
    raw = np.random.default_rng(seed).bit_generator.random_raw

    def counted(size):
        calls.append(size)
        return raw(size)
    return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=counted))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), counts=st.lists(PICK_COUNTS, min_size=1, max_size=80))
def test_pick_equals_generator_integers(seed, counts):
    """A walk's picks are default_rng(seed).integers(k)'s values, draw for
    draw; a one-item pick takes no word, so picks from one item alone draw
    nothing. A second walk given the same walk id's words by SeedDraws
    replays what the first one drew: the same picks, and no raw draw."""
    calls, draws = [], SeedDraws(seed)
    with mock.patch.object(overlay, "stream", lambda *parts: counted_generator(seed, calls)):
        first = WalkState(id=0, words=draws.words(0))
        replay = WalkState(id=1, words=draws.words(0))
    ref = np.random.default_rng(seed)
    picks = []
    for i, k in enumerate(counts):
        items = pick_items(k)
        picks.append(_pick(first, items))
        assert picks[-1] == items[int(ref.integers(k))], (i, k)
        assert (not calls) == all(c == 1 for c in counts[:i + 1])
    drawn = len(calls)
    assert [_pick(replay, pick_items(k)) for k in counts] == picks
    assert len(calls) == drawn
