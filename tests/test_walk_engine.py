"""Walk engine facts that whole builds do not show: strategy parsing and
labels, the default budget, the isolated initiator, the hand-derived trace
of a walk that retreats from a dead end, the outcomes step returns, and
picks drawn as Generator.integers draws them. Whole builds, with their
draws, costs and owners, are compared with the reference build in
tests/test_reference.py."""

import dataclasses
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import handnets as H
from drw_overlay import overlay, walk_engine
from drw_overlay.geom_graph import network_from_positions
from drw_overlay.overlay import (
    BuildFailed,
    OverlayBuildConfig,
    OverlayRegistry,
    SeedDraws,
    build_overlay,
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


def seeded(seed):
    """Words factory for init_walk: any walk reads np.random.default_rng(seed)'s words."""
    return lambda walk_id: stream_words(np.random.default_rng(seed))


# --- strategy parsing and the default budget ---------------------------------

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


def test_default_step_budget_scales_with_n():
    assert default_step_budget(1000) == 50000
    assert default_step_budget(200) == 10000


# --- an initiator with no neighbour ---------------------------------------

def test_init_isolated_initiator_raises():
    net = network_from_positions([[0.1, 0.1], [0.2, 0.1], [0.9, 0.9]], r=0.15)
    reg = OverlayRegistry(net.n)
    with pytest.raises(IsolatedInitiator):
        init_walk(net, 2, 0, reg, seeded(0))


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
    reg = OverlayRegistry(net.n)
    walk, _ = init_walk(net, 0, 0, reg, seeded(0))
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
