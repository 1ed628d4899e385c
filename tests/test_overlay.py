"""Overlay construction: hand-traced builds and structural invariants."""

import pytest

import handnets as H
from drw_overlay.geom_graph import GraphGenConfig, generate_network
from drw_overlay.metrics import active_path_size
from drw_overlay.overlay import (
    BuildFailed,
    OverlayBuildConfig,
    OverlayRegistry,
    TooManyInitiators,
    build_overlay,
    select_initiators,
    to_json_dict,
)
from drw_overlay.rng import stream
from drw_overlay.walk_engine import CostStrategy, TraceRecord

DRW = CostStrategy("drw")
PRW = CostStrategy("prw")


# --- registry ----------------------------------------------------------------

def test_registry_membership_and_brokers():
    reg = OverlayRegistry(6)
    assert reg.owner[5] == -1
    assert reg.register(5, 0) is False
    assert reg.owner[5] == 0
    assert reg.register(5, 0) is False    # same walk again: no broker
    assert reg.register(5, 3) is True
    assert reg.owner == [-1, -1, -1, -1, -1, 0]
    assert reg.brokers == {5}


def test_registry_other_walk_lowest_id():
    reg = OverlayRegistry(10)
    reg.register(9, 4)
    reg.register(9, 2)
    reg.register(9, 7)
    assert reg.other_walk_at(9, 4) == 2
    assert reg.other_walk_at(9, 99) == 2
    assert reg.other_walk_at(8, 0) is None


# --- initiator selection ------------------------------------------------------

def test_select_initiators_distinct_and_in_range():
    net = generate_network(GraphGenConfig(n=60, r=0.25, seed=1))
    picks = select_initiators(net, 10, stream(0, "initiators"))
    assert len(picks) == 10
    assert len(set(picks)) == 10
    assert all(0 <= v < net.n for v in picks)


def test_select_initiators_all_nodes_is_permutation():
    net = generate_network(GraphGenConfig(n=25, r=0.4, seed=2))
    picks = select_initiators(net, 25, stream(3, "initiators"))
    assert sorted(picks) == list(range(25))


def test_select_initiators_bounds():
    net = generate_network(GraphGenConfig(n=20, r=0.4, seed=0))
    with pytest.raises(TooManyInitiators):
        select_initiators(net, 21, stream(0, "initiators"))
    with pytest.raises(ValueError):
        select_initiators(net, 1, stream(0, "initiators"))


def test_config_validation():
    with pytest.raises(ValueError):
        OverlayBuildConfig(initiator_count=1, strategy=DRW)
    with pytest.raises(ValueError):
        OverlayBuildConfig(initiator_count=3, strategy=DRW, initiators=(1, 2))
    with pytest.raises(ValueError):
        OverlayBuildConfig(initiator_count=2, strategy=DRW, initiators=(1, 1))


# --- hand-traced builds -------------------------------------------------------

def test_crossing_build_exact():
    """Two forced corridors meet at the junction neighbor."""
    net = H.crossing_network()
    for strategy in (DRW, PRW, CostStrategy("twohop")):
        cfg = OverlayBuildConfig(initiator_count=2, strategy=strategy,
                                 seed=0, initiators=H.CROSS_INITIATORS)
        res = build_overlay(net, cfg)
        w0, w1 = res.walks
        assert w0.path == [0, 1, 2, 7] and w0.steps == 2 and w0.backtracks == 0
        assert w1.path == [5, 6, 7] and w1.steps == 1
        assert w0.broker == 7 and w1.broker == 7
        assert res.brokers == {7}
        assert res.active_path == {0, 1, 2, 5, 6, 7}
        assert res.active_path_edges == {(0, 1), (1, 2), (2, 7), (5, 6), (6, 7)}
        assert res.total_steps == 3


def test_fan_build_exact():
    """Guided walk crosses the scored fan through z and meets the corridor."""
    net = H.fan_network()
    cfg = OverlayBuildConfig(initiator_count=2, strategy=DRW,
                             seed=4, initiators=H.FAN_INITIATORS)
    res = build_overlay(net, cfg)
    w0, w1 = res.walks
    z = H.FAN_SCORED["z"]
    assert w0.path == [0, 1, z, 15] and w0.steps == 2
    assert w1.path == [13, 14, 15] and w1.steps == 1
    assert res.brokers == {15}
    assert res.active_path == {0, 1, z, 13, 14, 15}
    assert active_path_size(res) == 6
    # the scored fan nodes stay out of the layer except for z
    for name, node in H.FAN_SCORED.items():
        if name != "z":
            assert node not in res.active_path


def test_star_build_exact():
    """Five tip walks all funnel into the hub; the hub is the only broker."""
    net = H.star_network()
    for strategy in (DRW, PRW):
        cfg = OverlayBuildConfig(initiator_count=5, strategy=strategy,
                                 seed=0, initiators=H.STAR_TIPS)
        res = build_overlay(net, cfg)
        assert len(res.walks) == 5
        for k, walk in enumerate(res.walks):
            tip = 1 + 3 * k
            assert walk.path == [tip, tip + 1, tip + 2, 0]
            assert walk.steps == 2
            assert walk.broker == 0
        assert res.brokers == {0}
        assert res.active_path == set(range(16))
        assert res.total_steps == 10
        assert res.total_backtracks == 0


def test_star_trace_records():
    net = H.star_network()
    trace: list[TraceRecord] = []
    cfg = OverlayBuildConfig(initiator_count=5, strategy=DRW,
                             seed=0, initiators=H.STAR_TIPS)
    build_overlay(net, cfg, trace=trace)
    assert {t.walk for t in trace} == {0, 1, 2, 3, 4}
    kinds = [t.outcome for t in trace if t.walk == 1]
    assert kinds == ["extended", "extended", "intersected"]
    hits = [t for t in trace if t.outcome == "intersected"]
    assert all(t.node == 0 for t in hits) and len(hits) == 4


def test_pair_walk_halts_where_it_stands():
    """The partner stops as soon as the pair is bridged."""
    net = H.crossing_network()
    cfg = OverlayBuildConfig(initiator_count=2, strategy=DRW,
                             seed=0, initiators=(0, 5))
    res = build_overlay(net, cfg)
    w1 = res.walks[1]
    assert w1.path[-1] == 7 and len(w1.path) == 3
    # node 7's candidate 6->... walk 1 never took a third step
    assert w1.steps == 1


def test_initiator_already_member_immediate_broker():
    """A later initiator may already sit on an earlier walk's path."""
    net = H.star_network()
    # walk 2's initiator is the hub, recruited by walk 0 in the pair phase
    cfg = OverlayBuildConfig(initiator_count=3, strategy=DRW,
                             seed=0, initiators=(1, 4, 0))
    res = build_overlay(net, cfg)
    w2 = res.walks[2]
    assert w2.path == [0] and w2.steps == 0
    assert w2.status == "intersected" and w2.broker == 0
    assert 0 in res.brokers


def test_build_failed_when_no_meeting_possible():
    """Walks on disjoint corridors exhaust instead of meeting."""
    from drw_overlay.geom_graph import network_from_positions
    split = network_from_positions(
        [[0.1, 0.2], [0.2, 0.2], [0.3, 0.2],
         [0.1, 0.8], [0.2, 0.8], [0.3, 0.8]], r=0.12)
    cfg = OverlayBuildConfig(initiator_count=2, strategy=DRW,
                             seed=0, initiators=(0, 3), step_budget=100)
    with pytest.raises(BuildFailed):
        build_overlay(split, cfg)


def test_build_failed_on_tiny_budget():
    net = generate_network(GraphGenConfig(n=300, r=0.08, seed=5))
    cfg = OverlayBuildConfig(initiator_count=2, strategy=PRW,
                             seed=0, step_budget=1)
    with pytest.raises(BuildFailed):
        build_overlay(net, cfg)


@pytest.mark.parametrize("initiators, budget, walk_id", [
    ((0, 9), 2, 0),      # pair phase: walk 0 spends its 2 steps first
    ((0, 1, 9), 3, 2),   # walk 1 is born on walk 0's path; walk 2 needs 7 steps
], ids=["pair-phase", "later-walk"])
def test_budget_hit_fails_with_one_reason(initiators, budget, walk_id):
    """A budget hit in either phase names the walk and the spent budget."""
    from drw_overlay.geom_graph import network_from_positions
    line = network_from_positions([[0.05 + 0.1 * i, 0.5] for i in range(10)], r=0.11)
    cfg = OverlayBuildConfig(initiator_count=len(initiators), strategy=DRW, seed=0,
                             initiators=initiators, step_budget=budget)
    with pytest.raises(BuildFailed) as err:
        build_overlay(line, cfg)
    assert err.value.walk_id == walk_id
    assert err.value.reason == f"step budget {budget} spent"


def test_too_many_initiators_at_build():
    net = generate_network(GraphGenConfig(n=30, r=0.3, seed=0))
    cfg = OverlayBuildConfig(initiator_count=31, strategy=DRW, seed=0)
    with pytest.raises(TooManyInitiators):
        build_overlay(net, cfg)


# --- invariants over random builds ---------------------------------------------

def check_layer(net, res, initiator_count):
    assert len(res.walks) == initiator_count
    reg_nodes = set()
    for walk in res.walks:
        assert walk.status == "intersected"
        assert walk.broker in res.brokers
        reg_nodes.update(walk.path)
        for i, parent in enumerate(walk.parents):
            if parent >= 0:
                assert walk.path[i] in net.neighbors(walk.path[parent])
    assert res.active_path == reg_nodes
    assert res.brokers <= res.active_path
    for b in res.brokers:
        owners = [w for w in res.walks if b in w.path]
        assert len(owners) >= 2
    # initiators all recruited
    for v in res.initiators:
        assert v in res.active_path
    # connectivity via traced edges
    adj = {v: [] for v in res.active_path}
    for a, b in res.active_path_edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {next(iter(res.active_path))}
    stack = list(seen)
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert seen == res.active_path


def test_random_build_invariants():
    for seed in range(8):
        net = generate_network(GraphGenConfig(n=150, r=0.12, seed=seed))
        for strategy in (DRW, PRW):
            for count in (2, 5, 10):
                cfg = OverlayBuildConfig(initiator_count=count,
                                         strategy=strategy, seed=seed)
                res = build_overlay(net, cfg)
                check_layer(net, res, count)


def test_membership_monotone_across_walks():
    """Each later walk only ever adds members; earlier paths are untouched."""
    net = generate_network(GraphGenConfig(n=200, r=0.1, seed=11))
    cfg = OverlayBuildConfig(initiator_count=8, strategy=DRW, seed=7)
    res = build_overlay(net, cfg)
    sizes = []
    seen = set()
    for walk in res.walks:
        seen.update(walk.path)
        sizes.append(len(seen))
    assert sizes == sorted(sizes)
    assert sizes[-1] == len(res.active_path)


def test_later_walks_end_on_earlier_members():
    net = generate_network(GraphGenConfig(n=200, r=0.1, seed=13))
    cfg = OverlayBuildConfig(initiator_count=10, strategy=DRW, seed=3)
    res = build_overlay(net, cfg)
    for wid in range(2, 10):
        walk = res.walks[wid]
        earlier = set()
        for prev in res.walks[:wid]:
            earlier.update(prev.path)
        assert walk.broker in earlier


def test_build_deterministic():
    net = generate_network(GraphGenConfig(n=180, r=0.11, seed=4))
    cfg = OverlayBuildConfig(initiator_count=6, strategy=DRW, seed=9)
    a = build_overlay(net, cfg)
    b = build_overlay(net, cfg)
    assert [w.path for w in a.walks] == [w.path for w in b.walks]
    assert a.active_path == b.active_path
    assert a.brokers == b.brokers
    assert to_json_dict(a) == to_json_dict(b)


def test_build_seed_changes_layer():
    net = generate_network(GraphGenConfig(n=180, r=0.11, seed=4))
    layers = {frozenset(build_overlay(
        net, OverlayBuildConfig(initiator_count=4, strategy=DRW, seed=s)
    ).active_path) for s in range(5)}
    assert len(layers) > 1


def test_json_dict_stable_and_sorted():
    net = H.star_network()
    cfg = OverlayBuildConfig(initiator_count=5, strategy=DRW,
                             seed=0, initiators=H.STAR_TIPS)
    data = to_json_dict(build_overlay(net, cfg))
    assert data["active_path"] == sorted(data["active_path"])
    assert data["brokers"] == [0]
    assert data["initiators"] == list(H.STAR_TIPS)
    assert data["strategy"] == "drw"
    assert len(data["walks"]) == 5
    assert data["walks"][0]["path"] == [1, 2, 3, 0]
