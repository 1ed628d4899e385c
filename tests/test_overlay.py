"""Overlay construction: the registry's lookup, initiator selection,
config validation and the join check. tests/test_reference.py checks
every build it makes, hand inputs with their failures included, and that
each finished layer is connected over its traced edges; the acceptance
checklist traces the fan, crossing and star builds by hand and checks the
structural invariants of random builds."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import handnets as H
from layers import union_find_reason
from drw_overlay import overlay
from drw_overlay.geom_graph import GraphGenConfig, UnknownNode, generate_network
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
from drw_overlay.walk_engine import CostStrategy

DRW = CostStrategy("drw")


# --- registry ----------------------------------------------------------------

def test_registry_other_walk_at():
    """other_walk_at names the owner only to a walk other than the owner."""
    reg = OverlayRegistry(10)
    assert reg.owner == [-1] * 10
    reg.owner[9] = 4
    assert reg.other_walk_at(9, 4) is None
    assert reg.other_walk_at(9, 2) == 4
    assert reg.other_walk_at(9, 99) == 4
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


def test_select_initiators_plain_ints_in_draw_order():
    """The picks are Generator.choice's draw without replacement, in draw
    order and as plain ints: distinct ids in 0..n-1."""
    net = generate_network(GraphGenConfig(n=60, r=0.25, seed=1))
    picks = select_initiators(net, 10, stream(4, "initiators"))
    assert type(picks) is tuple and all(type(v) is int for v in picks)
    assert picks == tuple(stream(4, "initiators").choice(net.n, size=10, replace=False))


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
    # int() would turn 2.9 into node 2 and True into node 1.
    for bad in ((2.9, True), (3, np.int64(4), 5.0), (np.True_, 3)):
        with pytest.raises(ValueError, match="explicit initiators must be integers"):
            OverlayBuildConfig(initiator_count=len(bad), strategy=DRW, initiators=bad)
    numpy_ids = OverlayBuildConfig(initiator_count=2, strategy=DRW, initiators=np.array([4, 1]))
    assert numpy_ids.initiators == (4, 1) and all(type(v) is int for v in numpy_ids.initiators)
    # A budget below one step would only fail once the build ran.
    for budget in (0, -3):
        with pytest.raises(ValueError, match=f"step budget must be >= 1, got {budget}"):
            OverlayBuildConfig(initiator_count=3, strategy=DRW, step_budget=budget)
    assert OverlayBuildConfig(initiator_count=3, strategy=DRW).step_budget is None


@pytest.mark.parametrize("initiators", [(0, -1), (0, 8), (8, 0)])
def test_out_of_range_explicit_initiator_raises_unknown_node(initiators):
    """build_overlay checks each initiator's id; -1 must not index from the end."""
    net = H.crossing_network()
    with pytest.raises(UnknownNode, match=f"not in 0..{net.n - 1}"):
        build_overlay(net, OverlayBuildConfig(initiator_count=2, strategy=DRW,
                                              initiators=initiators))


def test_out_of_range_initiator_fails_before_any_walk():
    """Walks 0 and 1 would step; the check on walk 2's initiator comes
    first, so no stream is made and no owner written."""
    net = H.crossing_network()
    registries = []

    def registry(n):
        registries.append(OverlayRegistry(n))
        return registries[-1]

    cfg = OverlayBuildConfig(initiator_count=3, strategy=DRW, seed=7_654_321,
                             initiators=(0, 5, 8))
    with mock.patch.object(overlay, "stream", wraps=stream) as made, \
            mock.patch.object(overlay, "OverlayRegistry", registry), \
            pytest.raises(UnknownNode, match="node 8 not in 0..7"):
        build_overlay(net, cfg)
    assert not made.called
    assert all(reg.owner == [-1] * net.n for reg in registries)


def test_too_many_initiators_at_build():
    net = generate_network(GraphGenConfig(n=30, r=0.3, seed=0))
    cfg = OverlayBuildConfig(initiator_count=31, strategy=DRW, seed=0)
    with pytest.raises(TooManyInitiators):
        build_overlay(net, cfg)


# --- the layer self-check ------------------------------------------------------

@pytest.mark.parametrize("nodes, edges, reason", [
    (set(), set(), "empty layer"),
    ({0, 1, 2, 3}, {(0, 1), (2, 3)}, "layer is not connected through traced edges"),
    ({0, 1, 2}, {(0, 1), (1, 2), (2, 5)}, "traced edge leaves the layer at node 5"),
    ({0, 1, 2}, {(0, 1), (1, 2), (7, 1)}, "traced edge leaves the layer at node 7"),
    ({0, 1, 2, 3}, {(3, 1), (0, 1), (1, 2)}, None),
], ids=["empty", "split", "edge-leaves-second-end", "edge-leaves-first-end", "tree"])
def test_union_find_oracle(nodes, edges, reason):
    """The oracle rejects each broken layer, never with a KeyError."""
    assert union_find_reason(nodes, edges) == reason


# The star build the corrupted-record cases edit: walks 0, 1, 2 and 4 step,
# walks 3 and 5 are born, and nodes 4, 7, 8 and 9 stay off the layer.
STAR_SIX = OverlayBuildConfig(6, DRW, seed=5)


def build_edited(edit=None, wid=None, initiators=None, owned=None):
    """build_overlay on the star, from STAR_SIX or from its seed and the
    given initiators, with one thing corrupted: edit(walk) edits stepped
    walk wid's record as soon as its group stops stepping, before any walk
    of the group halts or joins, and owned ({node: walk id}) is written
    into the registry before the first walk starts."""
    run, registry = overlay.run_walk_until_stop, overlay.OverlayRegistry

    def edited_run(walks, *args):
        broker = run(walks, *args)
        for walk in walks:
            if walk.id == wid:
                edit(walk)
        return broker

    def edited_registry(n):
        reg = registry(n)
        for node, owner in (owned or {}).items():
            reg.owner[node] = owner
        return reg

    cfg = STAR_SIX if initiators is None else replace(STAR_SIX, initiators=initiators)
    with mock.patch.object(overlay, "run_walk_until_stop", edited_run), \
            mock.patch.object(overlay, "OverlayRegistry", edited_registry):
        return build_overlay(H.star_network(), cfg)


def test_star_six_records():
    res = build_edited()
    assert [(w.id, w.path, w.parents, w.broker) for w in res.stepped] == [
        (0, [3, 2, 1], [-1, 0, 1], 3), (1, [5, 6, 0, 3], [-1, 0, 1, 2], 3),
        (2, [13, 14, 15, 0], [-1, 0, 1, 2], 0), (4, [10, 11, 12, 0], [-1, 0, 1, 2], 0)]
    assert res.born == {3: 14, 5: 2}
    assert res.initiators == (3, 5, 13, 14, 10, 2)
    assert set(range(16)) - res.active_path == {4, 7, 8, 9}


def set_parent(i, parent):
    def edit(walk):
        walk.parents[i] = parent
    return {"edit": edit}


def set_broker(broker):
    def edit(walk):
        walk.broker = broker
    return {"edit": edit}


def born_on(initiator, owned):
    """Walk 3 starts on initiator, after walk 1 is born on walk 0's path
    and walk 2 steps, with the registry holding owned from the start."""
    return {"initiators": (3, 2, 13, initiator, 14, 5), "owned": owned}


@pytest.mark.parametrize("change, wid, reason", [
    (set_parent(1, -1), 0, "parents do not form a tree over its path"),
    (set_parent(2, 3), 1, "parents do not form a tree over its path"),
    (set_parent(3, 3), 4, "parents do not form a tree over its path"),
    (set_broker(3), 2, "broker 3 is not on its own path"),
    (set_broker(13), 2, "broker 13 is not on the layer it joins"),
    # Node 4 is owned by no walk; walk 3 is born on it.
    (born_on(4, {4: 99}), 3, "broker 4 is not on the layer it joins"),
    # Node 11 is owned by walk 4, which has not joined; walk 3 is born next to it.
    (born_on(10, {11: 4}), 3, "broker 11 is not on the layer it joins"),
], ids=["walk-0-first-edge-dropped", "parent-points-forward", "parent-is-itself",
        "stepped-broker-off-its-path", "stepped-broker-off-the-layer",
        "born-broker-off-the-layer", "born-broker-not-joined-yet"])
def test_join_check_rejects_corrupted_records(change, wid, reason):
    """Each corrupted record fails the build as a BuildFailed naming its
    walk, never a KeyError or StopIteration."""
    with pytest.raises(BuildFailed) as err:
        build_edited(wid=wid, **change)
    assert (err.value.walk_id, err.value.reason) == (wid, reason)


# --- determinism and the JSON form -------------------------------------------

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
