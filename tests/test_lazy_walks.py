"""Per-walk set-up: generators only for walks that step; the ownership record."""

import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import handnets as H
from drw_overlay import overlay
from drw_overlay.geom_graph import GraphGenConfig, generate_network
from drw_overlay.overlay import (
    OverlayBuildConfig,
    OverlayRegistry,
    OverlayResult,
    build_overlay,
    to_json_dict,
)
from drw_overlay.rng import stream
from drw_overlay.walk_engine import (
    INTERSECTED,
    STRATEGY_KINDS,
    CostStrategy,
    TraceRecord,
    WalkNotActive,
    WalkState,
    init_walk,
    parse_strategy,
    step,
)

DRW = CostStrategy("drw")


def unused_factory(walk_id):
    raise AssertionError("a walk born intersected made its generator")


def counting_walk_states(made):
    """Patch WalkState construction to append each new walk's id to made."""
    original = WalkState.__init__

    def counted(self, *args, **kw):
        made.append(kw.get("id"))
        original(self, *args, **kw)
    return mock.patch.object(WalkState, "__init__", counted)


# --- generators only for walks that step -------------------------------------

@pytest.mark.parametrize("initiator, walk_id, owned, other, path, parents, owner", [
    # born at its owned initiator, ids in build order
    (2, 4, 2, 3, [2], [-1], [-1, -1, 3, -1, -1, -1, -1, -1]),
    # born at an owned neighbour; the lower id takes over the owner slot
    (0, 1, 1, 7, [0, 1], [-1, 0], [1, 1, -1, -1, -1, -1, -1, -1]),
], ids=["initiator", "neighbor"])
def test_born_walk_state(initiator, walk_id, owned, other, path, parents, owner):
    """A walk born intersected gets no WalkState from init_walk: no generator,
    no factory call, one trace record and its broker back. The layer makes
    its finished WalkState, with no slot dict, which takes no further step."""
    net = H.crossing_network()
    reg = OverlayRegistry(net.n)
    reg.register(owned, other)
    trace = []
    made = []
    with counting_walk_states(made):
        walk, broker = init_walk(net, initiator, walk_id, reg, unused_factory, trace=trace)
    assert walk is None and broker == owned and made == []
    assert trace == [TraceRecord(walk=walk_id, step=0, outcome="intersected", node=owned,
                                 cursor=len(path), cost=None)]
    assert reg.owner == owner and reg.brokers == {owned}

    # Walks 0..walk_id-1 stepped; the layer makes walk walk_id from its record.
    layer = OverlayResult(stepped=[WalkState(id=k) for k in range(walk_id)],
                          born={walk_id: broker}, active_path=set(path),
                          active_path_edges=set(), brokers=reg.brokers,
                          initiators=tuple(range(10, 10 + walk_id)) + (initiator,),
                          strategy_label="drw", seed=0)
    walk = layer.walks[walk_id]
    assert walk.id == walk_id and walk.path == path
    assert walk.parents == parents and walk.cursor == len(path)
    assert walk.status == INTERSECTED and walk.broker == owned
    assert walk.steps == walk.backtracks == 0
    assert walk.rng is None and walk.words is None
    assert all(a is b for a, b in zip(layer.walks, layer.stepped))
    with pytest.raises(WalkNotActive):
        step(walk, net, reg, DRW)
    assert not hasattr(walk, "__dict__")


def test_walk_that_draws_makes_its_generator_once():
    net = H.crossing_network()
    made = []

    def factory(walk_id):
        made.append(walk_id)
        return stream(4, "walk", walk_id)

    reg = OverlayRegistry(net.n)
    walk, broker = init_walk(net, 5, 3, reg, factory)
    assert broker is None and len(walk.path) == 2
    assert made == [3] and walk.rng is not None
    out = step(walk, net, reg, DRW)
    assert made == [3]
    assert not hasattr(walk, "__dict__") and not hasattr(out, "__dict__")


def eager_init_walk(seed):
    """Reference init_walk: every walk's stream is made up front, a born walk's too."""
    def init(net, initiator, walk_id, registry, walk_stream, **kw):
        gen = stream(seed, "walk", walk_id)
        return init_walk(net, initiator, walk_id, registry, lambda _: gen, **kw)
    return init


def test_lazy_build_matches_eager_reference():
    net = H.star_network()
    for kind in STRATEGY_KINDS:
        for count in (2, 5, net.n):
            cfg = OverlayBuildConfig(count, parse_strategy(kind), seed=11)
            lazy = to_json_dict(build_overlay(net, cfg))
            with mock.patch.object(overlay, "init_walk", eager_init_walk(cfg.seed)):
                eager = to_json_dict(build_overlay(net, cfg))
            assert lazy == eager, (kind, count)


def test_streams_only_for_initiators_and_walks_that_drew():
    net = H.star_network()
    labels = []

    def counted(*parts):
        labels.append(parts[1:])
        return stream(*parts)

    cfg = OverlayBuildConfig(net.n, CostStrategy("prw"), seed=2)
    trace = []
    with mock.patch.object(overlay, "stream", counted):
        result = build_overlay(net, cfg, trace)
    born = {r.walk for r in trace if r.step == 0 and r.outcome == "intersected"}
    assert born, "the build should have walks born intersected"
    drew = [("walk", w.id) for w in result.walks if w.id not in born]
    assert labels == [("initiators",)] + drew
    assert all((w.rng is None) == (w.id in born) for w in result.walks)


def test_born_walks_are_made_once_on_first_access():
    """A build makes a WalkState only for the walks that drew; the layer
    makes the others once, on first access, in id order, and its step and
    backtrack totals need none of them."""
    net = H.star_network()
    made = []
    with counting_walk_states(made):
        result = build_overlay(net, OverlayBuildConfig(net.n, DRW, seed=5))
        totals = (result.total_steps, result.total_backtracks)
        drew = [w.id for w in result.stepped]
        assert made == drew
        walks = result.walks
    assert len(drew) < net.n and len(made) == net.n
    assert drew == [w.id for w in walks if w.rng is not None]
    assert walks is result.walks
    assert [w.id for w in walks] == list(range(net.n))
    assert [w.path[0] for w in walks] == list(result.initiators)
    assert totals == (sum(w.steps for w in walks), sum(w.backtracks for w in walks))
    assert to_json_dict(pickle.loads(pickle.dumps(result))) == to_json_dict(result)


# --- the ownership record ----------------------------------------------------

class CapturedRegistry(OverlayRegistry):
    instances: list = []

    def __init__(self, n):
        super().__init__(n)
        CapturedRegistry.instances.append(self)


def recording(met):
    """Wrap init_walk and step; append (walk id, node, other walk) per
    intersection. A walk born intersected met the owner its broker had
    before init_walk ran."""
    def initialized(net, initiator, walk_id, registry, *args, **kw):
        before = list(registry.owner)
        walk, broker = init_walk(net, initiator, walk_id, registry, *args, **kw)
        if walk is None:
            met.append((walk_id, broker, before[broker]))
        return walk, broker

    def stepped(walk, *args, **kw):
        out = step(walk, *args, **kw)
        if out.kind == INTERSECTED:
            met.append((walk.id, out.node, out.other_walk))
        return out
    return initialized, stepped


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 60), net_seed=st.integers(0, 2**16),
       share=st.floats(0.05, 1.0), kind=st.sampled_from(STRATEGY_KINDS),
       seed=st.integers(0, 2**16))
def test_owner_list_matches_walk_paths(n, net_seed, share, kind, seed):
    """owner[v] is the lowest id of a walk whose path holds v (-1 if none),
    the brokers are the nodes on two or more paths, every walk but the
    halted partner reports the lowest other owner of the node it met, every
    walk ends intersected and the layer is connected over its traced edges."""
    net = generate_network(GraphGenConfig(n=n, r=0.45, seed=net_seed))
    cfg = OverlayBuildConfig(max(2, round(share * n)), parse_strategy(kind), seed=seed)
    CapturedRegistry.instances = []
    met = []
    initialized, stepped = recording(met)
    with mock.patch.object(overlay, "OverlayRegistry", CapturedRegistry), \
            mock.patch.object(overlay, "init_walk", initialized), \
            mock.patch.object(overlay, "step", stepped):
        result = build_overlay(net, cfg)
    (registry,) = CapturedRegistry.instances
    assert len(met) == cfg.initiator_count - 1
    for wid, node, other in met:
        assert other == min(w.id for w in result.walks if w.id != wid and node in w.path)
    on_paths: dict[int, list[int]] = {}
    for walk in result.walks:
        assert walk.status == INTERSECTED, walk.id
        for v in walk.path:
            on_paths.setdefault(v, []).append(walk.id)
    assert registry.owner == [min(on_paths.get(v, [-1])) for v in range(n)]
    shared = {v for v, ids in on_paths.items() if len(ids) >= 2}
    assert registry.brokers == result.brokers == shared
    assert shared <= result.active_path == set(on_paths)
    adj: dict[int, set[int]] = {v: set() for v in result.active_path}
    for a, b in result.active_path_edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {result.initiators[0]}
    stack = list(seen)
    while stack:
        for v in adj[stack.pop()] - seen:
            seen.add(v)
            stack.append(v)
    assert seen == result.active_path
