"""Per-walk set-up: generators made on first draw; the ownership record."""

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
    build_overlay,
    to_json_dict,
)
from drw_overlay.rng import stream
from drw_overlay.walk_engine import (
    INTERSECTED,
    INTERSECTED_STEP,
    STRATEGY_KINDS,
    CostStrategy,
    StepOutcome,
    TraceRecord,
    WalkNotActive,
    init_walk,
    parse_strategy,
    step,
)

DRW = CostStrategy("drw")


def unused_factory():
    raise AssertionError("a walk born intersected made its generator")


# --- lazy generators ---------------------------------------------------------

@pytest.mark.parametrize("initiator, walk_id, owned, other, path, parents, owner", [
    # born at its owned initiator, ids in build order
    (2, 4, 2, 3, [2], [-1], [-1, -1, 3, -1, -1, -1, -1, -1]),
    # born at an owned neighbour; the lower id takes over the owner slot
    (0, 1, 1, 7, [0, 1], [-1, 0], [1, 1, -1, -1, -1, -1, -1, -1]),
], ids=["initiator", "neighbor"])
def test_born_walk_state(initiator, walk_id, owned, other, path, parents, owner):
    """A walk born intersected is built finished: no generator, no factory,
    no slot dict, one trace record, and no further step."""
    net = H.crossing_network()
    reg = OverlayRegistry(net.n)
    reg.register(owned, other)
    trace = []
    walk, out = init_walk(net, initiator, walk_id, reg, unused_factory, strategy=DRW,
                          trace=trace)
    assert out == StepOutcome(INTERSECTED_STEP, node=owned, other_walk=other)
    assert walk.id == walk_id and walk.path == path
    assert walk.parents == parents and walk.cursor == len(path)
    assert walk.status == INTERSECTED and walk.broker == owned
    assert walk.steps == walk.backtracks == 0
    assert walk.rng is None and walk.make_rng is None and walk.words is None
    assert trace == [TraceRecord(walk=walk_id, step=0, outcome="intersected", node=owned,
                                 cursor=len(path), cost=None)]
    assert reg.owner == owner and reg.brokers == {owned}
    with pytest.raises(WalkNotActive):
        step(walk, net, reg, DRW)
    assert not hasattr(walk, "__dict__") and not hasattr(out, "__dict__")


def test_walk_that_draws_makes_its_generator_once():
    net = H.crossing_network()
    made = []

    def factory():
        made.append(1)
        return stream(4, "walk", 0)

    walk, out = init_walk(net, 5, 0, OverlayRegistry(net.n), factory, strategy=DRW)
    assert out is None and len(walk.path) == 2
    assert made == [1] and walk.rng is not None


def eager_init_walk(seed):
    """Reference init_walk: the walk's stream is made up front."""
    def init(net, initiator, walk_id, registry, make_rng, **kw):
        gen = stream(seed, "walk", walk_id)
        return init_walk(net, initiator, walk_id, registry, lambda: gen, **kw)
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


def test_built_layer_with_unused_factories_pickles():
    net = H.star_network()
    result = build_overlay(net, OverlayBuildConfig(net.n, DRW, seed=5))
    assert any(w.rng is None for w in result.walks)
    assert to_json_dict(pickle.loads(pickle.dumps(result))) == to_json_dict(result)


# --- the ownership record ----------------------------------------------------

class CapturedRegistry(OverlayRegistry):
    instances: list = []

    def __init__(self, n):
        super().__init__(n)
        CapturedRegistry.instances.append(self)


def recording(fn, walk_and_outcome, met):
    """Wrap init_walk or step; append (walk id, node, other_walk) per intersection."""
    def call(*args, **kw):
        result = fn(*args, **kw)
        walk, out = walk_and_outcome(args, result)
        if out is not None and out.kind == INTERSECTED_STEP:
            met.append((walk.id, out.node, out.other_walk))
        return result
    return call


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
    stepped = recording(step, lambda a, r: (a[0], r), met)
    with mock.patch.object(overlay, "OverlayRegistry", CapturedRegistry), \
            mock.patch.object(overlay, "init_walk", recording(init_walk, lambda a, r: r, met)), \
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
