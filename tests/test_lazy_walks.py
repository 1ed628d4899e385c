"""Per-walk set-up: streams only for walks that step, made once per build
seed and replayed by the next build with it. That a replayed build gives
what fresh streams give, and that the owner list matches the walks' paths,
tests/test_reference.py checks against the reference build."""

import pickle
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest

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
    stream_words,
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
    # born at an owned neighbour, which stays its first owner's
    (0, 1, 1, 7, [0, 1], [-1, 0], [1, 7, -1, -1, -1, -1, -1, -1]),
], ids=["initiator", "neighbor"])
def test_born_walk_state(initiator, walk_id, owned, other, path, parents, owner):
    """A walk born intersected gets no WalkState from init_walk: no generator,
    no factory call, one trace record and its broker back. The layer makes
    its finished WalkState, with no slot dict, which takes no further step."""
    net = H.crossing_network()
    reg = OverlayRegistry(net.n)
    reg.owner[owned] = other
    trace = []
    made = []
    with counting_walk_states(made):
        walk, broker = init_walk(net, initiator, walk_id, reg, unused_factory, trace=trace)
    assert walk is None and broker == owned and made == []
    assert trace == [TraceRecord(walk=walk_id, step=0, outcome="intersected", node=owned,
                                 cursor=len(path), cost=None)]
    assert reg.owner == owner

    # Walks 0..walk_id-1 stepped; the layer makes walk walk_id from its record.
    layer = OverlayResult(stepped=[WalkState(id=k) for k in range(walk_id)],
                          born={walk_id: broker}, active_path=set(path),
                          initiators=tuple(range(10, 10 + walk_id)) + (initiator,),
                          strategy_label="drw", seed=0)
    walk = layer.walks[walk_id]
    assert walk.id == walk_id and walk.path == path
    assert walk.parents == parents and walk.head == len(path) - 1
    assert walk.status == INTERSECTED and walk.broker == owned
    assert walk.steps == walk.backtracks == 0
    assert walk.words is None
    assert all(a is b for a, b in zip(layer.walks, layer.stepped))
    with pytest.raises(WalkNotActive):
        step(walk, net, reg, DRW)
    assert not hasattr(walk, "__dict__")


def test_walk_that_draws_makes_its_generator_once():
    net = H.crossing_network()
    made = []

    def factory(walk_id):
        made.append(walk_id)
        return stream_words(stream(4, "walk", walk_id))

    reg = OverlayRegistry(net.n)
    walk, broker = init_walk(net, 5, 3, reg, factory)
    assert broker is None and len(walk.path) == 2
    assert made == [3] and walk.words is not None
    out = step(walk, net, reg, DRW)
    assert made == [3]
    assert not hasattr(walk, "__dict__") and not hasattr(out, "__dict__")


def test_streams_only_for_initiators_and_walks_that_drew():
    net = H.star_network()
    labels = []

    def counted(*parts):
        labels.append(parts[1:])
        return stream(*parts)

    cfg = OverlayBuildConfig(net.n, CostStrategy("prw"), seed=2)
    trace = []
    overlay.seed_draws.cache_clear()
    with mock.patch.object(overlay, "stream", counted):
        result = build_overlay(net, cfg, trace)
    born = {r.walk for r in trace if r.step == 0 and r.outcome == "intersected"}
    assert born, "the build should have walks born intersected"
    drew = [("walk", w.id) for w in result.walks if w.id not in born]
    assert labels == [("initiators",)] + drew
    assert [("walk", w.id) for w in result.stepped] == drew


def test_strategies_that_share_a_seed_make_each_stream_once():
    """The four strategies of one build seed make the initiators' stream
    once and each walk id's stream once, when a walk with that id first
    draws. A build with another seed evicts them, so the first seed's next
    build makes its streams again."""
    net = generate_network(GraphGenConfig(n=300, r=0.1, seed=7))
    made = []

    def counted(*parts):
        made.append(parts)
        return stream(*parts)

    overlay.seed_draws.cache_clear()
    with mock.patch.object(overlay, "stream", counted):
        results = [build_overlay(net, OverlayBuildConfig(20, parse_strategy(kind), seed=3))
                   for kind in STRATEGY_KINDS]
        shared, made[:] = made[:], []
        build_overlay(net, OverlayBuildConfig(20, DRW, seed=4))
        made.clear()
        again = build_overlay(net, OverlayBuildConfig(20, DRW, seed=3))
    drew = list(dict.fromkeys(w.id for result in results for w in result.stepped))
    assert len(drew) < sum(len(result.stepped) for result in results)
    assert shared == [(3, "initiators")] + [(3, "walk", wid) for wid in drew]
    assert made == [(3, "initiators")] + [(3, "walk", w.id) for w in again.stepped]
    assert to_json_dict(again) == to_json_dict(results[0])


def test_threads_that_build_with_one_seed_give_the_serial_layers():
    """Builds on a thread pool, switching threads every microsecond so that
    they interleave mid-build, raise nothing and give the serial layers:
    no thread reads a tee of another thread's seed draws."""
    net = generate_network(GraphGenConfig(n=300, r=0.1, seed=7))
    cfgs = [OverlayBuildConfig(10, parse_strategy(kind), seed=seed)
            for seed in range(8) for kind in STRATEGY_KINDS]
    serial = [to_json_dict(build_overlay(net, cfg)) for cfg in cfgs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(build_overlay, net, cfg) for _ in range(5) for cfg in cfgs]
            threaded = [to_json_dict(f.result(timeout=120)) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 5


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
    assert drew == [w.id for w in walks if w.id not in result.born]
    assert all(w.words is None for w in walks)
    assert walks is result.walks
    assert [w.id for w in walks] == list(range(net.n))
    assert [w.path[0] for w in walks] == list(result.initiators)
    assert totals == (sum(w.steps for w in walks), sum(w.backtracks for w in walks))
    assert to_json_dict(pickle.loads(pickle.dumps(result))) == to_json_dict(result)
