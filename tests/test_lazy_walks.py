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


def counting_walk_states(made):
    """Patch WalkState construction to append each new walk's id to made."""
    original = WalkState.__init__

    def counted(self, *args, **kw):
        made.append(kw.get("id"))
        original(self, *args, **kw)
    return mock.patch.object(WalkState, "__init__", counted)


# --- generators only for walks that step -------------------------------------

@pytest.mark.parametrize("initiator, path, parents, owner", [
    # born at its initiator, which walk 0 owns
    (2, [2], [-1], [0, 0, 0, -1, -1, 1, 1, 1]),
    # born at its owned neighbour 2, which stays walk 0's; it claims node 3
    (3, [3, 2], [-1, 0], [0, 0, 0, 2, -1, 1, 1, 1]),
], ids=["initiator", "neighbor"])
def test_born_walk_state(initiator, path, parents, owner):
    """Walk 2, born intersected once walks 0 and 1 meet on the crossing,
    gets no WalkState and no words during the build: one step-0 trace
    record and its owner entry. The layer makes its finished WalkState,
    with no slot dict, which takes no further step."""
    net = H.crossing_network()
    cfg = OverlayBuildConfig(3, DRW, initiators=H.CROSS_INITIATORS + (initiator,))
    made, worded, registries, trace = [], [], [], []
    words, registry = overlay.SeedDraws.words, overlay.OverlayRegistry

    def counted_words(draws, walk_id):
        worded.append(walk_id)
        return words(draws, walk_id)

    def kept_registry(n):
        registries.append(registry(n))
        return registries[-1]

    with counting_walk_states(made), \
            mock.patch.object(overlay.SeedDraws, "words", counted_words), \
            mock.patch.object(overlay, "OverlayRegistry", kept_registry):
        layer = build_overlay(net, cfg, trace)
    broker = path[-1]
    assert made == worded == [0, 1] and layer.born == {2: broker}
    assert [r for r in trace if r.walk == 2] == [
        TraceRecord(walk=2, step=0, outcome=INTERSECTED, node=broker, cursor=len(path),
                    cost=None)]
    assert registries[0].owner == owner

    walk = layer.walks[2]
    assert walk.id == 2 and walk.path == path
    assert walk.parents == parents and walk.head == len(path) - 1
    assert walk.status == INTERSECTED and walk.broker == broker
    assert walk.steps == walk.backtracks == 0
    assert walk.words is None
    assert all(a is b for a, b in zip(layer.walks, layer.stepped))
    with pytest.raises(WalkNotActive):
        step(walk, net, registries[0], DRW)
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
