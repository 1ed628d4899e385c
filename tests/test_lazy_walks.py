"""Per-walk set-up: generators made on first draw, direct owner lookups."""

import pickle
import sys
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import handnets as H
from drw_overlay import overlay
from drw_overlay.geom_graph import GraphGenConfig, generate_network
from drw_overlay.overlay import (
    BuildFailed,
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
    init_walk,
    parse_strategy,
)

DRW = CostStrategy("drw")


def unused_factory():
    raise AssertionError("a walk born intersected made its generator")


# --- lazy generators ---------------------------------------------------------

def test_walk_born_at_owned_initiator_makes_no_generator():
    net = H.crossing_network()
    reg = OverlayRegistry()
    reg.register(2, 3)
    walk, out = init_walk(net, 2, 4, reg, unused_factory, strategy=DRW)
    assert out.node == 2 and walk.status == INTERSECTED
    assert walk.rng is None


def test_walk_born_at_owned_neighbor_makes_no_generator():
    net = H.crossing_network()
    reg = OverlayRegistry()
    reg.register(1, 7)
    walk, out = init_walk(net, 0, 1, reg, unused_factory, strategy=DRW)
    assert out.node == 1 and walk.status == INTERSECTED
    assert walk.rng is None


def test_walk_that_draws_makes_its_generator_once():
    net = H.crossing_network()
    made = []

    def factory():
        made.append(1)
        return stream(4, "walk", 0)

    walk, out = init_walk(net, 5, 0, OverlayRegistry(), factory, strategy=DRW)
    assert out is None and len(walk.path) == 2
    assert made == [1] and walk.rng is not None


def eager_init_walk(seed):
    """Reference init_walk: the walk's stream is made up front."""
    def init(net, initiator, walk_id, registry, rng_seed, **kw):
        return init_walk(net, initiator, walk_id, registry,
                         stream(seed, "walk", walk_id), **kw)
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


# --- direct owner lookups ----------------------------------------------------

class ProbedMembership(dict):
    """Membership dict that checks each direct read made by init_walk or step."""

    def __init__(self, registry):
        super().__init__()
        self.registry = registry
        self.lookups = 0

    def get(self, node, default=None):
        caller = sys._getframe(1)
        if caller.f_code.co_name in ("init_walk", "step"):
            walk = caller.f_locals["walk"]
            owners = dict.get(self, node, set())
            assert walk.id not in owners, (walk.id, node)
            if caller.f_code.co_name == "step":
                assert node not in walk.members, (walk.id, node)
            direct = min(owners) if owners else None
            assert direct == self.registry.other_walk_at(node, walk.id), (walk.id, node)
            self.lookups += 1
        return dict.get(self, node, default)


class ProbedRegistry(OverlayRegistry):
    instances: list = []

    def __init__(self):
        super().__init__()
        self.membership = ProbedMembership(self)
        ProbedRegistry.instances.append(self)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(8, 60), net_seed=st.integers(0, 2**16),
       share=st.floats(0.05, 1.0), kind=st.sampled_from(STRATEGY_KINDS),
       seed=st.integers(0, 2**16))
def test_direct_owner_reads_match_other_walk_at(n, net_seed, share, kind, seed):
    net = generate_network(GraphGenConfig(n=n, r=0.45, seed=net_seed))
    count = max(2, round(share * n))
    cfg = OverlayBuildConfig(count, parse_strategy(kind), seed=seed)
    ProbedRegistry.instances = []
    with mock.patch.object(overlay, "OverlayRegistry", ProbedRegistry):
        try:
            build_overlay(net, cfg)
        except BuildFailed:
            pass
    (registry,) = ProbedRegistry.instances
    assert registry.membership.lookups > 0
