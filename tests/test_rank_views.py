"""``Network.low_rank`` and the two-hop ring memo against plain oracles.

A guided score shifts its AND down by the candidate row's lowest bit
(``low_rank``) before the popcount, and weighted marking reads each node's
two-hop ring from ``Network.two_rings``. Both must give the counts and
marks of the unshifted AND and of the OR over the neighbours.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import handnets as H
from marks import marked_nodes
from drw_overlay.geom_graph import network_from_positions, to_json_dict
from drw_overlay.overlay import BuildFailed, OverlayBuildConfig, build_overlay
from drw_overlay.walk_engine import WalkState, _mark_two_rings, parse_strategy

# Farther from the unit square than the largest radius, sqrt 2: a node
# placed here has an empty row, the last one when it is appended.
FAR = [5.0, 5.0]


def with_far_node(net):
    return network_from_positions(net.positions.tolist() + [FAR], net.radius, net.seed)


HAND_NETS = [build() for build in H.BUILDERS]
HAND_NETS += [with_far_node(net) for net in HAND_NETS]


def assert_low_rank(net):
    bits, low, rank = net.neighbor_bits, net.low_rank, net.bit_rank.tolist()
    assert len(low) == net.n and all(type(b) is int for b in low)
    for v, row in enumerate(bits):
        assert low[v] == ((row & -row).bit_length() - 1 if row else 0)
        assert low[v] == min((rank[u] for u in net.adjacency[v]), default=0)


def assert_shift_keeps_counts(net, masks):
    bits, low = net.neighbor_bits, net.low_rank
    for m in masks + [0, (1 << net.n) - 1]:
        for v, row in enumerate(bits):
            assert ((row & m) >> low[v]).bit_count() == (row & m).bit_count()


def assert_rings(net, filled_only=True):
    bits, adjacency = net.neighbor_bits, net.adjacency
    assert len(net.two_rings) == net.n
    for v, entry in enumerate(net.two_rings):
        if entry is None:
            assert filled_only
            continue
        ring, low = entry
        want = 0
        for u in adjacency[v]:
            want |= bits[u]
        assert ring << low == want and low >= 0
        assert ring & 1 or want == 0  # stored shifted down to its lowest bit
        assert marked_nodes(net, want) == {w for u in adjacency[v] for w in adjacency[u]}


def weighted_builds(net, seeds):
    """Weighted builds from the first and last nodes that have neighbours;
    a build on a disconnected network may fail, which still marks nodes."""
    ends = [v for v, row in enumerate(net.adjacency) if row]
    if len(ends) < 2:
        return
    for seed in seeds:
        cfg = OverlayBuildConfig(2, parse_strategy("weighted"), seed=seed,
                                 initiators=(ends[0], ends[-1]), step_budget=4 * net.n)
        try:
            build_overlay(net, cfg)
        except BuildFailed:
            pass


def mark_every_node(net):
    """Mark each node once on a fresh walk, through the memo; the marks must
    be the unions of the rows and of the rings."""
    walk = WalkState(id=0)
    want, want2 = 0, 0
    for v in range(net.n):
        _mark_two_rings(walk, net, v)
        want |= net.neighbor_bits[v]
        for u in net.adjacency[v]:
            want2 |= net.neighbor_bits[u]
        assert (walk.marked, walk.marked2) == (want, want2)


def assert_pickles(net):
    back = pickle.loads(pickle.dumps(net))
    assert to_json_dict(back) == to_json_dict(net)
    assert back.two_rings == net.two_rings
    assert (back.low_rank, back.neighbor_bits) == (net.low_rank, net.neighbor_bits)


def test_networks_compare_and_hash_by_identity():
    """A network's fields are numpy arrays, whose == gives no single truth
    value; a pickled copy compares unequal without raising, and a network
    can be a set member or a dict key."""
    net = HAND_NETS[0]
    back = pickle.loads(pickle.dumps(net))
    assert net == net and back != net
    assert len({net, back, net}) == 2


def check_views(net, masks, seeds):
    assert_low_rank(net)
    assert_shift_keeps_counts(net, masks)
    assert all(entry is None for entry in net.two_rings)
    weighted_builds(net, seeds)
    assert_rings(net)
    assert_pickles(net)
    mark_every_node(net)
    assert None not in net.two_rings
    assert_rings(net, filled_only=False)
    assert_pickles(net)


@pytest.mark.parametrize("index", range(len(HAND_NETS)))
def test_views_on_hand_networks(index):
    net = HAND_NETS[index]
    rng = np.random.default_rng(index)
    masks = [int.from_bytes(rng.bytes(8), "little") & ((1 << net.n) - 1) for _ in range(8)]
    check_views(net, masks, seeds=range(3))


def test_hand_networks_end_in_an_empty_row():
    assert all(not net.adjacency[-1] and net.low_rank[-1] == 0 for net in HAND_NETS[len(H.BUILDERS):])


POINT = st.tuples(st.floats(0, 1), st.floats(0, 1)).map(list)


@st.composite
def networks(draw):
    points = draw(st.lists(POINT, min_size=1, max_size=40))
    if draw(st.booleans()):
        points.append(FAR)
    return network_from_positions(points, draw(st.floats(0.05, 0.6)))


@settings(max_examples=100, deadline=None)
@given(net=networks(), data=st.data())
def test_views_on_random_networks(net, data):
    masks = data.draw(st.lists(st.integers(0, (1 << net.n) - 1), max_size=6))
    check_views(net, masks, seeds=data.draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=2)))
