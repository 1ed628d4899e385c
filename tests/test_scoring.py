"""Bitset scoring and mark bitsets against brute-force Python sets."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from costs import candidate_costs, oracle_costs
from marks import marked_nodes
from drw_overlay.geom_graph import network_from_positions
from drw_overlay.overlay import OverlayRegistry
from drw_overlay.walk_engine import (
    ACTIVE,
    EXTENDED,
    PURE,
    STRATEGY_KINDS,
    TWO_HOP,
    WEIGHTED,
    CostStrategy,
    init_walk,
    step,
    stream_words,
)


def assert_same_costs(got, want):
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


def assert_bits_match(net):
    bits = net.neighbor_bits
    assert len(bits) == net.n and all(type(b) is int for b in bits)
    for v, nbrs in enumerate(net.adjacency):
        assert marked_nodes(net, bits[v]) == set(nbrs)
        assert 0 <= bits[v] and bits[v].bit_length() <= net.n  # no bit >= n


def assert_marks_consistent(walk, net, strategy):
    """Only drw and weighted mark; only weighted keeps marked2."""
    for marks in (walk.marked, walk.marked2):
        assert type(marks) is int and 0 <= marks and marks.bit_length() <= net.n
    if strategy.kind == WEIGHTED:
        ring2 = set().union(*(net.adjacency[u] for u in marked_nodes(net, walk.marked)))
        assert marked_nodes(net, walk.marked2) == ring2
    else:
        assert walk.marked2 == 0
    if strategy.kind in (PURE, TWO_HOP):
        assert walk.marked == 0


def test_neighbor_bits_isolated_node_is_zero():
    net = network_from_positions([[0.1, 0.1], [0.2, 0.1], [0.3, 0.1], [0.9, 0.9]], r=0.15)
    assert net.adjacency == [[1], [0, 2], [1], []]
    assert net.bit_rank.tolist() == [0, 1, 2, 3]  # ties at y = 0.1 keep id order
    assert net.neighbor_bits == [0b0010, 0b0101, 0b0010, 0]
    assert_bits_match(net)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(4, 40), r=st.floats(0.15, 0.7), seed=st.integers(0, 2**16),
       kind=st.sampled_from(STRATEGY_KINDS),
       alpha=st.sampled_from((0.0, 0.5, 1.0, 3.0)), beta=st.sampled_from((0.0, 1.0, 2.5)))
def test_scoring_and_marks_match_set_oracles(n, r, seed, kind, alpha, beta):
    """Every step's traced cost and choice against the set oracle: a guided
    extension records the least oracle cost over the head's unowned
    neighbours and takes one of the nodes at that cost; prw records none."""
    rng = np.random.default_rng(seed)
    net = network_from_positions(rng.random((n, 2)), r)
    assert_bits_match(net)
    strategy = CostStrategy(kind, alpha, beta)
    starts = [v for v in range(n) if net.adjacency[v]]
    if len(starts) < 2:
        return
    initiator, target = (int(v) for v in rng.choice(starts, size=2, replace=False))
    registry = OverlayRegistry(n)
    registry.owner[target] = 99
    if any(registry.owner[v] >= 0 for v in net.adjacency[initiator]):
        # The walk would be born on target, so it takes no step to score.
        return
    trace = []
    walk, _ = init_walk(net, initiator, 0, registry,
                        lambda _: stream_words(np.random.default_rng(seed)), trace=trace)
    everyone = list(range(n))
    while walk.status == ACTIVE and walk.steps < 4 * n:
        assert_marks_consistent(walk, net, strategy)
        src_index = walk.head
        candidates = [v for v in net.adjacency[walk.path[src_index]] if registry.owner[v] < 0]
        step(walk, net, registry, strategy, trace)
        assert_marks_consistent(walk, net, strategy)
        assert len(trace) == walk.steps + 1
        rec = trace[-1]
        if kind == PURE or rec.outcome != EXTENDED:
            assert rec.cost is None
        else:
            # A step marks before it scores, so the walk's marks now are
            # the ones its candidates were scored against.
            want = oracle_costs(walk, net, strategy, candidates, src_index)
            assert_same_costs([rec.cost], [min(want)])
            assert rec.node in [v for v, c in zip(candidates, want) if c == rec.cost]
        # The node behind the head, or the head itself midway through a retreat.
        src_index = max(walk.head - (walk.head == len(walk.path) - 1), 0)
        assert_same_costs(candidate_costs(walk, net, strategy, everyone, src_index),
                          oracle_costs(walk, net, strategy, everyone, src_index))
