"""Array scoring and mark masks against brute-force Python sets."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from marks import marked_nodes
from drw_overlay import walk_engine
from drw_overlay.geom_graph import network_from_positions
from drw_overlay.overlay import OverlayRegistry
from drw_overlay.walk_engine import (
    ACTIVE,
    FIRST_NEIGHBORHOOD,
    PURE,
    STRATEGY_KINDS,
    TWO_HOP,
    CostStrategy,
    candidate_costs,
    init_walk,
    step,
)


def oracle_costs(walk, net, strategy, candidates, src_index):
    """Set-based scores, with the marks read back from the walk's masks."""
    rings = [set(net.adjacency[c]) for c in candidates]
    if strategy.kind == PURE:
        return [0] * len(candidates)
    if strategy.kind == TWO_HOP:
        behind = set(net.adjacency[walk.path[src_index - 1]]) if src_index > 0 else set()
        return [len(ring & behind) for ring in rings]
    marked, marked2 = marked_nodes(walk.marked), marked_nodes(walk.marked2)
    if strategy.kind == FIRST_NEIGHBORHOOD:
        return [len(ring & marked) for ring in rings]
    return [strategy.alpha * len(ring & marked) + strategy.beta * len(ring & marked2)
            for ring in rings]


def assert_same_costs(got, want):
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


def assert_table_matches(net):
    table = net.neighbor_table
    assert table.dtype == np.int32 and table.shape[0] == net.n + 1
    for v, nbrs in enumerate(net.adjacency):
        assert table[v, :len(nbrs)].tolist() == nbrs
        assert (table[v, len(nbrs):] == net.n).all()
    assert (table[net.n] == net.n).all()


def assert_masks_consistent(walk, net):
    for mask in (walk.marked, walk.marked2):
        if mask is not None:
            assert mask.dtype == bool and mask.shape == (net.n + 1,)
            assert not mask[net.n]
    if walk.maintain_second and walk.marked is not None:
        ring2 = set().union(*(net.adjacency[u] for u in marked_nodes(walk.marked)))
        assert marked_nodes(walk.marked2) == ring2


def test_neighbor_table_pads_isolated_node():
    net = network_from_positions([[0.1, 0.1], [0.2, 0.1], [0.3, 0.1], [0.9, 0.9]], r=0.15)
    assert net.adjacency == [[1], [0, 2], [1], []]
    assert net.neighbor_table.tolist() == [[1, 4], [0, 2], [1, 4], [4, 4], [4, 4]]
    assert_table_matches(net)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(4, 40), r=st.floats(0.15, 0.7), seed=st.integers(0, 2**16),
       kind=st.sampled_from(STRATEGY_KINDS),
       alpha=st.sampled_from((0.0, 0.5, 1.0, 3.0)), beta=st.sampled_from((0.0, 1.0, 2.5)))
def test_scoring_and_marks_match_set_oracles(n, r, seed, kind, alpha, beta):
    rng = np.random.default_rng(seed)
    net = network_from_positions(rng.random((n, 2)), r)
    assert_table_matches(net)
    strategy = CostStrategy(kind, alpha, beta)
    starts = [v for v in range(n) if net.adjacency[v]]
    if len(starts) < 2:
        return
    initiator, target = (int(v) for v in rng.choice(starts, size=2, replace=False))
    registry = OverlayRegistry(n)
    registry.register(target, 99)
    scored = []

    def checked(walk, net, strategy, candidates, src_index):
        got = candidate_costs(walk, net, strategy, candidates, src_index)
        assert_same_costs(got, oracle_costs(walk, net, strategy, candidates, src_index))
        scored.append(len(candidates))
        return got

    walk, _ = init_walk(net, initiator, 0, registry, seed, strategy=strategy)
    everyone = list(range(n))
    with mock.patch.object(walk_engine, "candidate_costs", checked):
        while walk.status == ACTIVE and walk.steps < 4 * n:
            assert_masks_consistent(walk, net)
            step(walk, net, registry, strategy)
            assert_masks_consistent(walk, net)
            src_index = max(walk.cursor - 2, 0)
            assert_same_costs(candidate_costs(walk, net, strategy, everyone, src_index),
                              oracle_costs(walk, net, strategy, everyone, src_index))
    if kind == PURE:
        assert not scored
