"""Network generation checked against brute-force geometric oracles: one
dense scan each for the unit-disk rule (pairs_by_scan) and the largest
pairwise distance (all_pairs_max), and one breadth-first search for
connectivity (reaches_all)."""

import json
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import handnets as H
from drw_overlay import geom_graph
from drw_overlay.geom_graph import (
    MAX_RADIUS,
    GraphGenConfig,
    NotConnected,
    UnknownNode,
    from_json_dict,
    generate_network,
    is_connected,
    load_network,
    max_pairwise,
    max_pairwise_distance,
    network_from_positions,
    save_network,
    to_json_dict,
)


def test_adjacency_matches_brute_force():
    """A generated network, from its first placement or a later one, is the
    unit disk graph of its positions, and connected."""
    for seed in range(3):  # 1, 5 and 2 placements
        net = generate_network(GraphGenConfig(n=60, r=0.2, seed=seed))
        assert list(map(tuple, net.edges().tolist())) == pairs_by_scan(net.positions, net.radius)
        assert reaches_all(net.adjacency)


def test_adjacency_sorted_symmetric_irreflexive():
    net = generate_network(GraphGenConfig(n=150, r=0.15, seed=7))
    for u, nbrs in enumerate(net.adjacency):
        assert nbrs == sorted(set(nbrs))
        assert u not in nbrs
        for v in nbrs:
            assert u in net.adjacency[v]


def test_generation_deterministic():
    a = generate_network(GraphGenConfig(n=200, r=0.1, seed=123))
    b = generate_network(GraphGenConfig(n=200, r=0.1, seed=123))
    assert np.array_equal(a.positions, b.positions)
    assert a.adjacency == b.adjacency
    assert a.attempts == b.attempts


def test_different_seeds_differ():
    a = generate_network(GraphGenConfig(n=50, r=0.3, seed=0))
    b = generate_network(GraphGenConfig(n=50, r=0.3, seed=1))
    assert not np.array_equal(a.positions, b.positions)


def test_positions_inside_unit_square():
    net = generate_network(GraphGenConfig(n=500, r=0.1, seed=3))
    assert net.positions.shape == (500, 2)
    assert np.all(net.positions >= 0.0)
    assert np.all(net.positions < 1.0)


def test_rejection_resamples_until_connected():
    """A sparse setting should need more than one placement attempt."""
    hits = [
        generate_network(GraphGenConfig(n=40, r=0.22, seed=s)).attempts
        for s in range(30)
    ]
    assert max(hits) > 1


def test_isolated_node_rejection_keeps_the_accepted_placement():
    """Rejecting placements with an isolated node before the connectivity
    test accepts the same placement as a loop that only tests connectivity."""
    for seed in range(20):
        net = generate_network(GraphGenConfig(n=1000, r=0.05, seed=seed))
        for attempt in range(geom_graph.MAX_ATTEMPTS):
            positions = geom_graph.stream(seed, "placement", attempt).random((1000, 2))
            if geom_graph._connected(1000, geom_graph._unit_disk_pairs(positions, 0.05)):
                break
        assert net.attempts == attempt + 1
        assert np.array_equal(net.positions, positions)


def test_not_connected_raises_with_attempt_cap():
    with mock.patch.object(geom_graph, "MAX_ATTEMPTS", 5), pytest.raises(NotConnected) as err:
        generate_network(GraphGenConfig(n=100, r=0.001, seed=0))
    assert err.value.attempts == 5
    assert str(err.value) == ("no connected placement after 5 attempts; "
                              "increase the radius or the node count")


def test_radius_sqrt2_is_complete_graph():
    net = generate_network(GraphGenConfig(n=30, r=5.0, seed=9))
    assert net.radius == MAX_RADIUS
    assert net.m == 30 * 29 // 2


def test_boundary_distance_exactly_r_is_an_edge():
    # 0.75 - 0.5 = 0.25 exactly in binary, so d*d == r*r holds exactly.
    pts = [[0.5, 0.5], [0.75, 0.5], [0.5, 0.75], [0.75 + 2e-16, 0.75]]
    net = network_from_positions(pts, r=0.25)
    assert 1 in net.neighbors(0)
    assert 2 in net.neighbors(0)
    assert 1 not in net.neighbors(2)


def test_neighbors_unknown_node():
    net = generate_network(GraphGenConfig(n=10, r=0.9, seed=0))
    with pytest.raises(UnknownNode):
        net.neighbors(10)
    with pytest.raises(UnknownNode):
        net.neighbors(-1)


def test_edges_each_pair_once():
    net = generate_network(GraphGenConfig(n=80, r=0.2, seed=11))
    edges = net.edges()
    assert len(edges) == net.m
    assert (edges[:, 0] < edges[:, 1]).all()
    assert len(np.unique(edges, axis=0)) == len(edges)


def test_max_pairwise_distance_matches_all_pairs_scan():
    net = generate_network(GraphGenConfig(n=200, r=0.12, seed=21))
    assert max_pairwise_distance(net) == all_pairs_max(net.positions)


def test_max_pairwise_degenerate_inputs():
    assert max_pairwise(np.empty((0, 2))) == 0.0
    assert max_pairwise(np.array([[0.3, 0.4]])) == 0.0
    # collinear points: the bounding-box filter keeps only the two ends
    line = np.column_stack([np.linspace(0.1, 0.9, 25), np.full(25, 0.5)])
    assert max_pairwise(line) == pytest.approx(0.8)


def all_pairs_max(pts):
    """The largest pairwise distance by a dense scan of every pair."""
    if len(pts) < 2:
        return 0.0
    d = pts[:, None, :] - pts[None, :, :]
    return math.sqrt((d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]).max())


@st.composite
def point_sets(draw):
    """0-3 or up to 200 points (several scan blocks): uniform, on a few
    repeated sites, on a line or on a circle."""
    n = draw(st.one_of(st.integers(0, 3), st.integers(0, 200)))
    unit = st.floats(0.0, 1.0)
    kind = draw(st.sampled_from(["uniform", "duplicates", "line", "circle"]))
    if kind == "uniform":
        return [(draw(unit), draw(unit)) for _ in range(n)]
    if kind == "duplicates":
        sites = draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=3))
        return [draw(st.sampled_from(sites)) for _ in range(n)]
    if kind == "line":
        (x0, y0), (ux, uy) = draw(st.tuples(unit, unit)), draw(st.tuples(unit, unit))
        return [(x0 + t * ux, y0 + t * uy) for t in draw(st.lists(unit, min_size=n, max_size=n))]
    cx, cy, rad = draw(unit), draw(unit), draw(st.floats(0.0, 0.5))
    angles = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n))
    return [(cx + rad * math.cos(a), cy + rad * math.sin(a)) for a in angles]


@settings(max_examples=300, deadline=None)
@given(points=point_sets())
def test_max_pairwise_equals_all_pairs_scan(points):
    """Pruning drops no end of the farthest pair: the result is exact, not close."""
    pts = np.array(points, dtype=np.float64).reshape(-1, 2)
    assert max_pairwise(pts) == all_pairs_max(pts)


@pytest.mark.parametrize("shape", ["collinear", "circle"])
def test_max_pairwise_memory_stays_linear(shape):
    """3,000 collinear points (no hull) or points on a circle (nothing to
    prune) stay under a 16 MiB peak; a dense n x n scan needs about 275 MiB."""
    t = np.linspace(0.0, 1.0, 3000)
    if shape == "collinear":
        pts = np.column_stack([t, 0.5 * t])
    else:
        pts = np.column_stack([0.5 + 0.5 * np.cos(2 * np.pi * t), 0.5 + 0.5 * np.sin(2 * np.pi * t)])
    tracemalloc.start()
    try:
        got = max_pairwise(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert got == pytest.approx(math.hypot(1.0, 0.5) if shape == "collinear" else 1.0)


def pairs_by_scan(points, r):
    """Every pair u < v with dx*dx + dy*dy <= r*r, by a dense all-pairs scan."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    u, v = np.triu_indices(len(pts), 1)
    with np.errstate(over="ignore"):
        d = pts[u] - pts[v]
        keep = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= r * r
    return sorted(zip(u[keep].tolist(), v[keep].tolist()))


# Binary exponents, drawn uniformly (st.integers favours small ones).
EXPONENTS = range(0, 998, 11)
ONE_IN_FOUR = st.sampled_from([False, False, False, True])


@st.composite
def disk_inputs(draw):
    """Up to 200 points and a radius up to sqrt 2: lattices r apart (ties
    on the rule) or r(1 + 1e-9) apart (on cell boundaries), free points
    and duplicates, all shrunk with r by down to about 1e-300 (where r*r
    underflows); a quarter of the time the points alone scaled by about
    1e-300 to 1e300, and a quarter of the time points at the ends of the
    doubles."""
    r = draw(st.one_of(st.sampled_from([0.125, 0.25, 0.5, 1.0, MAX_RADIUS]),
                       st.floats(1e-3, MAX_RADIUS)))
    step = draw(st.sampled_from([r, r * (1.0 + 1e-9)]))
    size = draw(st.sampled_from([3, 50, 200]))
    # 5 x 5 sites and the free points span about 5 steps, so from 25
    # points on the cells are r wide.
    sites = draw(st.lists(st.integers(0, 24), min_size=size // 4, max_size=size // 2))
    free = draw(st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)),
                         min_size=size // 4, max_size=size // 2))
    points = ([[(k // 5 - 2) * step, (k % 5 - 2) * step] for k in sites]
              + [[x * step, y * step] for x, y in free + free[:2]])
    shrink = 2.0 ** -draw(st.sampled_from(EXPONENTS))
    pts, r = np.array(points, dtype=np.float64).reshape(-1, 2) * shrink, r * shrink
    if draw(ONE_IN_FOUR):
        pts *= 2.0 ** (draw(st.sampled_from(EXPONENTS)) * draw(st.sampled_from([-1, 1])))
    if draw(ONE_IN_FOUR):
        far = st.sampled_from([-1.7e308, 0.0, 1.7e308])
        pts = np.concatenate((pts, draw(st.lists(st.tuples(far, far), min_size=1, max_size=3))))
    return pts, r


@settings(max_examples=200, deadline=None)
@given(case=disk_inputs())
def test_unit_disk_pairs_equal_all_pairs_scan(case):
    """The grid finds exactly the pairs the squared rule accepts, overflow
    and underflow included, and warns about neither."""
    points, r = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = geom_graph._unit_disk_pairs(points, r)
    assert (pairs[:, 0] < pairs[:, 1]).all()
    assert sorted(map(tuple, pairs.tolist())) == pairs_by_scan(points, r)


def adjacency_lists(n, edges):
    """Each node's neighbours over an edge list, in the order the edges
    list them; sorted rows when the edges are sorted pairs u < v."""
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return adjacency


@st.composite
def labelled_graphs(draw):
    """Nodes split into parts, each a path or a star over shuffled labels,
    plus random extra edges, in either orientation and any order."""
    n = draw(st.integers(1, 80))
    labels = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.lists(st.integers(1, n), max_size=3)))
    edges = []
    for a, b in zip([0] + cuts, cuts + [n]):
        part = labels[a:b]
        if draw(st.booleans()):
            edges += zip(part, part[1:])
        else:
            edges += [(part[0], v) for v in part[1:]]
    node = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=6))
    edges = [e if draw(st.booleans()) else e[::-1] for e in draw(st.permutations(edges))]
    return n, np.array(edges, dtype=np.intp).reshape(-1, 2)


@settings(max_examples=200, deadline=None)
@given(graph=labelled_graphs())
@example(graph=(4, np.array([[0, 1], [1, 2], [0, 2]])))  # the last node alone
def test_connected_equals_breadth_first_search(graph):
    n, edges = graph
    assert geom_graph._connected(n, edges) == reaches_all(adjacency_lists(n, edges.tolist()))


def test_unit_disk_pairs_memory_stays_linear():
    """Two 38 x 38 lattices at opposite corners of one cell: every pair is
    a candidate (about 4.2 million) but only lattice neighbours are edges.
    Testing the candidates in chunks keeps the peak under 16 MiB; testing
    them all at once needs about 160 MiB."""
    side = np.arange(38) * 5e-5
    lattice = np.column_stack([np.repeat(side, 38), np.tile(side, 38)])
    corner = 0.0185 - side[-1]  # 2,890 points of unit extent: cells are 1/53 wide
    pts = np.concatenate((lattice, corner + lattice, [[1.0, 1.0], [1.0, 0.0]]))
    tracemalloc.start()
    try:
        pairs = geom_graph._unit_disk_pairs(pts, 6e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert len(pairs) == 2 * 2 * 38 * 37


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        GraphGenConfig(n=1, r=0.5)
    with pytest.raises(ValueError):
        GraphGenConfig(n=10, r=0.0)


def test_json_round_trip_bit_exact(tmp_path):
    net = generate_network(GraphGenConfig(n=120, r=0.15, seed=77))
    path = tmp_path / "net.json"
    save_network(net, path)
    back = load_network(path)
    assert back.n == net.n
    assert back.radius == net.radius
    assert back.seed == net.seed
    assert np.array_equal(back.positions, net.positions)
    assert back.adjacency == net.adjacency


def test_json_edges_consistent_with_positions(tmp_path):
    """Stored edge list must equal what the stored coordinates regenerate."""
    net = generate_network(GraphGenConfig(n=90, r=0.18, seed=5))
    data = to_json_dict(net)
    rebuilt = network_from_positions(data["positions"], data["r"])
    assert rebuilt.adjacency == from_json_dict(data).adjacency


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        from_json_dict({"n": 3, "r": 0.5, "seed": 0,
                        "positions": [[0.1, 0.1], [0.2, 0.2]], "edges": []})
    with pytest.raises(ValueError):
        from_json_dict({"n": 2, "r": 0.5, "seed": 0,
                        "positions": [[0.1, 0.1], [0.2, 0.2]], "edges": [[0, 2]]})


def test_network_from_positions_validates_shape():
    with pytest.raises(ValueError):
        network_from_positions([[0.1, 0.2, 0.3]], r=0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            network_from_positions([[0.1, 0.2], [bad, 0.3]], r=0.5)


def reaches_all(adjacency):
    """Breadth-first search from node 0."""
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [v for u in frontier for v in adjacency[u] if v not in seen]
        seen.update(frontier)
    return len(seen) == len(adjacency)


def y_ranks(positions):
    """Each node's place in the (y, id) order of the points."""
    order = sorted(range(len(positions)), key=lambda u: (positions[u][1], u))
    rank = [0] * len(order)
    for i, u in enumerate(order):
        rank[u] = i
    return rank


def bitsets(adjacency, rank):
    """Row v as an int with bit rank[u] set for each neighbour u."""
    return [sum(1 << rank[u] for u in row) for row in adjacency]


def test_bit_rank_ties_keep_id_order():
    # Crossing nodes 0-4 share y = 0.5; 7, 6 and 5 sit above them in that order.
    net = H.crossing_network()
    assert net.bit_rank.tolist() == [0, 1, 2, 3, 4, 7, 6, 5]
    assert net.neighbor_bits == bitsets(net.adjacency, net.bit_rank.tolist())
    # Node 2's neighbours 1, 3 and 7 sit at bits 1, 3 and 5.
    assert net.neighbor_bits[2] == 0b101010


@pytest.mark.parametrize("n", [300, 513])
def test_neighbor_bits_across_row_blocks(n):
    # The bitsets are packed 256 rows at a time; n=300 ends in a partial
    # second block and n=513 in a one-row third block.
    net = network_from_positions(np.random.default_rng(n).random((n, 2)), 0.15)
    adjacency = adjacency_lists(n, pairs_by_scan(net.positions, net.radius))
    assert all(adjacency[v] for v in (0, 255, 256, 257, n - 1))
    assert net.adjacency == adjacency
    rank = y_ranks(net.positions.tolist())
    assert net.bit_rank.tolist() == rank
    assert net.neighbor_bits == bitsets(adjacency, rank)
    # CPython caches only ints up to 256, so larger ids check the sharing.
    assert len({id(v) for row in net.adjacency for v in row}) <= n


# Points on a 1/8 grid are binary-exact, so at r = k/8 some distances equal r
# exactly; duplicated points are at distance 0.
GRID_POINT = st.tuples(st.integers(0, 8), st.integers(0, 8)).map(lambda p: [p[0] / 8, p[1] / 8])
FREE_POINT = st.tuples(st.floats(0, 1), st.floats(0, 1)).map(list)


@st.composite
def placements(draw):
    points = draw(st.lists(st.one_of(GRID_POINT, FREE_POINT), min_size=1, max_size=36))
    points += [points[i] for i in draw(st.lists(st.integers(0, len(points) - 1), max_size=4))]
    r = draw(st.one_of(st.sampled_from((0.125, 0.25, 0.375, 0.5)), st.floats(0.01, 1.6)))
    return points, r


@settings(max_examples=60, deadline=None)
@given(placement=placements(), seed=st.integers(0, 2**31))
def test_csr_views_match_oracles(placement, seed):
    points, r = placement
    net = network_from_positions(points, r, seed)
    pairs = pairs_by_scan(net.positions, net.radius)
    assert list(map(tuple, net.edges().tolist())) == pairs
    assert net.m == len(pairs)
    adjacency = adjacency_lists(net.n, pairs)
    assert net.adjacency == adjacency
    assert len({id(v) for row in net.adjacency for v in row}) <= net.n
    rank = y_ranks(net.positions.tolist())
    assert net.bit_rank.tolist() == rank
    assert net.neighbor_bits == bitsets(adjacency, rank)
    assert is_connected(net) == reaches_all(adjacency)
    data = json.loads(json.dumps(to_json_dict(net)))
    if not is_connected(net):
        with pytest.raises(ValueError, match="not connected"):
            from_json_dict(data)
        return
    back = from_json_dict(data)
    assert np.array_equal(back.positions, net.positions)
    assert np.array_equal(back.indptr, net.indptr)
    assert np.array_equal(back.indices, net.indices)
    assert (back.radius, back.seed) == (net.radius, net.seed)
