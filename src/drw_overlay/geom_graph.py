"""Connected random geometric (unit disk) networks on the unit square.

Nodes are points placed uniformly at random in [0,1]^2; two nodes are
adjacent exactly when their Euclidean distance is at most the communication
radius r (boundary inclusive, evaluated as dx*dx + dy*dy <= r*r in IEEE
doubles so adjacency is reproducible from serialized coordinates).
Generation rejection-samples whole placements until the graph is connected,
which preserves the uniform placement distribution conditioned on
connectivity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from .rng import stream

MAX_RADIUS = math.sqrt(2.0)

# Rows per block when max_pairwise scans the pairs of the points it keeps.
_PAIR_ROWS = 64

# Rows per dense block when packing the neighbour bitsets.
_BITS_ROWS = 256

# Candidate pairs the unit-disk search tests at once (more only when one
# point's range alone holds more).
_PAIR_CHUNK = 1 << 15

# Below this radius r*r is subnormal, and a pair can pass the squared rule
# at a distance above r; cells are never narrower than this.
_MIN_CELL = 2.0 ** -510

# Placements generate_network tries before it gives up.
MAX_ATTEMPTS = 1000


class NotConnected(RuntimeError):
    """No connected placement in MAX_ATTEMPTS tries (n/r too sparse)."""

    def __init__(self, attempts: int):
        super().__init__(
            f"no connected placement after {attempts} attempts; "
            "increase the radius or the node count"
        )
        self.attempts = attempts


class UnknownNode(IndexError):
    """Node id outside 0..n-1."""


def check_int(value, name: str, low: int | None = None) -> int:
    """value as an int. Raises ValueError unless it is an integer, not a
    bool (numpy integers pass), and at least `low` when one is given."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def check_radius(r) -> float:
    """r as a float clamped to sqrt 2, the unit-square diagonal. Raises
    ValueError unless r is a real number, not a bool, whose float is finite
    and > 0: an r too large for a float counts as not finite, and one whose
    float rounds to 0.0 as not > 0."""
    value = math.nan
    if isinstance(r, Real) and not isinstance(r, bool):
        try:
            value = float(r)
        except OverflowError:
            value = math.inf
    if not 0 < value < math.inf:
        raise ValueError(f"r must be a finite number > 0, got {r!r}")
    return min(value, MAX_RADIUS)


@dataclass
class GraphGenConfig:
    """Parameters for one network generation: n >= 2 nodes and the
    placement seed through check_int, radius r through check_radius."""

    n: int
    r: float
    seed: int = 0

    def __post_init__(self):
        self.n = check_int(self.n, "n", 2)
        self.r = check_radius(self.r)
        self.seed = check_int(self.seed, "seed")


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable unit disk graph: positions, radius and a CSR adjacency.

    Row v is ``indices[indptr[v]:indptr[v + 1]]`` (both int32), sorted
    ascending; the properties below are views of it, built on first use.
    `attempts` records how many placements the generator tried (1 for
    hand-built networks). Networks compare and hash by identity.
    """

    positions: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    radius: float
    seed: int = 0
    attempts: int = 1

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def m(self) -> int:
        return len(self.indices) // 2

    @cached_property
    def span(self) -> float:
        """Diameter of the node placement, computed on first use."""
        return max_pairwise(self.positions)

    @cached_property
    def adjacency(self) -> list[list[int]]:
        """The rows as Python lists, one shared int object per node id."""
        flat = np.array(range(self.n), dtype=object)[self.indices].tolist()
        bounds = self.indptr.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    @cached_property
    def bit_rank(self) -> np.ndarray:
        """Each node's rank by y coordinate, ties in id order: node u stands
        for bit ``bit_rank[u]`` in ``neighbor_bits`` and in a walk's marks."""
        rank = np.empty(self.n, dtype=np.intp)
        rank[np.argsort(self.positions[:, 1], kind="stable")] = np.arange(self.n)
        return rank

    @cached_property
    def neighbor_bits(self) -> list[int]:
        """Each N(v) as a Python int bitset: bit ``bit_rank[u]`` of entry v
        is set iff u is a neighbour of v. Rows are packed _BITS_ROWS at a
        time, so the n x n matrix is never held whole."""
        n, indptr, indices, rank = self.n, self.indptr, self.indices, self.bit_rank
        bits: list[int] = []
        for lo in range(0, n, _BITS_ROWS):
            hi = min(lo + _BITS_ROWS, n)
            block = np.zeros((hi - lo, n), dtype=bool)
            rows = np.repeat(np.arange(hi - lo), np.diff(indptr[lo:hi + 1]))
            block[rows, rank[indices[indptr[lo]:indptr[hi]]]] = True
            packed = np.packbits(block, axis=1, bitorder="little")
            bits.extend(int.from_bytes(row, "little") for row in packed)
        return bits

    @cached_property
    def low_rank(self) -> list[int]:
        """Each row's lowest set bit in ``neighbor_bits``: the least
        ``bit_rank`` over N(v), or 0 for an empty row."""
        low = np.zeros(self.n, dtype=np.intp)
        # reduceat gives an empty segment the element at its start, so
        # empty rows are left out of the starts.
        full = np.flatnonzero(np.diff(self.indptr))
        low[full] = np.minimum.reduceat(self.bit_rank[self.indices], self.indptr[full])
        return low.tolist()

    @cached_property
    def two_rings(self) -> list[tuple[int, int] | None]:
        """A memo of each node's two-hop ring: entry v is None until
        ``walk_engine._mark_two_rings`` first marks v, then ``(ring >> low,
        low)``, where ring is the OR of ``neighbor_bits[u]`` over u in N(v)
        and low its lowest set bit (0 for an isolated v). An entry, once
        made, never changes."""
        return [None] * self.n

    def neighbors(self, v: int) -> list[int]:
        """Sorted neighbor ids of v. Raises UnknownNode for ids outside the graph."""
        if not 0 <= v < self.n:
            raise UnknownNode(f"node {v} not in 0..{self.n - 1}")
        return self.adjacency[v]

    def edges(self) -> np.ndarray:
        """Each undirected edge once, as the sorted rows (u, v) with u < v."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        keep = rows < self.indices
        return np.column_stack((rows[keep], self.indices[keep]))


def _unit_disk_pairs(positions: np.ndarray, r: float) -> np.ndarray:
    """Pairs (u, v), u < v, with dx*dx + dy*dy <= r*r, as a (k, 2) array.

    A pair that passes the rule lies in one cell or two touching cells of
    a square grid whose cells are a little wider than r (and no more than
    about sqrt(n) to an axis, so the grid stays O(n)). With the points
    sorted by cell, row by row and one empty cell past each row, a point's
    candidates are the later points of its own cell and the next one, and
    the three cells above: two contiguous ranges of the sorted order. The
    candidates are tested _PAIR_CHUNK at a time, so memory stays linear in
    the pairs found even when many points share a cell. A difference or
    square that overflows is inf, which fails the rule, as it should.
    """
    n = len(positions)
    if n < 2:
        return np.empty((0, 2), dtype=np.intp)
    # Cell indices from halved coordinates: hi/2 - lo/2 cannot overflow.
    half = positions * 0.5
    low = half.min(axis=0)
    width = max(0.5 * max(r, _MIN_CELL) * (1.0 + 1e-9),
                float((half.max(axis=0) - low).max()) / math.isqrt(n))
    cx, cy = ((half - low) / width).astype(np.intp).T
    cols = int(cx.max()) + 2  # the spare column keeps a row's last cell from wrapping
    cell = cy * cols + cx
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    starts = np.zeros(cols * (int(cy.max()) + 2) + 1, dtype=np.intp)
    np.cumsum(np.bincount(cell, minlength=len(starts) - 1), out=starts[1:])
    # Range p < n runs from point p to the end of the next cell, range
    # n + p over the three cells above point p's cell.
    first = np.concatenate((np.arange(1, n + 1), starts[cell + cols - 1]))
    count = np.concatenate((starts[cell + 2], starts[cell + cols + 2])) - first
    ends = np.cumsum(count)
    x, y = positions[order].T.copy()  # contiguous columns gather faster
    r2 = r * r
    found = []
    lo = 0
    while lo < 2 * n:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - count[lo] + _PAIR_CHUNK, "right")))
        c = count[lo:hi]
        i = np.repeat(np.arange(lo, hi) % n, c)
        j = np.repeat(first[lo:hi] - (np.cumsum(c) - c), c)
        j += np.arange(len(j))
        with np.errstate(over="ignore"):
            dx = x[i]
            dx -= x[j]
            dx *= dx
            dy = y[i]
            dy -= y[j]
            dy *= dy
            dx += dy
        keep = np.flatnonzero(dx <= r2)
        found.append((i[keep], j[keep]))
        lo = hi
    u = order[np.concatenate([f[0] for f in found])]
    v = order[np.concatenate([f[1] for f in found])]
    return np.column_stack((np.minimum(u, v), np.maximum(u, v)))


def _connected(n: int, pairs: np.ndarray) -> bool:
    """True iff the graph on nodes 0..n-1 with these edges has at most one component.

    Each round hooks every root onto the smallest lower root it shares an
    edge with, then jumps pointers until every node points at a root. Edges
    whose ends share a root stay inside it, so each round keeps only the
    others; the graph is connected iff every node ends at root 0.
    """
    if len(pairs) < n - 1:
        return False
    root = np.arange(n)
    u, v = pairs[:, 0], pairs[:, 1]
    while len(u):
        ru, rv = root[u], root[v]
        split = ru != rv
        u, v, ru, rv = u[split], v[split], ru[split], rv[split]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    return bool((root == 0).all())


def _network(positions: np.ndarray, pairs: np.ndarray, r: float, seed: int,
             attempts: int = 1) -> Network:
    """The Network whose CSR rows hold both directions of every pair, sorted."""
    n = len(positions)
    u, v = pairs[:, 0], pairs[:, 1]
    key = np.sort(np.concatenate((u * n + v, v * n + u)))
    indptr = np.searchsorted(key, np.arange(n + 1) * n).astype(np.int32)
    indices = (key % n).astype(np.int32)
    return Network(positions, indptr, indices, r, seed, attempts)


def network_from_positions(positions, r: float, seed: int = 0) -> Network:
    """Build a Network (possibly disconnected) from explicit coordinates."""
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError(f"positions must have shape (n, 2), got {pos.shape}")
    if not np.isfinite(pos).all():
        raise ValueError("positions must be finite numbers")
    r = check_radius(r)
    return _network(pos, _unit_disk_pairs(pos, r), r, seed)


def generate_network(cfg: GraphGenConfig) -> Network:
    """Generate a connected unit disk graph, rejection-sampling placements.

    Attempt k draws its positions from a sub-stream derived from (seed, k),
    so a fixed config reproduces positions and adjacency bit-exactly. A
    rejected placement costs its pair search and, unless it has an isolated
    node (n >= 2, so such a graph is never connected), one connectivity
    test. Raises NotConnected after MAX_ATTEMPTS rejected placements.
    """
    for attempt in range(MAX_ATTEMPTS):
        gen = stream(cfg.seed, "placement", attempt)
        positions = gen.random((cfg.n, 2))
        pairs = _unit_disk_pairs(positions, cfg.r)
        if np.bincount(pairs.ravel(), minlength=cfg.n).all() and _connected(cfg.n, pairs):
            return _network(positions, pairs, cfg.r, cfg.seed, attempts=attempt + 1)
    raise NotConnected(MAX_ATTEMPTS)


def is_connected(net: Network) -> bool:
    """True iff every node is reachable from node 0."""
    return _connected(net.n, net.edges())


def _max_sq(x: np.ndarray, y: np.ndarray) -> float:
    """Largest dx*dx + dy*dy over all pairs of points (x, y), _PAIR_ROWS rows at a time."""
    best = 0.0
    for lo in range(0, len(x), _PAIR_ROWS):
        dx = x[lo:lo + _PAIR_ROWS, None] - x[lo:]
        dy = y[lo:lo + _PAIR_ROWS, None] - y[lo:]
        best = max(best, float((dx * dx + dy * dy).max()))
    return best


def max_pairwise(positions: np.ndarray) -> float:
    """Maximum Euclidean distance over all point pairs (0 for < 2 points).

    Exact: the square root of the largest dx*dx + dy*dy an all-pairs scan
    computes, bit for bit. The extreme points along x, y, x+y and x-y give
    a squared distance `lb` that some pair reaches. A point whose farthest
    corner of the bounding box, fx*fx + fy*fy, lies below `lb` cannot end
    the farthest pair: rounding is monotone in subtraction, squaring and
    addition, so that corner value bounds every computed distance the
    point takes part in. Only the points kept are scanned, in blocks of
    _PAIR_ROWS rows, so memory stays linear in the point count even when
    nothing can be dropped (all points on a circle).
    """
    pts = np.asarray(positions, dtype=np.float64)
    if len(pts) < 2:
        return 0.0
    x, y = pts.T.copy()  # contiguous columns: strided ones run several times slower
    s, t = x + y, x - y
    ends = [x.argmin(), x.argmax(), y.argmin(), y.argmax(),
            s.argmin(), s.argmax(), t.argmin(), t.argmax()]
    lb = _max_sq(x[ends], y[ends])
    fx = np.maximum(x - x[ends[0]], x[ends[1]] - x)
    fy = np.maximum(y - y[ends[2]], y[ends[3]] - y)
    keep = fx * fx + fy * fy >= lb
    return math.sqrt(_max_sq(x[keep], y[keep]))


def max_pairwise_distance(net: Network) -> float:
    """Diameter of the node placement (not the graph-hop diameter)."""
    return net.span


def to_json_dict(net: Network) -> dict:
    """JSON form: {"n", "r", "seed", "positions", "edges"} with u < v edges.

    Floats serialize via repr (shortest round-trip), so loading reproduces
    the exact coordinate doubles and therefore the exact adjacency.
    """
    return {
        "n": net.n,
        "r": net.radius,
        "seed": net.seed,
        "positions": net.positions.tolist(),
        "edges": net.edges().tolist(),
    }


_JSON_KEYS = ("n", "r", "seed", "positions", "edges")


def _json_pairs(value, kinds: str) -> np.ndarray | None:
    """A JSON list of pairs as a (k, 2) array whose dtype kind is in `kinds`, else None."""
    if value == []:
        return np.empty((0, 2), dtype=np.int64)
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        return None
    if arr.dtype.kind not in kinds or arr.ndim != 2 or arr.shape[1] != 2:
        return None
    # NumPy upcasts a JSON true/false mixed with numbers to 1 or 0.
    return None if any(type(x) is bool for pair in value for x in pair) else arr


def from_json_dict(data: dict) -> Network:
    """Inverse of to_json_dict. Raises ValueError on malformed input.

    `n`, `seed` and `r` follow GraphGenConfig's rules except that n >= 1;
    positions must be finite numbers and edges integer pairs. The edge list
    must be exactly the unit-disk graph of the stored positions and radius,
    in either orientation and any order, so duplicate edges, self-loops and
    edges longer than r are rejected rather than loaded, and that graph must
    be connected, as every generated network is.
    """
    if not isinstance(data, dict):
        raise ValueError("network JSON must be an object")
    missing = [k for k in _JSON_KEYS if k not in data]
    if missing:
        raise ValueError(f"network JSON lacks {', '.join(missing)}")
    n, seed = check_int(data["n"], "n", 1), check_int(data["seed"], "seed")
    positions = _json_pairs(data["positions"], "if")
    if positions is None or len(positions) != n or not np.isfinite(positions).all():
        raise ValueError(f"positions must be {n} [x, y] pairs of finite numbers")
    edges = _json_pairs(data["edges"], "i")
    if edges is None:
        raise ValueError("edges must be [u, v] pairs of integers")
    net = network_from_positions(positions, data["r"], seed)  # checks r
    given = np.sort(edges, axis=1)
    if not np.array_equal(given[np.lexsort(given.T[::-1])], net.edges()):
        raise ValueError(f"edges are not the unit disk graph of the positions at r={net.radius!r}")
    if not is_connected(net):
        raise ValueError("network is not connected")
    return net


def save_network(net: Network, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(net), fh)
        fh.write("\n")


def load_network(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("network JSON is nested too deeply") from None
    return from_json_dict(data)
