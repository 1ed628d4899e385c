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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .rng import stream

MAX_RADIUS = math.sqrt(2.0)

# Hull computation needs at least a handful of points to pay off.
_HULL_CUTOFF = 16


class NotConnected(RuntimeError):
    """No connected placement found within the attempt cap (n/r too sparse)."""

    def __init__(self, attempts: int):
        super().__init__(
            f"no connected placement after {attempts} attempts; "
            "increase the radius, the node count or max_attempts"
        )
        self.attempts = attempts


class UnknownNode(IndexError):
    """Node id outside 0..n-1."""


@dataclass
class GraphGenConfig:
    """Parameters for one network generation."""

    n: int
    r: float
    seed: int = 0
    max_attempts: int = 1000

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not self.r > 0:
            raise ValueError(f"r must be positive, got {self.r}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        # Anything above the unit-square diagonal is equivalent to sqrt(2).
        if self.r > MAX_RADIUS:
            self.r = MAX_RADIUS


@dataclass(frozen=True)
class Network:
    """Immutable unit disk graph: positions, radius and a CSR adjacency.

    Row v of the graph is ``indices[indptr[v]:indptr[v + 1]]`` (both int32),
    sorted ascending. Every other form of the graph is a view derived from
    these two arrays on first use. Instances are safe to share across
    workers; nothing mutates them after construction. `attempts` records how
    many placements the generator tried (1 for hand-built networks).
    """

    positions: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    radius: float
    seed: int = 0
    attempts: int = field(default=1, compare=False)

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
        """The rows as Python lists, built on first use.

        The step loop scans a head's candidates in a list, which is faster
        than slicing the CSR arrays on every step.
        """
        flat, bounds = self.indices.tolist(), self.indptr.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    @cached_property
    def neighbor_table(self) -> np.ndarray:
        """Adjacency padded to a rectangle, built on first use.

        An int32 array of shape (n+1, max degree): row v lists N(v) in
        order and fills the rest with the sentinel n; row n is all sentinel.
        Indexing a bool mask of length n+1 whose slot n is False with rows
        of this table counts marked neighbours without a Python loop.
        """
        n = self.n
        deg = np.diff(self.indptr)
        table = np.full((n + 1, int(deg.max(initial=0))), n, dtype=np.int32)
        cols = np.arange(len(self.indices)) - np.repeat(self.indptr[:-1], deg)
        table[np.repeat(np.arange(n), deg), cols] = self.indices
        return table

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
    """Pairs (u, v), u < v, with dx*dx + dy*dy <= r*r, as a (k, 2) array."""
    # KDTree prunes candidate pairs; the slightly inflated query radius makes
    # the candidate set a superset, then the exact squared rule decides.
    pairs = cKDTree(positions).query_pairs(r * (1.0 + 1e-9), output_type="ndarray")
    d = positions[pairs[:, 0]] - positions[pairs[:, 1]]
    return pairs[d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= r * r]


def _connected(n: int, pairs: np.ndarray) -> bool:
    """True iff the graph on nodes 0..n-1 with these edges has at most one component."""
    graph = coo_matrix((np.ones(len(pairs), dtype=np.int8), (pairs[:, 0], pairs[:, 1])),
                       shape=(n, n))
    return connected_components(graph, directed=False, return_labels=False) <= 1


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
    r = min(float(r), MAX_RADIUS)
    return _network(pos, _unit_disk_pairs(pos, r), r, seed)


def generate_network(cfg: GraphGenConfig) -> Network:
    """Generate a connected unit disk graph, rejection-sampling placements.

    Attempt k draws its positions from a sub-stream derived from (seed, k),
    so a fixed config reproduces positions and adjacency bit-exactly. A
    rejected placement costs its pair search and one connectivity test.
    """
    for attempt in range(cfg.max_attempts):
        gen = stream(cfg.seed, "placement", attempt)
        positions = gen.random((cfg.n, 2))
        pairs = _unit_disk_pairs(positions, cfg.r)
        if _connected(cfg.n, pairs):
            return _network(positions, pairs, cfg.r, cfg.seed, attempts=attempt + 1)
    raise NotConnected(cfg.max_attempts)


def is_connected(net: Network) -> bool:
    """True iff every node is reachable from node 0."""
    return _connected(net.n, net.edges())


def max_pairwise(positions: np.ndarray) -> float:
    """Maximum Euclidean distance over all point pairs (0 for < 2 points).

    The maximum is attained on the convex hull, so for larger sets only hull
    vertices are compared; degenerate inputs (collinear etc.) fall back to
    the full pairwise scan.
    """
    pts = np.asarray(positions, dtype=np.float64)
    if len(pts) < 2:
        return 0.0
    if len(pts) > _HULL_CUTOFF:
        try:
            pts = pts[ConvexHull(pts).vertices]
        except QhullError:
            pass
    dx = pts[:, 0:1] - pts[:, 0:1].T
    dy = pts[:, 1:2] - pts[:, 1:2].T
    return float(np.sqrt(np.max(dx * dx + dy * dy)))


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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

    `n` and `seed` must be integers, `r` a finite number > 0 (clamped to
    sqrt 2), positions finite numbers and edges integer pairs. The edge list
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
    n, r, seed = data["n"], data["r"], data["seed"]
    if not (_is_int(n) and n > 0):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not _is_int(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not (isinstance(r, (int, float)) and not isinstance(r, bool) and 0 < r < math.inf):
        raise ValueError(f"r must be a finite number > 0, got {r!r}")
    positions = _json_pairs(data["positions"], "if")
    if positions is None or len(positions) != n or not np.isfinite(positions).all():
        raise ValueError(f"positions must be {n} [x, y] pairs of finite numbers")
    edges = _json_pairs(data["edges"], "i")
    if edges is None:
        raise ValueError("edges must be [u, v] pairs of integers")
    net = network_from_positions(positions, r, seed)
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
        return from_json_dict(json.load(fh))
