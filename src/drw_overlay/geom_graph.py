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
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np
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
    """Immutable unit disk graph: positions, symmetric sorted adjacency, radius.

    Instances are safe to share across workers; nothing mutates them after
    construction. `attempts` records how many placements the generator tried
    (1 for hand-built networks).
    """

    positions: np.ndarray
    adjacency: list[list[int]]
    radius: float
    seed: int = 0
    attempts: int = field(default=1, compare=False)

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    @cached_property
    def span(self) -> float:
        """Diameter of the node placement, computed on first use."""
        return max_pairwise(self.positions)

    @cached_property
    def neighbor_table(self) -> np.ndarray:
        """Adjacency padded to a rectangle, built on first use.

        An int32 array of shape (n+1, max degree): row v lists N(v) in
        order and fills the rest with the sentinel n; row n is all sentinel.
        Indexing a bool mask of length n+1 whose slot n is False with rows
        of this table counts marked neighbours without a Python loop.
        """
        n = self.n
        deg = np.fromiter(map(len, self.adjacency), dtype=np.intp, count=n)
        table = np.full((n + 1, int(deg.max(initial=0))), n, dtype=np.int32)
        starts = np.repeat(np.cumsum(deg) - deg, deg)
        cols = np.arange(len(starts)) - starts
        table[np.repeat(np.arange(n), deg), cols] = np.fromiter(
            chain.from_iterable(self.adjacency), dtype=np.int32, count=len(starts))
        return table

    def neighbors(self, v: int) -> list[int]:
        """Sorted neighbor ids of v. Raises UnknownNode for ids outside the graph."""
        if not 0 <= v < self.n:
            raise UnknownNode(f"node {v} not in 0..{self.n - 1}")
        return self.adjacency[v]

    def edges(self):
        """Yield each undirected edge once as (u, v) with u < v."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)


def _adjacency_from_positions(positions: np.ndarray, r: float) -> list[list[int]]:
    n = len(positions)
    adj: list[list[int]] = [[] for _ in range(n)]
    if n < 2:
        return adj
    # KDTree prunes candidate pairs; the slightly inflated query radius makes
    # the candidate set a superset, then the exact squared rule decides.
    tree = cKDTree(positions)
    pairs = tree.query_pairs(r * (1.0 + 1e-9), output_type="ndarray")
    if len(pairs):
        dx = positions[pairs[:, 0], 0] - positions[pairs[:, 1], 0]
        dy = positions[pairs[:, 0], 1] - positions[pairs[:, 1], 1]
        keep = (dx * dx + dy * dy) <= r * r
        for u, v in pairs[keep]:
            adj[u].append(int(v))
            adj[v].append(int(u))
    for lst in adj:
        lst.sort()
    return adj


def _reaches_all(adjacency: list[list[int]]) -> bool:
    n = len(adjacency)
    if n == 0:
        return True
    seen = bytearray(n)
    seen[0] = 1
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                queue.append(v)
    return count == n


def network_from_positions(positions, r: float, seed: int = 0) -> Network:
    """Build a Network (possibly disconnected) from explicit coordinates."""
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError(f"positions must have shape (n, 2), got {pos.shape}")
    r = min(float(r), MAX_RADIUS)
    return Network(pos, _adjacency_from_positions(pos, r), r, seed)


def generate_network(cfg: GraphGenConfig) -> Network:
    """Generate a connected unit disk graph, rejection-sampling placements.

    Attempt k draws its positions from a sub-stream derived from (seed, k),
    so a fixed config reproduces positions and adjacency bit-exactly.
    """
    for attempt in range(cfg.max_attempts):
        gen = stream(cfg.seed, "placement", attempt)
        positions = gen.random((cfg.n, 2))
        adjacency = _adjacency_from_positions(positions, cfg.r)
        if _reaches_all(adjacency):
            return Network(positions, adjacency, cfg.r, cfg.seed, attempts=attempt + 1)
    raise NotConnected(cfg.max_attempts)


def is_connected(net: Network) -> bool:
    """True iff every node is reachable from node 0."""
    return _reaches_all(net.adjacency)


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
        "positions": [[float(x), float(y)] for x, y in net.positions],
        "edges": [[u, v] for u, v in net.edges()],
    }


_JSON_KEYS = ("n", "r", "seed", "positions", "edges")


def from_json_dict(data: dict) -> Network:
    """Inverse of to_json_dict. Raises ValueError on malformed input.

    The edge list must be exactly the unit-disk graph of the stored
    positions and radius, so duplicate edges, self-loops and edges longer
    than r are rejected rather than loaded, and that graph must be
    connected, as every generated network is.
    """
    if not isinstance(data, dict):
        raise ValueError("network JSON must be an object")
    missing = [k for k in _JSON_KEYS if k not in data]
    if missing:
        raise ValueError(f"network JSON lacks {', '.join(missing)}")
    positions = np.asarray(data["positions"], dtype=np.float64)
    n = int(data["n"])
    r = float(data["r"])
    if positions.shape != (n, 2):
        raise ValueError(f"positions shape {positions.shape} does not match n={n}")
    if not r > 0:
        raise ValueError(f"r must be positive, got {r!r}")
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in data["edges"]:
        if not (0 <= u < n and 0 <= v < n and u != v):
            raise ValueError(f"bad edge [{u}, {v}]")
        adjacency[u].append(int(v))
        adjacency[v].append(int(u))
    for lst in adjacency:
        lst.sort()
    if adjacency != _adjacency_from_positions(positions, r):
        raise ValueError(f"edges are not the unit disk graph of the positions at r={r!r}")
    if not _reaches_all(adjacency):
        raise ValueError("network is not connected")
    return Network(positions, adjacency, r, int(data["seed"]))


def save_network(net: Network, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(net), fh)
        fh.write("\n")


def load_network(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))
