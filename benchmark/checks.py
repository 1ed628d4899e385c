"""Output checks computed apart from the program's own code.

Every function here takes plain data (coordinates, adjacency lists, a
finished layer's attributes, CSV files) and returns a list of problems; an
empty list means the output passed. Nothing in this module imports or calls
``drw_overlay``: adjacency and distances are evaluated by brute force with
numpy, connectivity by ``scipy.sparse.csgraph``, and quartiles by
``numpy.percentile``.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import Counter
from itertools import chain

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

# Row blocks keep each brute-force temporary near 256 KB, so checks made
# between timed builds do not lift the process's peak resident memory.
_BLOCK_ELEMS = 1 << 15

SUMMARY_METRICS = ("active_path_size", "depth", "total_steps", "total_backtracks")
DEPTH_TOLERANCE = 1e-12


def _row_blocks(rows: int, cols: int):
    size = max(1, _BLOCK_ELEMS // max(cols, 1))
    for i0 in range(0, rows, size):
        yield i0, min(rows, i0 + size)


def max_distance(points: np.ndarray) -> float:
    """Largest Euclidean distance over all pairs of points (0 for < 2 points)."""
    best = 0.0
    for i0, i1 in _row_blocks(len(points), len(points)):
        dx = points[i0:i1, 0, None] - points[None, i0:, 0]
        dy = points[i0:i1, 1, None] - points[None, i0:, 1]
        best = max(best, float((dx * dx + dy * dy).max()))
    return math.sqrt(best)


def check_network(positions: np.ndarray, adjacency: list[list[int]], r: float) -> list[str]:
    """Adjacency equals the unit disk rule dx*dx + dy*dy <= r*r tested on all
    pairs, row block by row block, and the graph is connected."""
    n = len(adjacency)
    if positions.shape != (n, 2):
        return [f"positions shape {positions.shape} for {n} adjacency lists"]
    problems = []
    x, y = positions[:, 0], positions[:, 1]
    rr = r * r
    lengths = np.fromiter(map(len, adjacency), dtype=np.int64, count=n)
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    indices = np.fromiter(chain.from_iterable(adjacency), dtype=np.int32, count=int(indptr[-1]))
    differ = 0
    for i0, i1 in _row_blocks(n, n):
        dx = x[i0:i1, None] - x[None, :]
        dy = y[i0:i1, None] - y[None, :]
        hit = dx * dx + dy * dy <= rr
        hit[np.arange(i1 - i0), np.arange(i0, i1)] = False
        rows, cols = np.nonzero(hit)
        have = np.sort(np.repeat(np.arange(i1 - i0), lengths[i0:i1]) * n
                       + indices[indptr[i0]:indptr[i1]])
        differ += not np.array_equal(rows * n + cols, have)
    if differ:
        problems.append(f"adjacency differs from brute force in {differ} row blocks")
    graph = csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n))
    count = connected_components(graph, directed=False)[0]
    if count != 1:
        problems.append(f"network has {count} connected components")
    return problems


def check_layer(layer, positions: np.ndarray, r: float, span: float,
                initiator_count: int, size: int, depth: float) -> list[str]:
    """Structural and metric checks of one finished layer.

    ``layer`` needs ``walks`` (each with ``id``, ``path``, ``status``,
    ``steps`` and ``backtracks``), ``initiators``, ``active_path``,
    ``brokers`` and ``active_path_edges``. ``span`` is the brute-force
    largest distance over all nodes of the network; ``size`` and ``depth``
    are the values the program reported for the layer.
    """
    problems = []
    walks = layer.walks
    if len(walks) != initiator_count:
        problems.append(f"{len(walks)} walks for {initiator_count} initiators")
    starts = tuple(w.path[0] for w in walks)
    if starts != tuple(layer.initiators) or len(set(starts)) != len(starts):
        problems.append("walks do not start on distinct initiators in order")
    union: set[int] = set()
    on_paths: Counter = Counter()
    for w in walks:
        nodes = set(w.path)
        if w.status != "intersected":
            problems.append(f"walk {w.id} ended {w.status}")
        if len(nodes) != len(w.path):
            problems.append(f"walk {w.id} repeats a node")
        if w.steps != max(0, len(w.path) - 2) + w.backtracks:
            problems.append(f"walk {w.id}: {w.steps} steps for a path of "
                            f"{len(w.path)} and {w.backtracks} backtracks")
        union |= nodes
        on_paths.update(nodes)
    active = layer.active_path
    if active != union:
        problems.append(f"active path ({len(active)} nodes) is not the union of "
                        f"the walk paths ({len(union)} nodes)")
    if layer.brokers != {v for v, c in on_paths.items() if c >= 2}:
        problems.append("brokers are not the nodes on two or more walk paths")
    if size != len(active) or size < initiator_count:
        problems.append(f"active path size {size} for {len(active)} nodes "
                        f"and {initiator_count} initiators")

    nodes = np.array(sorted(active), dtype=np.int64)
    edges = np.array(sorted(layer.active_path_edges), dtype=np.int64).reshape(-1, 2)
    a, b = edges[:, 0], edges[:, 1]
    if not (np.isin(a, nodes).all() and np.isin(b, nodes).all()):
        problems.append("a traced edge leaves the active path")
        return problems
    dx = positions[a, 0] - positions[b, 0]
    dy = positions[a, 1] - positions[b, 1]
    bad = (a == b) | (dx * dx + dy * dy > r * r)
    if bad.any():
        problems.append(f"{int(bad.sum())} traced edges are not network edges")
    graph = csr_matrix((np.ones(len(a), dtype=np.int8),
                        (np.searchsorted(nodes, a), np.searchsorted(nodes, b))),
                       shape=(len(nodes), len(nodes)))
    count = connected_components(graph, directed=False)[0]
    if count != 1:
        problems.append(f"layer has {count} components over its traced edges")

    expected = max_distance(positions[nodes]) / span if span > 0 else 0.0
    if not (0.0 <= depth <= 1.0 and abs(depth - expected) <= DEPTH_TOLERANCE):
        problems.append(f"depth {depth!r}, brute force gives {expected!r}")
    return problems


def _data_rows(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(line for line in fh if not line.startswith("#")) if row]


def records_digest(path) -> tuple[str, int]:
    """sha256 and byte count of records.csv with each line cut to 11 fields.

    This drops the trailing ``wall_time_ms`` column, whose digits vary from
    run to run; the digest matches ``cut -d, -f1-11 records.csv | sha256sum``.
    """
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as fh:
        for line in fh:
            kept = b",".join(line.rstrip(b"\n").split(b",")[:11]) + b"\n"
            digest.update(kept)
            size += len(kept)
    return digest.hexdigest(), size


def check_sweep(records_path, summary_path, cells: dict[int, tuple[int, ...]],
                strategies: tuple[str, ...], replications: int) -> tuple[list[str], list[dict]]:
    """Check one sweep's CSV files against the grid it was asked to run.

    Returns the problems and the record rows as dicts of strings.
    """
    problems = []
    table = _data_rows(records_path)
    rows = [dict(zip(table[0], row)) for row in table[1:]]
    keys = Counter((int(row["n"]), row["strategy"], int(row["initiators"]), int(row["rep"]))
                   for row in rows)
    want = {(n, s, i, k) for n, counts in cells.items() for i in counts
            for s in strategies for k in range(replications)}
    if len(rows) != len(want) or set(keys) != want:
        problems.append(f"{len(rows)} record rows for {len(want)} grid points "
                        f"({len(set(keys) ^ want)} keys differ)")
    failed = sum(row["failed"] != "0" for row in rows)
    if failed:
        problems.append(f"{failed} record rows failed")
    for row in rows:
        if not (int(row["active_path_size"]) >= int(row["initiators"])
                and 0.0 <= float(row["depth"]) <= 1.0):
            problems.append(f"record row out of range: {row}")
            break

    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        if row["failed"] == "0":
            groups.setdefault((row["n"], row["strategy"], row["initiators"]), []).append(row)
    summary = _data_rows(summary_path)
    seen = set()
    for row in summary[1:]:
        entry = dict(zip(summary[0], row))
        group = (entry["n"], entry["strategy"], entry["initiators"])
        metric = entry["metric"]
        seen.add(group + (metric,))
        values = np.array([float(r[metric]) for r in groups.get(group, ())])
        if values.size == 0:
            problems.append(f"summary row for unknown group {group}")
            continue
        want_q = np.percentile(values, [0.0, 25.0, 50.0, 75.0, 100.0])
        got_q = [float(entry[k]) for k in ("min", "q1", "median", "q3", "max")]
        if int(entry["count"]) != values.size or np.abs(want_q - got_q).max() > 1e-6:
            problems.append(f"summary {group} {metric}: {got_q} v numpy {want_q.tolist()}")
    missing = {g + (m,) for g in groups for m in SUMMARY_METRICS} - seen
    if missing:
        problems.append(f"summary lacks {len(missing)} group/metric rows")
    return problems, rows
