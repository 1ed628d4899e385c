"""Layer metrics: active-path size, normalized depth, box-plot summaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom_graph import Network, max_pairwise, max_pairwise_distance
from .overlay import OverlayResult


class EmptyOverlay(ValueError):
    """Metric asked of a layer with no recruited nodes."""


class EmptySample(ValueError):
    """Box statistics asked of an empty sample."""


def active_path_size(result: OverlayResult) -> int:
    """Number of distinct nodes recruited into the layer."""
    if not result.active_path:
        raise EmptyOverlay("layer has no recruited nodes")
    return len(result.active_path)


def depth(result: OverlayResult, net: Network) -> float:
    """Geometric spread of the layer relative to the whole network.

    Maximum pairwise distance among recruited nodes divided by the maximum
    pairwise distance over all nodes; always in [0, 1], and 0 for a layer
    that collapsed to a single point.
    """
    if not result.active_path:
        raise EmptyOverlay("layer has no recruited nodes")
    span = max_pairwise_distance(net)
    if span == 0.0:
        return 0.0
    nodes = np.fromiter(result.active_path, dtype=np.intp, count=len(result.active_path))
    reach = max_pairwise(net.positions[nodes])
    return reach / span


@dataclass(frozen=True)
class BoxStats:
    """Tukey box-plot summary of one sample."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    lower_whisker: float
    upper_whisker: float
    outliers: tuple[float, ...]
    count: int

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    @property
    def outlier_count(self) -> int:
        return len(self.outliers)


def box_stats(samples) -> BoxStats:
    """Quartiles (linear interpolation), Tukey whiskers and outliers.

    Whiskers sit on the most extreme sample values still inside
    [q1 - 1.5*iqr, q3 + 1.5*iqr], clamped to the box when no sample falls
    outside it on that side; outliers are the samples strictly beyond the
    fences. Some sample lies between the fences, since all are finite: for
    n >= 3 the box spans one, and for n == 2 the lower sits above q1 - 0.5*iqr.
    """
    data = np.asarray(list(samples), dtype=np.float64)
    if data.size == 0:
        raise EmptySample("no samples")
    if not np.isfinite(data).all():
        raise ValueError("samples must be finite")
    q1, med, q3 = np.percentile(data, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = data[(data >= lo_fence) & (data <= hi_fence)]
    lo_w = min(float(inside.min()), float(q1))
    hi_w = max(float(inside.max()), float(q3))
    out = data[(data < lo_fence) | (data > hi_fence)]
    return BoxStats(
        minimum=float(data.min()),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        maximum=float(data.max()),
        lower_whisker=lo_w,
        upper_whisker=hi_w,
        outliers=tuple(sorted(float(v) for v in out)),
        count=int(data.size),
    )
