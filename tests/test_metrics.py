"""Metrics checked against sort-and-scan / brute-force oracles."""

import math

import numpy as np
import pytest

import handnets as H
from drw_overlay.geom_graph import GraphGenConfig, generate_network
from drw_overlay.metrics import (
    BoxStats,
    EmptyOverlay,
    EmptySample,
    active_path_size,
    box_stats,
    depth,
)
from drw_overlay.overlay import OverlayResult


def tiny_result(active):
    return OverlayResult(stepped=[], born={}, active_path=set(active), initiators=(),
                         strategy_label="drw", seed=0)


# --- size and depth -----------------------------------------------------------

def test_active_path_size_counts_distinct_nodes():
    assert active_path_size(tiny_result({3, 5, 9})) == 3
    with pytest.raises(EmptyOverlay):
        active_path_size(tiny_result(set()))


def test_depth_empty_overlay_raises():
    net = H.crossing_network()
    with pytest.raises(EmptyOverlay):
        depth(tiny_result(set()), net)


def test_depth_single_node_zero():
    net = H.crossing_network()
    assert depth(tiny_result({2}), net) == 0.0


def test_depth_full_network_is_one():
    net = H.crossing_network()
    assert depth(tiny_result(range(net.n)), net) == 1.0


def test_depth_matches_brute_force_ratio():
    net = generate_network(GraphGenConfig(n=120, r=0.15, seed=7))
    rng = np.random.default_rng(0)
    for _ in range(10):
        k = int(rng.integers(2, 40))
        chosen = sorted(rng.choice(net.n, size=k, replace=False).tolist())

        def spread(idx):
            best = 0.0
            for i in idx:
                for j in idx:
                    dx = net.positions[i, 0] - net.positions[j, 0]
                    dy = net.positions[i, 1] - net.positions[j, 1]
                    best = max(best, math.sqrt(dx * dx + dy * dy))
            return best

        expected = spread(chosen) / spread(range(net.n))
        assert depth(tiny_result(chosen), net) == pytest.approx(expected, rel=1e-12)


# --- box statistics -----------------------------------------------------------

def sort_and_scan(samples, whisker=1.5):
    """Independent quartile/whisker computation without numpy."""
    data = sorted(float(v) for v in samples)
    n = len(data)

    def quantile(q):
        pos = q * (n - 1)
        lo = math.floor(pos)
        hi = math.ceil(pos)
        frac = pos - lo
        return data[lo] * (1 - frac) + data[hi] * frac

    q1, med, q3 = quantile(0.25), quantile(0.5), quantile(0.75)
    iqr = q3 - q1
    lo_f, hi_f = q1 - whisker * iqr, q3 + whisker * iqr
    inside = [v for v in data if lo_f <= v <= hi_f]
    lo_w = min(inside + [q1]) if inside else q1
    hi_w = max(inside + [q3]) if inside else q3
    outliers = [v for v in data if v < lo_f or v > hi_f]
    return q1, med, q3, lo_w, hi_w, outliers


def test_box_stats_empty_raises():
    with pytest.raises(EmptySample):
        box_stats([])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_box_stats_rejects_non_finite(bad):
    """No whisker fits a NaN or an infinite sample."""
    with pytest.raises(ValueError, match="samples must be finite"):
        box_stats([1.0, bad, 2.0])


def test_box_stats_matches_sort_and_scan():
    """Three hand samples (one outlier above the box, all values equal, one
    value), then sizes from 1 to 199, then 100 more from 1 to 11, where the
    fences lie closest to the box."""
    samples = [[1, 2, 3, 4, 100], [7, 7, 7, 7], [3.5]]
    rng = np.random.default_rng(12)
    for trial in range(150):
        n = int(rng.integers(1, 200 if trial < 50 else 12))
        kind = trial % 3
        if kind == 0:
            data = rng.normal(50, 10, n)
        elif kind == 1:
            data = rng.integers(0, 30, n).astype(float)
        else:
            data = np.concatenate([rng.normal(10, 1, n), rng.normal(500, 5, 3)])
        samples.append(data)
    for data in samples:
        s = box_stats(data)
        q1, med, q3, lo_w, hi_w, outliers = sort_and_scan(data)
        assert (s.minimum, s.maximum, s.count) == (min(data), max(data), len(data))
        assert s.q1 == pytest.approx(q1, rel=1e-12)
        assert s.median == pytest.approx(med, rel=1e-12)
        assert s.q3 == pytest.approx(q3, rel=1e-12)
        assert s.lower_whisker == pytest.approx(lo_w, rel=1e-12)
        assert s.upper_whisker == pytest.approx(hi_w, rel=1e-12)
        assert list(s.outliers) == sorted(outliers)


def test_box_stats_invariant_chain():
    rng = np.random.default_rng(3)
    for _ in range(30):
        data = rng.exponential(5, int(rng.integers(2, 500)))
        s = box_stats(data)
        assert (s.minimum <= s.lower_whisker <= s.q1 <= s.median
                <= s.q3 <= s.upper_whisker <= s.maximum)
        assert s.outlier_count + _count_inside(data, s) == s.count


def _count_inside(data, s: BoxStats) -> int:
    lo = s.q1 - 1.5 * s.iqr
    hi = s.q3 + 1.5 * s.iqr
    return int(np.sum((data >= lo) & (data <= hi)))
