"""Replication sweeps over (n, initiator count, strategy) cells.

A scenario fixes the node counts, initiator lists, strategies and a base
seed. Every cell is replicated R times; replication k of node count n draws
a fresh connected network whose seed depends only on (base_seed, n, r, k),
so the same networks are reused across strategies and initiator counts and
comparisons between strategies are paired. Records are emitted in a fixed
sort order, which makes a scenario's CSV output reproducible no matter how
many worker processes computed it (wall-clock columns aside).
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import get_type_hints

from . import __version__
from .geom_graph import GraphGenConfig, NotConnected, check_int, check_radius, generate_network
from .metrics import box_stats
from .overlay import BuildFailed, OverlayBuildConfig, build_overlay
from .rng import derive_seed
from . import metrics as _metrics
from .walk_engine import CostStrategy

FULL_REPLICATIONS = 100
FULL_R = 0.05

# Initiator sweeps of the full protocol, one list per node count.
FULL_INITIATORS: dict[int, tuple[int, ...]] = {
    1000: (2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 30, 40, 50, 75, 100,
           250, 500, 625, 750, 875),
    2000: (2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 30, 40, 50, 75, 100,
           250, 500, 1000, 1250, 1500, 1750),
    3000: (2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 30, 40, 50, 75, 100,
           250, 500, 1000, 1500, 1875, 2250, 2625),
}

DESK_N = (200, 500, 1000)


@dataclass(frozen=True)
class ExperimentRecord:
    n: int
    r: float
    strategy: str
    initiators: int
    rep: int
    seed: int
    active_path_size: int
    depth: float
    total_steps: int
    total_backtracks: int
    failed: int
    wall_time_ms: float


# records.csv has one column per ExperimentRecord field, in field order,
# parsed with the field's type and written with str, except these formats.
_COLUMNS = {"depth": "{:.6f}".format, "wall_time_ms": "{:.3f}".format}
_PARSERS = get_type_hints(ExperimentRecord)
RECORD_COLUMNS = tuple(_PARSERS)

SUMMARY_METRICS = ("active_path_size", "depth", "total_steps", "total_backtracks")

SUMMARY_STAT_COLUMNS = ("min", "q1", "median", "q3", "max",
                        "lo_whisker", "hi_whisker", "outlier_count", "count")

DEFAULT_GROUP_KEYS = ("n", "strategy", "initiators")


class EmptyGroup(ValueError):
    """summarize() got no usable (non-failed) records."""


@dataclass
class ScenarioConfig:
    """One sweep definition.

    initiator_counts maps each node count, in sweep order, to its sweep
    list. Every integer goes through check_int: node and initiator counts
    >= 2, replications, step_budget and r_rescale_ref >= 1. r must pass
    check_radius and be an int or a float, the types a seed label encodes;
    it feeds every derived seed, so it is not clamped, and a float is kept
    as a builtin float. With r_rescale_ref set, node count n uses radius
    r * sqrt(r_rescale_ref / n), which keeps the reference's mean degree.
    initiator_counts and strategies must not be empty, and no initiator
    count of one n or strategy label may be listed twice: a repeated cell
    would repeat its records' keys. scale must lie in (0, 1], and label,
    echoed in the CSV metadata, must be one line of text.
    """

    r: float
    initiator_counts: dict[int, tuple[int, ...]]
    strategies: tuple[CostStrategy, ...]
    replications: int
    base_seed: int = 0
    step_budget: int | None = None
    r_rescale_ref: int | None = None
    scale: float = 1.0
    label: str = "custom"

    def __post_init__(self):
        self.initiator_counts = {
            check_int(n, "n", 2): tuple(check_int(i, "number of initiators", 2) for i in counts)
            for n, counts in self.initiator_counts.items()}
        if not self.initiator_counts:
            raise ValueError("a scenario needs at least one n")
        check_radius(self.r)
        if isinstance(self.r, float):
            self.r = float(self.r)  # numpy 2 writes np.float64(0.2) as "np.float64(0.2)"
        elif not isinstance(self.r, int):
            raise ValueError(f"r must be an int or a float, got {self.r!r}")
        self.replications = check_int(self.replications, "replications", 1)
        self.base_seed = check_int(self.base_seed, "base seed")
        if self.step_budget is not None:
            self.step_budget = check_int(self.step_budget, "step budget", 1)
        if self.r_rescale_ref is not None:
            self.r_rescale_ref = check_int(self.r_rescale_ref, "r_rescale_ref", 1)
        for n, counts in self.initiator_counts.items():
            if not counts:
                raise ValueError(f"no initiator counts for n={n}")
            if len(set(counts)) < len(counts):
                raise ValueError(f"an initiator count is listed twice for n={n}")
            if max(counts) > n:
                raise ValueError(f"initiator count {max(counts)} invalid for n={n}")
        labels = [s.label for s in self.strategies]
        if not labels:
            raise ValueError("a scenario needs at least one strategy")
        if len(set(labels)) < len(labels):
            raise ValueError(f"a strategy is listed twice in {','.join(labels)}")
        _check_scale(self.scale)
        if not isinstance(self.label, str) or "\n" in self.label or "\r" in self.label:
            raise ValueError(f"label must be one line of text, got {self.label!r}")

    def effective_radius(self, n: int) -> float:
        if self.r_rescale_ref is None:
            return self.r
        return self.r * math.sqrt(self.r_rescale_ref / n)

    @property
    def cell_count(self) -> int:
        """The sweep's (n, strategy, I) cells, the unit of failed_cells."""
        return len(self.strategies) * sum(map(len, self.initiator_counts.values()))


def _check_scale(scale) -> None:
    if not 0 < scale <= 1:
        raise ValueError(f"scale must be in (0, 1], got {scale}")


def _protocol(label, grid, scale, strategies, base_seed, step_budget,
              r_rescale_ref=None) -> ScenarioConfig:
    """The protocol's scaling rule, shared by both scenario makers.

    scale must lie in (0, 1]. Node count n keeps the counts of grid[n] up
    to scale*n, replications shrink to scale*100 with a floor of 10, and
    the strategies default to drw and prw.
    """
    _check_scale(scale)  # before round(), which raises OverflowError on inf
    return ScenarioConfig(
        r=FULL_R,
        initiator_counts={n: tuple(i for i in counts if i <= scale * n)
                          for n, counts in grid.items()},
        strategies=tuple(strategies or (CostStrategy("drw"), CostStrategy("prw"))),
        replications=max(10, round(FULL_REPLICATIONS * scale)), base_seed=base_seed,
        step_budget=step_budget, r_rescale_ref=r_rescale_ref, scale=scale, label=label)


def full_scenario(scale: float = 1.0, *, strategies=None, base_seed: int = 0,
                  step_budget: int | None = None) -> ScenarioConfig:
    """The full sweep protocol, optionally shrunk by a factor in (0, 1].

    At scale 1: n in {1000, 2000, 3000}, r = 0.05, the full initiator lists
    and 100 replications per cell; ``_protocol`` says how a smaller scale
    shrinks it.
    """
    return _protocol("full", FULL_INITIATORS, scale, strategies, base_seed, step_budget)


def desk_scenario(scale: float = 0.1, *, strategies=None, base_seed: int = 0,
                  step_budget: int | None = None) -> ScenarioConfig:
    """Small-network variant: n in {200, 500, 1000} with a rescaled radius.

    Every n sweeps the n = 1000 initiator list, scaled as in ``_protocol``.
    The radius grows as sqrt(1000/n) so the mean degree stays at the
    reference level; connected placements at small n are rare otherwise.
    """
    return _protocol("desk", dict.fromkeys(DESK_N, FULL_INITIATORS[1000]),
                     scale, strategies, base_seed, step_budget, r_rescale_ref=1000)


def network_seed(cfg: ScenarioConfig, n: int, rep: int) -> int:
    return derive_seed(cfg.base_seed, "network", n, cfg.effective_radius(n), rep)


def build_seed(cfg: ScenarioConfig, n: int, initiators: int, rep: int) -> int:
    return derive_seed(cfg.base_seed, "build", n, cfg.effective_radius(n),
                       initiators, rep)


def _run_rep_group(cfg: ScenarioConfig, n: int, rep: int) -> list[ExperimentRecord]:
    """All cells sharing one (n, replication) network."""
    r_eff = cfg.effective_radius(n)
    net_seed = network_seed(cfg, n, rep)
    try:
        net = generate_network(GraphGenConfig(n=n, r=r_eff, seed=net_seed))
    except NotConnected:
        net = None
    rows = []
    for count in cfg.initiator_counts[n]:
        b_seed = build_seed(cfg, n, count, rep)
        for strategy in cfg.strategies:
            t0 = perf_counter()
            size, reach, steps, backtracks, failed = 0, 0.0, 0, 0, 1
            if net is not None:
                try:
                    res = build_overlay(net, OverlayBuildConfig(
                        initiator_count=count, strategy=strategy,
                        seed=b_seed, step_budget=cfg.step_budget))
                    size = _metrics.active_path_size(res)
                    reach = _metrics.depth(res, net)
                    steps = res.total_steps
                    backtracks = res.total_backtracks
                    failed = 0
                except BuildFailed:
                    pass
            wall = (perf_counter() - t0) * 1000.0
            rows.append(ExperimentRecord(
                n=n, r=r_eff, strategy=strategy.label, initiators=count,
                rep=rep, seed=b_seed, active_path_size=size, depth=reach,
                total_steps=steps, total_backtracks=backtracks,
                failed=failed, wall_time_ms=wall))
    return rows


def run_scenario(cfg: ScenarioConfig, jobs: int = 1) -> list[ExperimentRecord]:
    """Execute every cell and replication; rows come back in a fixed order."""
    tasks = [(cfg, n, rep) for n in cfg.initiator_counts
             for rep in range(cfg.replications)]
    if jobs <= 1:
        groups = [_run_rep_group(*t) for t in tasks]
    else:
        # Imported here, so that a serial run never loads multiprocessing.
        # Under fork the pool starts all max_workers processes on its first
        # submit, so it never gets more workers than tasks.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            groups = list(pool.map(_run_rep_group, *zip(*tasks), chunksize=1))
    rows = [rec for group in groups for rec in group]
    rows.sort(key=lambda rec: (rec.n, rec.initiators, rec.strategy, rec.rep))
    return rows


def scenario_metadata(cfg: ScenarioConfig) -> list[str]:
    """Comment block for CSV heads: config echo, version, scale."""
    lines = [
        f"overlay-experiment v{__version__}",
        f"scenario={cfg.label} scale={cfg.scale:g} base_seed={cfg.base_seed}",
        f"n_values={','.join(map(str, cfg.initiator_counts))} r={cfg.r!r}"
        + (f" r_rescale_ref={cfg.r_rescale_ref}" if cfg.r_rescale_ref else ""),
        f"strategies={','.join(s.label for s in cfg.strategies)}"
        f" replications={cfg.replications}"
        f" step_budget={cfg.step_budget if cfg.step_budget is not None else 'default'}",
    ]
    for n, counts in cfg.initiator_counts.items():
        lines.append(f"initiators[{n}]=" + ",".join(map(str, counts)))
    return lines


@contextmanager
def _text_file(target, mode: str):
    """Yield target as a text file: a path is opened here and closed on
    exit, a file object is passed through and left open."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, mode, encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield target


def write_records_csv(records, out, metadata=()) -> None:
    """Write the record table; `out` is a path or a text file object."""
    with _text_file(out, "w") as fh:
        for line in metadata:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORD_COLUMNS)
        for rec in records:
            writer.writerow([_COLUMNS.get(name, str)(getattr(rec, name))
                             for name in RECORD_COLUMNS])


def read_records_csv(source) -> list[ExperimentRecord]:
    """Read records back; accepts a path or a text file object."""
    with _text_file(source, "r") as fh:
        try:
            rows = [row for row in csv.reader(line for line in fh
                                              if not line.startswith("#")) if row]
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ValueError(f"unreadable CSV: {exc}") from None
    if not rows:
        raise ValueError("no header row found")
    header = tuple(rows[0])
    if header != RECORD_COLUMNS:
        raise ValueError(f"unexpected columns {header}")
    records, seen = [], set()
    for row in rows[1:]:
        if len(row) != len(RECORD_COLUMNS):
            raise ValueError(f"malformed row: {row!r}")
        rec = ExperimentRecord(**{name: parse(cell) for (name, parse), cell
                                  in zip(_PARSERS.items(), row)})
        key = (rec.n, rec.strategy, rec.initiators, rec.rep)
        problem = _record_problem(rec)
        if problem is None and key in seen:
            # A replication counts once; a repeat would weigh it twice in stats.
            problem = "repeats the (n, strategy, initiators, rep) of an earlier row"
        if problem:
            raise ValueError(f"bad row {','.join(row)}: {problem}")
        seen.add(key)
        records.append(rec)
    return records


def _record_problem(rec: ExperimentRecord) -> str | None:
    """What makes a parsed record impossible, or None if nothing does."""
    if rec.failed not in (0, 1):
        return "failed must be 0 or 1"
    for name in ("n", "rep", "active_path_size", "total_steps", "total_backtracks"):
        if getattr(rec, name) < 0:
            return f"{name} must be >= 0"
    if not 2 <= rec.initiators <= rec.n:
        return "initiators must be in [2, n]"
    # Every initiator lies on its layer's active path.
    if not rec.failed and not rec.initiators <= rec.active_path_size <= rec.n:
        return "active_path_size must be in [initiators, n]"
    try:
        check_radius(rec.r)
    except ValueError as exc:
        return str(exc)
    if not 0 <= rec.depth <= 1:
        return "depth must be in [0, 1]"
    if not (math.isfinite(rec.wall_time_ms) and rec.wall_time_ms >= 0):
        return "wall_time_ms must be finite and >= 0"
    if not 0 <= rec.seed < 2**64:
        return "seed must be in [0, 2**64)"
    return None


@dataclass(frozen=True)
class SummaryRow:
    group: tuple
    metric: str
    stats: object


def check_group_keys(group_keys) -> None:
    """Raise ValueError unless every group key is a records.csv column,
    listed once."""
    seen = set()
    for key in group_keys:
        if key not in RECORD_COLUMNS:
            raise ValueError(f"unknown group column {key!r}")
        if key in seen:
            raise ValueError(f"group column {key!r} is listed twice")
        seen.add(key)


def summarize(records, group_keys=DEFAULT_GROUP_KEYS) -> list[SummaryRow]:
    """Box statistics per group for each SUMMARY_METRICS column, over
    non-failed records."""
    check_group_keys(group_keys)
    usable = [rec for rec in records if not rec.failed]
    if not usable:
        raise EmptyGroup("no non-failed records to summarize")
    groups: dict[tuple, list[ExperimentRecord]] = {}
    for rec in usable:
        groups.setdefault(tuple(getattr(rec, k) for k in group_keys),
                          []).append(rec)
    rows = []
    for key in sorted(groups):
        for metric in SUMMARY_METRICS:
            values = [getattr(rec, metric) for rec in groups[key]]
            rows.append(SummaryRow(group=key, metric=metric,
                                   stats=box_stats(values)))
    return rows


def write_summary_csv(rows, out, group_keys=DEFAULT_GROUP_KEYS, metadata=()) -> None:
    """Write the summary table; `out` is a path or a text file object."""
    with _text_file(out, "w") as fh:
        for line in metadata:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(tuple(group_keys) + ("metric",) + SUMMARY_STAT_COLUMNS)
        for row in rows:
            s = row.stats
            writer.writerow(list(row.group) + [row.metric] + [
                f"{s.minimum:.6f}", f"{s.q1:.6f}", f"{s.median:.6f}",
                f"{s.q3:.6f}", f"{s.maximum:.6f}", f"{s.lower_whisker:.6f}",
                f"{s.upper_whisker:.6f}", str(s.outlier_count), str(s.count)])


def failed_cells(records) -> list[tuple]:
    """Cells (n, strategy, initiators) whose replications all failed."""
    seen: dict[tuple, list[int]] = {}
    for rec in records:
        seen.setdefault((rec.n, rec.strategy, rec.initiators),
                        []).append(rec.failed)
    return sorted(k for k, flags in seen.items() if all(flags))
