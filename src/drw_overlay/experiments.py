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
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from . import __version__
from .geom_graph import GraphGenConfig, NotConnected, generate_network
from .metrics import box_stats
from .overlay import BuildFailed, OverlayBuildConfig, TooManyInitiators, build_overlay
from .rng import derive_seed
from . import metrics as _metrics
from .walk_engine import CostStrategy

FULL_REPLICATIONS = 100
FULL_R = 0.05
FULL_N = (1000, 2000, 3000)

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

# records.csv: each column in file (and ExperimentRecord field) order, with
# its (parser, formatter).
_COLUMNS = {
    "n": (int, str),
    "r": (float, repr),
    "strategy": (str, str),
    "initiators": (int, str),
    "rep": (int, str),
    "seed": (int, str),
    "active_path_size": (int, str),
    "depth": (float, "{:.6f}".format),
    "total_steps": (int, str),
    "total_backtracks": (int, str),
    "failed": (int, str),
    "wall_time_ms": (float, "{:.3f}".format),
}
RECORD_COLUMNS = tuple(_COLUMNS)

SUMMARY_METRICS = ("active_path_size", "depth", "total_steps", "total_backtracks")

SUMMARY_STAT_COLUMNS = ("min", "q1", "median", "q3", "max",
                        "lo_whisker", "hi_whisker", "outlier_count", "count")

DEFAULT_GROUP_KEYS = ("n", "strategy", "initiators")


class EmptyGroup(ValueError):
    """summarize() got no usable (non-failed) records."""


@dataclass
class ScenarioConfig:
    """One sweep definition.

    initiator_counts maps each node count to its sweep list. When
    r_rescale_ref is set, the radius used for node count n is
    r * sqrt(r_rescale_ref / n), keeping the expected degree level when the
    sweep runs on smaller networks than the reference. No two strategies
    may share a label, since a label names a strategy's records.
    """

    n_values: tuple[int, ...]
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
        self.n_values = tuple(int(n) for n in self.n_values)
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        for n in self.n_values:
            counts = self.initiator_counts.get(n, ())
            if not counts:
                raise ValueError(f"no initiator counts for n={n}")
            for i in counts:
                if i < 2 or i > n:
                    raise ValueError(f"initiator count {i} invalid for n={n}")
        labels = [s.label for s in self.strategies]
        if len(set(labels)) < len(labels):
            raise ValueError(f"a strategy is listed twice in {','.join(labels)}")

    def effective_radius(self, n: int) -> float:
        if self.r_rescale_ref is None:
            return self.r
        return self.r * math.sqrt(self.r_rescale_ref / n)

    @property
    def cell_count(self) -> int:
        """Cells counted per the sweep grid, strategies not multiplied in."""
        return sum(len(self.initiator_counts[n]) for n in self.n_values)


def _protocol(label, n_values, lists, scale, strategies, base_seed,
              r_rescale_ref=None) -> ScenarioConfig:
    """The protocol's scaling rule, shared by both scenario makers.

    scale must lie in (0, 1]. Node count n keeps the counts of lists[n] up
    to scale*n, replications shrink to scale*100 with a floor of 10, and
    the strategies default to drw and prw.
    """
    if not 0 < scale <= 1:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    return ScenarioConfig(
        n_values=n_values, r=FULL_R,
        initiator_counts={n: tuple(i for i in lists[n] if i <= scale * n) for n in n_values},
        strategies=tuple(strategies or (CostStrategy("drw"), CostStrategy("prw"))),
        replications=max(10, round(FULL_REPLICATIONS * scale)), base_seed=base_seed,
        r_rescale_ref=r_rescale_ref, scale=scale, label=label)


def full_scenario(scale: float = 1.0, *, strategies=None,
                  base_seed: int = 0) -> ScenarioConfig:
    """The full sweep protocol, optionally shrunk by a factor in (0, 1].

    At scale 1: n in {1000, 2000, 3000}, r = 0.05, the full initiator lists
    and 100 replications per cell; ``_protocol`` says how a smaller scale
    shrinks it.
    """
    return _protocol("full", FULL_N, FULL_INITIATORS, scale, strategies, base_seed)


def desk_scenario(scale: float = 0.1, *, strategies=None,
                  base_seed: int = 0) -> ScenarioConfig:
    """Small-network variant: n in {200, 500, 1000} with a rescaled radius.

    Every n sweeps the n = 1000 initiator list, scaled as in ``_protocol``.
    The radius grows as sqrt(1000/n) so the mean degree stays at the
    reference level; connected placements at small n are rare otherwise.
    """
    return _protocol("desk", DESK_N, dict.fromkeys(DESK_N, FULL_INITIATORS[1000]),
                     scale, strategies, base_seed, r_rescale_ref=1000)


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
                except (BuildFailed, TooManyInitiators):
                    pass
            wall = (perf_counter() - t0) * 1000.0
            rows.append(ExperimentRecord(
                n=n, r=r_eff, strategy=strategy.label, initiators=count,
                rep=rep, seed=b_seed, active_path_size=size, depth=reach,
                total_steps=steps, total_backtracks=backtracks,
                failed=failed, wall_time_ms=wall))
    return rows


def _run_rep_group_star(args):
    return _run_rep_group(*args)


def run_scenario(cfg: ScenarioConfig, jobs: int = 1) -> list[ExperimentRecord]:
    """Execute every cell and replication; rows come back in a fixed order."""
    tasks = [(cfg, n, rep) for n in cfg.n_values
             for rep in range(cfg.replications)]
    if jobs <= 1:
        groups = [_run_rep_group(*t) for t in tasks]
    else:
        # Under fork the pool starts all max_workers processes on its first
        # submit, so it never gets more workers than tasks.
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            groups = list(pool.map(_run_rep_group_star, tasks, chunksize=1))
    rows = [rec for group in groups for rec in group]
    rows.sort(key=lambda rec: (rec.n, rec.initiators, rec.strategy, rec.rep))
    return rows


def scenario_metadata(cfg: ScenarioConfig) -> list[str]:
    """Comment block for CSV heads: config echo, version, scale."""
    lines = [
        f"overlay-experiment v{__version__}",
        f"scenario={cfg.label} scale={cfg.scale:g} base_seed={cfg.base_seed}",
        f"n_values={','.join(str(n) for n in cfg.n_values)} r={cfg.r!r}"
        + (f" r_rescale_ref={cfg.r_rescale_ref}" if cfg.r_rescale_ref else ""),
        f"strategies={','.join(s.label for s in cfg.strategies)}"
        f" replications={cfg.replications}"
        f" step_budget={cfg.step_budget if cfg.step_budget is not None else 'default'}",
    ]
    for n in cfg.n_values:
        lines.append(f"initiators[{n}]="
                     + ",".join(str(i) for i in cfg.initiator_counts[n]))
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
            writer.writerow([fmt(getattr(rec, name)) for name, (_, fmt) in _COLUMNS.items()])


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
        rec = ExperimentRecord(**{name: parse(cell) for (name, (parse, _)), cell
                                  in zip(_COLUMNS.items(), row)})
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
    if not (math.isfinite(rec.r) and rec.r > 0):
        return "r must be positive"
    if not 0 <= rec.depth <= 1:
        return "depth must be in [0, 1]"
    return None


@dataclass(frozen=True)
class SummaryRow:
    group: tuple
    metric: str
    stats: object


def check_group_keys(group_keys) -> None:
    """Raise ValueError unless every group key is a records.csv column."""
    for key in group_keys:
        if key not in RECORD_COLUMNS:
            raise ValueError(f"unknown group column {key!r}")


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
