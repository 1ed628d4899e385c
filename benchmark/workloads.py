"""The benchmark's workloads: set-up, timed rounds, checks and trace hooks.

A run repeats whole rounds, each the same fixed list of operations, until
``seconds`` of timed work have passed. Checks run between or after the
timed intervals, never inside them: the first round's outputs get every
check, later rounds must reproduce the first round's outputs exactly.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from drw_overlay import cli, experiments, geom_graph, metrics, overlay, walk_engine

import checks

# The paper's initiator grid per node count; I <= scale * n of it is swept.
# A copy of experiments.FULL_INITIATORS, kept here so that the sweep's row
# check does not take the expected grid from the program it checks.
PAPER_INITIATORS: dict[int, tuple[int, ...]] = {
    1000: (2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 30, 40, 50, 75, 100,
           250, 500, 625, 750, 875),
    2000: (2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 30, 40, 50, 75, 100,
           250, 500, 1000, 1250, 1500, 1750),
    3000: (2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 30, 40, 50, 75, 100,
           250, 500, 1000, 1500, 1875, 2250, 2625),
}
SWEEP_STRATEGIES = ("drw", "prw")
SWEEP_REPLICATIONS = 10  # 100 scaled by 0.1, the protocol's floor
ALL_STRATEGIES = ("drw", "prw", "twohop", "weighted")


def derived_seeds(seed: int, label: int, count: int) -> list[int]:
    """Input seeds for a workload, a pure function of (--seed, label)."""
    return [int(s) for s in np.random.SeedSequence([seed, label]).generate_state(count)]


@dataclass
class Timed:
    """What the timed rounds of one run did."""

    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    build_ms: list[float] = field(default_factory=list)
    build_at: list[float] = field(default_factory=list)  # busy_s when each build ended
    counts: Counter = field(default_factory=Counter)
    digests: list[str] = field(default_factory=list)


def another_round(out: Timed, seconds: float) -> bool:
    """Always one round; then another while it should end within ``seconds``."""
    return out.rounds == 0 or out.busy_s * (out.rounds + 1) / out.rounds <= seconds


@dataclass(frozen=True)
class Builds:
    """Overlay builds on unit disk networks made in set-up.

    One operation is ``build_overlay`` plus ``active_path_size`` and
    ``depth``. A round builds every (network, I, replication) with each
    strategy; the strategies share a build seed, as in the sweep.
    """

    initiators: tuple[int, ...]
    strategies: tuple[str, ...]
    replications: int
    networks: int = 4
    n: int = 3000
    r: float = 0.05

    def setup(self, seed: int, out_dir: Path):
        nets = [geom_graph.generate_network(geom_graph.GraphGenConfig(n=self.n, r=self.r, seed=s))
                for s in derived_seeds(seed, 0, self.networks)]
        build_seeds = iter(derived_seeds(seed, 1, self.networks * len(self.initiators)
                                         * self.replications))
        ops = []
        for k in range(self.networks):
            for count in self.initiators:
                for _ in range(self.replications):
                    b = next(build_seeds)
                    ops.extend((k, overlay.OverlayBuildConfig(count, walk_engine.parse_strategy(s),
                                                              seed=b))
                               for s in self.strategies)
        return nets, ops

    def run(self, state, seconds: float, problems: list[str], probe, tracer=None) -> Timed:
        nets, ops = state
        spans = [checks.max_distance(net.positions) for net in nets]
        out = Timed()
        first: dict[int, tuple] = {}
        flawed: set[int] = set()  # operations whose first-round output failed a check
        layers = hashlib.sha256()
        clock = time.perf_counter
        while another_round(out, seconds):
            for j, (k, cfg) in enumerate(ops):
                net = nets[k]
                out.attempted += 1
                t0 = clock()
                try:
                    layer = overlay.build_overlay(net, cfg)
                except overlay.BuildFailed:
                    out.busy_s += clock() - t0
                    out.failed += 1
                    probe.tick(out.busy_s)
                    continue
                t1 = clock()
                size = metrics.active_path_size(layer)
                depth = metrics.depth(layer, net)
                t2 = clock()
                out.busy_s += t2 - t0
                out.build_ms.append((t1 - t0) * 1000.0)
                out.build_at.append(out.busy_s)
                seen = (size, depth, layer.total_steps, layer.total_backtracks)
                if out.rounds == 0:
                    first[j] = seen
                    found = checks.check_layer(layer, net.positions, self.r, spans[k],
                                               cfg.initiator_count, size, depth)
                    layers.update(json.dumps(overlay.to_json_dict(layer)).encode() + b"\n")
                elif seen != first.get(j):
                    found = [f"round {out.rounds} gave {seen}, round 0 gave {first.get(j)}"]
                else:
                    found = []
                if found:
                    flawed.add(j)
                    problems.extend(f"build {j} (network {k}, I={cfg.initiator_count}, "
                                    f"{cfg.strategy.kind}): {p}" for p in found)
                out.failed += j in flawed
                del layer
                probe.tick(out.busy_s)
            out.rounds += 1
        out.digests.append(f"layers_sha256={layers.hexdigest()}")
        return out

    def check(self, state, problems: list[str], timed: Timed) -> None:
        for k, net in enumerate(state[0]):
            problems.extend(f"network {k}: {p}"
                            for p in checks.check_network(net.positions, net.adjacency, self.r))


@dataclass(frozen=True)
class Sweep:
    """``drw-overlay experiment`` run in-process, ``sweeps`` base seeds a round."""

    scale: float = 0.1
    desk: bool = False
    sweeps: int = 3

    def cells(self) -> dict[int, tuple[int, ...]]:
        if self.desk:
            return {n: tuple(i for i in PAPER_INITIATORS[1000] if i <= self.scale * n)
                    for n in (200, 500, 1000)}
        return {n: tuple(i for i in grid if i <= self.scale * n)
                for n, grid in PAPER_INITIATORS.items()}

    def radius(self, n: int) -> float:
        """The protocol's r = 0.05; the desk variant keeps n = 1000's mean degree."""
        return 0.05 * math.sqrt(1000 / n) if self.desk else 0.05

    def setup(self, seed: int, out_dir: Path):
        runs = []
        for base in range(seed * self.sweeps, (seed + 1) * self.sweeps):
            target = out_dir / f"sweep-{base}"
            target.mkdir(parents=True, exist_ok=True)
            argv = ["experiment", "--scale", repr(self.scale), "--jobs", "1",
                    "--seed", str(base), "--out-dir", str(target)]
            runs.append((base, target, argv + ["--desk"] * self.desk))
        return runs

    def run(self, runs, seconds: float, problems: list[str], probe, tracer=None) -> Timed:
        """Time ``cli.main`` per sweep; the networks it draws are checked on the
        spot, with the clock paused, so none has to be drawn again. Speed
        probe bursts run after builds, with the clock paused too."""
        out = Timed()
        clock = time.perf_counter
        started, paused = [0.0], [0.0]
        networks: list[str] = []

        def check_network(cfg, net):
            where = f"network n={cfg.n} seed {cfg.seed}"
            networks.append(where)
            if not math.isclose(cfg.r, self.radius(cfg.n), rel_tol=1e-12):
                problems.append(f"{where}: radius {cfg.r!r}")
            problems.extend(f"{where}: {p}"
                            for p in checks.check_network(net.positions, net.adjacency, cfg.r))

        tick = probe.tick
        if tracer is not None:
            # As child spans, checks and bursts stay out of the layers' self times.
            check_network = tracer.span(check_network, "bench.check_network")
            tick = tracer.span(tick, "bench.speed_probe")
        inner_generate, inner_build = experiments.generate_network, experiments.build_overlay

        def generate_checked(cfg):
            net = inner_generate(cfg)
            if out.rounds == 0:
                t0 = clock()
                check_network(cfg, net)
                paused[0] += clock() - t0
            return net

        def build_timed(*args, **kwargs):
            t0 = clock()
            try:
                return inner_build(*args, **kwargs)
            finally:
                t1 = clock()
                busy = out.busy_s + t1 - started[0] - paused[0]
                out.build_ms.append((t1 - t0) * 1000.0)
                out.build_at.append(busy)
                paused[0] += tick(busy)

        experiments.generate_network = generate_checked
        experiments.build_overlay = build_timed
        first: dict[int, str] = {}
        try:
            while another_round(out, seconds):
                for base, target, argv in runs:
                    printed = io.StringIO()
                    paused[0] = 0.0
                    started[0] = clock()
                    with redirect_stdout(printed):
                        code = cli.main(argv)
                    out.busy_s += clock() - started[0] - paused[0]
                    report = dict(line.split("=", 1) for line in printed.getvalue().splitlines())
                    out.attempted += int(report.get("rows", 0))
                    if code != 0 or report.get("failed_cells") != "0":
                        problems.append(f"sweep {base}: exit {code}, {report}")
                    digest, size = checks.records_digest(target / "records.csv")
                    out.counts["experiments.records_bytes"] += size
                    if out.rounds == 0:
                        first[base] = digest
                    elif digest != first[base]:
                        problems.append(f"sweep {base}: round {out.rounds} records differ")
                out.rounds += 1
        finally:
            experiments.generate_network, experiments.build_overlay = inner_generate, inner_build
        want = len(runs) * len(self.cells()) * SWEEP_REPLICATIONS
        if len(networks) != want:
            problems.append(f"{len(networks)} networks drawn and checked, {want} expected")
        out.digests.extend(f"records_sha256[seed {b}]={d}" for b, d in first.items())
        return out

    def check(self, runs, problems: list[str], timed: Timed) -> None:
        """CSV checks of each sweep, and the first sweep's replication 0 rebuilt:
        those layers get the layer checks and must match their record rows."""
        cells = self.cells()
        for s, (base, target, _) in enumerate(runs):
            found, rows = checks.check_sweep(target / "records.csv", target / "summary.csv",
                                             cells, SWEEP_STRATEGIES, SWEEP_REPLICATIONS)
            problems.extend(f"sweep {base}: {p}" for p in found)
            timed.failed += timed.rounds * sum(row["failed"] != "0" for row in rows)
            if s > 0:
                continue
            by_key = {(int(r["n"]), r["strategy"], int(r["initiators"]), int(r["rep"])): r
                      for r in rows}
            maker = experiments.desk_scenario if self.desk else experiments.full_scenario
            cfg = maker(self.scale, base_seed=base)
            for n, counts in cells.items():
                net = geom_graph.generate_network(geom_graph.GraphGenConfig(
                    n=n, r=self.radius(n), seed=experiments.network_seed(cfg, n, 0)))
                span = checks.max_distance(net.positions)
                for count in counts:
                    seed = experiments.build_seed(cfg, n, count, 0)
                    for strategy in SWEEP_STRATEGIES:
                        layer = overlay.build_overlay(net, overlay.OverlayBuildConfig(
                            count, walk_engine.parse_strategy(strategy), seed=seed))
                        size, depth = metrics.active_path_size(layer), metrics.depth(layer, net)
                        where = f"sweep {base} n={n} I={count} {strategy} rep 0"
                        problems.extend(f"{where}: {p}" for p in checks.check_layer(
                            layer, net.positions, self.radius(n), span, count, size, depth))
                        row = by_key.get((n, strategy, count, 0), {})
                        got = tuple(row.get(k) for k in ("active_path_size", "depth",
                                                         "total_steps", "total_backtracks"))
                        want = (str(size), f"{depth:.6f}", str(layer.total_steps),
                                str(layer.total_backtracks))
                        if got != want:
                            problems.append(f"{where}: row {got} v rebuilt layer {want}")


WORKLOADS = {
    "protocol-sweep": Sweep(),
    "few-initiators": Builds(initiators=tuple(range(2, 11)), strategies=ALL_STRATEGIES,
                             replications=4),
    "many-initiators": Builds(initiators=(1000, 1875, 2625), strategies=SWEEP_STRATEGIES,
                              replications=2),
}

# ---------------------------------------------------------------- tracing

IO_NAMES = ("write_records_csv", "read_records_csv", "summarize", "write_summary_csv")


def install(tracer) -> None:
    """Wrap each public name where the program looks it up."""
    counts = tracer.counts

    def made_network(args, net):
        counts["geom_graph.networks"] += 1
        counts["geom_graph.placements"] += net.attempts

    def born(args, result):
        counts["walk_engine.born_intersected"] += result[1] is not None

    def stepped(args, outcome):
        counts["walk_engine.backtracks"] += outcome.kind == "backtracked"

    def built(args, layer):
        counts["overlay.active_nodes"] += len(layer.active_path)

    def step_name(args):
        return f"walk_engine.step.{args[3].kind}"

    for owner in (geom_graph, experiments):
        tracer.patch(owner, "generate_network", "geom_graph.generate_network",
                     on_result=made_network)
    for owner in (geom_graph, overlay):
        tracer.patch(owner, "stream", "rng.stream")
    tracer.patch(overlay, "init_walk", "walk_engine.init_walk", on_result=born)
    for owner in (overlay, walk_engine):
        tracer.patch(owner, "step", "walk_engine.step", on_result=stepped, name_of=step_name)
    tracer.patch(overlay, "run_walk_until_stop", "walk_engine.run_walk_until_stop")
    for owner in (overlay, experiments):
        tracer.patch(owner, "build_overlay", "overlay.build_overlay", on_result=built)
    tracer.patch(overlay.OverlayRegistry, "other_walk_at", "overlay.registry_lookups",
                 count_only=True)
    for name in ("active_path_size", "depth", "max_pairwise_distance", "max_pairwise"):
        tracer.patch(metrics, name, f"metrics.{name}")
    for name in ("run_scenario",) + IO_NAMES:
        tracer.patch(cli, name, f"experiments.{name}")


def layer_metrics(tracer, mark, timed: Timed) -> dict[str, float]:
    """Per-layer figures. Counts and self times are per round plus one set-up."""
    lo, before = mark
    phases = (tracer.totals(0, lo), tracer.totals(lo))
    rounds = timed.rounds
    counts = tracer.counts + timed.counts

    def stat(name: str, k: int, per_round: bool = True) -> float:
        setup, run = (p.get(name, (0, 0.0, 0.0))[k] for p in phases)
        return setup + run / rounds if per_round else setup + run

    def count(name: str) -> float:
        return before[name] + (counts[name] - before[name]) / rounds

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def layer_self(layer: str) -> float:
        return sum(stat(n, 2) for n in tracer.names if n.startswith(layer + "."))

    def mean(name: str, scale: float) -> float:
        return scale * ratio(stat(name, 1, False), stat(name, 0, False))

    return {
        "geom_graph.placements": count("geom_graph.placements"),
        "geom_graph.accept_ratio": ratio(counts["geom_graph.networks"],
                                         counts["geom_graph.placements"]),
        "geom_graph.ms_per_placement": 1e3 * ratio(stat("geom_graph.generate_network", 1, False),
                                                   counts["geom_graph.placements"]),
        "geom_graph.self_s": layer_self("geom_graph"),
        "rng.streams": stat("rng.stream", 0),
        "rng.us_per_stream": mean("rng.stream", 1e6),
        "rng.self_s": layer_self("rng"),
        "walk_engine.us_per_init": mean("walk_engine.init_walk", 1e6),
        "walk_engine.born_intersected_ratio": ratio(counts["walk_engine.born_intersected"],
                                                    stat("walk_engine.init_walk", 0, False)),
        "walk_engine.steps": sum(stat(f"walk_engine.step.{k}", 0) for k in ALL_STRATEGIES),
        "walk_engine.backtracks": count("walk_engine.backtracks"),
        **{f"walk_engine.us_per_step.{k}": mean(f"walk_engine.step.{k}", 1e6)
           for k in ALL_STRATEGIES},
        "walk_engine.self_s": layer_self("walk_engine"),
        "overlay.registry_lookups": count("overlay.registry_lookups"),
        "overlay.self_ms_per_build": 1e3 * ratio(stat("overlay.build_overlay", 2, False),
                                                 stat("overlay.build_overlay", 0, False)),
        "overlay.active_nodes": count("overlay.active_nodes"),
        "metrics.ms_per_depth": mean("metrics.depth", 1e3),
        "metrics.ms_per_span": mean("metrics.max_pairwise_distance", 1e3),
        "metrics.self_s": layer_self("metrics"),
        "experiments.io_ms": 1e3 * sum(stat(f"experiments.{n}", 1) for n in IO_NAMES),
        "experiments.records_bytes": count("experiments.records_bytes"),
        "experiments.self_s": layer_self("experiments"),
    }
