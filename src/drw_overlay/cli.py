"""Command-line interface: generate networks, build layers, run sweeps.

Exit codes: 0 success, 1 usage error, 2 runtime failure (generation could
not connect, a build failed, malformed input). All outputs are reproducible
from the flags; the only wall-clock dependent bytes are the wall_time_ms
CSV column.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    EmptyGroup,
    RECORD_COLUMNS,
    desk_scenario,
    failed_cells,
    full_scenario,
    read_records_csv,
    run_scenario,
    scenario_metadata,
    summarize,
    write_records_csv,
    write_summary_csv,
)
from .geom_graph import (
    GraphGenConfig,
    NotConnected,
    generate_network,
    load_network,
    save_network,
)
from .metrics import active_path_size, depth
from .overlay import (
    BuildFailed,
    OverlayBuildConfig,
    TooManyInitiators,
    build_overlay,
    to_json_dict,
)
from .walk_engine import STRATEGY_KINDS, IsolatedInitiator, parse_strategy

USAGE_EXIT = 1
RUNTIME_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="drw-overlay",
        description="Overlay layers on random geometric networks "
                    "via guided and pure random walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a connected network JSON")
    gen.add_argument("--n", type=int, required=True, help="number of nodes")
    gen.add_argument("--r", type=float, required=True,
                     help="communication radius")
    gen.add_argument("--seed", type=int, default=0, help="base seed")
    gen.add_argument("--out", required=True, help="output JSON path")
    gen.set_defaults(func=_cmd_gen)

    build = sub.add_parser("build", help="build one overlay layer")
    build.add_argument("--net", help="network JSON produced by gen")
    build.add_argument("--n", type=int, help="generate a network instead")
    build.add_argument("--r", type=float, help="radius when using --n")
    build.add_argument("--initiators", type=int, required=True,
                       help="number of walk initiators (>= 2)")
    build.add_argument("--strategy", choices=STRATEGY_KINDS, default="drw",
                       help="candidate scoring rule")
    build.add_argument("--alpha", type=float, default=1.0,
                       help="first-ring weight for the weighted strategy")
    build.add_argument("--beta", type=float, default=1.0,
                       help="second-ring weight for the weighted strategy")
    build.add_argument("--seed", type=int, default=0, help="base seed")
    build.add_argument("--step-budget", type=int, default=None,
                       help="per-walk step cap (default 50*n)")
    build.add_argument("--out", help="write the layer as JSON here")
    build.set_defaults(func=_cmd_build)

    exp = sub.add_parser("experiment", help="run a replication sweep")
    exp.add_argument("--scale", type=float, default=0.1,
                     help="protocol scale factor in (0, 1]")
    exp.add_argument("--strategies", default="drw,prw",
                     help="comma-separated strategy tokens")
    exp.add_argument("--alpha", type=float, default=1.0)
    exp.add_argument("--beta", type=float, default=1.0)
    exp.add_argument("--desk", action="store_true",
                     help="small node counts (200-1000) with rescaled radius")
    exp.add_argument("--seed", type=int, default=0, help="base seed")
    exp.add_argument("--step-budget", type=int, default=None)
    exp.add_argument("--out-dir", default=".",
                     help="directory for records.csv and summary.csv")
    exp.add_argument("--jobs", type=int, default=1,
                     help="worker processes")
    exp.set_defaults(func=_cmd_experiment)

    stats = sub.add_parser("stats", help="summarize a records CSV")
    stats.add_argument("--in", dest="infile", required=True,
                       help="records CSV path")
    stats.add_argument("--group", default="n,strategy,initiators",
                       help="comma-separated grouping columns")
    stats.set_defaults(func=_cmd_stats)

    return parser


def _usage(message: str) -> int:
    print(f"drw-overlay: error: {message}", file=sys.stderr)
    return USAGE_EXIT


def _cmd_gen(args) -> int:
    if args.n < 2:
        return _usage("--n must be at least 2")
    if not args.r > 0:
        return _usage("--r must be positive")
    net = generate_network(GraphGenConfig(n=args.n, r=args.r, seed=args.seed))
    save_network(net, args.out)
    print(f"n={net.n}")
    print(f"m={net.m}")
    print(f"attempts={net.attempts}")
    return 0


def _cmd_build(args) -> int:
    if args.initiators < 2:
        return _usage("--initiators must be at least 2")
    if (args.net is None) == (args.n is None):
        return _usage("provide exactly one of --net or --n/--r")
    if args.n is not None and args.r is None:
        return _usage("--r is required with --n")
    if args.net is not None and args.r is not None:
        return _usage("--r is only used with --n; --net gives the radius")
    if args.step_budget is not None and args.step_budget < 1:
        return _usage("--step-budget must be at least 1")
    try:
        strategy = parse_strategy(args.strategy, args.alpha, args.beta)
    except ValueError as exc:
        return _usage(str(exc))
    if args.net is not None:
        net = load_network(args.net)
    else:
        if args.n < 2 or not args.r > 0:
            return _usage("--n must be >= 2 and --r positive")
        net = generate_network(GraphGenConfig(n=args.n, r=args.r,
                                              seed=args.seed))
    result = build_overlay(net, OverlayBuildConfig(
        initiator_count=args.initiators, strategy=strategy,
        seed=args.seed, step_budget=args.step_budget))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(to_json_dict(result), fh)
            fh.write("\n")
    print(f"active_path_size={active_path_size(result)}")
    print(f"depth={depth(result, net):.6f}")
    return 0


def _cmd_experiment(args) -> int:
    if args.jobs < 1:
        return _usage("--jobs must be at least 1")
    if args.step_budget is not None and args.step_budget < 1:
        return _usage("--step-budget must be at least 1")
    tokens = [t for t in args.strategies.split(",") if t]
    if not tokens:
        return _usage("--strategies must name at least one strategy")
    try:
        strategies = tuple(parse_strategy(t, args.alpha, args.beta)
                           for t in tokens)
    except ValueError as exc:
        return _usage(str(exc))
    maker = desk_scenario if args.desk else full_scenario
    try:
        cfg = maker(args.scale, strategies=strategies, base_seed=args.seed)
    except ValueError as exc:  # a scale outside (0, 1] or too small, a strategy twice
        return _usage(str(exc))
    if args.step_budget is not None:
        cfg.step_budget = args.step_budget

    # Made before the sweep, so an unusable --out-dir fails at once.
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = run_scenario(cfg, jobs=args.jobs)
    meta = scenario_metadata(cfg)
    records_path = out_dir / "records.csv"
    summary_path = out_dir / "summary.csv"
    write_records_csv(records, records_path, metadata=meta)
    bad = failed_cells(records)
    # Summarize the re-read file, not the in-memory records, so the summary
    # is a pure function of records.csv and `stats` reproduces it exactly.
    try:
        rows = summarize(read_records_csv(records_path))
        write_summary_csv(rows, summary_path, metadata=meta)
    except EmptyGroup:
        summary_path = None
    print(f"cells={cfg.cell_count}")
    print(f"rows={len(records)}")
    print(f"failed_cells={len(bad)}")
    print(f"records={records_path}")
    print(f"summary={summary_path}")
    if bad:
        for cell in bad:
            print(f"failed: n={cell[0]} strategy={cell[1]} "
                  f"initiators={cell[2]}", file=sys.stderr)
        return RUNTIME_EXIT
    return 0


def _cmd_stats(args) -> int:
    group = tuple(t for t in args.group.split(",") if t)
    if not group:
        return _usage("--group must name at least one column")
    for key in group:
        if key not in RECORD_COLUMNS:
            return _usage(f"unknown group column {key!r}")
    records = read_records_csv(args.infile)
    rows = summarize(records, group_keys=group)
    write_summary_csv(rows, sys.stdout, group)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NotConnected, BuildFailed, TooManyInitiators, EmptyGroup,
            IsolatedInitiator, OSError, ValueError) as exc:
        # One line, even when the message quotes an input cell with a newline.
        print("drw-overlay:", " ".join(str(exc).splitlines()), file=sys.stderr)
        return RUNTIME_EXIT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
