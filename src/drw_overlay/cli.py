"""Command-line interface: generate networks, build layers, run sweeps.

Exit codes: 0 success, 1 usage error, 2 runtime failure (generation could
not connect, a build failed, malformed input, an allocation failed). Either
error is one stderr line. All outputs are reproducible
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
    check_group_keys,
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
    check_int,
    generate_network,
    load_network,
    save_network,
)
from .metrics import active_path_size, depth
from .overlay import BuildFailed, OverlayBuildConfig, build_overlay, to_json_dict
from .walk_engine import STRATEGY_KINDS, IsolatedInitiator, parse_strategy

USAGE_EXIT = 1
RUNTIME_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors are the CLI's own: one line, exit 1."""

    def error(self, message):
        self.exit(_usage(message))


def positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1; argparse names
    it in its message, as in "invalid positive_int value: '0'"."""
    return check_int(int(text), "count", 1)


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
    build.add_argument("--strategy", default="drw",
                       help=f"candidate scoring rule: one of {', '.join(STRATEGY_KINDS)}")
    build.add_argument("--alpha", type=float, default=1.0,
                       help="first-ring weight for the weighted strategy")
    build.add_argument("--beta", type=float, default=1.0,
                       help="second-ring weight for the weighted strategy")
    build.add_argument("--seed", type=int, default=0, help="base seed")
    build.add_argument("--step-budget", type=positive_int, default=None,
                       help="per-walk step cap (default 50*n)")
    build.add_argument("--out", help="write the layer as JSON here")
    build.set_defaults(func=_cmd_build)

    exp = sub.add_parser("experiment", help="run a replication sweep")
    exp.add_argument("--scale", type=float, default=0.1,
                     help="protocol scale factor in (0, 1]")
    exp.add_argument("--strategies", default="drw,prw",
                     help="comma-separated strategy tokens")
    exp.add_argument("--alpha", type=float, default=1.0,
                     help="first-ring weight for the weighted strategy")
    exp.add_argument("--beta", type=float, default=1.0,
                     help="second-ring weight for the weighted strategy")
    exp.add_argument("--desk", action="store_true",
                     help="small node counts (200-1000) with rescaled radius")
    exp.add_argument("--seed", type=int, default=0, help="base seed")
    exp.add_argument("--step-budget", type=positive_int, default=None,
                     help="per-walk step cap (default 50*n)")
    exp.add_argument("--out-dir", default=".",
                     help="directory for records.csv and summary.csv")
    exp.add_argument("--jobs", type=positive_int, default=1,
                     help="worker processes")
    exp.set_defaults(func=_cmd_experiment)

    stats = sub.add_parser("stats", help="summarize a records CSV")
    stats.add_argument("--in", dest="infile", required=True,
                       help="records CSV path")
    stats.add_argument("--group", default="n,strategy,initiators",
                       help="comma-separated grouping columns")
    stats.set_defaults(func=_cmd_stats)

    return parser


def _say(message: str, code: int) -> int:
    # One line, even when the message quotes an input cell with a newline.
    print("drw-overlay:", " ".join(message.splitlines()), file=sys.stderr)
    return code


def _usage(message: str) -> int:
    return _say(f"error: {message}", USAGE_EXIT)


def _cmd_gen(args) -> int:
    try:
        cfg = GraphGenConfig(n=args.n, r=args.r, seed=args.seed)
    except ValueError as exc:
        return _usage(str(exc))
    net = generate_network(cfg)
    save_network(net, args.out)
    print(f"n={net.n}")
    print(f"m={net.m}")
    print(f"attempts={net.attempts}")
    return 0


def _cmd_build(args) -> int:
    if (args.net is None) == (args.n is None):
        return _usage("provide exactly one of --net or --n/--r")
    if (args.n is None) != (args.r is None):
        return _usage("--r goes with --n, and only with it; --net gives the radius")
    try:
        cfg = OverlayBuildConfig(
            initiator_count=args.initiators,
            strategy=parse_strategy(args.strategy, args.alpha, args.beta),
            seed=args.seed, step_budget=args.step_budget)
        gen = None if args.n is None else GraphGenConfig(n=args.n, r=args.r, seed=args.seed)
    except ValueError as exc:
        return _usage(str(exc))
    net = load_network(args.net) if gen is None else generate_network(gen)
    result = build_overlay(net, cfg)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(to_json_dict(result), fh)
            fh.write("\n")
    print(f"active_path_size={active_path_size(result)}")
    print(f"depth={depth(result, net):.6f}")
    return 0


def _cmd_experiment(args) -> int:
    tokens = [t for t in args.strategies.split(",") if t]
    if not tokens:
        return _usage("--strategies must name at least one strategy")
    maker = desk_scenario if args.desk else full_scenario
    try:
        strategies = tuple(parse_strategy(t, args.alpha, args.beta) for t in tokens)
        cfg = maker(args.scale, strategies=strategies, base_seed=args.seed,
                    step_budget=args.step_budget)
    except ValueError as exc:  # a bad token, a scale outside (0, 1] or too small, a strategy twice
        return _usage(str(exc))

    # Made before the sweep, so an unusable --out-dir fails at once.
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = run_scenario(cfg, jobs=args.jobs)
    meta = scenario_metadata(cfg)
    records_path = out_dir / "records.csv"
    summary_path = out_dir / "summary.csv"
    write_records_csv(records, records_path, metadata=meta)
    bad = failed_cells(records)
    failed_builds = sum(rec.failed for rec in records)
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
    print(f"failed_builds={failed_builds}")
    print(f"records={records_path}")
    print(f"summary={summary_path}")
    if failed_builds:
        print(f"drw-overlay: {failed_builds} of {len(records)} builds failed; "
              "summary.csv leaves them out", file=sys.stderr)
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
    try:
        check_group_keys(group)
    except ValueError as exc:
        return _usage(str(exc))
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
    except (NotConnected, BuildFailed, IsolatedInitiator, MemoryError, OSError,
            ValueError) as exc:
        # A bare MemoryError has no message; its name then says what failed.
        return _say(str(exc) or type(exc).__name__, RUNTIME_EXIT)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
