"""Command-line behavior: exit codes, file outputs, reproducibility."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walltime import mask_wall_time
from drw_overlay import cli
from drw_overlay.cli import main
from drw_overlay.experiments import RECORD_COLUMNS, read_records_csv, summarize
from drw_overlay.geom_graph import load_network, network_from_positions, to_json_dict

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- start-up ---------------------------------------------------------------

def test_cli_import_leaves_scipy_out():
    """Every command starts by importing the CLI; scipy alone would add
    about 0.3 s to that, so the package must not pull it in, as
    pyproject.toml lists numpy as its one dependency. The process
    pool's modules load only when a sweep runs with --jobs above 1."""
    code = ("import sys, drw_overlay.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# --- help ----------------------------------------------------------------------

def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    for cmd in ("gen", "build", "experiment", "stats"):
        assert main([cmd, "--help"]) == 0
    capsys.readouterr()


def test_help_documents_flags(capsys):
    main(["build", "--help"])
    text = capsys.readouterr().out
    for flag in ("--net", "--n", "--r", "--initiators", "--strategy",
                 "--alpha", "--beta", "--seed", "--out"):
        assert flag in text
    # experiment explains its walk flags in the words build uses.
    main(["experiment", "--help"])
    text = capsys.readouterr().out
    for flag, words in (("--alpha", "first-ring weight for the weighted strategy"),
                        ("--beta", "second-ring weight for the weighted strategy"),
                        ("--step-budget", "per-walk step cap (default 50*n)")):
        assert flag in text
        assert words in " ".join(text.split())


# --- gen -----------------------------------------------------------------------

def test_gen_writes_network(tmp_path, capsys):
    out = tmp_path / "net.json"
    code, stdout, _ = run(capsys, "gen", "--n", "50", "--r", "0.3",
                          "--seed", "3", "--out", str(out))
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "n=50"
    assert lines[1].startswith("m=")
    assert lines[2].startswith("attempts=")
    net = load_network(out)
    assert net.n == 50 and net.radius == 0.3


def test_gen_two_nodes_max_radius(tmp_path, capsys):
    out = tmp_path / "pair.json"
    code, stdout, _ = run(capsys, "gen", "--n", "2", "--r", "1.5",
                          "--out", str(out))
    assert code == 0
    assert "m=1" in stdout
    assert json.loads(out.read_text())["edges"] == [[0, 1]]


def test_gen_deterministic_files(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "gen", "--n", "200", "--r", "0.1", "--seed", "1",
               "--out", str(a))[0] == 0
    assert run(capsys, "gen", "--n", "200", "--r", "0.1", "--seed", "1",
               "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


# --- build -----------------------------------------------------------------------

def test_build_from_generated_network(tmp_path, capsys):
    out = tmp_path / "layer.json"
    code, stdout, _ = run(capsys, "build", "--n", "200", "--r", "0.12",
                          "--initiators", "5", "--strategy", "drw",
                          "--seed", "7", "--out", str(out))
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0].startswith("active_path_size=")
    assert lines[1].startswith("depth=0.") or lines[1].startswith("depth=1.")
    data = json.loads(out.read_text())
    assert data["strategy"] == "drw"
    assert len(data["walks"]) == 5
    assert int(lines[0].split("=")[1]) == len(data["active_path"])


def test_build_from_net_file(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    run(capsys, "gen", "--n", "150", "--r", "0.15", "--seed", "2",
        "--out", str(net_path))
    code, stdout, _ = run(capsys, "build", "--net", str(net_path),
                          "--initiators", "4", "--strategy", "prw",
                          "--seed", "9")
    assert code == 0
    assert "active_path_size=" in stdout


def test_build_identical_json_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "build", "--n", "150", "--r", "0.15",
                         "--initiators", "6", "--strategy", "drw",
                         "--seed", "11", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_weighted_accepts_alpha_beta(capsys):
    code, stdout, _ = run(capsys, "build", "--n", "150", "--r", "0.15",
                          "--initiators", "3", "--strategy", "weighted",
                          "--alpha", "2", "--beta", "0.5", "--seed", "1")
    assert code == 0
    assert stdout.startswith("active_path_size=")


@pytest.mark.parametrize("token", ["DRW", " drw"])
def test_build_strategy_token_parsed_like_strategies(tmp_path, capsys, token):
    """--strategy goes through parse_strategy, as --strategies does: case and
    surrounding blanks do not matter."""
    layers = []
    for strategy in ("drw", token):
        out = tmp_path / "layer.json"
        code, _, err = run(capsys, "build", "--n", "150", "--r", "0.15", "--initiators", "4",
                           "--strategy", strategy, "--seed", "5", "--out", str(out))
        assert (code, err) == (0, "")
        layers.append(out.read_bytes())
    assert layers[0] == layers[1]


def test_gen_memory_error_exit_2(tmp_path, capsys):
    """An allocation that fails is a runtime failure, not a usage error."""
    out = tmp_path / "net.json"
    with mock.patch.object(cli, "generate_network", side_effect=MemoryError):
        code, stdout, err = run(capsys, "gen", "--n", "10", "--r", "0.5", "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err == "drw-overlay: MemoryError\n"


# A path 0-1-2 with 0.05-long edges at r=0.06; node 3 is isolated.
CHAIN_POSITIONS = [[0.1, 0.1], [0.15, 0.1], [0.2, 0.1], [0.9, 0.9]]


def chain_json(**changes):
    data = to_json_dict(network_from_positions(CHAIN_POSITIONS, 0.06))
    data.update(changes)
    return data


# A connected path 0-1-2-3 with the same spacing.
PATH_POSITIONS = [[0.1, 0.1], [0.15, 0.1], [0.2, 0.1], [0.25, 0.1]]


def path_json(**changes):
    data = to_json_dict(network_from_positions(PATH_POSITIONS, 0.06))
    data.update(changes)
    return data


def build_from_json(tmp_path, capsys, data, *extra):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    return run(capsys, "build", "--net", str(path), "--initiators", "4",
               "--seed", "1", *extra)


@pytest.mark.parametrize("data", [
    {k: v for k, v in chain_json().items() if k != "seed"},
    chain_json(edges=[[0, 1], [1, 2], [0, 1]]),   # duplicate edge
    chain_json(edges=[[0, 1], [1, 2], [3, 3]]),   # self-loop
    chain_json(r=0.01),                           # edges longer than r
    chain_json(edges=[[0, 1]]),                   # edge missing
    path_json(n=4.5),
    path_json(seed=1.9),
    path_json(seed=True),
    path_json(r="0.06"),
    path_json(r=math.inf, edges=[[u, v] for u in range(4) for v in range(u + 1, 4)]),
    path_json(r=10**400, edges=[[u, v] for u in range(4) for v in range(u + 1, 4)]),
    path_json(positions=[[str(x), str(y)] for x, y in PATH_POSITIONS]),
    path_json(edges=5),
    path_json(edges=[["0", "1"], ["1", "2"], ["2", "3"]]),
    path_json(edges=[[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]]),
    path_json(edges=[[0, True], [True, 2], [2, 3]]),
    path_json(positions=[[x, True] for x, _ in PATH_POSITIONS]),  # the path moved to y=1
], ids=["missing-seed", "duplicate-edge", "self-loop", "edge-too-long", "edge-missing",
        "n-float", "seed-float", "seed-bool", "r-string", "r-infinite", "r-overflow",
        "positions-strings", "edges-not-a-list", "edges-strings", "edges-floats", "edges-bool",
        "positions-bool"])
def test_build_malformed_net_exit_2(tmp_path, capsys, data):
    code, _, err = build_from_json(tmp_path, capsys, data)
    assert code == 2
    assert err.startswith("drw-overlay: ") and len(err.splitlines()) == 1


def test_build_reversed_edges_load(tmp_path, capsys):
    """The control for the cases above: edges in either orientation and any order."""
    code, _, err = build_from_json(tmp_path, capsys, path_json(edges=[[3, 2], [1, 0], [2, 1]]))
    assert (code, err) == (0, "")


def test_build_isolated_initiator_exit_2(tmp_path, capsys):
    code, _, err = build_from_json(tmp_path, capsys, chain_json())
    assert code == 2
    assert err == "drw-overlay: network is not connected\n"


def test_build_two_component_net_exit_2(tmp_path, capsys):
    """No node is isolated, but the two pairs cannot reach each other."""
    pairs = [[0.1, 0.1], [0.15, 0.1], [0.8, 0.8], [0.85, 0.8]]
    data = to_json_dict(network_from_positions(pairs, 0.06))
    code, _, err = build_from_json(tmp_path, capsys, data)
    assert code == 2
    assert err == "drw-overlay: network is not connected\n"


@pytest.mark.filterwarnings("error")  # a numpy overflow warning would be a second line
@pytest.mark.parametrize("positions, edges", [
    ([[-1e308, 0], [1e308, 0]], []),
    ([[0, 0], [1e300, 0], [1e300, 0.5]], [[1, 2]]),
], ids=["opposite-ends-of-the-doubles", "far-pair"])
def test_build_far_apart_net_is_not_connected(tmp_path, capsys, positions, edges):
    """A difference or square that overflows is no edge, and says nothing else."""
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"n": len(positions), "r": 1.0, "seed": 0,
                                "positions": positions, "edges": edges}))
    code, _, err = run(capsys, "build", "--net", str(path), "--initiators", "2")
    assert code == 2
    assert err == "drw-overlay: network is not connected\n"


# --- experiment ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    code = main(["experiment", "--desk", "--scale", "0.02",
                 "--strategies", "drw,prw", "--seed", "1",
                 "--out-dir", str(out)])
    assert code == 0
    return out


def test_experiment_writes_both_csvs(desk_run, capsys):
    capsys.readouterr()
    assert (desk_run / "records.csv").exists()
    assert (desk_run / "summary.csv").exists()


def test_experiment_row_count_matches_protocol(desk_run):
    # desk at scale 0.02: initiator lists filtered to <= 0.02*n,
    # n=200 -> {2,3,4}, n=500 -> {2..10}, n=1000 -> {2..10,20}; R=10
    records = read_records_csv(desk_run / "records.csv")
    cells = 3 + 9 + 10
    assert len(records) == cells * 2 * 10
    assert all(rec.failed == 0 for rec in records)


def test_experiment_metadata_block(desk_run):
    head = (desk_run / "records.csv").read_text().splitlines()[:8]
    assert head[0].startswith("# overlay-experiment v")
    assert any("scenario=desk scale=0.02" in l for l in head)
    assert any("r_rescale_ref=1000" in l for l in head)


def test_experiment_reports_partial_failures(tmp_path, capsys):
    """A sweep where some builds fail, but no cell fails outright, exits 0
    and counts the failed builds on stdout and in one stderr line."""
    code, out, err = run(capsys, "experiment", "--desk", "--scale", "0.02",
                         "--step-budget", "150", "--seed", "1",
                         "--out-dir", str(tmp_path))
    failed = sum(rec.failed for rec in read_records_csv(tmp_path / "records.csv"))
    assert code == 0 and 0 < failed < 440
    report = dict(line.split("=", 1) for line in out.splitlines())
    assert (report["rows"], report["failed_cells"]) == ("440", "0")
    assert report["failed_builds"] == str(failed)
    assert err == f"drw-overlay: {failed} of 440 builds failed; summary.csv leaves them out\n"


def test_experiment_counts_cells_alike_when_every_build_fails(tmp_path, capsys):
    """cells= and failed_cells= both count (n, strategy, I) cells, so a
    sweep whose builds all fail reports the two equal."""
    code, out, _ = run(capsys, "experiment", "--desk", "--scale", "0.02",
                       "--step-budget", "1", "--seed", "1", "--out-dir", str(tmp_path))
    report = dict(line.split("=", 1) for line in out.splitlines())
    assert code == 2 and report["failed_builds"] == report["rows"] == "440"
    assert report["cells"] == report["failed_cells"] == "44"


def test_experiment_jobs_invariance(tmp_path, capsys):
    outs = []
    for jobs, sub in (("1", "j1"), ("4", "j4")):
        d = tmp_path / sub
        code = main(["experiment", "--desk", "--scale", "0.013",
                     "--strategies", "drw", "--seed", "3",
                     "--out-dir", str(d), "--jobs", jobs])
        capsys.readouterr()
        assert code == 0
        outs.append(d)
    a = mask_wall_time((outs[0] / "records.csv").read_text())
    b = mask_wall_time((outs[1] / "records.csv").read_text())
    assert a == b
    assert (outs[0] / "summary.csv").read_bytes() == \
        (outs[1] / "summary.csv").read_bytes()


# --- stats ------------------------------------------------------------------------

def test_stats_matches_experiment_summary(desk_run, capsys):
    code, stdout, _ = run(capsys, "stats", "--in",
                          str(desk_run / "records.csv"))
    assert code == 0
    summary_lines = [l for l in
                     (desk_run / "summary.csv").read_text().splitlines()
                     if not l.startswith("#")]
    assert stdout.splitlines() == summary_lines


def test_stats_custom_grouping(desk_run, capsys):
    code, stdout, _ = run(capsys, "stats", "--in",
                          str(desk_run / "records.csv"),
                          "--group", "strategy")
    assert code == 0
    assert stdout.splitlines()[0].startswith("strategy,metric,")


def test_stats_group_rule_is_the_library_rule(tmp_path, capsys):
    """`stats` rejects an unknown --group column with summarize's message,
    before it opens the records file."""
    with pytest.raises(ValueError) as exc:
        summarize([], group_keys=("n", "nope"))
    code, out, err = run(capsys, "stats", "--in", str(tmp_path / "missing.csv"),
                         "--group", "n,nope")
    assert (code, out) == (1, "")
    assert err == f"drw-overlay: error: {exc.value}\n"


GOOD_ROW = dict(n="1000", r="0.05", strategy="drw", initiators="10", rep="0",
                seed="7", active_path_size="200", depth="0.500000",
                total_steps="180", total_backtracks="3", failed="0",
                wall_time_ms="1.000")


@pytest.mark.parametrize("bad", [
    dict(active_path_size="-5", depth="nan", total_steps="-10"),
    dict(failed="7"),
    dict(active_path_size="-5"),
    dict(total_steps="-10"),
    dict(total_backtracks="-1"),
    dict(depth="nan"),
    dict(depth="1.5"),
    dict(r="0"),
    dict(initiators="1"),
    dict(initiators="1001"),
    dict(active_path_size="9"),
    dict(active_path_size="1001"),
    dict(strategy='"a\nb"', failed="7"),  # a quoted cell holding a line break
    dict(wall_time_ms="nan"),
    dict(wall_time_ms="inf"),
    dict(wall_time_ms="-3.0"),
    dict(seed="-7"),
    dict(seed=str(2**70)),
], ids=["all-four", "failed", "size", "steps", "backtracks", "depth-nan",
        "depth-above-1", "r-zero", "initiators-one", "initiators-above-n",
        "size-below-initiators", "size-above-n", "strategy-newline",
        "wall-time-nan", "wall-time-inf", "wall-time-negative", "seed-negative",
        "seed-above-64-bits"])
def test_stats_impossible_row_exit_2(tmp_path, capsys, bad):
    p = tmp_path / "bad.csv"
    row = {**GOOD_ROW, **bad}
    p.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
    code, out, err = run(capsys, "stats", "--in", str(p))
    assert code == 2 and out == ""
    assert err.startswith("drw-overlay: bad row ") and len(err.splitlines()) == 1


def test_stats_good_row_accepted(tmp_path, capsys):
    p = tmp_path / "good.csv"
    p.write_text(",".join(GOOD_ROW) + "\n" + ",".join(GOOD_ROW.values()) + "\n")
    code, _, _ = run(capsys, "stats", "--in", str(p))
    assert code == 0


def test_stats_failed_row_with_empty_layer_accepted(tmp_path, capsys):
    """A failed build writes size 0, below its initiator count."""
    failed = {**GOOD_ROW, "rep": "1", "active_path_size": "0", "depth": "0.000000",
              "total_steps": "0", "total_backtracks": "0", "failed": "1"}
    p = tmp_path / "mixed.csv"
    p.write_text("\n".join(",".join(row) for row in (GOOD_ROW, GOOD_ROW.values(),
                                                      failed.values())) + "\n")
    code, _, err = run(capsys, "stats", "--in", str(p))
    assert (code, err) == (0, "")


def test_stats_repeated_replication_exit_2(desk_run, tmp_path, capsys):
    """A records.csv with its data rows appended again would count every
    replication twice."""
    text = (desk_run / "records.csv").read_text()
    data = [line for line in text.splitlines(keepends=True)
            if not line.startswith(("#", "n,"))]
    p = tmp_path / "twice.csv"
    p.write_text(text + "".join(data))
    code, out, err = run(capsys, "stats", "--in", str(p))
    assert code == 2 and out == ""
    assert err.startswith("drw-overlay: bad row ") and len(err.splitlines()) == 1
    assert "repeats the (n, strategy, initiators, rep) of an earlier row" in err


@pytest.mark.parametrize("other", [
    dict(rep="1"), dict(strategy="prw"), dict(initiators="11"), dict(n="2000"),
], ids=["rep", "strategy", "initiators", "n"])
def test_stats_rows_of_other_replications_accepted(tmp_path, capsys, other):
    """Two rows are one replication only when n, strategy, initiators and rep
    all agree."""
    p = tmp_path / "two.csv"
    rows = (GOOD_ROW, GOOD_ROW.values(), {**GOOD_ROW, **other}.values())
    p.write_text("\n".join(",".join(row) for row in rows) + "\n")
    code, _, err = run(capsys, "stats", "--in", str(p))
    assert (code, err) == (0, "")


# --- the exit contract ----------------------------------------------------------------
#
# Each row is an argv and a fragment of its one stderr line. A row runs in
# an empty working directory, run/, beside in/, which holds the input files
# the rows name.

BUILD_ARGV = ("build", "--n", "100", "--r", "0.2", "--initiators", "3")
WEIGHTED_BUILD = BUILD_ARGV + ("--strategy", "weighted")
EXPERIMENT_ARGV = ("experiment", "--desk", "--scale", "0.02")
NET_ARGV = ("build", "--net", "../in/net.json", "--initiators", "3")
NOT_FINITE = "alpha and beta must be finite and non-negative"
BAD_COUNT = "invalid positive_int value"

USAGE_ERRORS = {
    "no-command": ((), "required: command"),
    "unknown-flag": (("gen", "--n", "5", "--r", "0.5", "--out", "x.json", "--bogus"),
                     "unrecognized arguments: --bogus"),
    "gen-bad-n": (("gen", "--n", "1", "--r", "0.5", "--out", "x.json"), "n must be >= 2"),
    "build-one-initiator": (("build", "--n", "100", "--r", "0.2", "--initiators", "1"),
                            "number of initiators must be >= 2"),
    "build-neither-net-nor-n": (("build", "--initiators", "3"), "exactly one of --net or --n"),
    "build-n-without-r": (("build", "--n", "100", "--initiators", "3"), "--r goes with --n"),
    # --net fixes the radius, so --r with it is rejected, as --n is.
    "build-net-with-r": (NET_ARGV + ("--r", "0.01"), "--r goes with --n"),
    "build-net-with-n": (NET_ARGV + ("--n", "150"), "exactly one of --net or --n"),
    "build-net-with-n-and-r": (NET_ARGV + ("--n", "150", "--r", "0.15"),
                               "exactly one of --net or --n"),
    "build-unknown-strategy": (BUILD_ARGV + ("--strategy", "bfs"), "unknown strategy 'bfs'"),
    "build-bogus": (BUILD_ARGV + ("--bogus",), "unrecognized arguments: --bogus"),
    "build-step-budget-0": (BUILD_ARGV + ("--step-budget", "0"), f"--step-budget: {BAD_COUNT}"),
    "build-step-budget-negative": (BUILD_ARGV + ("--step-budget", "-3"),
                                   f"--step-budget: {BAD_COUNT}"),
    "build-alpha-nan": (WEIGHTED_BUILD + ("--alpha", "nan"), NOT_FINITE),
    "build-alpha-inf": (WEIGHTED_BUILD + ("--alpha", "inf"), NOT_FINITE),
    "build-beta-nan": (WEIGHTED_BUILD + ("--beta", "nan"), NOT_FINITE),
    "build-alpha-negative": (WEIGHTED_BUILD + ("--alpha", "-1"), NOT_FINITE),
    "build-r-nan": (("build", "--n", "100", "--r", "nan", "--initiators", "3"),
                    "r must be a finite number > 0, got nan"),
    "build-r-inf": (("build", "--n", "100", "--r", "inf", "--initiators", "3"),
                    "r must be a finite number > 0, got inf"),
    "gen-r-nan": (("gen", "--n", "100", "--r", "nan", "--out", "net.json"),
                  "r must be a finite number > 0, got nan"),
    "gen-r-inf": (("gen", "--n", "100", "--r", "inf", "--out", "net.json"),
                  "r must be a finite number > 0, got inf"),
    "experiment-alpha-nan": (("experiment", "--desk", "--strategies", "weighted", "--alpha", "nan"),
                             NOT_FINITE),
    "experiment-alpha-inf": (("experiment", "--desk", "--strategies", "weighted", "--alpha", "inf"),
                             NOT_FINITE),
    "experiment-bogus": (EXPERIMENT_ARGV + ("--bogus",), "unrecognized arguments: --bogus"),
    "experiment-step-budget-0": (EXPERIMENT_ARGV + ("--step-budget", "0"),
                                 f"--step-budget: {BAD_COUNT}"),
    "experiment-full-step-budget-0": (("experiment", "--step-budget", "0"),
                                      f"--step-budget: {BAD_COUNT}"),
    "experiment-full-step-budget-negative": (("experiment", "--step-budget", "-3"),
                                             f"--step-budget: {BAD_COUNT}"),
    "experiment-jobs-x": (EXPERIMENT_ARGV + ("--jobs", "x"), f"--jobs: {BAD_COUNT}"),
    "experiment-jobs-0": (EXPERIMENT_ARGV + ("--jobs", "0"), f"--jobs: {BAD_COUNT}"),
    "experiment-scale-above-1": (("experiment", "--scale", "1.5"), "scale must be in (0, 1]"),
    "experiment-scale-0": (("experiment", "--scale", "0"), "scale must be in (0, 1]"),
    "experiment-empty-initiator-grid": (("experiment", "--scale", "0.001"),
                                        "no initiator counts for n=1000"),
    "experiment-bad-strategy-token": (("experiment", "--strategies", "drw,dfs"),
                                      "unknown strategy 'dfs'"),
    "experiment-repeated-strategy": (
        EXPERIMENT_ARGV + ("--strategies", "drw,DRW", "--out-dir", "out"),
        "a strategy is listed twice"),
    "stats-unknown-group-column": (("stats", "--in", "../in/records.csv", "--group", "nope"),
                                   "unknown group column 'nope'"),
    # A column listed twice would print a duplicate column.
    "stats-group-column-twice": (("stats", "--in", "../in/records.csv", "--group", "n,n"),
                                 "group column 'n' is listed twice"),
}

RUNTIME_ERRORS = {
    "gen-subcritical-radius": (("gen", "--n", "300", "--r", "0.001", "--out", "no.json"),
                               "no connected placement after 1000 attempts"),
    # The pair phase cannot finish on one step.
    "build-failure": (("build", "--n", "300", "--r", "0.08", "--initiators", "2", "--seed", "0",
                       "--step-budget", "1"), "step budget 1 spent"),
    "build-missing-net-file": (("build", "--net", "/nonexistent/u.json", "--initiators", "3"),
                               "No such file"),
    "stats-empty-input": (("stats", "--in", "../in/empty.csv"), "no non-failed records"),
    "stats-malformed-input": (("stats", "--in", "../in/bad.csv"), "unexpected columns"),
    "stats-missing-file": (("stats", "--in", "/nonexistent/records.csv"), "No such file"),
    # --out-dir is made before the sweep, so a path naming a file fails at once.
    "experiment-out-dir-file": (EXPERIMENT_ARGV + ("--out-dir", "../in/taken"), "File exists"),
}


@pytest.mark.parametrize("argv, fragment", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_usage_error_contract(tmp_path, monkeypatch, capsys, argv, fragment):
    """Exit 1, nothing on stdout, one stderr line that starts
    `drw-overlay: error: ` and names the fault; no sweep runs and nothing is
    written, even where a parser would let an output path through."""
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "net.json").write_text(json.dumps(path_json()))
    (tmp_path / "in" / "records.csv").write_text(",".join(GOOD_ROW) + "\n"
                                                 + ",".join(GOOD_ROW.values()) + "\n")
    (tmp_path / "run").mkdir()
    monkeypatch.chdir(tmp_path / "run")
    with mock.patch.object(cli, "run_scenario") as sweep:
        code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and not sweep.called
    assert err.startswith("drw-overlay: error: ") and len(err.splitlines()) == 1
    assert fragment in err
    assert not any((tmp_path / "run").iterdir())


@pytest.mark.parametrize("argv, fragment", list(RUNTIME_ERRORS.values()), ids=list(RUNTIME_ERRORS))
def test_runtime_error_contract(tmp_path, monkeypatch, capsys, argv, fragment):
    """Exit 2, nothing on stdout, one stderr line that starts `drw-overlay: `
    and names the fault; no sweep runs and nothing is written."""
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "empty.csv").write_text(",".join(RECORD_COLUMNS) + "\n")
    (tmp_path / "in" / "bad.csv").write_text("who,what\n1,2\n")
    (tmp_path / "in" / "taken").write_text("")
    (tmp_path / "run").mkdir()
    monkeypatch.chdir(tmp_path / "run")
    with mock.patch.object(cli, "run_scenario") as sweep:
        code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and not sweep.called
    assert err.startswith("drw-overlay: ") and len(err.splitlines()) == 1
    assert fragment in err
    assert not any((tmp_path / "run").iterdir())


# --- fuzzed input files ---------------------------------------------------------------

def run_captured(*argv):
    """main(argv) without capsys, which a hypothesis example may not share."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


CELLS = st.one_of(
    st.integers(-3, 3000).map(str),
    st.floats().map(repr),
    # The long cell is over csv.field_size_limit().
    st.sampled_from(["", "drw", "a\nb", "nan", "-inf", "1e400", "1_0", "0x1", " 7 ", "10" * 20,
                     "9" * 140_000]),
    st.text(max_size=4),
)
GOOD_CELLS = list(GOOD_ROW.values())


@st.composite
def records_text(draw):
    """A records CSV: the real header or a garbled one, then rows that are
    GOOD_ROW with some cells replaced, some rows cut short or extended."""
    header = draw(st.one_of(st.just(list(RECORD_COLUMNS)),
                            st.lists(st.sampled_from(RECORD_COLUMNS + ("x",)), max_size=13)))
    rows = [header]
    for cells in draw(st.lists(st.lists(st.none() | CELLS, min_size=11, max_size=13),
                               max_size=4)):
        rows.append([good if cell is None else cell
                     for cell, good in zip(cells, GOOD_CELLS + ["1"])])
    if draw(st.booleans()):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        text = buf.getvalue()
    else:
        text = "".join(",".join(row) + "\n" for row in rows)
    noise = draw(st.sampled_from(["", "# comment\n", "\n", "\0", "\ufeff"]))
    return noise + text if draw(st.booleans()) else text + noise


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 2**70) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=8)
NET_KEYS = ("n", "r", "seed", "positions", "edges")


@st.composite
def network_text(draw):
    """path_json() with one key dropped or replaced, one pair or coordinate
    replaced, or its text cut short or nested past the parser's recursion limit."""
    data = path_json()
    key = draw(st.sampled_from(NET_KEYS))
    how = draw(st.sampled_from(["drop", "replace", "pair", "coordinate", "cut", "nest"]))
    if how == "drop":
        del data[key]
    elif how == "replace":
        data[key] = draw(JSON_VALUES)
    elif how in ("pair", "coordinate"):
        rows = data[draw(st.sampled_from(("positions", "edges")))]
        i = draw(st.integers(0, len(rows) - 1))
        if how == "pair":
            rows[i] = draw(JSON_VALUES)
        else:
            rows[i][draw(st.integers(0, 1))] = draw(JSON_VALUES)
    text = json.dumps(data)
    if how == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif how == "nest":
        text = text.replace(f'"{key}": ', f'"{key}": ' + "[" * 100_000, 1)
    return text


def assert_one_line_exit(code, err):
    assert code in (0, 1, 2)
    assert len(err.splitlines()) <= 1 and "Traceback" not in err


@settings(max_examples=150, deadline=None)
@given(text=records_text())
def test_stats_fuzzed_records_one_line_exit(tmp_path_factory, text):
    p = tmp_path_factory.getbasetemp() / "fuzzed-records.csv"
    p.write_text(text, encoding="utf-8")
    code, _, err = run_captured("stats", "--in", str(p))
    assert_one_line_exit(code, err)


@settings(max_examples=150, deadline=None)
@given(text=network_text(), initiators=st.integers(2, 5))
def test_build_fuzzed_net_one_line_exit(tmp_path_factory, text, initiators):
    p = tmp_path_factory.getbasetemp() / "fuzzed-net.json"
    p.write_text(text, encoding="utf-8")
    code, _, err = run_captured("build", "--net", str(p), "--initiators", str(initiators))
    assert_one_line_exit(code, err)


# --- fuzzed argv --------------------------------------------------------------------

# Every path flag draws from these, relative to a scratch working directory:
# inputs sit in ../in, where no output flag reaches.
IN_PATHS = st.sampled_from(["../in/net.json", "../in/records.csv", "missing.csv", "."])
OUT_PATHS = st.sampled_from(["out.json", "sub/out.json", "sub", ".", ""])
NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "-1", "0.5", "0.02", "1e-9", "nan", "inf", "x", "",
                     "1_0", " 7 "]),
    st.integers(-2, 2**70).map(str),
    st.floats().map(repr),
)
TOKENS = st.sampled_from(["drw", "DRW", " prw", "twohop", "weighted", "bfs", "drw,prw",
                          "drw,DRW", ",", "", "a\nb"])
FLAG_VALUES = {
    "--n": NUMBERS, "--r": NUMBERS, "--seed": NUMBERS, "--initiators": NUMBERS,
    "--alpha": NUMBERS, "--beta": NUMBERS, "--scale": NUMBERS, "--step-budget": NUMBERS,
    "--jobs": st.integers(-1, 2).map(str),
    "--strategy": TOKENS, "--strategies": TOKENS,
    "--group": st.sampled_from(["n", "strategy,rep", "", ",", "nope", "n,n"]),
    "--net": IN_PATHS, "--in": IN_PATHS, "--out": OUT_PATHS, "--out-dir": OUT_PATHS,
    "--desk": st.just(None),
}
# A valid argv per command, which each example keeps most of.
BASE_ARGV = {
    "gen": [("--n", "4"), ("--r", "0.06"), ("--out", "out.json")],
    "build": [("--net", "../in/net.json"), ("--initiators", "3")],
    "experiment": [("--desk", None), ("--scale", "0.02")],
    "stats": [("--in", "../in/records.csv")],
}
# Each command's flags, read from the parser, so a new flag without an entry
# in FLAG_VALUES fails the fuzz below.
COMMAND_FLAGS = {
    name: [f for a in sub._actions if a.dest != "help" for f in a.option_strings]
    for action in cli.build_parser()._actions if isinstance(action, argparse._SubParsersAction)
    for name, sub in action.choices.items()
}
# Tokens that are no flag's value. No drawn text begins with "-", so none is
# taken for an abbreviated path flag, and none holds a "/", so one that a
# path flag takes as its value names a file in the scratch directory.
STRAY = st.sampled_from(["--bogus", "-x", "--", "-h"]) | st.text(max_size=3).filter(
    lambda t: not t.startswith("-") and "/" not in t)


def rarely(draw) -> bool:
    return draw(st.integers(0, 7)) == 0


@st.composite
def cli_argv(draw):
    """A command, most of its valid flags, then flags of its own or of any
    command with drawn values, rarely with the value or the command wrong or
    a stray token put in."""
    command = "bogus" if rarely(draw) else draw(st.sampled_from(sorted(BASE_ARGV)))
    pairs = [p for p in BASE_ARGV.get(command, []) if not rarely(draw)]
    own = st.sampled_from(COMMAND_FLAGS.get(command, ["--n"]))
    for flag in draw(st.lists(own | st.sampled_from(sorted(FLAG_VALUES)), max_size=3)):
        pairs.append((flag, None if rarely(draw) else draw(FLAG_VALUES[flag])))
    argv = [command] + [t for pair in pairs for t in pair if t is not None]
    if rarely(draw):
        argv.insert(draw(st.integers(1, len(argv))), draw(STRAY))
    return argv


@settings(max_examples=250, deadline=None)
@given(argv=cli_argv())
def test_fuzzed_argv_one_line_exit(tmp_path_factory, argv):
    """Each command, real flags or garbled ones: exit 0, 1 or 2 and at most
    one stderr line. The sweep and network generation are stubbed, so every
    example runs in milliseconds, and the working directory is scratch."""
    base = tmp_path_factory.getbasetemp() / "fuzzed-argv"
    (base / "in").mkdir(parents=True, exist_ok=True)
    (base / "run").mkdir(exist_ok=True)
    small = network_from_positions(PATH_POSITIONS, 0.06)
    (base / "in" / "net.json").write_text(json.dumps(to_json_dict(small)))
    (base / "in" / "records.csv").write_text(",".join(GOOD_ROW) + "\n"
                                             + ",".join(GOOD_ROW.values()) + "\n")
    cwd = os.getcwd()
    os.chdir(base / "run")
    try:
        with mock.patch.object(cli, "run_scenario", return_value=[]), \
                mock.patch.object(cli, "generate_network", return_value=small):
            code, _, err = run_captured(*argv)
    finally:
        os.chdir(cwd)
    assert_one_line_exit(code, err)
