"""Command-line behavior: exit codes, file outputs, reproducibility."""

import json
import math

import pytest

from drw_overlay.cli import main
from drw_overlay.experiments import read_records_csv
from drw_overlay.geom_graph import load_network, network_from_positions, to_json_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def mask_wall_time(text: str) -> str:
    out = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("n,"):
            out.append(line)
        else:
            out.append(line.rsplit(",", 1)[0] + ",0")
    return "\n".join(out)


# --- parsing and exit codes --------------------------------------------------

def test_no_command_is_usage_error(capsys):
    code, _, _ = run(capsys, )
    assert code == 1


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "gen", "--n", "5", "--r", "0.5",
                     "--out", "x.json", "--bogus")
    assert code == 1


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


def test_gen_subcritical_radius_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--n", "300", "--r", "0.001",
                       "--out", str(tmp_path / "no.json"))
    assert code == 2
    assert "attempts" in err


def test_gen_bad_n_usage_error(tmp_path, capsys):
    code, _, _ = run(capsys, "gen", "--n", "1", "--r", "0.5",
                     "--out", str(tmp_path / "x.json"))
    assert code == 1


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


def test_build_one_initiator_usage_error(capsys):
    code, _, err = run(capsys, "build", "--n", "100", "--r", "0.2",
                       "--initiators", "1")
    assert code == 1
    assert "initiators" in err


def test_build_requires_net_or_n(capsys):
    code, _, _ = run(capsys, "build", "--initiators", "3")
    assert code == 1
    code, _, _ = run(capsys, "build", "--n", "100", "--initiators", "3")
    assert code == 1


def test_build_unknown_strategy_usage_error(capsys):
    code, _, _ = run(capsys, "build", "--n", "100", "--r", "0.2",
                     "--initiators", "3", "--strategy", "bfs")
    assert code == 1


def test_build_failure_exit_2(tmp_path, capsys):
    """Tiny budget cannot finish the pair phase on a sparse network."""
    code, _, err = run(capsys, "build", "--n", "300", "--r", "0.08",
                       "--initiators", "2", "--seed", "0",
                       "--step-budget", "1")
    assert code == 2
    assert "failed" in err or "budget" in err


def test_build_missing_net_file_exit_2(capsys):
    code, _, _ = run(capsys, "build", "--net", "/nonexistent/u.json",
                     "--initiators", "3")
    assert code == 2


WEIGHTED_BUILD = ("build", "--n", "100", "--r", "0.2", "--initiators", "3",
                  "--strategy", "weighted")


@pytest.mark.parametrize("argv", [
    WEIGHTED_BUILD + ("--alpha", "nan"),
    WEIGHTED_BUILD + ("--alpha", "inf"),
    WEIGHTED_BUILD + ("--beta", "nan"),
    WEIGHTED_BUILD + ("--alpha", "-1"),
    ("experiment", "--desk", "--strategies", "weighted", "--alpha", "nan"),
    ("experiment", "--desk", "--strategies", "weighted", "--alpha", "inf"),
    ("gen", "--n", "100", "--r", "nan", "--out", "net.json"),
    ("build", "--n", "100", "--r", "nan", "--initiators", "3"),
], ids=["build-alpha-nan", "build-alpha-inf", "build-beta-nan", "build-alpha-negative",
        "experiment-alpha-nan", "experiment-alpha-inf", "gen-r-nan", "build-r-nan"])
def test_non_finite_weight_or_radius_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # nothing is written, even where a parser lets one through
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert len(err.splitlines()) == 1


def test_build_step_budget_below_one_usage_error(capsys):
    for budget in ("0", "-3"):
        code, _, err = run(capsys, "build", "--n", "100", "--r", "0.2",
                           "--initiators", "3", "--step-budget", budget)
        assert code == 1
        assert "--step-budget" in err


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
    path_json(positions=[[str(x), str(y)] for x, y in PATH_POSITIONS]),
    path_json(edges=5),
    path_json(edges=[["0", "1"], ["1", "2"], ["2", "3"]]),
    path_json(edges=[[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]]),
    path_json(edges=[[0, True], [True, 2], [2, 3]]),
    path_json(positions=[[x, True] for x, _ in PATH_POSITIONS]),  # the path moved to y=1
], ids=["missing-seed", "duplicate-edge", "self-loop", "edge-too-long", "edge-missing",
        "n-float", "seed-float", "seed-bool", "r-string", "r-infinite", "positions-strings",
        "edges-not-a-list", "edges-strings", "edges-floats", "edges-bool", "positions-bool"])
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


def test_experiment_scale_out_of_range(capsys):
    assert main(["experiment", "--scale", "1.5"]) == 1
    assert main(["experiment", "--scale", "0"]) == 1
    capsys.readouterr()


def test_experiment_empty_initiator_grid_usage_error(capsys):
    assert main(["experiment", "--scale", "0.001"]) == 1
    assert "no initiator counts for n=1000" in capsys.readouterr().err


def test_experiment_bad_strategy_token(capsys):
    assert main(["experiment", "--strategies", "drw,dfs"]) == 1
    capsys.readouterr()


def test_experiment_step_budget_below_one_usage_error(capsys):
    for budget in ("0", "-3"):
        assert main(["experiment", "--step-budget", budget]) == 1
        assert "--step-budget" in capsys.readouterr().err


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


def test_stats_unknown_group_column(desk_run, capsys):
    code, _, _ = run(capsys, "stats", "--in",
                     str(desk_run / "records.csv"), "--group", "nope")
    assert code == 1


def test_stats_empty_input_exit_2(tmp_path, capsys):
    p = tmp_path / "empty.csv"
    p.write_text("n,r,strategy,initiators,rep,seed,active_path_size,"
                 "depth,total_steps,total_backtracks,failed,wall_time_ms\n")
    code, _, err = run(capsys, "stats", "--in", str(p))
    assert code == 2


def test_stats_malformed_input_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("who,what\n1,2\n")
    code, _, _ = run(capsys, "stats", "--in", str(p))
    assert code == 2


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
], ids=["all-four", "failed", "size", "steps", "backtracks", "depth-nan",
        "depth-above-1", "r-zero"])
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


def test_stats_missing_file_exit_2(capsys):
    code, _, _ = run(capsys, "stats", "--in", "/nonexistent/records.csv")
    assert code == 2
