"""Output bytes pinned to the golden sha256 digests listed in ROADMAP.md.

A speed-up may not change what the simulator writes: these digests were
taken before any optimisation and every later version must reproduce them.
"""

import hashlib

import pytest

from drw_overlay.cli import main
from drw_overlay.geom_graph import GraphGenConfig, generate_network
from drw_overlay.overlay import OverlayBuildConfig, build_overlay
from drw_overlay.walk_engine import parse_strategy


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def first_fields(data: bytes, count: int) -> bytes:
    """`cut -d, -f1-<count>`: records.csv without its wall_time_ms column."""
    return b"".join(b",".join(line.split(b",")[:count]) + b"\n"
                    for line in data.split(b"\n")[:-1])


def test_build_layer_json_golden(tmp_path, capsys):
    blob = b""
    for strategy in ("drw", "prw", "twohop", "weighted"):
        out = tmp_path / f"{strategy}.json"
        assert main(["build", "--n", "1000", "--r", "0.05", "--initiators", "10",
                     "--seed", "3", "--strategy", strategy, "--out", str(out)]) == 0
        blob += out.read_bytes()
    capsys.readouterr()
    assert sha256(blob) == "a01ed058d2c4250748cb4b78564ed743bac94c14540364e5daaf3eec52ad9784"


def test_experiment_csv_golden(tmp_path, capsys):
    assert main(["experiment", "--desk", "--scale", "0.1", "--seed", "1",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    records = first_fields((tmp_path / "records.csv").read_bytes(), 11)
    assert sha256(records) == "70daa294b5b40ce779026fdc9ef1ff01b83298ccb502c11ca6ba9fb614669972"
    summary = (tmp_path / "summary.csv").read_bytes()
    assert sha256(summary) == "c0f06d0d8ae948be85365eefa5e17a5b1b33a5c733c096b987682019febd2ff4"


def test_gen_network_json_golden(tmp_path, capsys):
    """The rejection loop accepts the same placement (attempts=14) and writes
    the same bytes."""
    out = tmp_path / "net.json"
    assert main(["gen", "--n", "1000", "--r", "0.05", "--seed", "7", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "n=1000\nm=3717\nattempts=14\n"
    assert sha256(out.read_bytes()) == "c06f5c150a6a332a9838148f21442b004008c582fa1780adc5a442caf329ba32"


@pytest.fixture(scope="module")
def golden_net():
    return generate_network(GraphGenConfig(n=1000, r=0.05, seed=3))


@pytest.mark.parametrize("strategy, count, digest", [
    ("drw", 10, "455f6633d411377328ef3b5e24e02042c687e78ea5075aa0d5bf6a00f72c132b"),
    ("prw", 10, "cf3dc27bad374afc669f55f0d7c436e8cfe830b77eae08cc45897b76c0682fe4"),
    ("twohop", 10, "e0ab17a3d5bda5208558573da3bbae9b8830629e70ff6643538d6cb94d7e14e3"),
    ("weighted", 10, "3b5fafe76c5f2ad00466ecc5c586a86c503cbdd14d1a53772474617df04c01c6"),
    # 461 of the 500 walks are born intersected.
    ("drw", 500, "2828b501b038b22657bb76383a33ca691db4963cdbc0414833cffd232d2eb54f"),
])
def test_step_trace_golden(golden_net, strategy, count, digest):
    """The per-step cursor and cost sequence of the golden builds, which the
    layer JSON does not pin."""
    trace = []
    build_overlay(golden_net, OverlayBuildConfig(count, parse_strategy(strategy), seed=3), trace)
    assert sha256("".join(repr(r) + "\n" for r in trace).encode()) == digest
