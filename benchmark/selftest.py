"""Self-test of the benchmark, run on its own:

    python3 benchmark/selftest.py

Runs every workload at a tiny size with its checks, untraced and traced,
then feeds the checks corrupted outputs and shows that each one fails.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

run.import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from drw_overlay import geom_graph, metrics, overlay, walk_engine  # noqa: E402

SEED = 7
failures: list[str] = []

# Small versions of the workloads: the same code paths in seconds.
TINY = {
    "protocol-sweep": workloads.Sweep(scale=0.02, desk=True, sweeps=1),
    "few-initiators": workloads.Builds(initiators=(2, 3, 4), strategies=workloads.ALL_STRATEGIES,
                                       replications=1, networks=1, n=300, r=0.16),
    "many-initiators": workloads.Builds(initiators=(100, 200),
                                        strategies=workloads.SWEEP_STRATEGIES,
                                        replications=1, networks=1, n=300, r=0.16),
}


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def tiny_runs(tmp: Path) -> None:
    per_layer = [m["name"] for m in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]
    for name, work in TINY.items():
        seconds = 0.01 if isinstance(work, workloads.Sweep) else 0.5
        problems: list[str] = []
        state = work.setup(SEED, tmp / name)
        timed = work.run(state, seconds, problems, speed.SpeedProbe())
        work.check(state, problems, timed)
        expect(not problems and timed.failed == 0 and timed.attempted > 0
               and len(timed.build_ms) == timed.attempted,
               f"{name}: {timed.rounds} rounds of {timed.attempted // timed.rounds} "
               f"builds pass every check {problems[:3]}")

        tracer = spans.Tracer()
        workloads.install(tracer)
        try:
            state = work.setup(SEED, tmp / f"{name}-traced")
            mark = tracer.mark()
            traced = work.run(state, seconds, problems, speed.SpeedProbe(), tracer)
        finally:
            tracer.restore()
        values = workloads.layer_metrics(tracer, mark, traced)
        expect(not problems and set(values) == set(per_layer)
               and values["walk_engine.steps"] > 0 and values["rng.streams"] > 0,
               f"{name}: traced run reports the {len(per_layer)} per-layer metrics")


def layer_cases() -> None:
    net = geom_graph.generate_network(geom_graph.GraphGenConfig(n=300, r=0.16, seed=SEED))
    cfg = overlay.OverlayBuildConfig(6, walk_engine.parse_strategy("drw"), seed=SEED)
    layer = overlay.build_overlay(net, cfg)
    size, depth = metrics.active_path_size(layer), metrics.depth(layer, net)
    span = checks.max_distance(net.positions)

    def problems(mutate=None, size=size, depth=depth) -> list[str]:
        bad = copy.deepcopy(layer)
        if mutate:
            mutate(bad)
        return checks.check_layer(bad, net.positions, 0.16, span, 6, size, depth)

    expect(problems() == [], "an untouched layer passes the layer checks")

    def drop_node(bad):
        bad.active_path.discard(max(bad.active_path - set(bad.initiators)))

    def add_non_edge(bad):
        a = bad.initiators[0]
        b = max(bad.active_path, key=lambda v: float(np.hypot(*(net.positions[a] - net.positions[v]))))
        bad.active_path_edges.add((min(a, b), max(a, b)))

    def bump_steps(bad):
        bad.walks[0].steps += 1

    def isolate_leaf(bad):
        degree: dict[int, int] = {}
        for e in bad.active_path_edges:
            for v in e:
                degree[v] = degree.get(v, 0) + 1
        leaf = min(v for v, d in degree.items() if d == 1)
        bad.active_path_edges = {e for e in bad.active_path_edges if leaf not in e}

    def repeat_node(bad):
        bad.walks[1].path.append(bad.walks[1].path[0])

    def unfinished(bad):
        bad.walks[2].status = "exhausted"

    def lose_brokers(bad):
        bad.brokers = set()

    cases = [
        ("a dropped active node", drop_node, {}, "not the union"),
        ("a traced edge that is not a network edge", add_non_edge, {}, "not network edges"),
        ("a bumped step count", bump_steps, {}, "steps for a path"),
        ("a layer cut in two", isolate_leaf, {}, "components over its traced edges"),
        ("a walk that repeats a node", repeat_node, {}, "repeats a node"),
        ("a walk that did not intersect", unfinished, {}, "ended exhausted"),
        ("missing brokers", lose_brokers, {}, "brokers are not"),
        ("a wrong active path size", None, {"size": size + 1}, "active path size"),
        ("a depth off by 1e-9", None, {"depth": depth - 1e-9}, "brute force gives"),
    ]
    for what, mutate, override, message in cases:
        found = problems(mutate, **override)
        expect(any(message in p for p in found), f"layer check catches {what}: {found[:2]}")

    adjacency = [list(nbrs) for nbrs in net.adjacency]
    u = next(v for v in range(net.n) if adjacency[v])
    v = adjacency[u].pop()
    adjacency[v].remove(u)
    found = checks.check_network(net.positions, adjacency, 0.16)
    expect(any("differs from brute force" in p for p in found),
           f"network check catches a missing edge: {found[:1]}")
    found = checks.check_network(np.array([[0.0, 0.0], [0.9, 0.0]]), [[], []], 0.16)
    expect(found == ["network has 2 connected components"],
           f"network check catches a disconnected network: {found}")


def sweep_cases(tmp: Path) -> None:
    work = TINY["protocol-sweep"]
    runs = work.setup(SEED, tmp / "sweep-cases")
    work.run(runs, 0.01, [], speed.SpeedProbe())
    source = runs[0][1]

    def problems(edit_records=None, edit_summary=None) -> list[str]:
        target = tmp / "edited"
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(source, target)
        for name, edit in (("records.csv", edit_records), ("summary.csv", edit_summary)):
            if edit:
                lines = (target / name).read_text(encoding="utf-8").splitlines(keepends=True)
                (target / name).write_text("".join(edit(lines)), encoding="utf-8")
        return checks.check_sweep(target / "records.csv", target / "summary.csv", work.cells(),
                                  workloads.SWEEP_STRATEGIES, workloads.SWEEP_REPLICATIONS)[0]

    def data_start(lines):
        return next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1

    def drop_row(lines):
        return lines[:-1]

    def mark_failed(lines):
        i = data_start(lines)
        fields = lines[i].split(",")
        fields[10] = "1"
        return lines[:i] + [",".join(fields)] + lines[i + 1:]

    def shift_median(lines):
        i = data_start(lines)
        fields = lines[i].split(",")
        fields[6] = f"{float(fields[6]) + 0.5:.6f}"
        return lines[:i] + [",".join(fields)] + lines[i + 1:]

    expect(problems() == [], "an untouched sweep passes the sweep checks")
    for what, kwargs, message in (
        ("a missing record row", {"edit_records": drop_row}, "grid points"),
        ("a failed record row", {"edit_records": mark_failed}, "record rows failed"),
        ("a wrong summary median", {"edit_summary": shift_median}, "v numpy"),
    ):
        found = problems(**kwargs)
        expect(any(message in p for p in found), f"sweep check catches {what}: {found[:2]}")


def main() -> int:
    outputs = run.ROOT / ".bench_out"
    outputs.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=outputs) as name:
        tmp = Path(name)
        tiny_runs(tmp)
        layer_cases()
        sweep_cases(tmp)
    print(f"{len(failures)} failed" if failures else "all self-test cases passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
