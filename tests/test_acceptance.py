"""End-to-end acceptance checklist for the overlay construction pipeline.

Ten independent checks, from exact cost-function oracles up to the
statistical claims the guided-walk construction is supposed to deliver.
Each test prints one PASS/FAIL line; conftest repeats the full checklist in
the terminal summary. What each check runs on:

* oracles, invariants and the step budget: generated networks of
  n = 100 to 1000 with the radius rescaled as 0.05 * sqrt(1000 / n), which
  keeps the expected degree at its n = 1000, r = 0.05 level;
* hand traces: small crafted graphs from ``handnets``;
* the paired statistical checks (fewer nodes, dispersion, depth ordering,
  depth saturation): the ``paired_records`` sweep, n = 1000 at r = 0.05,
  I in {2, 3, 10, 20, 100}, 50 replications;
* network growth: the ``growth_records`` sweep, n in {1000, 2000, 3000} at
  a fixed r = 0.05 (the full protocol's radius, so the mean degree rises
  from about 7.5 to 22.5), I = 10, 30 replications. This is not the desk
  scenario, which runs n in {200, 500, 1000} with a rescaled radius;
* CLI determinism: tiny gen/build/experiment runs.

Checks that compare strategies run on paired seeds (identical networks for
both walk strategies), so reruns are reproducible bit for bit.
"""

import math
from statistics import median

import numpy as np
import pytest

import handnets as H
from costs import candidate_costs
from layers import union_find_reason
from marks import mask_of, marked_nodes
from drw_overlay.cli import main
from drw_overlay.experiments import ScenarioConfig, run_scenario
from drw_overlay.geom_graph import GraphGenConfig, generate_network
from drw_overlay.metrics import box_stats
from drw_overlay.overlay import (
    OverlayBuildConfig,
    OverlayRegistry,
    build_overlay,
)
from drw_overlay.walk_engine import (
    ACTIVE,
    CostStrategy,
    INTERSECTED,
    WalkState,
    init_walk,
    step,
    stream_words,
)

DRW = CostStrategy("drw")
PRW = CostStrategy("prw")
TWOHOP = CostStrategy("twohop")

REPORT_LINES: list[str] = []


def record(label: str, passed: bool, detail: str) -> bool:
    line = f"{'PASS' if passed else 'FAIL'}  {label}: {detail}"
    REPORT_LINES.append(line)
    print(line)
    return passed


# --- shared experiment runs ---------------------------------------------------

@pytest.fixture(scope="session")
def paired_records():
    """n=1000, r=0.05, both strategies on identical networks, R=50."""
    cfg = ScenarioConfig(
        n_values=(1000,), r=0.05,
        initiator_counts={1000: (2, 3, 10, 20, 100)},
        strategies=(DRW, PRW), replications=50,
        base_seed=0, label="acceptance")
    return run_scenario(cfg)


@pytest.fixture(scope="session")
def growth_records():
    """I=10 across n in {1000, 2000, 3000}, R=30, paired strategies."""
    cfg = ScenarioConfig(
        n_values=(1000, 2000, 3000), r=0.05,
        initiator_counts={n: (10,) for n in (1000, 2000, 3000)},
        strategies=(DRW, PRW), replications=30,
        base_seed=0, label="acceptance")
    return run_scenario(cfg)


def cell_median(records, field, **keys):
    vals = [getattr(r, field) for r in records
            if not r.failed
            and all(getattr(r, k) == v for k, v in keys.items())]
    assert vals, f"empty cell {keys}"
    return median(vals)


# --- 1. cost functions vs brute-force set intersections ------------------------

def brute_neighbors(net, v):
    """Neighbor set recomputed from raw coordinates, not the adjacency."""
    px, py = net.positions[v]
    out = set()
    for u in range(net.n):
        if u == v:
            continue
        dx = net.positions[u, 0] - px
        dy = net.positions[u, 1] - py
        if dx * dx + dy * dy <= net.radius * net.radius:
            out.add(u)
    return out


def test_cost_functions_match_set_oracles():
    rng = np.random.default_rng(42)
    counts = {"drw": 0, "twohop": 0, "weighted": 0}
    mismatches = 0
    r100 = 0.05 * math.sqrt(1000 / 100)
    for net_seed in range(50):
        net = generate_network(GraphGenConfig(n=100, r=r100, seed=net_seed))
        registry = OverlayRegistry(net.n)
        # grow two real walks so marked / marked2 states are non-trivial
        walks = []
        for wid, strat in ((0, CostStrategy("weighted")), (1, DRW)):
            start, seed = int(rng.integers(net.n)), int(rng.integers(2**32))
            owned = [v for v in (start, *net.adjacency[start]) if registry.owner[v] >= 0]
            if owned:
                # Walk 1 is born on walk 0's path (see README's walk rules);
                # only its path is read.
                w = WalkState(id=wid, path=[start] if owned[0] == start else [start, owned[0]],
                              status=INTERSECTED)
            else:
                w, _ = init_walk(net, start, wid, registry,
                                 lambda _: stream_words(np.random.default_rng(seed)))
            for _ in range(8):
                if w.status != ACTIVE:
                    break
                step(w, net, registry, strat)
            walks.append(w)
        probe, other = walks
        marked, marked2 = marked_nodes(net, probe.marked), marked_nodes(net, probe.marked2)
        alpha, beta = float(rng.integers(1, 4)), float(rng.integers(0, 3))
        weighted = CostStrategy("weighted", alpha, beta)
        for v in rng.integers(0, net.n, size=25):
            v = int(v)
            nv = brute_neighbors(net, v)
            if candidate_costs(probe, net, DRW, [v], 0)[0] != len(nv & marked):
                mismatches += 1
            counts["drw"] += 1
            # src_index 1 makes path[0] the node behind the head.
            behind = other.path[int(rng.integers(len(other.path)))]
            two_hop = candidate_costs(WalkState(id=-1, path=[behind]), net, TWOHOP, [v], 1)[0]
            if two_hop != len(nv & brute_neighbors(net, behind)):
                mismatches += 1
            counts["twohop"] += 1
            want = alpha * len(nv & marked) + beta * len(nv & marked2)
            if candidate_costs(probe, net, weighted, [v], 0)[0] != want:
                mismatches += 1
            counts["weighted"] += 1
    ok = mismatches == 0 and all(c >= 1000 for c in counts.values())
    assert record("cost-function oracles", ok,
                  f"{sum(counts.values())} queries, {mismatches} mismatches")


# --- 2. exact hand-traced builds --------------------------------------------------

def test_hand_built_graphs_trace_exactly():
    problems = []

    net = H.fan_network()
    walk, _ = init_walk(net, H.FAN_X, 0, OverlayRegistry(net.n),
                        lambda _: stream_words(np.random.default_rng(0)))
    walk.marked = mask_of(net, net.neighbors(H.FAN_X))
    pattern = {node: candidate_costs(walk, net, DRW, [node], 0)[0]
               for node in H.FAN_COSTS}
    if pattern != H.FAN_COSTS:
        problems.append(f"fan costs {pattern}")
    res = build_overlay(net, OverlayBuildConfig(
        initiator_count=2, strategy=DRW, seed=4, initiators=H.FAN_INITIATORS))
    z = H.FAN_SCORED["z"]
    if not (res.walks[0].path == [0, 1, z, 15]
            and res.walks[1].path == [13, 14, 15]
            and res.brokers == {15}
            and res.active_path == {0, 1, z, 13, 14, 15}):
        problems.append("fan build")

    net = H.crossing_network()
    for strategy in (DRW, PRW):
        res = build_overlay(net, OverlayBuildConfig(
            initiator_count=2, strategy=strategy, seed=0,
            initiators=H.CROSS_INITIATORS))
        if not (res.walks[0].path == [0, 1, 2, 7]
                and res.walks[1].path == [5, 6, 7]
                and res.brokers == {7}
                and res.total_steps == 3):
            problems.append(f"crossing build {strategy.kind}")

    net = H.star_network()
    res = build_overlay(net, OverlayBuildConfig(
        initiator_count=5, strategy=DRW, seed=0, initiators=H.STAR_TIPS))
    arms_ok = all(w.path == [1 + 3 * k, 2 + 3 * k, 3 + 3 * k, 0]
                  for k, w in enumerate(res.walks))
    if not (arms_ok and res.brokers == {0} and res.active_path == set(range(16))):
        problems.append("star build")

    ok = not problems
    assert record("hand-trace fidelity", ok,
                  "3 graphs exact" if ok else "; ".join(problems))


# --- 3. structural invariants on random builds ----------------------------------

def check_build(net, res):
    reg, edges = {}, set()
    for walk in res.walks:
        if walk.status != INTERSECTED:
            return "walk not intersected"
        if len(set(walk.path)) != len(walk.path):
            return "repeated node in path"
        for i, parent in enumerate(walk.parents):
            if parent < 0:
                continue
            if walk.path[parent] not in net.neighbors(walk.path[i]):
                return "non-adjacent recruitment edge"
            edges.add(tuple(sorted((walk.path[i], walk.path[parent]))))
        for v in walk.path:
            reg.setdefault(v, set()).add(walk.id)
    if res.brokers != {v for v, owners in reg.items() if len(owners) >= 2}:
        return "broker set mismatch"
    if not set(res.initiators) <= res.active_path:
        return "initiator outside layer"
    if res.active_path != set(reg):
        return "active path is not the union of the walk paths"
    if res.active_path_edges != edges:
        return "traced edges are not the walks' recruitment edges"
    reason = union_find_reason(res.active_path, res.active_path_edges)
    if reason is not None:
        return reason
    if len(res.active_path_edges) != len(res.active_path) - 1:
        return "layer is not a tree"
    return None


def test_structural_invariants_hold():
    from drw_overlay.metrics import depth
    r200 = 0.05 * math.sqrt(1000 / 200)
    builds = failures = 0
    for seed in range(34):
        net = generate_network(GraphGenConfig(n=200, r=r200, seed=seed))
        for count in (2, 5, 10, 100, 200):
            for strategy in (DRW, PRW):
                res = build_overlay(net, OverlayBuildConfig(
                    initiator_count=count, strategy=strategy, seed=seed))
                builds += 1
                problem = check_build(net, res)
                d = depth(res, net)
                if problem is None and not 0.0 <= d <= 1.0:
                    problem = f"depth {d}"
                if problem:
                    failures += 1
    ok = failures == 0 and builds >= 340
    assert record("structural invariants", ok,
                  f"{builds} builds, {failures} violations")


# --- 4. guided walks recruit fewer nodes -----------------------------------------

def test_guided_walks_recruit_fewer_nodes(paired_records):
    cells = []
    for count in (2, 10, 100):
        d = cell_median(paired_records, "active_path_size",
                        strategy="drw", initiators=count)
        p = cell_median(paired_records, "active_path_size",
                        strategy="prw", initiators=count)
        cells.append((count, d, p))
    ok = all(d < p for _, d, p in cells)
    assert record("guided walks recruit fewer nodes", ok,
                  "; ".join(f"I={c}: {d:.0f} vs {p:.0f}" for c, d, p in cells))


# --- 5. guided walks disperse less ------------------------------------------------
#
# Spread is compared in absolute node counts: the interquartile range for
# the body of the sample and the range (max - min) for its extreme builds.
# A Tukey outlier count would not do here: each sample's fences come from
# its own IQR, so the count measures tail shape, and a sample with a
# narrower box gets more of its points flagged.

def test_guided_walks_disperse_less(paired_records):
    won = 0
    parts = []
    for count in (2, 10, 100):
        stats = {}
        for strat in ("drw", "prw"):
            xs = [r.active_path_size for r in paired_records
                  if r.strategy == strat and r.initiators == count
                  and not r.failed]
            stats[strat] = box_stats(xs)
        spread = {s: b.maximum - b.minimum for s, b in stats.items()}
        hit = (spread["drw"] <= spread["prw"]
               and stats["drw"].iqr <= stats["prw"].iqr)
        won += hit
        parts.append(f"I={count}: iqr {stats['drw'].iqr:.0f}v"
                     f"{stats['prw'].iqr:.0f}, range "
                     f"{spread['drw']:.0f}v{spread['prw']:.0f}")
    ok = won >= 2
    assert record("guided walks disperse less", ok,
                  f"{won}/3 cells ({'; '.join(parts)})")


# --- 6. active path grows with network size ----------------------------------------

def test_active_path_grows_with_network(growth_records):
    parts = []
    ok = True
    for strat in ("drw", "prw"):
        meds = [cell_median(growth_records, "active_path_size",
                            strategy=strat, n=n)
                for n in (1000, 2000, 3000)]
        increasing = meds[0] < meds[1] < meds[2]
        ok = ok and increasing
        parts.append(f"{strat}: " + " -> ".join(f"{m:.0f}" for m in meds))
    # drw backtracks near the connectivity threshold (n=1000 at r=0.05)
    # and walks straighter as the mean degree rises with n.
    backtracks = [cell_median(growth_records, "total_backtracks",
                              strategy="drw", n=n)
                  for n in (1000, 2000, 3000)]
    parts.append("drw backtracks: "
                 + " -> ".join(f"{b:g}" for b in backtracks))
    assert record("active path grows with network size", ok, "; ".join(parts))


# --- 7. depth ordering at few initiators -------------------------------------------

def test_depth_ordering_at_few_initiators(paired_records):
    d3 = cell_median(paired_records, "depth", strategy="drw", initiators=3)
    d2 = cell_median(paired_records, "depth", strategy="drw", initiators=2)
    p2 = cell_median(paired_records, "depth", strategy="prw", initiators=2)
    ok = d3 > d2 and d2 > p2
    assert record("depth ordering at few initiators", ok,
                  f"drw I=3 {d3:.3f} > drw I=2 {d2:.3f} > prw I=2 {p2:.3f}")


# --- 8. depth saturates while the layer keeps growing --------------------------------

def test_depth_saturates_while_size_grows(paired_records):
    d20 = cell_median(paired_records, "depth", strategy="drw", initiators=20)
    d100 = cell_median(paired_records, "depth", strategy="drw", initiators=100)
    s20 = cell_median(paired_records, "active_path_size",
                      strategy="drw", initiators=20)
    s100 = cell_median(paired_records, "active_path_size",
                       strategy="drw", initiators=100)
    flat = abs(d20 - d100) < 0.05
    doubled = s100 > 2 * s20
    ok = flat and doubled
    assert record("depth saturates while size grows", ok,
                  f"|{d20:.3f}-{d100:.3f}|={abs(d20 - d100):.3f}, "
                  f"size {s20:.0f}->{s100:.0f} (x{s100 / s20:.2f})")


# --- 9. deterministic command-line output --------------------------------------------

def mask_wall_time(text: str) -> str:
    out = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("n,"):
            out.append(line)
        else:
            out.append(line.rsplit(",", 1)[0] + ",0")
    return "\n".join(out)


def test_cli_output_is_reproducible(tmp_path, capsys):
    problems = []

    nets = [tmp_path / "n1.json", tmp_path / "n2.json"]
    for p in nets:
        assert main(["gen", "--n", "120", "--r", "0.15", "--seed", "5",
                     "--out", str(p)]) == 0
    if nets[0].read_bytes() != nets[1].read_bytes():
        problems.append("gen differs")

    layers = [tmp_path / "l1.json", tmp_path / "l2.json"]
    for p in layers:
        assert main(["build", "--net", str(nets[0]), "--initiators", "6",
                     "--strategy", "drw", "--seed", "8", "--out", str(p)]) == 0
    if layers[0].read_bytes() != layers[1].read_bytes():
        problems.append("build differs")

    runs = []
    for jobs, sub in (("1", "a"), ("3", "b")):
        d = tmp_path / sub
        assert main(["experiment", "--desk", "--scale", "0.013",
                     "--strategies", "drw,prw", "--seed", "2",
                     "--out-dir", str(d), "--jobs", jobs]) == 0
        runs.append(d)
    capsys.readouterr()
    rec = [mask_wall_time((d / "records.csv").read_text()) for d in runs]
    if rec[0] != rec[1]:
        problems.append("records differ across --jobs")
    if (runs[0] / "summary.csv").read_bytes() != (runs[1] / "summary.csv").read_bytes():
        problems.append("summaries differ across --jobs")

    ok = not problems
    assert record("deterministic CLI output", ok,
                  "gen/build/experiment byte-stable" if ok else "; ".join(problems))


# --- 10. default step budget always suffices ------------------------------------------

def test_default_step_budget_suffices():
    from drw_overlay.overlay import BuildFailed

    budget_hits = other_failures = builds = 0
    plan = [(100, 25, 16), (200, 20, 12), (500, 15, 12), (1000, 10, 18)]
    for n, nets, reps_per_net in plan:
        r = 0.05 * math.sqrt(1000 / n)
        for net_seed in range(nets):
            net = generate_network(GraphGenConfig(n=n, r=r, seed=net_seed))
            for k in range(reps_per_net):
                strategy = DRW if k % 2 == 0 else PRW
                count = (2, 5, 10, 20)[k % 4]
                try:
                    build_overlay(net, OverlayBuildConfig(
                        initiator_count=count, strategy=strategy,
                        seed=1000 * net_seed + k))
                except BuildFailed as exc:
                    if "budget" in str(exc):
                        budget_hits += 1
                    else:
                        other_failures += 1
                builds += 1
    assert builds >= 1000
    ok = budget_hits == 0 and other_failures == 0
    assert record("default step budget suffices", ok,
                  f"{builds} builds, {budget_hits} budget hits, "
                  f"{other_failures} other failures")
