"""Untraced cost of a walk step, by strategy and node count.

    python3 tools/step_cost.py [--n 1000 2000 3000] [--r 0.05] [--seed 1]
                               [--against DIR]

For each n, makes 3 unit disk networks (radius r) and runs 16 builds of
I = 10 initiators on each, with every strategy, from seeds derived from
--seed alone. Each (n, strategy) cell is timed around its 48
``build_overlay`` calls, 5 times over with the cells interleaved, and the
fastest of the 5 is kept. Prints one JSON object: the exact step count of
each cell, which repeats for a fixed seed, and its µs per step, the build
time over the steps. The time includes each build's set-up (initiator
draw, walk streams, layer assembly), which at I = 10 is a small share.
The networks are reused by every repeat, so the two-hop rings weighted
builds keep on them (``Network.two_rings``) are warm after the first.

No build shares its seed with the build before it, so none replays the
initiators or walk words that ``overlay.seed_draws`` keeps, per thread,
for the last seed: the tool times the cold path, where every build makes
its streams.
It is the one caller that never hits that cache.

With --against DIR, the package under DIR/src is loaded as a second module
(``drw_overlay_against``) and every build runs in both trees, one right
after the other, the order swapped from one build to the next, so a slow
spell of the machine slows both alike. The report then adds the other
tree's µs per step and, per cell, the ratio of this tree's time to the
other's: the median over the 5 repeats of the ratio of the two trees'
sums, which keeps each repeat's pairing. Both trees must take the same
steps in every cell, or the tool exits 1.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from drw_overlay import geom_graph, overlay, walk_engine  # noqa: E402

INITIATORS = 10
NETWORKS = 3
BUILDS = 16  # per network
REPEATS = 5


def seeds(seed: int, label: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, label]).generate_state(count)]


def load_tree(src: Path, name: str):
    """(geom_graph, overlay, walk_engine) of the drw_overlay package under
    src, imported as the package `name`."""
    pkg = src / "drw_overlay"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return tuple(importlib.import_module(f"{name}.{part}")
                 for part in ("geom_graph", "overlay", "walk_engine"))


def make_cells(tree, n_values, r, seed) -> dict:
    """Per (n, strategy), the (network, config) of each build, made with tree."""
    graph, lay, engine = tree
    cells = {}
    for n in n_values:
        nets = [graph.generate_network(graph.GraphGenConfig(n=n, r=r, seed=s))
                for s in seeds(seed, n, NETWORKS)]
        for net in nets:
            net.neighbor_bits  # made on first use; keep it out of the timing
        build_seeds = seeds(seed, n + 1, BUILDS)
        for kind in engine.STRATEGY_KINDS:
            strategy = engine.parse_strategy(kind)
            cells[n, kind] = [(net, lay.OverlayBuildConfig(INITIATORS, strategy, seed=b))
                              for net in nets for b in build_seeds]
    return cells


def per_cell(values: dict, n_values) -> dict:
    return {str(n): {k: values[n, k] for k in walk_engine.STRATEGY_KINDS} for n in n_values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[1000, 2000, 3000])
    parser.add_argument("--r", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--against", type=Path, default=None,
                        help="another checkout whose src/ package to time beside this one")
    args = parser.parse_args(argv)

    trees = [(geom_graph, overlay, walk_engine)]
    if args.against is not None:
        trees.append(load_tree(args.against.resolve() / "src", "drw_overlay_against"))
    cells = [make_cells(tree, args.n, args.r, args.seed) for tree in trees]
    builds = [tree[1].build_overlay for tree in trees]
    keys = list(cells[0])
    count = len(cells[0][keys[0]])
    sides = list(range(len(trees)))

    steps = [{} for _ in trees]
    best = [{} for _ in trees]
    ratios = {key: [] for key in keys}
    clock = time.perf_counter
    for rep in range(REPEATS):
        for key in keys:
            total, spent = [0] * len(trees), [0.0] * len(trees)
            for i in range(count):
                for t in sides if (rep * count + i) % 2 == 0 else sides[::-1]:
                    net, cfg = cells[t][key][i]
                    t0 = clock()
                    layer = builds[t](net, cfg)
                    spent[t] += clock() - t0
                    total[t] += layer.total_steps
            for t in range(len(trees)):
                steps[t][key] = total[t]
                best[t][key] = min(best[t].get(key, spent[t]), spent[t])
            ratios[key].append(spent[0] / spent[-1])
    if any(s != steps[0] for s in steps[1:]):
        print(f"step counts differ: {per_cell(steps[0], args.n)} against "
              f"{per_cell(steps[1], args.n)}", file=sys.stderr)
        return 1

    us = [{key: round(b[key] / steps[0][key] * 1e6, 2) for key in keys} for b in best]
    report = {
        "r": args.r,
        "initiators": INITIATORS,
        "builds_per_cell": NETWORKS * BUILDS,
        "seed": args.seed,
        "steps": per_cell(steps[0], args.n),
        "us_per_step": per_cell(us[0], args.n),
    }
    if args.against is not None:
        report["against"] = str(args.against)
        report["against_us_per_step"] = per_cell(us[1], args.n)
        report["ratio"] = per_cell({key: round(statistics.median(ratios[key]), 3) for key in keys},
                                   args.n)
    report["python"] = sys.version.split()[0]
    report["numpy"] = np.__version__
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
