"""Untraced cost of a walk step, by strategy and node count.

    python3 tools/step_cost.py [--n 1000 2000 3000] [--r 0.05] [--seed 1]

For each n, makes 3 unit disk networks (radius r) and runs 16 builds of
I = 10 initiators on each, with every strategy, from seeds derived from
--seed alone. Each (n, strategy) cell is timed around its 48
``build_overlay`` calls, 5 times over with the cells interleaved, and the
fastest of the 5 is kept. Prints one JSON object: the exact step count of
each cell, which repeats for a fixed seed, and its µs per step, the build
time over the steps. The time includes each build's set-up (initiator
draw, walk streams, layer assembly), which at I = 10 is a small share.

No build shares its seed with the build before it, so none replays the
initiators or walk words that ``overlay.seed_draws`` keeps for the last
seed: the tool times the cold path, where every build makes its streams.
It is the one caller that never hits that cache.
"""

from __future__ import annotations

import argparse
import json
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[1000, 2000, 3000])
    parser.add_argument("--r", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    cells = {}
    for n in args.n:
        nets = [geom_graph.generate_network(geom_graph.GraphGenConfig(n=n, r=args.r, seed=s))
                for s in seeds(args.seed, n, NETWORKS)]
        for net in nets:
            net.neighbor_bits  # made on first use; keep it out of the timing
        build_seeds = seeds(args.seed, n + 1, BUILDS)
        for kind in walk_engine.STRATEGY_KINDS:
            strategy = walk_engine.parse_strategy(kind)
            cells[n, kind] = [(net, overlay.OverlayBuildConfig(INITIATORS, strategy, seed=b))
                              for net in nets for b in build_seeds]

    steps, best = {}, {}
    clock = time.perf_counter
    for _ in range(REPEATS):
        for key, builds in cells.items():
            total, spent = 0, 0.0
            for net, cfg in builds:
                t0 = clock()
                layer = overlay.build_overlay(net, cfg)
                spent += clock() - t0
                total += layer.total_steps
            steps[key] = total
            best[key] = min(best.get(key, spent), spent)
    print(json.dumps({
        "r": args.r,
        "initiators": INITIATORS,
        "builds_per_cell": NETWORKS * BUILDS,
        "seed": args.seed,
        "steps": {str(n): {k: steps[n, k] for k in walk_engine.STRATEGY_KINDS} for n in args.n},
        "us_per_step": {str(n): {k: round(best[n, k] / steps[n, k] * 1e6, 2)
                                 for k in walk_engine.STRATEGY_KINDS} for n in args.n},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
