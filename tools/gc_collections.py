"""Count cyclic-GC collections over a fixed loop of many-initiators builds.

    python3 tools/gc_collections.py [--seed 1]

Makes the inputs of the benchmark's many-initiators workload
(benchmark/workloads.py: 4 networks of n=3000, r=0.05; I in {1000, 1875,
2625} x 2 build seeds x {drw, prw}: 48 builds), runs the builds once
untraced, and prints one JSON object: the collections of each generation
counted through ``gc.callbacks``, the seconds spent inside them, and the
wall time of the loop. The counts depend only on the program's
allocations, so they repeat exactly for a fixed seed and Python version;
the seconds do not.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

from drw_overlay import overlay  # noqa: E402

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    nets, ops = workloads.WORKLOADS["many-initiators"].setup(args.seed, None)
    gc.collect()
    counts = [0, 0, 0]
    spent = [0.0, 0.0, 0.0]
    started = {}

    def on_gc(phase, info):
        gen = info["generation"]
        if phase == "start":
            started[gen] = time.perf_counter()
        else:
            counts[gen] += 1
            spent[gen] += time.perf_counter() - started.pop(gen)

    gc.callbacks.append(on_gc)
    t0 = time.perf_counter()
    try:
        for k, cfg in ops:
            overlay.build_overlay(nets[k], cfg)
    finally:
        wall = time.perf_counter() - t0
        gc.callbacks.remove(on_gc)
    print(json.dumps({
        "seed": args.seed,
        "builds": len(ops),
        "collections": {f"gen{g}": counts[g] for g in range(3)},
        "gc_s": {f"gen{g}": round(spent[g], 4) for g in range(3)},
        "wall_s": round(wall, 3),
        "python": sys.version.split()[0],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
