"""Benchmark entry point.

    python3 benchmark/run.py --workload few-initiators --seed 1 --seconds 25 --trace 0

Runs one workload of ``workloads.py`` in this process (no pool, no
threads) against the package under ``src/`` of the same checkout, checks
its outputs, and prints as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
Files go to ``.bench_out/<workload>/seed<seed>/``.
"""

from __future__ import annotations

import os

# One thread per process: no BLAS or OpenMP pool may share the two CPUs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_BURSTS = 20
TIME_UNITS = ("s", "ms", "us")  # per-layer times are scaled by the speed factor too


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def import_program() -> float:
    """Import the package from this checkout's src/; return the seconds it took."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import drw_overlay.cli  # noqa: F401  (imports every module of the package)
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import drw_overlay from {SRC}: {exc}")
    took = time.perf_counter() - t0
    if not Path(drw_overlay.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: drw_overlay came from {drw_overlay.cli.__file__}, "
                         f"not {SRC}")
    return took


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_s = import_program()

    import numpy as np

    import spans
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}, "
                         f"expected one of {sorted(workloads.WORKLOADS)}")
    work = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out" / args.workload / f"seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)

    tracer = spans.Tracer() if args.trace else None
    setup_probe, probe = speed.SpeedProbe(), speed.SpeedProbe()
    setup_times = []
    if tracer:
        workloads.install(tracer)
        state = work.setup(args.seed, out_dir)
        mark = tracer.mark()
    else:
        for _ in range(SETUP_REPEATS):
            state = None
            t0 = time.perf_counter()
            state = work.setup(args.seed, out_dir)
            setup_times.append(time.perf_counter() - t0)
            for _ in range(SETUP_BURSTS):
                setup_probe.burst()

    problems: list[str] = []
    timed = work.run(state, args.seconds, problems, probe, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.restore()
    work.check(state, problems, timed)

    builds = len(timed.build_ms)
    print(f"# {args.workload} seed={args.seed}: {timed.rounds} rounds, "
          f"{timed.attempted} builds, {timed.busy_s:.3f} s timed")
    for digest in timed.digests:
        print(f"# digest {digest}")
    if tracer:
        wanted = spec["per_layer"]
        factor = probe.factor()
        values = workloads.layer_metrics(tracer, mark, timed)
        for m in wanted:
            if m["unit"] in TIME_UNITS:
                values[m["name"]] *= factor
        span_cost, count_cost = spans.wrapper_cost()
        calls = len(tracer.start)
        lookups = tracer.counts["overlay.registry_lookups"]
        overhead = calls * span_cost + lookups * count_cost
        tracer.save(out_dir / "spans.npz")
        (out_dir / "layers.json").write_text(json.dumps(values, indent=1) + "\n")
        print(f"# traced: {calls} spans, {lookups} counted calls, {builds / timed.busy_s:.3f} "
              f"builds/s unscaled, speed factor {factor:.4f}; wrapper cost about "
              f"{overhead:.3f} s ({100 * overhead / timed.busy_s:.1f} % of the traced time)")
    else:
        raw = {
            "builds_per_s": builds / timed.busy_s,
            "build_ms_p50": statistics.median(timed.build_ms),
            "setup_s": import_s + statistics.median(setup_times),
        }
        run_factor, setup_factor = probe.factor(), setup_probe.factor()
        print(f"# unscaled: {raw['builds_per_s']:.3f} builds/s, build p50 "
              f"{raw['build_ms_p50']:.3f} ms, set-up {raw['setup_s']:.3f} s; speed factor "
              f"{run_factor:.4f} over {len(probe.bursts)} bursts, set-up {setup_factor:.4f}")
        scaled_ms = timed.build_ms * probe.local_factors(timed.build_at)
        values = {
            "builds_per_s": raw["builds_per_s"] / run_factor,
            "build_ms_p50": float(np.median(scaled_ms)),
            "setup_s": raw["setup_s"] * setup_factor,
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    for problem in problems[:20]:
        print(f"benchmark: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
