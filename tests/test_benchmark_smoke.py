"""The benchmark's self-test runs against the current program.

`benchmark/selftest.py` runs every workload at a tiny size, untraced and
traced, and checks that its output checks catch corrupted outputs. The
traced runs wrap program names by attribute (`overlay.stream`,
`walk_engine.step`, `OverlayRegistry.other_walk_at`, `metrics.depth`, ...),
so renaming one of them fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "benchmark/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
