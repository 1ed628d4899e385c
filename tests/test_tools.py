"""The scripts under tools/ run against the current program.

`tools/gc_collections.py` counts cyclic-GC collections over the 48
many-initiators builds; it imports the benchmark's workload module and
the package from this checkout, so a renamed name it uses fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_gc_collections_prints_one_json_line():
    proc = subprocess.run([sys.executable, "tools/gc_collections.py", "--seed", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["builds"] == 48
    assert set(report["collections"]) == {"gen0", "gen1", "gen2"}
    assert all(isinstance(c, int) and c >= 0 for c in report["collections"].values())
