"""The scripts under tools/ run against the current program.

`tools/step_cost.py` times walk steps by strategy and n; its step counts
are exact, so two runs with one seed must agree on them.
`tools/src_lines.py` splits the package's lines into code, docstring and
other lines. `tools/mutants.py`'s table is checked to apply; the mutants
themselves are not run here.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def test_step_cost_counts_repeat_exactly():
    reports = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "tools/step_cost.py", "--n", "100", "150",
                               "--r", "0.2", "--seed", "3"],
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-4000:]
        lines = proc.stdout.splitlines()
        assert len(lines) == 1
        reports.append(json.loads(lines[0]))
    first, second = reports
    assert first["steps"] == second["steps"]
    assert first["numpy"] == np.__version__
    assert set(first["steps"]) == set(first["us_per_step"]) == {"100", "150"}
    for n, cells in first["steps"].items():
        assert set(cells) == {"drw", "prw", "twohop", "weighted"}
        assert all(isinstance(c, int) and c > 0 for c in cells.values())
        assert all(t > 0 for t in first["us_per_step"][n].values())


def test_step_cost_against_a_tree_times_both_on_equal_steps():
    """--against loads another checkout's package beside this one; run
    against this tree itself, both must take the same steps. Timings are
    only checked to be there, never compared."""
    proc = subprocess.run([sys.executable, "tools/step_cost.py", "--n", "100", "150",
                           "--r", "0.2", "--seed", "3", "--against", str(ROOT)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    report = json.loads(proc.stdout)
    assert {"steps", "us_per_step", "against", "against_us_per_step", "ratio"} <= set(report)
    assert report["against"] == str(ROOT)
    for key in ("steps", "us_per_step", "against_us_per_step", "ratio"):
        assert set(report[key]) == {"100", "150"}
        for cells in report[key].values():
            assert set(cells) == {"drw", "prw", "twohop", "weighted"}
            assert all(c > 0 for c in cells.values())


def src_lines(root):
    proc = subprocess.run([sys.executable, "tools/src_lines.py", str(root)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout)


def test_src_lines_splits_every_module_of_the_package():
    report = src_lines(ROOT / "src")
    modules, total = report["modules"], report["total"]
    assert "drw_overlay/overlay.py" in modules
    for name, split in modules.items():
        lines = len((ROOT / "src" / name).read_text(encoding="utf-8").splitlines())
        assert split["lines"] == lines
        assert split["code"] + split["docstring"] + split["other"] == lines
        assert min(split.values()) >= 0
    for key in ("code", "docstring", "other", "lines"):
        assert total[key] == sum(split[key] for split in modules.values())


def test_src_lines_counts_a_known_module(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "x = (1,\n"
        "     2)  # trailing\n"
        "def f():\n"
        '    """One line."""\n'
        '    return """not a\n'
        'docstring"""\n', encoding="utf-8")
    assert src_lines(tmp_path)["modules"]["m.py"] == {
        "code": 5, "docstring": 3, "other": 2, "lines": 10}


def test_every_mutant_row_applies_to_one_place():
    """Each row's source string occurs exactly once in its file, differs
    from its replacement, and each test id names a test function there, or
    one case of one (``path::function[case]``), which pytest collects as
    exactly one item."""
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    cases = set()
    for name, file, source, replacement, tests in mutants.MUTANTS:
        assert (ROOT / file).read_text(encoding="utf-8").count(source) == 1, name
        assert source != replacement and tests, name
        for test in tests:
            path, function = test.split("::")
            function, case, _ = function.partition("[")
            assert f"\ndef {function}(" in (ROOT / path).read_text(encoding="utf-8"), test
            if case:
                cases.add(test)
    if not cases:  # with no ids, pytest would collect the whole suite
        return
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p",
                           "no:cacheprovider", *sorted(cases)], cwd=ROOT, capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stdout[-4000:]
    assert sorted(line for line in proc.stdout.splitlines() if "::" in line) == sorted(cases)
