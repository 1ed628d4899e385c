"""Apply one mutant of the build at a time and run the tests that must catch it.

    python3 tools/mutants.py [NAME ...] [--root DIR] [--tests ID ...]

Each row of MUTANTS names a file, an exact source string that occurs once
in it, its replacement and the test ids that must fail, each a test
function or one case of it (``path::function[case]``). The tree at DIR
(default: this checkout) is copied to a temporary directory and pytest run
there, once unmutated and then once per row (or per NAME) with the row
applied, on the row's ids, or on the --tests ids for every row. A test
caught a row when it fails under the row and passes unmutated. One JSON
line per row lists the asked ids with a caught test under them ("failed":
a file or directory id counts when any test in it was caught) and those
without ("passed"), and every caught test by the id pytest gives it
("caught"); or why the row did not apply. Exits 1 if any asked id passed
or any row did not apply.

``--tests tests`` prints the whole suite's catch matrix. In it,
tests/test_tools.py::test_every_mutant_row_applies_to_one_place fails
under every row, since it reads the mutated tree and finds the row's
source string gone; that failure is not a catch.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENGINE, OVERLAY = "src/drw_overlay/walk_engine.py", "src/drw_overlay/overlay.py"
GRAPH = "src/drw_overlay/geom_graph.py"
REFERENCE = ["tests/test_reference.py::test_builds_equal_reference_builds",
             "tests/test_reference.py::test_table_builds_equal_reference_builds"]
MARKING = ("walk.marked |= net.neighbor_bits[path[head - 1]]\n"
           "            elif kind == WEIGHTED:\n"
           "                _mark_two_rings(walk, net, path[head - 1])")
BORN_JOIN = [f"tests/test_overlay.py::test_join_check_rejects_corrupted_records[born-{case}]"
             for case in ("broker-off-the-layer", "broker-not-joined-yet")]
GUIDED_MEETS = ("                    ties.append(v)\n"
                "            elif o != wid:\n"
                "                break")
CACHE_KEY = ("picks = self.initiators.get((net.n, count))\n"
             "        if picks is None:\n"
             "            picks = select_initiators(net, count, stream(self.seed, \"initiators\"))\n"
             "            self.initiators[net.n, count] = picks")

# (name, file, source, replacement, test ids that must fail)
MUTANTS = [
    ("last-tie-wins", ENGINE, "if c < best:", "if c <= best:", REFERENCE),
    ("new-minimum-appends", ENGINE, "best, ties = c, [v]", "best, ties = c, ties + [v]", REFERENCE),
    ("weighted-without-beta", ENGINE,
     "c = alpha * c + beta * ((bits[v] & second) >> low[v]).bit_count()", "c = alpha * c",
     REFERENCE),
    ("score-shifted-too-far", ENGINE, "c = ((bits[v] & first) >> low[v]).bit_count()",
     "c = ((bits[v] & first) >> (low[v] + 1)).bit_count()", REFERENCE),
    ("ring-or-unshifted", ENGINE, "walk.marked2 |= ring << low", "walk.marked2 |= ring", REFERENCE),
    ("words-high-half-first", ENGINE, 'raw(8).astype("<u8", copy=False).view("<u4")',
     'raw(8).astype(">u8").view(">u4")', REFERENCE),
    # Builds pick among few items, so almost no word is ever rejected.
    ("pick-without-rejection", ENGINE, "if m & 0xFFFFFFFF >= (1 << 32) % k:", "if True:",
     ["tests/test_walk_engine.py::test_pick_equals_generator_integers"]),
    ("one-item-pick-draws", ENGINE, "if k == 1:", "if k == 0:", REFERENCE),
    ("marking-lagged-too-far", ENGINE, MARKING, MARKING.replace("head - 1", "head - 2"),
     REFERENCE),
    ("marking-lagged-too-little", ENGINE, MARKING, MARKING.replace("head - 1", "head"), REFERENCE),
    ("ties-to-last-candidate", ENGINE, "v = _pick(walk, ties)", "v = ties[-1]", REFERENCE),
    ("walk-zero-steps-alone", OVERLAY, "if wid:", "if True:", REFERENCE),
    # The birth rule, in the build loop, and the start of a walk that steps.
    ("born-on-last-owned-neighbour", OVERLAY, "for broker in adjacency[initiator]:",
     "for broker in reversed(adjacency[initiator]):", REFERENCE),
    ("born-initiator-unclaimed", OVERLAY, "owner[initiator] = wid\n                    break",
     "break", REFERENCE),
    ("born-broker-unchecked", OVERLAY, "if broker not in active:", "if False:", BORN_JOIN),
    ("born-cursor-swapped", OVERLAY, "cursor=1 if broker == initiator else 2",
     "cursor=2 if broker == initiator else 1", REFERENCE),
    ("stepping-initiator-unclaimed", ENGINE, "    owner[initiator] = walk_id\n", "", REFERENCE),
    ("born-path-reversed", OVERLAY, "else ([initiator, broker], [-1, 0]))",
     "else ([broker, initiator], [-1, 0]))", REFERENCE),
    ("born-edge-untraced", OVERLAY, "else ([initiator, broker], [-1, 0]))",
     "else ([initiator, broker], [-1, -1]))", REFERENCE),
    ("initiators-cached-per-n", OVERLAY, CACHE_KEY,
     CACHE_KEY.replace("(net.n, count)", "net.n").replace("[net.n, count]", "[net.n]"), REFERENCE),
    ("words-not-copied", OVERLAY, "return copy(master)", "return master", REFERENCE),
    ("bit-rank-duplicated", GRAPH,
     'rank[np.argsort(self.positions[:, 1], kind="stable")] = np.arange(self.n)',
     'rank[np.argsort(self.positions[:, 1], kind="stable")] = '
     'np.minimum(np.arange(self.n), self.n - 2)', REFERENCE),
    # A cheaper unowned candidate, scanned before it, wins over an owned neighbour.
    ("guided-skips-owned-neighbour", ENGINE, GUIDED_MEETS,
     GUIDED_MEETS.replace("elif o != wid:", "elif o != wid and not ties:")
     + "\n            else:\n                o = -1", REFERENCE),
    ("twohop-scored-against-head", ENGINE,
     "net.neighbor_bits[walk.path[src_index - 1]] if src_index else 0",
     "net.neighbor_bits[walk.path[src_index]] if src_index else 0", REFERENCE),
    ("two-ring-marking-skips-first-ring", ENGINE, "    walk.marked |= net.neighbor_bits[node]\n",
     "", REFERENCE),
    # Twohop scores against no mark, so marking for it only costs time.
    ("twohop-marks-rings", ENGINE, MARKING, MARKING.replace("elif kind == WEIGHTED:", "else:"),
     ["tests/test_scoring.py::test_scoring_and_marks_match_set_oracles"]),
    ("retreat-to-initiator", ENGINE, "walk.head = head - 1", "walk.head = 0", REFERENCE),
    ("exhausted-one-node-early", ENGINE, "if head == 0:", "if head == 1:", REFERENCE),
    ("step-on-ended-walk", ENGINE, "if walk.status != ACTIVE:", "if False:",
     [f"tests/test_lazy_walks.py::test_born_walk_state[{case}]"
      for case in ("initiator", "neighbor")]),
    ("isolated-initiator-unchecked", ENGINE, "if not nbrs:", "if False:",
     ["tests/test_walk_engine.py::test_init_isolated_initiator_raises"]),
    ("intersection-outcome-made-per-step", ENGINE, "out = _INTERSECTED",
     "out = StepOutcome(INTERSECTED)",
     ["tests/test_walk_engine.py::test_every_step_outcome_is_a_shared_constant"]),
    ("budget-check-one-step-late", OVERLAY, "if walk.steps >= budget:", "if walk.steps > budget:",
     ["tests/test_reference.py::test_budget_failure_equals_reference_build"]),
    ("initiators-drawn-with-replacement", OVERLAY, "replace=False", "replace=True", REFERENCE),
    # The geometry: the unit-disk rule, the views of the CSR rows, the
    # connectivity decision and the spreads that depth divides.
    ("pair-rule-strict", GRAPH, "keep = np.flatnonzero(dx <= r2)",
     "keep = np.flatnonzero(dx < r2)",
     ["tests/test_geom_graph.py::test_unit_disk_pairs_equal_all_pairs_scan"]),
    ("edges-both-directions", GRAPH, "keep = rows < self.indices", "keep = rows != self.indices",
     ["tests/test_geom_graph.py::test_csr_views_match_oracles"]),
    ("bits-first-block-only", GRAPH, "for lo in range(0, n, _BITS_ROWS):",
     "for lo in range(0, min(n, _BITS_ROWS), _BITS_ROWS):",
     ["tests/test_geom_graph.py::test_neighbor_bits_across_row_blocks"]),
    ("connected-skips-last-node", GRAPH, "return bool((root == 0).all())",
     "return bool((root[:-1] == 0).all())",
     ["tests/test_geom_graph.py::test_connected_equals_breadth_first_search"]),
    ("json-loads-disconnected", GRAPH,
     '    if not is_connected(net):\n        raise ValueError("network is not connected")\n', "",
     ["tests/test_cli.py::test_build_two_component_net_exit_2"]),
    ("max-pairwise-drops-ties", GRAPH, "keep = fx * fx + fy * fy >= lb",
     "keep = fx * fx + fy * fy > lb",
     ["tests/test_geom_graph.py::test_max_pairwise_equals_all_pairs_scan"]),
    ("depth-unnormalised", "src/drw_overlay/metrics.py", "return reach / span", "return reach",
     ["tests/test_metrics.py::test_depth_matches_brute_force_ratio"]),
]


def pytest_failures(root: Path, tests: list[str], row: tuple | None = None) -> set[str] | str:
    """The ids pytest reports failed or in error on tests, run in a copy of
    the tree at root with row applied (none: unmutated), or why the row
    does not apply."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(
            ".git", ".bench_out", ".hypothesis", ".pytest_cache", "__pycache__"))
        if row is not None:
            _, file, source, replacement, _ = row
            text = (tree / file).read_text(encoding="utf-8")
            if text.count(source) != 1:
                return f"source occurs {text.count(source)} times in {file}"
            (tree / file).write_text(text.replace(source, replacement), encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
                               "no:cacheprovider", "--continue-on-collection-errors", *tests],
                              cwd=tree, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(tree / "src")})
    return summary_failures(proc.stdout)


def summary_failures(stdout: str) -> set[str]:
    """The ids a ``pytest -rfE`` summary names as failed or in error: each
    line's text up to " - " or its end, since a case id may hold blanks."""
    return set(re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", stdout, re.M))


def under(test: str, asked: str) -> bool:
    """Whether test is the asked id, one of its cases or a test in the file
    or directory it names, or is a file whose collection error covers it."""
    asked = asked.rstrip("/")
    return (test == asked or test.startswith((asked + "[", asked + "::", asked + "/"))
            or asked.startswith(test + "::"))


def report(name: str, tests: list[str], failures: set[str] | str, unmutated: set[str]) -> dict:
    """One row's JSON line from the ids that failed under it and unmutated."""
    if isinstance(failures, str):
        return {"mutant": name, "error": failures}
    caught = sorted(failures - unmutated)
    failed = [t for t in tests if any(under(c, t) for c in caught)]
    return {"mutant": name, "failed": failed, "passed": [t for t in tests if t not in failed],
            "caught": caught}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*")
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--tests", nargs="+")
    args = parser.parse_args(argv)
    rows = [row for row in MUTANTS if not args.names or row[0] in args.names]
    if not rows:
        return 0
    unmutated = pytest_failures(args.root, args.tests or sorted({t for r in rows for t in r[4]}))
    status = 0
    for row in rows:
        tests = args.tests or row[4]
        line = report(row[0], tests, pytest_failures(args.root, tests, row), unmutated)
        print(json.dumps(line), flush=True)
        status |= bool(line.get("error") or line["passed"])
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
