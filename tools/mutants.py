"""Apply one mutant of the build at a time and run the tests that must catch it.

    python3 tools/mutants.py [NAME ...] [--root DIR] [--tests ID ...]

Each row of MUTANTS names a file, an exact source string that occurs once
in it, its replacement and the test ids that must fail. Per row (or per
NAME), the tree at DIR (default: this checkout) is copied to a temporary
directory, the row applied, and pytest run on the row's ids, or on the
--tests ids for every row. One JSON line per row lists the ids that failed
and those that passed, or why the row did not apply. Exits 1 if any id
passed or any row did not apply.
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
REFERENCE = ["tests/test_reference.py::test_builds_equal_reference_builds",
             "tests/test_reference.py::test_table_builds_equal_reference_builds"]
MARKING = ("walk.marked |= net.neighbor_bits[path[head - 1]]\n"
           "            elif kind == WEIGHTED:\n"
           "                _mark_two_rings(walk, net, path[head - 1])")
BORN_JOIN = ["tests/test_overlay.py::test_join_check_rejects_corrupted_records"]
INIT_BORN = ["tests/test_walk_engine.py::test_init_takes_first_owned_neighbor"]
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
    # The birth rule has two copies: the build loop's and init_walk's.
    ("born-on-last-owned-neighbour", OVERLAY, "for broker in adjacency[initiator]:",
     "for broker in reversed(adjacency[initiator]):", REFERENCE),
    ("born-initiator-unclaimed", OVERLAY, "owner[initiator] = wid\n                    break",
     "break", REFERENCE),
    ("born-broker-unchecked", OVERLAY, "if broker not in active:", "if False:", BORN_JOIN),
    ("init-on-last-owned-neighbour", ENGINE, "for node in nbrs:", "for node in reversed(nbrs):",
     INIT_BORN),
    ("init-initiator-unclaimed", ENGINE, "        owner[initiator] = walk_id\n", "", INIT_BORN),
    ("born-path-reversed", OVERLAY, "else ([initiator, broker], [-1, 0]))",
     "else ([broker, initiator], [-1, 0]))", REFERENCE),
    ("born-edge-untraced", OVERLAY, "else ([initiator, broker], [-1, 0]))",
     "else ([initiator, broker], [-1, -1]))", REFERENCE),
    ("initiators-cached-per-n", OVERLAY, CACHE_KEY,
     CACHE_KEY.replace("(net.n, count)", "net.n").replace("[net.n, count]", "[net.n]"), REFERENCE),
    ("words-not-copied", OVERLAY, "return copy(master)", "return master", REFERENCE),
    ("bit-rank-duplicated", "src/drw_overlay/geom_graph.py",
     'rank[np.argsort(self.positions[:, 1], kind="stable")] = np.arange(self.n)',
     'rank[np.argsort(self.positions[:, 1], kind="stable")] = '
     'np.minimum(np.arange(self.n), self.n - 2)', REFERENCE),
]


def run_row(root: Path, row: tuple, tests: list[str]) -> dict:
    name, file, source, replacement, _ = row
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(
            ".git", ".bench_out", ".hypothesis", ".pytest_cache", "__pycache__"))
        text = (tree / file).read_text(encoding="utf-8")
        if text.count(source) != 1:
            return {"mutant": name, "error": f"source occurs {text.count(source)} times in {file}"}
        (tree / file).write_text(text.replace(source, replacement), encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
                               "no:cacheprovider", *tests], cwd=tree, capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(tree / "src")})
    bad = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    failed = [t for t in tests if any(b == t or b.startswith((t + "[", t + "::"))
                                      or t.startswith(b + "::") for b in bad)]
    return {"mutant": name, "failed": failed, "passed": [t for t in tests if t not in failed]}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*")
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--tests", nargs="+")
    args = parser.parse_args(argv)
    status = 0
    for row in MUTANTS:
        if args.names and row[0] not in args.names:
            continue
        line = run_row(args.root, row, args.tests or row[4])
        print(json.dumps(line), flush=True)
        status |= bool(line.get("error") or line["passed"])
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
