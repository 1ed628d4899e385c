"""Every engine build against the reference build of ``reference.py``.

The reference follows README.md's walk rules with sets and dicts and
shares no code with the engine. An engine build must give the same layer
(or the same failure), the same step trace with the same cost types, and
the same owner of every node, and each layer it finishes must be one part
over its traced edges. Engine builds run warm, one after another, so they
replay what earlier builds left in the seed cache; the reference keeps
nothing between builds.
"""

import ast
import sys
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import handnets as H
import reference
from layers import union_find_reason
from drw_overlay import overlay
from drw_overlay.geom_graph import GraphGenConfig, generate_network, network_from_positions
from drw_overlay.overlay import (
    BuildFailed,
    OverlayBuildConfig,
    OverlayRegistry,
    build_overlay,
    to_json_dict,
)
from drw_overlay.walk_engine import (
    STRATEGY_KINDS,
    WEIGHTED,
    CostStrategy,
    IsolatedInitiator,
    parse_strategy,
)


def engine_build(net, cfg):
    """(outcome, trace, owner list) of one engine build, in the form the
    reference returns them, with the isolated initiator's message."""
    made, trace = [], []

    def registry(n):  # keeps the registry the build makes, to read its owner list
        made.append(OverlayRegistry(n))
        return made[-1]

    with mock.patch.object(overlay, "OverlayRegistry", registry):
        try:
            result = build_overlay(net, cfg, trace)
        except BuildFailed as err:
            outcome = (err.walk_id, err.reason)
        except IsolatedInitiator as err:
            outcome = str(err)
        else:
            assert union_find_reason(result.active_path, result.active_path_edges) is None
            outcome = to_json_dict(result)
            del outcome["strategy"]
    steps = [(r.walk, r.step, r.outcome, r.node, r.cursor, r.cost) for r in trace]
    return outcome, steps, made[0].owner


def assert_equals_reference(net, cfg):
    """The engine build of cfg equals the reference build; returns its
    outcome and trace."""
    got, trace, owner = engine_build(net, cfg)
    want, want_trace, want_owner = reference.build(
        net, cfg.strategy.kind, cfg.seed, cfg.initiator_count, cfg.strategy.alpha,
        cfg.strategy.beta, cfg.initiators, cfg.step_budget)
    if isinstance(want, int):
        want = f"initiator {want} has no neighbors"
    assert got == want, cfg
    assert trace == want_trace, cfg
    # An int cost and a float cost compare equal, so their types are compared too.
    assert [type(t[-1]) for t in trace] == [type(t[-1]) for t in want_trace], cfg
    assert owner == [want_owner.get(v, -1) for v in range(net.n)], cfg
    return got, trace


@st.composite
def build_configs(draw, net, seeds):
    """Any strategy, weighted with its own alpha and beta, a seed from the
    pool, a budget small enough to fail or the default, and initiators
    drawn by the build (2 to n of them, isolated nodes too) or given in any
    order (2, 3 or all of the nodes with a neighbour)."""
    kind = draw(st.sampled_from(STRATEGY_KINDS))
    strategy = (CostStrategy(kind, draw(st.sampled_from((0.0, 0.5, 1.0, 3.0))),
                             draw(st.sampled_from((0.0, 1.0, 2.5))))
                if kind == WEIGHTED else CostStrategy(kind))
    common = dict(strategy=strategy, seed=draw(st.sampled_from(seeds)),
                  step_budget=draw(st.sampled_from((1, 3, 10, None, None, None))))
    starts = np.flatnonzero(np.diff(net.indptr)).tolist()
    if len(starts) >= 2 and draw(st.booleans()):
        count = draw(st.sampled_from((2, min(3, len(starts)), len(starts))))
        initiators = tuple(draw(st.permutations(starts))[:count])
        return OverlayBuildConfig(count, initiators=initiators, **common)
    return OverlayBuildConfig(draw(st.integers(2, net.n)), **common)


@st.composite
def build_runs(draw):
    """A hand-traced network, or 4 to 40 uniform points at a radius that
    may leave the graph in parts or a node isolated, and 2 to 6 builds on
    it whose seeds come from a pool of 3, so that they repeat and
    interleave."""
    if draw(st.integers(0, 3)) == 0:
        net = draw(st.sampled_from(H.BUILDERS))()
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        net = network_from_positions(rng.random((draw(st.integers(4, 40)), 2)),
                                     draw(st.floats(0.12, 0.7)))
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=3, max_size=3, unique=True))
    return net, draw(st.lists(build_configs(net, seeds), min_size=2, max_size=6))


DRW = CostStrategy("drw")
# Two three-node chains with no edge between them, and a line of ten nodes.
SPLIT = network_from_positions([(x, y) for y in (0.2, 0.8) for x in (0.1, 0.2, 0.3)], 0.12)
LINE = network_from_positions([(0.05 + 0.1 * i, 0.5) for i in range(10)], 0.11)


@settings(max_examples=300, deadline=None)
@given(run=build_runs())
# Hand inputs, each with what both builds give. On the crossing: walk 0
# meets walk 1 at 7 while walk 1 stands after one step; walk 1 is born on
# walk 0's initiator 1; walk 1 is born on walk 0's second node 0.
@example(run=(H.crossing_network(), [OverlayBuildConfig(2, DRW, seed=0, initiators=(0, 5))]))
@example(run=(H.crossing_network(), [OverlayBuildConfig(2, DRW, seed=3, initiators=(1, 0))]))
@example(run=(H.crossing_network(), [OverlayBuildConfig(2, DRW, seed=0, initiators=(1, 0))]))
# Walk 2's initiator, the star's hub, is already walk 0's: its broker is 0.
@example(run=(H.star_network(), [OverlayBuildConfig(3, DRW, seed=0, initiators=(1, 4, 0))]))
# (0, "exhausted: backtracked past its initiator")
@example(run=(SPLIT, [OverlayBuildConfig(2, DRW, seed=0, initiators=(0, 3), step_budget=100)]))
# (0, "step budget 1 spent")
@example(run=(generate_network(GraphGenConfig(n=300, r=0.08, seed=5)),
              [OverlayBuildConfig(2, CostStrategy("prw"), seed=0, step_budget=1)]))
# (0, "step budget 2 spent") in the pair; (2, "step budget 3 spent") after
# walk 1 is born on walk 0's path.
@example(run=(LINE, [OverlayBuildConfig(2, DRW, seed=0, initiators=(0, 9), step_budget=2)]))
@example(run=(LINE, [OverlayBuildConfig(3, DRW, seed=0, initiators=(0, 1, 9), step_budget=3)]))
def test_builds_equal_reference_builds(run):
    net, cfgs = run
    for cfg in cfgs:
        assert_equals_reference(net, cfg)


N300 = partial(generate_network, GraphGenConfig(n=300, r=0.1, seed=7))


@pytest.mark.parametrize("make_net", [
    N300, H.fan_network, H.crossing_network, H.star_network, H.pocket_network,
], ids=["n300", "fan", "crossing", "star", "pocket"])
def test_table_builds_equal_reference_builds(make_net):
    """Every strategy, I in {2, 10, 150} (at most n), build seeds 1 and 2.
    The builds of one seed run in a row, each I's four strategies as in a
    sweep's cell, so that each replays the seed's cached draws."""
    net = make_net()
    for seed in (1, 2):
        for count in sorted({min(c, net.n) for c in (2, 10, 150)}):
            for kind in STRATEGY_KINDS:
                assert_equals_reference(net, OverlayBuildConfig(count, parse_strategy(kind),
                                                                seed=seed))


@pytest.mark.parametrize("strategy", [CostStrategy("drw"), CostStrategy(WEIGHTED, 2.0, 0.5)],
                         ids=["drw", "weighted"])
def test_budget_failure_equals_reference_build(strategy):
    """Walk 5 of the drw build needs 25 steps (probed), so a budget of 20
    fails it after walks 0-4 have drawn; the weighted build fails there too."""
    cfg = OverlayBuildConfig(150, strategy, seed=1, step_budget=20)
    failed, trace = assert_equals_reference(N300(), cfg)
    assert failed == (5, "step budget 20 spent") and {t[0] for t in trace} >= set(range(6))


def foreign_imports(source: str) -> list[str]:
    """The imports of a module's source other than the standard library's
    and ``from drw_overlay.rng import stream``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0]
                      not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            module = "." * node.level + (node.module or "")
            if ((module, names) != ("drw_overlay.rng", ["stream"])
                    and (node.level or module.split(".")[0] not in sys.stdlib_module_names)):
                found.append(f"{module}: {', '.join(names)}")
    return found


def test_reference_shares_no_code_with_the_engine():
    """reference.py imports only the standard library and the stream
    function: no engine module and no test helper that imports one."""
    source = (Path(__file__).parent / "reference.py").read_text(encoding="utf-8")
    assert foreign_imports(source) == []
    assert foreign_imports("import numpy\nimport handnets\nimport drw_overlay.rng\n"
                           "from drw_overlay.rng import stream, derive_seed\n"
                           "from drw_overlay import walk_engine\nfrom . import costs\n"
                           "from collections import deque\n") == [
        "numpy", "handnets", "drw_overlay.rng", "drw_overlay.rng: stream, derive_seed",
        "drw_overlay: walk_engine", ".: costs"]
