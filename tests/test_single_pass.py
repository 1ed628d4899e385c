"""The single-pass step against the three-pass selection it replaced.

``three_pass_step`` is the step loop as it was before scoring moved into
the owner scan: it lists the candidates, scores the list with
``candidate_costs``, takes the minimum and draws among the candidates at
that cost. Whole builds under either step must give the same trace, the
same layer JSON and the same failure.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import handnets as H
from costs import candidate_costs
from drw_overlay import overlay
from drw_overlay.geom_graph import network_from_positions
from drw_overlay.walk_engine import (
    ACTIVE,
    BACKTRACKED,
    EXHAUSTED,
    EXTENDED,
    FIRST_NEIGHBORHOOD,
    INTERSECTED,
    PURE,
    STRATEGY_KINDS,
    WEIGHTED,
    CostStrategy,
    StepOutcome,
    WalkNotActive,
    _mark_two_rings,
    _pick,
    _trace,
)


def three_pass_step(walk, net, registry, strategy, trace=None):
    if walk.status != ACTIVE:
        raise WalkNotActive(f"walk {walk.id} is {walk.status}")
    kind = strategy.kind
    walk.steps += 1
    path, head, wid = walk.path, walk.head, walk.id
    if head == len(path) - 1:
        if kind == FIRST_NEIGHBORHOOD:
            walk.marked |= net.neighbor_bits[path[head - 1]]
        elif kind == WEIGHTED:
            _mark_two_rings(walk, net, path[head - 1])
    owner = registry.owner
    candidates = []
    cost = None
    for v in net.adjacency[path[head]]:
        o = owner[v]
        if o < 0:
            candidates.append(v)
        elif o != wid:
            walk.status, walk.broker = INTERSECTED, v
            out = StepOutcome(INTERSECTED)
            break
    else:
        if not candidates:
            if head == 0:
                walk.status = EXHAUSTED
                out = StepOutcome(EXHAUSTED)
            else:
                walk.head = head - 1
                walk.backtracks += 1
                out = StepOutcome(BACKTRACKED)
            if trace is not None:
                _trace(trace, walk, out, None)
            return out
        if kind == PURE:
            v = _pick(walk, candidates)
        else:
            costs = candidate_costs(walk, net, strategy, candidates, head)
            cost = min(costs)
            v = _pick(walk, [c for c, k in zip(candidates, costs) if k == cost])
        owner[v] = wid
        out = StepOutcome(EXTENDED)
    walk.parents.append(head)
    walk.head = len(path)
    path.append(v)
    if trace is not None:
        _trace(trace, walk, out, cost)
    return out


def build(net, cfg):
    """(trace, layer JSON or None, failure reason or None) of one build."""
    trace = []
    try:
        layer = overlay.build_overlay(net, cfg, trace=trace)
    except overlay.BuildFailed as exc:
        return trace, None, (exc.walk_id, exc.reason)
    return trace, overlay.to_json_dict(layer), None


@st.composite
def networks(draw):
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(H.BUILDERS))()
    # Sparse radii: walks take more steps before they meet, and graphs
    # often split into parts, where walks exhaust.
    n = draw(st.integers(4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return network_from_positions(rng.random((n, 2)), draw(st.floats(0.12, 0.4)))


@settings(max_examples=300, deadline=None)
@given(net=networks(), kind=st.sampled_from(STRATEGY_KINDS),
       alpha=st.sampled_from((0.0, 0.5, 3.0)), beta=st.sampled_from((0.0, 1.0, 2.5)),
       budget=st.sampled_from((1, 3, 10, None, None, None)), data=st.data())
def test_single_pass_step_matches_three_pass_selection(net, kind, alpha, beta, budget, data):
    starts = [v for v in range(net.n) if net.adjacency[v]]
    if len(starts) < 2:
        return
    # Two initiators make the longest walks; more exercise later walks.
    count = data.draw(st.sampled_from((2, 2, min(3, len(starts)), len(starts))), label="initiators")
    initiators = data.draw(st.permutations(starts), label="order")[:count]
    cfg = overlay.OverlayBuildConfig(count, CostStrategy(kind, alpha, beta),
                                     seed=data.draw(st.integers(0, 2**16), label="seed"),
                                     step_budget=budget, initiators=initiators)
    got = build(net, cfg)
    with mock.patch.object(overlay, "step", three_pass_step):
        want = build(net, cfg)
    assert got == want
    # Each trace record's cost keeps its type: int, float or None.
    assert [type(rec.cost) for rec in got[0]] == [type(rec.cost) for rec in want[0]]
