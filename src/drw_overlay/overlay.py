"""Overlay construction: intersecting walks into one connected layer.

The first two walks alternate steps until one lands on a node of the other;
that node becomes the first broker and the partner halts where it stands.
Every later walk runs alone until it touches any node already recruited by
an earlier walk. The union of all recruited nodes forms the active path of
the layer, connected through brokers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .geom_graph import Network
from .rng import stream
from .walk_engine import (
    ACTIVE,
    EXHAUSTED_STEP,
    INTERSECTED,
    INTERSECTED_STEP,
    CostStrategy,
    StepBudgetExceeded,
    WalkState,
    default_step_budget,
    init_walk,
    run_walk_until_stop,
    step,
)


class TooManyInitiators(ValueError):
    """Requested more initiators than the network has nodes."""


class BuildFailed(RuntimeError):
    """A walk exhausted or ran out of budget, so the layer is incomplete."""

    def __init__(self, walk_id: int, reason: str):
        super().__init__(f"walk {walk_id} failed: {reason}")
        self.walk_id = walk_id
        self.reason = reason


class OverlayRegistry:
    """Who belongs to which walk. Membership only ever grows."""

    def __init__(self):
        self.membership: dict[int, set[int]] = {}

    def register(self, node: int, walk_id: int) -> bool:
        """Add node to walk_id's membership; True if this made it a broker."""
        walks = self.membership.setdefault(node, set())
        walks.add(walk_id)
        return len(walks) >= 2

    # No caller in the package; tests compare direct owner reads against it.
    def other_walk_at(self, node: int, walk_id: int) -> int | None:
        """Lowest id of a different walk owning node, if any."""
        owners = self.membership.get(node)
        if not owners:
            return None
        others = [w for w in owners if w != walk_id]
        return min(others) if others else None

    def broker_nodes(self) -> list[int]:
        return sorted(n for n, w in self.membership.items() if len(w) >= 2)


@dataclass
class OverlayBuildConfig:
    """Parameters for one overlay-layer build on a given network."""

    initiator_count: int
    strategy: CostStrategy
    seed: int = 0
    step_budget: int | None = None
    initiators: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.initiator_count < 2:
            raise ValueError(f"need at least 2 initiators, got {self.initiator_count}")
        if self.initiators is not None:
            self.initiators = tuple(int(v) for v in self.initiators)
            if len(self.initiators) != self.initiator_count:
                raise ValueError("explicit initiators must match initiator_count")
            if len(set(self.initiators)) != len(self.initiators):
                raise ValueError("explicit initiators must be distinct")


@dataclass
class OverlayResult:
    """Finished layer: every walk Intersected, active path connected."""

    walks: list[WalkState]
    active_path: set[int]
    active_path_edges: set[tuple[int, int]]
    brokers: set[int]
    initiators: tuple[int, ...]
    strategy_label: str
    seed: int

    @property
    def total_steps(self) -> int:
        return sum(w.steps for w in self.walks)

    @property
    def total_backtracks(self) -> int:
        return sum(w.backtracks for w in self.walks)


def select_initiators(net: Network, count: int, rng) -> tuple[int, ...]:
    """Draw distinct initiator nodes uniformly, in draw order."""
    if count < 2:
        raise ValueError(f"need at least 2 initiators, got {count}")
    if count > net.n:
        raise TooManyInitiators(f"{count} initiators for {net.n} nodes")
    return tuple(int(v) for v in rng.choice(net.n, size=count, replace=False))


def _finalize_partner(walk: WalkState, broker: int) -> None:
    """Halt the partner walk where it stands once the pair is bridged."""
    if walk.status == ACTIVE:
        walk.status = INTERSECTED
        walk.broker = broker
        walk._retreating = False


def build_overlay(net: Network, cfg: OverlayBuildConfig,
                  trace: list | None = None) -> OverlayResult:
    """Run the full construction and return the finished layer.

    Raises BuildFailed if any walk exhausts or exceeds the step budget,
    and TooManyInitiators if the network is smaller than initiator_count.
    """
    if cfg.initiators is not None:
        initiators = cfg.initiators
        for v in initiators:
            net.neighbors(v)  # validates the id range
    else:
        initiators = select_initiators(net, cfg.initiator_count,
                                       stream(cfg.seed, "initiators"))
    budget = cfg.step_budget if cfg.step_budget is not None else default_step_budget(net.n)

    registry = OverlayRegistry()
    walks: list[WalkState] = []

    def start(wid: int):
        # Most walks of a large build are born intersected and never draw,
        # so each walk's stream is only made on its first draw. A partial,
        # unlike a lambda, keeps the walk and its result picklable.
        walk, out = init_walk(
            net, initiators[wid], wid, registry, partial(stream, cfg.seed, "walk", wid),
            strategy=cfg.strategy, trace=trace,
        )
        walks.append(walk)
        return walk, out

    try:
        # First pair, alternating one step at a time.
        w0, _ = start(0)
        w1, out1 = start(1)
        if out1 is not None:
            _finalize_partner(w0, out1.node)
        while w0.status == ACTIVE or w1.status == ACTIVE:
            for walk, partner in ((w0, w1), (w1, w0)):
                if walk.status != ACTIVE:
                    continue
                if walk.steps >= budget:
                    raise StepBudgetExceeded(walk.id, budget)
                out = step(walk, net, registry, cfg.strategy, trace)
                if out.kind == EXHAUSTED_STEP:
                    raise BuildFailed(walk.id, "exhausted: backtracked past its initiator")
                if out.kind == INTERSECTED_STEP:
                    _finalize_partner(partner, out.node)

        # Remaining walks, one after another.
        for wid in range(2, cfg.initiator_count):
            walk, out = start(wid)
            if out is not None:
                continue
            run_walk_until_stop(walk, net, registry, cfg.strategy, budget, trace)
            if walk.status != INTERSECTED:
                raise BuildFailed(wid, "exhausted: backtracked past its initiator")
    except StepBudgetExceeded as exc:
        raise BuildFailed(exc.walk_id, f"step budget {budget} spent") from exc

    return _assemble(net, cfg, walks, registry, initiators)


def _assemble(net, cfg, walks, registry, initiators) -> OverlayResult:
    active = set(registry.membership)
    edges = set()
    for w in walks:
        for i, parent in enumerate(w.parents):
            if parent >= 0:
                a, b = w.path[i], w.path[parent]
                edges.add((a, b) if a < b else (b, a))
    result = OverlayResult(
        walks=walks,
        active_path=active,
        active_path_edges=edges,
        brokers=set(registry.broker_nodes()),
        initiators=initiators,
        strategy_label=cfg.strategy.label,
        seed=cfg.seed,
    )
    _check_layer(result)
    return result


def _check_layer(result: OverlayResult) -> None:
    """Connectivity self-check over the traced edges; cheap, runs per build."""
    nodes = result.active_path
    if not nodes:
        raise BuildFailed(-1, "empty layer")
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for a, b in result.active_path_edges:
        adj[a].append(b)
        adj[b].append(a)
    start_node = next(iter(nodes))
    seen = {start_node}
    queue = [start_node]
    while queue:
        u = queue.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    if seen != nodes:
        raise BuildFailed(-1, "layer is not connected through traced edges")


def to_json_dict(result: OverlayResult) -> dict:
    """Stable JSON form: sorted node sets, walks in id order."""
    return {
        "initiators": list(result.initiators),
        "strategy": result.strategy_label,
        "seed": result.seed,
        "brokers": sorted(result.brokers),
        "active_path": sorted(result.active_path),
        "active_path_edges": sorted(list(e) for e in result.active_path_edges),
        "total_steps": result.total_steps,
        "total_backtracks": result.total_backtracks,
        "walks": [
            {
                "id": w.id,
                "path": list(w.path),
                "parents": list(w.parents),
                "status": w.status,
                "broker": w.broker,
                "steps": w.steps,
                "backtracks": w.backtracks,
            }
            for w in result.walks
        ],
    }
