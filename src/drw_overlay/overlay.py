"""Overlay construction: intersecting walks into one connected layer.

One driver, run_walk_until_stop, steps a group of walks in turn until one
lands on a node of another walk; that node becomes a broker and every other
walk still active halts there. The first two walks run as one group, so the
partner of the walk that meets halts where it stands. Every later walk runs
alone until it touches any node already recruited by an earlier walk. The
union of all recruited nodes forms the active path of the layer.

The walks join the layer one at a time, in id order, and each ends on a
broker the layer already holds, so the join order itself proves the layer
connected. The build checks exactly that as it assembles the active path,
one walk at a time, and keeps no edge set: the traced edges are derived
from the walk records only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import cycle
from operator import lt

from .geom_graph import Network
from .rng import stream
from .walk_engine import (
    ACTIVE,
    EXHAUSTED,
    INTERSECTED,
    CostStrategy,
    OverlayRegistry,
    WalkState,
    default_step_budget,
    init_walk,
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
        if self.step_budget is not None and self.step_budget < 1:
            raise ValueError(f"step budget must be >= 1, got {self.step_budget}")
        if self.initiators is not None:
            self.initiators = tuple(int(v) for v in self.initiators)
            if len(self.initiators) != self.initiator_count:
                raise ValueError("explicit initiators must match initiator_count")
            if len(set(self.initiators)) != len(self.initiators):
                raise ValueError("explicit initiators must be distinct")


@dataclass
class OverlayResult:
    """Finished layer: every walk Intersected, active path connected.

    stepped holds the walks that stepped, in id order; born maps the id of
    each walk born intersected to its broker. Most walks of a large build
    are born, and their paths, parents and status follow from the initiator
    and the broker, so they are kept as this one dict of ints. The build
    checked the layer as each walk joined it (see ``_assemble``), so the
    brokers and the traced edges, which no build step reads, are derived
    from the walk records on first access, like the walks.
    """

    stepped: list[WalkState]
    born: dict[int, int]
    active_path: set[int]
    initiators: tuple[int, ...]
    strategy_label: str
    seed: int

    @cached_property
    def walks(self) -> list[WalkState]:
        """Every walk in id order. A walk born intersected gets its finished
        WalkState here, once: later accesses return the same list."""
        stepped = iter(self.stepped)
        walks = []
        for wid, initiator in enumerate(self.initiators):
            broker = self.born.get(wid)
            if broker is None:
                walks.append(next(stepped))
                continue
            path, parents = (([initiator], [-1]) if broker == initiator
                             else ([initiator, broker], [-1, 0]))
            walks.append(WalkState(id=wid, path=path, parents=parents, head=len(path) - 1,
                                   status=INTERSECTED, broker=broker))
        return walks

    @cached_property
    def brokers(self) -> set[int]:
        """The nodes where a walk met another: every walk's broker."""
        return {w.broker for w in self.walks}

    @cached_property
    def active_path_edges(self) -> set[tuple[int, int]]:
        """The traced edges as sorted pairs: (path[i], path[parents[i]]) for
        each walk and i > 0. Made once, on first access."""
        edges = set()
        for w in self.walks:
            path = w.path
            for i, parent in enumerate(w.parents):
                if parent >= 0:
                    a, b = path[i], path[parent]
                    edges.add((a, b) if a < b else (b, a))
        return edges

    # A walk born intersected takes no step and no backtrack.
    @property
    def total_steps(self) -> int:
        return sum(w.steps for w in self.stepped)

    @property
    def total_backtracks(self) -> int:
        return sum(w.backtracks for w in self.stepped)


def select_initiators(net: Network, count: int, rng) -> tuple[int, ...]:
    """Draw distinct initiator nodes uniformly, in draw order."""
    if count < 2:
        raise ValueError(f"need at least 2 initiators, got {count}")
    if count > net.n:
        raise TooManyInitiators(f"{count} initiators for {net.n} nodes")
    return tuple(rng.choice(net.n, size=count, replace=False).tolist())


def run_walk_until_stop(walks: list[WalkState], net: Network, registry: OverlayRegistry,
                        strategy: CostStrategy, budget: int,
                        trace: list | None = None) -> None:
    """Step the walks in turn until one intersects; every other walk still
    active then halts at that walk's broker. Raises BuildFailed on a spent
    step budget or a walk backtracked past its start."""
    for walk in cycle(walks):
        if walk.steps >= budget:
            raise BuildFailed(walk.id, f"step budget {budget} spent")
        out = step(walk, net, registry, strategy, trace)
        if out.kind == EXHAUSTED:
            raise BuildFailed(walk.id, "exhausted: backtracked past its initiator")
        if out.kind == INTERSECTED:
            break
    broker = walk.broker
    for walk in walks:
        if walk.status == ACTIVE:
            walk.status, walk.broker = INTERSECTED, broker


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

    registry = OverlayRegistry(net.n)
    walks: list[WalkState] = []
    born: dict[int, int] = {}
    # init_walk calls this only for a walk that steps; most walks of a large
    # build are born intersected and never make their stream.
    walk_stream = partial(stream, cfg.seed, "walk")
    for wid in range(cfg.initiator_count):
        walk, broker = init_walk(net, initiators[wid], wid, registry, walk_stream, trace=trace)
        if walk is None:
            born[wid] = broker
            if wid == 1:
                # Walk 1 was born on walk 0's path: walk 0 halts there.
                walks[0].status, walks[0].broker = INTERSECTED, broker
            continue
        walks.append(walk)
        # The first pair is stepped as one group once both exist; a later
        # walk runs alone.
        if wid > 0:
            run_walk_until_stop(walks if wid == 1 else [walk], net, registry,
                                cfg.strategy, budget, trace)

    return _assemble(cfg, walks, born, initiators)


def _assemble(cfg, walks, born, initiators) -> OverlayResult:
    """Build the active path in walk-id order, checking each walk as it joins.

    Walk 0's path seeds the layer. A stepped walk's parents must form a tree
    over its path (parents[0] == -1 and 0 <= parents[i] < i) and its broker
    must lie on that path. Every later walk's broker must already be on the
    layer when the walk joins; a stepped walk then adds its path and a born
    walk its initiator. Every traced edge is (path[i], path[parents[i]]) or
    (initiator, broker), so a layer that passes has every edge end in the
    active path and is connected through its traced edges. Raises
    BuildFailed naming the first walk that breaks a condition.
    """
    active: set[int] = set()
    stepped = iter(walks)
    for wid, initiator in enumerate(initiators):
        broker = born.get(wid)
        if broker is not None:
            if broker not in active:
                raise BuildFailed(wid, f"broker {broker} is not on the layer it joins")
            active.add(initiator)
            continue
        walk = next(stepped)
        path, parents, broker = walk.path, walk.parents, walk.broker
        n, later = len(path), parents[1:]
        # 0 <= parents[i] < i for every i > 0, compared item by item.
        if (parents[:1] != [-1] or len(parents) != n or min(later, default=0) < 0
                or not all(map(lt, later, range(1, n)))):
            raise BuildFailed(wid, "parents do not form a tree over its path")
        if broker not in path:
            raise BuildFailed(wid, f"broker {broker} is not on its own path")
        # Walk 0's path seeds the layer; every later walk joins it.
        if wid and broker not in active:
            raise BuildFailed(wid, f"broker {broker} is not on the layer it joins")
        active.update(path)
    return OverlayResult(
        stepped=walks,
        born=born,
        active_path=active,
        initiators=initiators,
        strategy_label=cfg.strategy.label,
        seed=cfg.seed,
    )


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
