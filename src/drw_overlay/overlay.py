"""Overlay construction: intersecting walks into one connected layer.

The walk schedule and the join rule are set out in README.md.
"""

from __future__ import annotations

from collections.abc import Iterator
from copy import copy
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import cycle, tee
from operator import lt
from threading import get_ident

from .geom_graph import Network, UnknownNode, check_int
from .rng import stream
from .walk_engine import (
    ACTIVE,
    EXHAUSTED,
    INTERSECTED,
    CostStrategy,
    OverlayRegistry,
    TraceRecord,
    WalkState,
    default_step_budget,
    init_walk,
    step,
    stream_words,
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
    """Parameters for one overlay-layer build on a given network. Every
    integer goes through check_int: initiator_count >= 2, step_budget >= 1
    (None: the default); explicit initiators must be distinct."""

    initiator_count: int
    strategy: CostStrategy
    seed: int = 0
    step_budget: int | None = None
    initiators: tuple[int, ...] | None = None

    def __post_init__(self):
        self.initiator_count = check_int(self.initiator_count, "number of initiators", 2)
        self.seed = check_int(self.seed, "seed")
        if self.step_budget is not None:
            self.step_budget = check_int(self.step_budget, "step budget", 1)
        if self.initiators is not None:
            try:
                self.initiators = tuple(check_int(v, "initiator") for v in self.initiators)
            except ValueError:
                raise ValueError("explicit initiators must be integers, "
                                 f"got {self.initiators!r}") from None
            if len(self.initiators) != self.initiator_count:
                raise ValueError("explicit initiators must match initiator_count")
            if len(set(self.initiators)) != len(self.initiators):
                raise ValueError("explicit initiators must be distinct")


@dataclass
class OverlayResult:
    """Finished layer: every walk intersected, active path connected.

    stepped holds the walks that stepped, in id order; born maps the id of
    each walk born intersected to its broker; active_path is the union of
    all the paths. walks, brokers and active_path_edges are derived from
    these on first access.
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
    if check_int(count, "number of initiators", 2) > net.n:
        raise TooManyInitiators(f"{count} initiators for {net.n} nodes")
    return tuple(rng.choice(net.n, size=count, replace=False).tolist())


class SeedDraws:
    """What one build seed draws, each made on first use: the initiators
    per (n, count), and per walk id a ``tee`` of its stream's words, of
    which ``words`` returns a new copy that starts at the first word."""

    __slots__ = ("seed", "initiators", "streams")

    def __init__(self, seed: int):
        self.seed = seed
        self.initiators: dict[tuple[int, int], tuple[int, ...]] = {}
        self.streams: dict[int, Iterator[int]] = {}

    def initiators_for(self, net: Network, count: int) -> tuple[int, ...]:
        picks = self.initiators.get((net.n, count))
        if picks is None:
            picks = select_initiators(net, count, stream(self.seed, "initiators"))
            self.initiators[net.n, count] = picks
        return picks

    def words(self, walk_id: int) -> Iterator[int]:
        master = self.streams.get(walk_id)
        if master is None:
            # Readers are copies: tee(master) returns master itself as one.
            master, = tee(stream_words(stream(self.seed, "walk", walk_id)), 1)
            self.streams[walk_id] = master
        return copy(master)


@lru_cache(maxsize=1)
def seed_draws(seed: int, thread: int) -> SeedDraws:
    """The draws of the last build seed used, keyed by the caller's
    ``threading.get_ident()`` so that no two threads read one tee."""
    return SeedDraws(seed)


def run_walk_until_stop(walks: list[WalkState], net: Network, registry: OverlayRegistry,
                        strategy: CostStrategy, budget: int,
                        trace: list | None = None) -> int:
    """Step the walks in turn until one intersects and return its broker.
    The other walks are left as they stand: the build halts them. Raises
    BuildFailed on a spent step budget or a walk backtracked past its start."""
    for walk in cycle(walks):
        if walk.steps >= budget:
            raise BuildFailed(walk.id, f"step budget {budget} spent")
        out = step(walk, net, registry, strategy, trace)
        if out.kind == EXHAUSTED:
            raise BuildFailed(walk.id, "exhausted: backtracked past its initiator")
        if out.kind == INTERSECTED:
            return walk.broker


def build_overlay(net: Network, cfg: OverlayBuildConfig,
                  trace: list | None = None) -> OverlayResult:
    """Run the full construction and return the finished layer.

    Raises BuildFailed if any walk exhausts or exceeds the step budget, or
    if a walk's record fails the join check (see ``_join``),
    TooManyInitiators if the network is smaller than initiator_count,
    UnknownNode, before any walk starts, for an explicit initiator outside
    it, and IsolatedInitiator for a walk that must step from a node with no
    neighbours.
    """
    draws = seed_draws(cfg.seed, get_ident())
    initiators = cfg.initiators or draws.initiators_for(net, cfg.initiator_count)
    budget = cfg.step_budget if cfg.step_budget is not None else default_step_budget(net.n)

    if cfg.initiators:  # drawn initiators are in range by construction
        lo, hi = min(initiators), max(initiators)
        if lo < 0 or hi >= net.n:
            raise UnknownNode(f"node {lo if lo < 0 else hi} not in 0..{net.n - 1}")

    registry = OverlayRegistry(net.n)
    owner, adjacency = registry.owner, net.adjacency
    stepped: list[WalkState] = []
    born: dict[int, int] = {}
    active: set[int] = set()
    waiting: list[WalkState] = []
    for wid, initiator in enumerate(initiators):
        # The birth rule: a walk is born on its initiator if another walk
        # owns it, else it claims the initiator and is born on its first
        # owned neighbour; with none, it steps.
        broker = initiator
        if owner[initiator] < 0:
            for broker in adjacency[initiator]:
                if owner[broker] >= 0:
                    owner[initiator] = wid
                    break
            else:  # the walk steps; init_walk raises if it has no neighbour
                waiting.append(init_walk(net, initiator, wid, registry, draws.words,
                                         trace=trace)[0])
                if wid:  # walk 0 waits for its partner
                    broker = run_walk_until_stop(waiting, net, registry, cfg.strategy, budget,
                                                 trace)
                    _halt_and_join(waiting, broker, active, stepped)
                continue
        if trace is not None:
            trace.append(TraceRecord(walk=wid, step=0, outcome=INTERSECTED, node=broker,
                                     cursor=1 if broker == initiator else 2, cost=None))
        if waiting:
            _halt_and_join(waiting, broker, active, stepped)
        if broker not in active:
            raise BuildFailed(wid, f"broker {broker} is not on the layer it joins")
        active.add(initiator)
        born[wid] = broker

    return OverlayResult(stepped=stepped, born=born, active_path=active, initiators=initiators,
                         strategy_label=cfg.strategy.label, seed=cfg.seed)


def _halt_and_join(group: list[WalkState], broker: int, active: set[int],
                   stepped: list[WalkState]) -> None:
    """Halt every walk of the group still active at the broker, where it
    stands; then join each to the layer in id order, move it to stepped
    and empty the group."""
    for walk in group:
        if walk.status == ACTIVE:
            walk.status, walk.broker = INTERSECTED, broker
        walk.words = None
        _join(walk, active)
    stepped += group
    group.clear()


def _join(walk: WalkState, active: set[int]) -> None:
    """Add a halted walk's path to the layer once its record passes the
    join check. Raises BuildFailed naming the walk and the first rule it
    breaks."""
    path, parents, broker = walk.path, walk.parents, walk.broker
    n, later = len(path), parents[1:]
    # 0 <= parents[i] < i for every i > 0, compared item by item.
    if (parents[:1] != [-1] or len(parents) != n or min(later, default=0) < 0
            or not all(map(lt, later, range(1, n)))):
        raise BuildFailed(walk.id, "parents do not form a tree over its path")
    if broker not in path:
        raise BuildFailed(walk.id, f"broker {broker} is not on its own path")
    if walk.id and broker not in active:
        raise BuildFailed(walk.id, f"broker {broker} is not on the layer it joins")
    active.update(path)


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
