"""Single-walker engine: tabu growth, neighborhood marking, guided extension.

A walk recruits nodes one at a time starting from its initiator. Guided
("directional") walks mark the neighborhoods of nodes behind the head and
extend to a candidate with minimum overlap against the marked region, which
pushes the walk away from where it has already been. Pure walks pick
uniformly. Either way a candidate already recruited by another walk is taken
immediately and becomes a broker, terminating the walk.

Candidates are the head's neighbors that no walk owns yet (self-avoidance).
When no candidate exists the head retreats one recruited node per step;
retreating past the initiator exhausts the walk.

Cost bookkeeping follows the marking discipline in which, on each normal
extension step, the neighborhood of the node *behind* the head is folded
into the marked set before candidates are scored. The head's own
neighborhood is therefore never counted against its candidates.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .geom_graph import Network

# Strategy kinds (also the CLI tokens).
PURE = "prw"
FIRST_NEIGHBORHOOD = "drw"
TWO_HOP = "twohop"
WEIGHTED = "weighted"
STRATEGY_KINDS = (FIRST_NEIGHBORHOOD, PURE, TWO_HOP, WEIGHTED)

# Walk statuses.
ACTIVE = "active"
INTERSECTED = "intersected"
EXHAUSTED = "exhausted"

# Step outcome kinds.
EXTENDED = "extended"
INTERSECTED_STEP = "intersected"
BACKTRACKED = "backtracked"
EXHAUSTED_STEP = "exhausted"


class IsolatedInitiator(RuntimeError):
    """Walk started on a degree-zero node."""


class WalkNotActive(RuntimeError):
    """step() called on a walk that already terminated."""


class StepBudgetExceeded(RuntimeError):
    def __init__(self, walk_id: int, budget: int):
        super().__init__(f"walk {walk_id} did not terminate within {budget} steps")
        self.walk_id = walk_id
        self.budget = budget


def default_step_budget(n: int) -> int:
    """Per-walk step allowance used when a config leaves the budget unset."""
    return 50 * n


class OverlayRegistry:
    """Which walk recruited each node: the one ownership record of a build.

    owner[v] is the lowest id of a walk that recruited v, or -1, and brokers
    holds the nodes a second walk recruited. One id per node suffices: an
    active walk is the only owner of its own nodes, since a walk ends where
    it meets another. The lowest id is kept, not the first, because that is
    the other_walk a later walk reports on meeting a broker. owner is a list
    because step reads single items, which a list serves faster than numpy.
    """

    def __init__(self, n: int):
        self.owner: list[int] = [-1] * n
        self.brokers: set[int] = set()

    def register(self, node: int, walk_id: int) -> bool:
        """Record that walk_id recruited node; True if node is a broker."""
        o = self.owner[node]
        if 0 <= o != walk_id:
            self.brokers.add(node)
        self.owner[node] = walk_id if o < 0 else min(o, walk_id)
        return node in self.brokers

    # Nothing in the package calls this; it stays because the benchmark's
    # tracer wraps it by name and the tests read owners through it.
    def other_walk_at(self, node: int, walk_id: int) -> int | None:
        """The owner of node when that is a walk other than walk_id, else None."""
        o = self.owner[node]
        return o if o >= 0 and o != walk_id else None


@dataclass(frozen=True)
class CostStrategy:
    """Candidate scoring rule.

    kind "drw"      : overlap with the marked set, |N(v) & marked|
    kind "prw"      : no scoring, uniform choice
    kind "twohop"   : overlap with the neighborhood of the node behind the
                      head, |N(v) & N(behind)| (no marked set needed)
    kind "weighted" : alpha*|N(v) & marked| + beta*|N(v) & marked2| where
                      marked2 holds the two-hop fringe of marked nodes
    """

    kind: str
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}, expected one of {STRATEGY_KINDS}")
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise ValueError("alpha and beta must be finite and non-negative")

    @property
    def needs_marks(self) -> bool:
        return self.kind in (FIRST_NEIGHBORHOOD, WEIGHTED)

    @property
    def needs_second_marks(self) -> bool:
        return self.kind == WEIGHTED

    @property
    def label(self) -> str:
        if self.kind == WEIGHTED and (self.alpha, self.beta) != (1.0, 1.0):
            return f"weighted-a{self.alpha:g}-b{self.beta:g}"
        return self.kind


def parse_strategy(token: str, alpha: float = 1.0, beta: float = 1.0) -> CostStrategy:
    """Map a CLI token to a strategy; alpha/beta only matter for 'weighted'."""
    token = token.strip().lower()
    if token not in STRATEGY_KINDS:
        raise ValueError(f"unknown strategy {token!r}, expected one of {STRATEGY_KINDS}")
    if token == WEIGHTED:
        return CostStrategy(WEIGHTED, alpha=alpha, beta=beta)
    return CostStrategy(token)


@dataclass(frozen=True)
class StepOutcome:
    """What a single step() call did.

    kind "extended"    : node appended, walk still active
    kind "intersected" : node appended, it already belonged to other_walk
    kind "backtracked" : no candidates, head moved back to 1-based new_cursor
    kind "exhausted"   : no candidates at the initiator, walk dead
    """

    kind: str
    node: int | None = None
    other_walk: int | None = None
    new_cursor: int | None = None


@dataclass(frozen=True)
class TraceRecord:
    walk: int
    step: int
    outcome: str
    node: int | None
    cursor: int
    cost: float | None


@dataclass
class WalkState:
    """One walker. path is in recruitment order and never shrinks.

    parents[i] is the path index the i-th node was recruited from (-1 for
    the initiator), so the traced edges stay well defined even after
    backtracking. cursor is the 1-based position of the current head;
    cursor == len(path) except midway through a retreat.

    rng is either given or made by make_rng on the walk's first draw, so a
    walk that never draws never pays for a generator. marked and marked2
    are bool masks of length n+1 (slot n always False), made on the walk's
    first mark; a walk that never marks keeps None.
    """

    id: int
    rng: np.random.Generator | None = None
    path: list[int] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    cursor: int = 0
    marked: np.ndarray | None = None
    marked2: np.ndarray | None = None
    status: str = ACTIVE
    broker: int | None = None
    steps: int = 0
    backtracks: int = 0
    maintain_marks: bool = True
    maintain_second: bool = False
    make_rng: Callable[[], np.random.Generator] | None = field(default=None, repr=False)
    _retreating: bool = field(default=False, repr=False)

    @property
    def initiator(self) -> int:
        return self.path[0]

    @property
    def head(self) -> int:
        """Current extension source (1-based cursor into the recruitment path)."""
        return self.path[self.cursor - 1]


def candidate_costs(walk: WalkState, net: Network, strategy: CostStrategy,
                    candidates: list[int], src_index: int) -> list:
    """Score each candidate under strategy, in candidate order.

    Counts gather the candidates' rows of ``net.neighbor_table`` from a
    bool mask; the table's padding indexes slot n, which is always False.
    The node behind the head is ``walk.path[src_index - 1]`` (none when
    src_index is 0). Scores come back as Python numbers: ints, or floats
    for "weighted"; "prw" scores every candidate 0.
    """
    if strategy.kind == PURE:
        return [0] * len(candidates)
    n = net.n
    table = net.neighbor_table
    rows = table.take(candidates, 0)
    if strategy.kind == TWO_HOP:
        behind = np.zeros(n + 1, dtype=bool)
        if src_index > 0:
            behind.put(table[walk.path[src_index - 1]], True)
            behind[n] = False
        return behind.take(rows).sum(1).tolist()
    marked, marked2 = walk.marked, walk.marked2
    if marked is None:  # nothing marked yet
        marked = marked2 = np.zeros(n + 1, dtype=bool)
    first = marked.take(rows).sum(1)
    if strategy.kind == FIRST_NEIGHBORHOOD:
        return first.tolist()
    second = marked2.take(rows).sum(1)
    return (strategy.alpha * first + strategy.beta * second).tolist()


def cost_first_neighborhood(walk: WalkState, net: Network, v: int) -> int:
    """Overlap of v's neighborhood with the walk's marked set."""
    return candidate_costs(walk, net, CostStrategy(FIRST_NEIGHBORHOOD), [v], 0)[0]


def cost_two_hop(net: Network, behind: int, v: int) -> int:
    """Common neighbors of v and the node behind the head."""
    # src_index 1 makes path[0] the node behind the head.
    return candidate_costs(WalkState(id=-1, path=[behind]), net, CostStrategy(TWO_HOP),
                           [v], 1)[0]


def cost_weighted(walk: WalkState, net: Network, v: int,
                  alpha: float, beta: float) -> float:
    """alpha * first-ring overlap + beta * second-ring overlap."""
    return candidate_costs(walk, net, CostStrategy(WEIGHTED, alpha, beta), [v], 0)[0]


def _mark_neighborhood(walk: WalkState, net: Network, node: int) -> None:
    """Fold N(node) into marked and, if kept, N(u) into marked2 for each newly
    marked u, which keeps marked2 = union of N(u) over marked u."""
    if not walk.maintain_marks:
        return
    n = net.n
    table = net.neighbor_table
    if walk.marked is None:
        walk.marked = np.zeros(n + 1, dtype=bool)
        if walk.maintain_second:
            walk.marked2 = np.zeros(n + 1, dtype=bool)
    row = table[node]
    if walk.maintain_second:
        walk.marked2.put(table.take(row.compress(~walk.marked.take(row)), 0), True)
        walk.marked2[n] = False
    walk.marked.put(row, True)
    walk.marked[n] = False


def _pick(walk: WalkState, items: list[int]) -> int:
    """Uniform draw from items with the walk's generator, made on first use."""
    if walk.rng is None:
        walk.rng = walk.make_rng()
    return items[int(walk.rng.integers(len(items)))]


def _meet(walk: WalkState, registry: OverlayRegistry, node: int, other: int,
          trace: list | None) -> StepOutcome:
    """End the walk on node, which walk `other` owns; node becomes a broker."""
    registry.register(node, walk.id)
    walk.status = INTERSECTED
    walk.broker = node
    out = StepOutcome(INTERSECTED_STEP, node=node, other_walk=other)
    _trace(trace, walk, out, cost=None)
    return out


def _append(walk: WalkState, node: int, parent_index: int) -> None:
    walk.path.append(node)
    walk.parents.append(parent_index)
    walk.cursor = len(walk.path)
    walk._retreating = False


def init_walk(net: Network, initiator: int, walk_id: int, registry: OverlayRegistry,
              rng_seed, *, strategy: CostStrategy | None = None,
              trace: list | None = None) -> tuple[WalkState, StepOutcome | None]:
    """Create a walk and recruit its second node.

    The second node is drawn uniformly from the initiator's neighbors. Two
    shortcuts apply first: if the initiator already belongs to another walk
    the new walk is born intersected at the initiator itself, and if some
    neighbor already belongs to another walk the walk takes it immediately
    (lowest id first). Returns (walk, outcome) where outcome is the
    intersection if one of the shortcuts fired, else None.

    rng_seed may be an int, a ready np.random.Generator, or a zero-argument
    factory that the walk calls on its first draw; a walk born intersected
    never calls it.
    """
    gen, make_rng = None, None
    if isinstance(rng_seed, np.random.Generator):
        gen = rng_seed
    elif callable(rng_seed):
        make_rng = rng_seed
    else:
        gen = np.random.default_rng(np.random.SeedSequence(int(rng_seed)))
    walk = WalkState(id=walk_id, rng=gen, make_rng=make_rng)
    if strategy is not None:
        walk.maintain_marks = strategy.needs_marks
        walk.maintain_second = strategy.needs_second_marks
    _append(walk, initiator, parent_index=-1)

    # The new walk owns no node yet and the graph has no self-loops, so
    # every owner of the initiator or of a neighbor is another walk.
    nbrs = net.neighbors(initiator)  # validates the id before the owner read
    other = registry.owner[initiator]
    if other >= 0:
        return walk, _meet(walk, registry, initiator, other, trace)
    registry.register(initiator, walk_id)

    if not nbrs:
        raise IsolatedInitiator(f"initiator {initiator} has no neighbors")
    for v in nbrs:
        other = registry.owner[v]
        if other >= 0:
            _append(walk, v, parent_index=0)
            return walk, _meet(walk, registry, v, other, trace)
    v = _pick(walk, nbrs)
    _append(walk, v, parent_index=0)
    registry.register(v, walk_id)
    _trace(trace, walk, StepOutcome(EXTENDED, node=v), cost=None)
    return walk, None


def step(walk: WalkState, net: Network, registry: OverlayRegistry,
         strategy: CostStrategy, trace: list | None = None) -> StepOutcome:
    """Advance the walk by one transition and report what happened.

    A normal step marks the neighborhood of the node behind the head, then
    scores the head's unowned neighbors. A step that finds no candidate
    only retreats the cursor; the next call resumes from the new head
    without marking again. Ties (and the pure strategy) use the walk's rng.
    """
    if walk.status != ACTIVE:
        raise WalkNotActive(f"walk {walk.id} is {walk.status}")
    if strategy.needs_second_marks and not walk.maintain_second:
        raise ValueError("walk was initialized without second-ring marks")
    walk.steps += 1

    if not walk._retreating:
        # Lagged discipline: fold in the neighborhood one position behind
        # the head.
        _mark_neighborhood(walk, net, walk.path[walk.cursor - 2])
        walk.cursor += 1

    src_index = walk.cursor - 2
    src = walk.path[src_index]
    # One owner read per neighbor, in id order: the first neighbor owned by
    # another walk wins outright, and the unowned ones are the candidates.
    owner = registry.owner
    candidates = []
    for v in net.adjacency[src]:
        o = owner[v]
        if o < 0:
            candidates.append(v)
        elif o != walk.id:
            _append(walk, v, src_index)
            return _meet(walk, registry, v, o, trace)

    if not candidates:
        if walk.cursor == 2:
            walk.status = EXHAUSTED
            walk._retreating = False
            out = StepOutcome(EXHAUSTED_STEP)
            _trace(trace, walk, out, cost=None)
            return out
        walk.cursor -= 1
        walk.backtracks += 1
        walk._retreating = True
        out = StepOutcome(BACKTRACKED, new_cursor=walk.cursor)
        _trace(trace, walk, out, cost=None)
        return out

    chosen_cost: float | None = None
    if strategy.kind == PURE:
        v = _pick(walk, candidates)
    else:
        costs = candidate_costs(walk, net, strategy, candidates, src_index)
        low = min(costs)
        best = [c for c, cost in zip(candidates, costs) if cost == low]
        v = _pick(walk, best)
        chosen_cost = low

    _append(walk, v, src_index)
    registry.register(v, walk.id)
    out = StepOutcome(EXTENDED, node=v)
    _trace(trace, walk, out, cost=chosen_cost)
    return out


def run_walk_until_stop(walk: WalkState, net: Network, registry: OverlayRegistry,
                        strategy: CostStrategy, step_budget: int,
                        trace: list | None = None) -> WalkState:
    """Step the walk until it intersects or exhausts, or raise on budget."""
    while walk.status == ACTIVE:
        if walk.steps >= step_budget:
            raise StepBudgetExceeded(walk.id, step_budget)
        step(walk, net, registry, strategy, trace)
    return walk


def _trace(trace: list | None, walk: WalkState,
           out: StepOutcome, cost: float | None) -> None:
    if trace is None:
        return
    trace.append(TraceRecord(walk=walk.id, step=walk.steps, outcome=out.kind,
                             node=out.node, cursor=walk.cursor, cost=cost))
