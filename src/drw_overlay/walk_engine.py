"""Single-walker engine: marking, cost strategies, backtracking, and the
registry of which walk owns each node. The walk rules are set out in
README.md.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .geom_graph import Network

# Strategy kinds (also the CLI tokens).
PURE = "prw"
FIRST_NEIGHBORHOOD = "drw"
TWO_HOP = "twohop"
WEIGHTED = "weighted"
STRATEGY_KINDS = (FIRST_NEIGHBORHOOD, PURE, TWO_HOP, WEIGHTED)

# Walk statuses, and the kinds of step (a step that ends a walk is named
# by the status it leaves).
ACTIVE = "active"
INTERSECTED = "intersected"
EXHAUSTED = "exhausted"
EXTENDED = "extended"
BACKTRACKED = "backtracked"


class IsolatedInitiator(RuntimeError):
    """Walk started on a degree-zero node."""


class WalkNotActive(RuntimeError):
    """step() called on a walk that already terminated."""


def default_step_budget(n: int) -> int:
    """Per-walk step allowance used when a config leaves the budget unset."""
    return 50 * n


class OverlayRegistry:
    """Which walk recruited each node: owner[v] is the id of the first walk
    that took v, or -1, and is never rewritten. A list, because step reads
    single items, which a list serves faster than numpy."""

    def __init__(self, n: int):
        self.owner: list[int] = [-1] * n

    # Nothing in the package calls this; it stays because the benchmark's
    # tracer wraps it by name.
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
    def label(self) -> str:
        if self.kind == WEIGHTED and (self.alpha, self.beta) != (1.0, 1.0):
            return f"weighted-a{self.alpha:g}-b{self.beta:g}"
        return self.kind


def parse_strategy(token: str, alpha: float = 1.0, beta: float = 1.0) -> CostStrategy:
    """Map a CLI token to a strategy; alpha/beta only matter for 'weighted'."""
    token = token.strip().lower()
    if token == WEIGHTED:
        return CostStrategy(WEIGHTED, alpha=alpha, beta=beta)
    return CostStrategy(token)


@dataclass(frozen=True, slots=True)
class StepOutcome:
    """What a step() call did: one of the four shared values below.

    kind EXTENDED    : node appended, walk still active
    kind INTERSECTED : node appended, it already belonged to another walk,
                       which stays its owner; the walk's status is
                       INTERSECTED, the node its broker
    kind BACKTRACKED : no candidates, walk.head moved back one path index
    kind EXHAUSTED   : no candidates at the initiator, status EXHAUSTED
    """

    kind: str


_EXTENDED, _INTERSECTED = StepOutcome(EXTENDED), StepOutcome(INTERSECTED)
_BACKTRACKED, _EXHAUSTED = StepOutcome(BACKTRACKED), StepOutcome(EXHAUSTED)


@dataclass(frozen=True)
class TraceRecord:
    walk: int
    step: int
    outcome: str
    node: int | None
    cursor: int
    cost: float | None


def stream_words(gen: np.random.Generator) -> Iterator[int]:
    """The 32-bit words of gen's stream in the order numpy's bounded draws
    read them: the low, then the high half of each raw 64-bit output. The
    raw outputs are drawn eight at a time, as the words are asked for."""
    raw = gen.bit_generator.random_raw
    while True:
        yield from raw(8).astype("<u8", copy=False).view("<u4").tolist()


@dataclass(slots=True)
class WalkState:
    """One walker. path is in recruitment order and never shrinks.

    parents[i] is the path index the i-th node was recruited from (-1 for
    the initiator). head is the path index the next step extends from:
    len(path) - 1, except midway through a retreat, when it lies further
    back. words yields the 32-bit words of the walk's stream (see
    ``stream_words``) from the first one the walk has not drawn, and is
    None once the walk halts. marked and marked2 are node bitsets in the
    form of ``Network.neighbor_bits``, 0 while nothing is marked.
    """

    id: int
    words: Iterator[int] | None = field(default=None, repr=False)
    path: list[int] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    head: int = 0
    marked: int = 0
    marked2: int = 0
    status: str = ACTIVE
    broker: int | None = None
    steps: int = 0
    backtracks: int = 0


def _score_masks(walk: WalkState, net: Network, strategy: CostStrategy, src_index: int):
    """The bitsets a guided step from path[src_index] scores candidates
    against: (marked, None) for drw, (N(path[src_index - 1]), None) for
    twohop (0 at the initiator), (marked, marked2) for weighted. prw scores
    nothing, and step never asks it."""
    if strategy.kind == TWO_HOP:
        return (net.neighbor_bits[walk.path[src_index - 1]] if src_index else 0), None
    return walk.marked, walk.marked2 if strategy.kind == WEIGHTED else None


def _mark_two_rings(walk: WalkState, net: Network, node: int) -> None:
    """The weighted marking: OR N(node) into marked and the node's two-hop
    ring, memoised in ``net.two_rings``, into marked2, which keeps marked2
    the union of N(u) over marked u."""
    rings = net.two_rings
    entry = rings[node]
    if entry is None:
        bits, ring = net.neighbor_bits, 0
        for u in net.adjacency[node]:
            ring |= bits[u]
        low = max((ring & -ring).bit_length() - 1, 0)
        entry = rings[node] = (ring >> low, low)
    ring, low = entry
    walk.marked2 |= ring << low
    walk.marked |= net.neighbor_bits[node]


def _pick(walk: WalkState, items: list[int]) -> int:
    """``items[gen.integers(len(items))]`` value for value, where gen is a
    fresh generator of the walk's stream, drawn from the walk's words;
    one item draws nothing."""
    k = len(items)
    if k == 1:
        return items[0]
    words = walk.words
    while True:
        m = next(words) * k
        if m & 0xFFFFFFFF >= (1 << 32) % k:
            return items[m >> 32]


def init_walk(net: Network, initiator: int, walk_id: int, registry: OverlayRegistry,
              walk_words: Callable[[int], Iterator[int]],
              trace: list | None = None) -> tuple[WalkState, None]:
    """Start walk walk_id at initiator and draw its second node.

    Precondition: no walk owns the initiator or any of its neighbors
    (``build_overlay`` settles every other walk's birth itself). The walk
    gets path [initiator, v] with head 1, no marks, and walk_words(walk_id)
    as its words, which must start at the first word of its stream; the
    trace records step 0. Returns the pair (walk, None), whose second item
    the benchmark's tracer reads (ROADMAP item 6). Raises IsolatedInitiator
    for an initiator with no neighbors.
    """
    nbrs = net.adjacency[initiator]
    if not nbrs:
        raise IsolatedInitiator(f"initiator {initiator} has no neighbors")
    owner = registry.owner
    owner[initiator] = walk_id
    walk = WalkState(id=walk_id, words=walk_words(walk_id), path=[initiator],
                     parents=[-1, 0], head=1)
    v = _pick(walk, nbrs)
    walk.path.append(v)
    owner[v] = walk_id
    if trace is not None:
        _trace(trace, walk, _EXTENDED, cost=None)
    return walk, None


def step(walk: WalkState, net: Network, registry: OverlayRegistry,
         strategy: CostStrategy, trace: list | None = None) -> StepOutcome:
    """Advance the walk by one transition and return the shared
    StepOutcome of its kind; a step that extends or meets took the walk's
    new path[-1]. Every step of a walk must be given the same strategy.
    Raises WalkNotActive for a walk that has already ended.
    """
    if walk.status != ACTIVE:
        raise WalkNotActive(f"walk {walk.id} is {walk.status}")
    walk.steps += 1
    path, head, wid = walk.path, walk.head, walk.id
    owner, kind = registry.owner, strategy.kind
    ties, o = [], -1
    if kind == PURE:
        for v in net.adjacency[path[head]]:
            o = owner[v]
            if o < 0:
                ties.append(v)
            elif o != wid:
                break
    else:
        if head == len(path) - 1:
            # Lagged discipline: fold in the neighborhood of the node behind.
            if kind == FIRST_NEIGHBORHOOD:
                walk.marked |= net.neighbor_bits[path[head - 1]]
            elif kind == WEIGHTED:
                _mark_two_rings(walk, net, path[head - 1])
        bits, low = net.neighbor_bits, net.low_rank
        first, second = _score_masks(walk, net, strategy, head)
        alpha, beta, best = strategy.alpha, strategy.beta, math.inf
        for v in net.adjacency[path[head]]:
            o = owner[v]
            if o < 0:
                c = ((bits[v] & first) >> low[v]).bit_count()
                if second is not None:
                    c = alpha * c + beta * ((bits[v] & second) >> low[v]).bit_count()
                if c < best:
                    best, ties = c, [v]
                elif c == best:
                    ties.append(v)
            elif o != wid:
                break
    if 0 <= o != wid:  # only a loop that broke leaves another walk's id in o
        walk.status, walk.broker = INTERSECTED, v
        out = _INTERSECTED
    elif not ties:
        if head == 0:
            walk.status = EXHAUSTED
            out = _EXHAUSTED
        else:
            walk.head = head - 1
            walk.backtracks += 1
            out = _BACKTRACKED
        if trace is not None:
            _trace(trace, walk, out, None)
        return out
    else:
        v = _pick(walk, ties)
        owner[v] = wid
        out = _EXTENDED

    walk.parents.append(head)
    walk.head = len(path)
    path.append(v)
    if trace is not None:
        _trace(trace, walk, out, best if kind != PURE and out is _EXTENDED else None)
    return out


def _trace(trace: list, walk: WalkState, out: StepOutcome, cost: float | None) -> None:
    """Record the step just taken. The cursor is head + 1, or head + 2
    midway through a retreat."""
    path, head = walk.path, walk.head
    node = path[-1] if out.kind in (EXTENDED, INTERSECTED) else None
    trace.append(TraceRecord(walk=walk.id, step=walk.steps, outcome=out.kind, node=node,
                             cursor=head + 1 + (head < len(path) - 1), cost=cost))
