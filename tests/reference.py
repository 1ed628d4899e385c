"""A slow overlay build written from README.md's walk rules alone.

It shares no code with the engine. The graph is a list of neighbour lists,
read from a network's CSR arrays; who took each node is a dict; a walk's
marks are sets of nodes. From the package it takes only
``drw_overlay.rng.stream``, which names the random streams a build draws
from: the initiators from ``stream(seed, "initiators")`` and each of walk
w's choices among k items as ``stream(seed, "walk", w).integers(k)``, one
generator per walk and build. It keeps nothing between builds.
``tests/test_reference.py`` checks that every engine build equals it.
"""

from itertools import cycle

from drw_overlay.rng import stream


class Stop(Exception):
    """The build failed: args[0] is its outcome."""


class Walk:
    def __init__(self, wid, path, parents, status="active", broker=None):
        self.id, self.path, self.parents = wid, path, parents
        self.head = len(path) - 1
        self.status, self.broker = status, broker
        self.steps = self.backtracks = 0
        self.marks, self.marks2 = set(), set()


def build(net, kind, seed, count, alpha=1.0, beta=1.0, initiators=None, budget=None):
    """One build on net with strategy kind ("drw", "prw", "twohop" or
    "weighted"), drawing count initiators unless they are given; budget
    None means 50 n steps per walk.

    Returns (outcome, trace, owner). outcome is the layer in the form of
    ``overlay.to_json_dict`` without its strategy label, or (walk id,
    reason) for a failed walk, or the initiator with no neighbours.
    trace holds (walk, step, outcome, node, cursor, cost) tuples, and owner
    maps each node taken to the id of the walk that took it first.
    """
    n = net.n
    indptr, indices = net.indptr.tolist(), net.indices.tolist()
    nbrs = [sorted(indices[indptr[v]:indptr[v + 1]]) for v in range(n)]
    if initiators is None:
        initiators = stream(seed, "initiators").choice(n, size=count, replace=False).tolist()
    budget = 50 * n if budget is None else budget
    owner, trace, gens = {}, [], {}

    def pick(wid, items):
        if wid not in gens:
            gens[wid] = stream(seed, "walk", wid)
        return items[int(gens[wid].integers(len(items)))]

    def note(walk, outcome, node=None, cost=None):
        # The cursor is one past the head, and one more midway through a retreat.
        cursor = walk.head + 1 + (walk.head < len(walk.path) - 1)
        trace.append((walk.id, walk.steps, outcome, node, cursor, cost))

    def take(walk, node, outcome="extended", cost=None):
        if outcome == "extended":
            owner[node] = walk.id
        walk.parents.append(walk.head)
        walk.path.append(node)
        walk.head = len(walk.path) - 1
        note(walk, outcome, node, cost)

    def score(walk, v):
        ring = set(nbrs[v])
        if kind == "twohop":
            return len(ring & set(nbrs[walk.path[walk.head - 1]])) if walk.head else 0
        if kind == "drw":
            return len(ring & walk.marks)
        return alpha * len(ring & walk.marks) + beta * len(ring & walk.marks2)

    def start(wid, initiator):
        """The walk that steps, or the born walk."""
        if initiator in owner:
            born = Walk(wid, [initiator], [-1], "intersected", initiator)
        elif not nbrs[initiator]:
            raise Stop(initiator)
        else:
            owner[initiator] = wid
            taken = [v for v in nbrs[initiator] if v in owner]
            if not taken:
                walk = Walk(wid, [initiator], [-1])
                take(walk, pick(wid, nbrs[initiator]))
                return walk, None
            born = Walk(wid, [initiator, taken[0]], [-1, 0], "intersected", taken[0])
        trace.append((wid, 0, "intersected", born.broker, len(born.path), None))
        return None, born

    def step(walk):
        """One step; returns the node where the walk met another, or None."""
        walk.steps += 1
        here = walk.path[walk.head]
        if kind in ("drw", "weighted") and walk.head == len(walk.path) - 1:
            behind = walk.path[walk.head - 1]
            walk.marks.update(nbrs[behind])
            if kind == "weighted":
                for u in nbrs[behind]:
                    walk.marks2.update(nbrs[u])
        met = [v for v in nbrs[here] if owner.get(v, walk.id) != walk.id]
        if met:
            walk.status, walk.broker = "intersected", met[0]
            take(walk, met[0], "intersected")
            return met[0]
        free = [v for v in nbrs[here] if v not in owner]
        if not free and walk.head == 0:
            note(walk, "exhausted")
            raise Stop((walk.id, "exhausted: backtracked past its initiator"))
        if not free:
            walk.head -= 1
            walk.backtracks += 1
            note(walk, "backtracked")
            return None
        cost = None
        if kind != "prw":
            costs = [score(walk, v) for v in free]
            cost = min(costs)
            free = [v for v, c in zip(free, costs) if c == cost]
        take(walk, pick(walk.id, free), cost=cost)
        return None

    def run(group):
        """Step the group in turn until one of them meets another walk."""
        for walk in cycle(group):
            if walk.steps >= budget:
                raise Stop((walk.id, f"step budget {budget} spent"))
            broker = step(walk)
            if broker is not None:
                return broker

    done, waiting = [], []
    try:
        for wid, initiator in enumerate(initiators):
            walk, born = start(wid, initiator)
            if walk is not None:
                waiting.append(walk)
                if wid == 0:
                    continue
            broker = run(waiting) if born is None else born.broker
            for other in waiting:
                if other.status == "active":
                    other.status, other.broker = "intersected", broker
            done += waiting if born is None else waiting + [born]
            waiting = []
    except Stop as stop:
        return stop.args[0], trace, owner

    edges = {tuple(sorted((w.path[i], w.path[p]))) for w in done
             for i, p in enumerate(w.parents) if p >= 0}
    layer = {
        "initiators": list(initiators),
        "seed": seed,
        "brokers": sorted({w.broker for w in done}),
        "active_path": sorted({v for w in done for v in w.path}),
        "active_path_edges": sorted(list(e) for e in edges),
        "total_steps": sum(w.steps for w in done),
        "total_backtracks": sum(w.backtracks for w in done),
        "walks": [{"id": w.id, "path": w.path, "parents": w.parents, "status": w.status,
                   "broker": w.broker, "steps": w.steps, "backtracks": w.backtracks}
                  for w in done],
    }
    return layer, trace, owner
