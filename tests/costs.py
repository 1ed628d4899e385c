"""Candidate scores two ways: by the package's one scoring dispatch and by
plain Python sets.

``candidate_costs`` scores a whole list of candidates with the bitsets
``walk_engine._score_masks`` picks, the rule ``step`` applies to one
candidate at a time; ``oracle_costs`` recomputes the same scores from node
sets. The tests compare the two, and pin ``step``'s traced costs to both.
"""

from marks import marked_nodes
from drw_overlay.walk_engine import FIRST_NEIGHBORHOOD, PURE, TWO_HOP, _score_masks


def candidate_costs(walk, net, strategy, candidates, src_index) -> list:
    """Score each candidate, in order, by the rule ``step`` applies to one
    candidate at a time: the popcount of its ``net.neighbor_bits`` entry
    ANDed with the first ``_score_masks`` bitset, and for "weighted" alpha
    times that plus beta times the popcount against the second. Both sides
    place node u at bit ``net.bit_rank[u]``, and a popcount does not depend
    on which bit stands for which node, so the counts are plain set
    overlaps. Scores are ints, or floats for "weighted"; "prw" scores 0.
    """
    if strategy.kind == PURE:
        return [0] * len(candidates)
    bits = net.neighbor_bits
    first, second = _score_masks(walk, net, strategy, src_index)
    if second is None:
        return [(bits[v] & first).bit_count() for v in candidates]
    alpha, beta = strategy.alpha, strategy.beta
    return [alpha * (bits[v] & first).bit_count() + beta * (bits[v] & second).bit_count()
            for v in candidates]


def oracle_costs(walk, net, strategy, candidates, src_index) -> list:
    """Set-based scores, with the marks read back from the walk's bitsets."""
    rings = [set(net.adjacency[c]) for c in candidates]
    if strategy.kind == PURE:
        return [0] * len(candidates)
    if strategy.kind == TWO_HOP:
        behind = set(net.adjacency[walk.path[src_index - 1]]) if src_index > 0 else set()
        return [len(ring & behind) for ring in rings]
    marked, marked2 = marked_nodes(net, walk.marked), marked_nodes(net, walk.marked2)
    if strategy.kind == FIRST_NEIGHBORHOOD:
        return [len(ring & marked) for ring in rings]
    return [strategy.alpha * len(ring & marked) + strategy.beta * len(ring & marked2)
            for ring in rings]
