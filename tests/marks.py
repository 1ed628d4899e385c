"""Convert between a walk's mark bitsets and plain node sets.

Node u stands for bit ``net.bit_rank[u]`` of a mark bitset, as in
``net.neighbor_bits``.
"""


def marked_nodes(net, bits: int) -> set[int]:
    """Nodes whose bit is set in a mark bitset of `net`; a walk with no marks has 0."""
    assert 0 <= bits and bits.bit_length() <= net.n  # no bit >= n
    return {u for u, b in enumerate(net.bit_rank.tolist()) if bits >> b & 1}


def mask_of(net, nodes) -> int:
    """Mark bitset of `net` with exactly `nodes` set."""
    nodes = set(nodes)
    assert all(0 <= u < net.n for u in nodes)
    return sum(1 << int(net.bit_rank[u]) for u in nodes)
