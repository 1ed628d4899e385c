"""Convert between a walk's mark bitsets and plain node sets."""


def marked_nodes(bits: int) -> set[int]:
    """Nodes whose bit is set in a mark bitset; a walk with no marks has 0."""
    return {u for u in range(bits.bit_length()) if bits >> u & 1}


def mask_of(net, nodes) -> int:
    """Mark bitset of `net` with exactly `nodes` set."""
    nodes = set(nodes)
    assert all(0 <= u < net.n for u in nodes)
    return sum(1 << u for u in nodes)
