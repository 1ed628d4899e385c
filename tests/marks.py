"""Convert between a walk's bool mark masks and plain node sets."""

import numpy as np


def marked_nodes(mask) -> set[int]:
    """Nodes set in a mark mask of length n+1; a walk with no marks has None."""
    return set() if mask is None else set(np.flatnonzero(mask[:-1]).tolist())


def mask_of(net, nodes) -> np.ndarray:
    """Mark mask of length n+1 with exactly `nodes` set."""
    mask = np.zeros(net.n + 1, dtype=bool)
    mask[list(nodes)] = True
    return mask
