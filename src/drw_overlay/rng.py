"""Seed derivation and named random streams.

Every random decision in the artifact flows from a single 64-bit base seed.
Sub-tasks (graph placement attempts, initiator selection, individual walks,
experiment replications) get independent streams derived from the base seed
plus a label path, so results never depend on execution order or scheduling.
"""

from __future__ import annotations

import hashlib

import numpy as np

MASK64 = (1 << 64) - 1


def _encode(part) -> str:
    # Type prefix keeps 5, "5" and 5.0 from colliding.
    if isinstance(part, bool):
        return f"b:{part}"
    if isinstance(part, (int, np.integer)):
        return f"i:{int(part)}"
    if isinstance(part, float):
        # float() first: numpy 2 writes np.float64(0.3) as "np.float64(0.3)".
        return f"f:{float(part)!r}"
    if isinstance(part, str):
        return f"s:{part}"
    raise TypeError(f"unsupported seed label type: {type(part)!r}")


def _digest(parts) -> bytes:
    joined = "\x1f".join(_encode(p) for p in parts)
    return hashlib.sha256(joined.encode("utf-8")).digest()


def seed_material(*parts) -> int:
    """Hash a label path into a 256-bit integer suitable as SeedSequence entropy."""
    return int.from_bytes(_digest(parts), "big")


def derive_seed(*parts) -> int:
    """Derive a 64-bit seed from a label path (for display / CSV columns)."""
    return seed_material(*parts) & MASK64


def stream(*parts) -> np.random.Generator:
    """Independent PCG64 generator for the given label path.

    SeedSequence gets the digest as 32-bit words, least significant first,
    with the high zero words dropped: the words numpy itself makes of
    seed_material(*parts), so the pool is the same, without numpy's slower
    conversion of a Python int. Keeping a zero top word would change it.
    """
    low_first = _digest(parts)[::-1].rstrip(b"\0")
    words = np.frombuffer(low_first + bytes(-len(low_first) % 4), dtype="<u4")
    return np.random.default_rng(np.random.SeedSequence(words))
