"""A copy of Generator.choice, the one numpy method the outputs depend on,
read off raw PCG64 words.

NEP 19 keeps a bit generator's raw stream fixed across numpy releases, but
not what a Generator method makes of it. The copy follows numpy's own
source over ``bit_generator.random_raw`` alone and shares no draw code with
the package, so a test that compares the two names the method if a numpy
release changed it.
"""

MASK32 = (1 << 32) - 1


def words32(raw):
    """The 32-bit words numpy's bounded draws read from a raw stream: the
    low, then the high half of each 64-bit output."""
    while True:
        x = int(raw(1)[0])
        yield x & MASK32
        yield x >> 32


def bounded(words, k: int) -> int:
    """Generator.integers(k) for 1 <= k < 2**32: Lemire's method
    (arXiv:1805.10941) as numpy writes it. A range of 1 draws nothing."""
    if k == 1:
        return 0
    m = next(words) * k
    leftover = m & MASK32
    if leftover < k:
        threshold = ((1 << 32) - k) % k
        while leftover < threshold:
            m = next(words) * k
            leftover = m & MASK32
    return m >> 32


def choice(raw, n: int, k: int) -> list[int]:
    """Generator.choice(n, size=k, replace=False) for n <= 10000: Floyd's
    algorithm picks k of range(n), then a Fisher-Yates shuffle swaps pick i
    with a pick drawn from 0..i, for i from k - 1 down to 1. (Above 10000
    nodes numpy may shuffle a full range instead.)"""
    words, picks = words32(raw), []
    seen = set()
    for j in range(n - k, n):
        t = bounded(words, j + 1)
        picks.append(j if t in seen else t)
        seen.add(picks[-1])
    for i in range(k - 1, 0, -1):
        j = bounded(words, i + 1)
        picks[i], picks[j] = picks[j], picks[i]
    return picks
