"""Named streams: the digest passed as words seeds the same generator as the digest's int."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drw_overlay import rng
from drw_overlay.rng import seed_material, stream

LABELS = st.one_of(st.booleans(), st.integers(-2**70, 2**70), st.floats(allow_nan=False), st.text(max_size=8))


def raw(gen, k=8):
    return gen.bit_generator.random_raw(k).tolist()


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(LABELS, max_size=4))
def test_stream_equals_seed_sequence_of_the_int(parts):
    ref = np.random.default_rng(np.random.SeedSequence(seed_material(*parts)))
    assert raw(stream(*parts)) == raw(ref)


@pytest.mark.parametrize("zero_bytes", [1, 4, 5, 28, 32],
                         ids=["top-byte", "top-word", "top-word-and-byte", "seven-words", "all"])
def test_stream_drops_high_zero_words_as_numpy_does(monkeypatch, zero_bytes):
    """A digest whose high bytes are zero seeds as its int does; numpy drops
    high zero words of an int, so keeping all 8 words would not."""
    digest = bytes(zero_bytes) + hashlib.sha256(b"any label").digest()[zero_bytes:]
    monkeypatch.setattr(rng, "_digest", lambda parts: digest)
    ref = np.random.default_rng(np.random.SeedSequence(int.from_bytes(digest, "big")))
    assert raw(stream("x")) == raw(ref)
