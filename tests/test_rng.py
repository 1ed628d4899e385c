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


@pytest.mark.parametrize("value", [0.3, 0.05, 1e-300, -2.5])
def test_numpy_float_label_derives_the_python_float_seed(value):
    """numpy 2 writes np.float64(0.3) as "np.float64(0.3)"; a label is
    encoded by its float value, so both spellings name one stream."""
    assert rng.derive_seed(1, "network", np.float64(value)) == rng.derive_seed(1, "network", value)
    assert raw(stream(np.float64(value), 7)) == raw(stream(value, 7))


def test_numpy_float_radius_derives_the_python_float_seeds():
    from drw_overlay.experiments import ScenarioConfig, build_seed, network_seed
    from drw_overlay.walk_engine import CostStrategy

    def config(r):
        return ScenarioConfig(r=r, initiator_counts={60: (2, 4)},
                              strategies=(CostStrategy("drw"),), replications=3)

    plain, numpy_r = config(0.3), config(np.float64(0.3))
    assert network_seed(numpy_r, 60, 0) == network_seed(plain, 60, 0)
    assert build_seed(numpy_r, 60, 4, 2) == build_seed(plain, 60, 4, 2)
