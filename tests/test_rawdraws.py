"""The raw-word draws pinned to the Generator methods they were made from.

Placements read raw words as ``Generator.random`` does, and walks as
``Generator.integers`` does (see
``test_walk_engine.py::test_pick_equals_generator_integers``). Initiators
still come from ``Generator.choice``, the one method the outputs depend
on, pinned here to a raw-word copy. Each check names the method, so a
numpy release that changes one fails here, not only in an opaque golden
hash.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import rawdraws
from drw_overlay.geom_graph import GraphGenConfig, NotConnected, generate_network
from drw_overlay.overlay import select_initiators
from drw_overlay.rng import stream


def raw_of(*parts):
    return stream(*parts).bit_generator.random_raw


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 60), r=st.floats(0.2, 1.0), seed=st.integers(0, 2**32))
def test_positions_are_generator_random(n, r, seed):
    """The accepted placement is what Generator.random gives on
    stream(seed, "placement", k), for the attempt k that made it."""
    try:
        net = generate_network(GraphGenConfig(n=n, r=r, seed=seed))
    except NotConnected:
        reject()
    want = stream(seed, "placement", net.attempts - 1).random((n, 2))
    assert np.array_equal(net.positions, want), "Generator.random changed"


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 3000), seed=st.integers(0, 2**32), data=st.data())
def test_initiators_are_generator_choice(n, seed, data):
    """Initiators are Floyd's algorithm plus a shuffle over the initiators
    stream's words, for every count from 2 to n; a count of n draws nothing
    for the first pick, whose range is 1."""
    count = data.draw(st.one_of(st.integers(2, min(n, 40)), st.integers(2, n), st.just(n)),
                      label="count")
    got = select_initiators(SimpleNamespace(n=n), count, stream(seed, "initiators"))
    want = rawdraws.choice(raw_of(seed, "initiators"), n, count)
    assert list(got) == want, "Generator.choice(replace=False) changed"
