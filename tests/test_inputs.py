"""One rule per input value: every entry that takes a radius or an integer
applies the same check, with the same message."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from drw_overlay.experiments import ScenarioConfig
from drw_overlay.geom_graph import (
    MAX_RADIUS,
    GraphGenConfig,
    from_json_dict,
    network_from_positions,
    to_json_dict,
)
from drw_overlay.overlay import OverlayBuildConfig
from drw_overlay.walk_engine import CostStrategy

DRW = CostStrategy("drw")
TWO_POINTS = [[0.1, 0.2], [0.3, 0.2]]
NET_JSON = to_json_dict(network_from_positions(TWO_POINTS, 0.5))
SCENARIO = dict(r=0.2, initiator_counts={60: (2, 4)}, strategies=(DRW,), replications=3)


def load_with(**fields):
    return from_json_dict({**NET_JSON, **fields})


def scenario_with(**fields):
    return ScenarioConfig(**{**SCENARIO, **fields})


CLAMPING_ENTRIES = {
    "GraphGenConfig": lambda r: GraphGenConfig(n=10, r=r).r,
    "network_from_positions": lambda r: network_from_positions(TWO_POINTS, r).radius,
    "from_json_dict": lambda r: load_with(r=r).radius,
}
RADIUS_ENTRIES = {**CLAMPING_ENTRIES, "ScenarioConfig": lambda r: scenario_with(r=r).r}


@pytest.mark.parametrize("bad", [True, "0.1", -0.3, 0.0, math.nan, math.inf, 10**400,
                                 Fraction(1, 10**400)],
                         ids=["True", "str", "negative", "zero", "nan", "inf", "int-overflow",
                              "fraction-underflow"])
@pytest.mark.parametrize("entry", list(RADIUS_ENTRIES))
def test_every_entry_rejects_a_bad_radius(entry, bad):
    """-0.3 would build the 0.3 graph, 0.0 a graph with no edges, nan would
    fail deep in the pair search and inf would be clamped like any large r.
    An int too large for a float is infinite to float(), which raises
    OverflowError, and a Fraction below the least float becomes 0.0."""
    message = f"^r must be a finite number > 0, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        RADIUS_ENTRIES[entry](bad)


@pytest.mark.parametrize("entry", list(CLAMPING_ENTRIES))
def test_every_entry_stores_the_radius_as_a_clamped_float(entry):
    for given, stored in ((np.float32(0.5), float(np.float32(0.5))), (1, 1.0), (5, MAX_RADIUS)):
        r = CLAMPING_ENTRIES[entry](given)
        assert r == stored and type(r) is float


def test_scenario_keeps_its_radius_as_given():
    """A sweep's r feeds every derived seed, and the seed of 1 is not the
    seed of 1.0, so ScenarioConfig checks r but neither clamps it nor turns
    an int into a float."""
    for given in (1, 1.0, 5):
        assert scenario_with(r=given).r is given


@pytest.mark.parametrize("fields, message", [
    (dict(r=np.float32(0.5)), "r must be an int or a float, got np.float32(0.5)"),
    (dict(r=Fraction(3, 10)), "r must be an int or a float, got Fraction(3, 10)"),
    (dict(initiator_counts={}), "a scenario needs at least one n"),
    (dict(strategies=()), "a scenario needs at least one strategy"),
    (dict(initiator_counts={60: (2, 2)}), "an initiator count is listed twice for n=60"),
    (dict(scale=math.nan), "scale must be in (0, 1], got nan"),
    (dict(scale=5), "scale must be in (0, 1], got 5"),
    (dict(label="a\nb"), "label must be one line of text, got 'a\\nb'"),
    (dict(label="a\rb"), "label must be one line of text, got 'a\\rb'"),
    (dict(label=3), "label must be one line of text, got 3"),
], ids=["float32-radius", "fraction-radius", "no-n", "no-strategy", "initiator-count-twice",
        "scale-nan", "scale-5", "label-newline", "label-return", "label-int"])
def test_scenario_rejects_what_it_cannot_run(fields, message):
    """No seed label encodes a float32 or a Fraction, a sweep with no n
    or no strategy has no cell to run, a cell listed twice writes records
    that read_records_csv rejects, and the metadata block echoes scale and
    label: a label with a line break would split the block."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        scenario_with(**fields)


# Each integer field: (make an object with the field at a value, read the
# stored value back, a good value, the lower bound or None).
INT_FIELDS = {
    "GraphGenConfig.n": (lambda v: GraphGenConfig(n=v, r=0.5), lambda c: c.n, 10, 2),
    "GraphGenConfig.seed": (lambda v: GraphGenConfig(n=10, r=0.5, seed=v),
                            lambda c: c.seed, 3, None),
    "from_json_dict.n": (lambda v: load_with(n=v), lambda net: net.n, 2, 1),
    "from_json_dict.seed": (lambda v: load_with(seed=v), lambda net: net.seed, 3, None),
    "OverlayBuildConfig.initiator_count": (lambda v: OverlayBuildConfig(v, DRW),
                                           lambda c: c.initiator_count, 3, 2),
    "OverlayBuildConfig.seed": (lambda v: OverlayBuildConfig(3, DRW, seed=v),
                                lambda c: c.seed, 3, None),
    "OverlayBuildConfig.step_budget": (lambda v: OverlayBuildConfig(3, DRW, step_budget=v),
                                       lambda c: c.step_budget, 3, 1),
    # A sweep's n values, echoed as n_values= in its metadata, are the grid's keys.
    "ScenarioConfig.n_values": (lambda v: scenario_with(initiator_counts={v: (2,)}),
                                lambda c: next(iter(c.initiator_counts)), 60, 2),
    "ScenarioConfig.replications": (lambda v: scenario_with(replications=v),
                                    lambda c: c.replications, 3, 1),
    "ScenarioConfig.base_seed": (lambda v: scenario_with(base_seed=v),
                                 lambda c: c.base_seed, 3, None),
    "ScenarioConfig.step_budget": (lambda v: scenario_with(step_budget=v),
                                   lambda c: c.step_budget, 3, 1),
    "ScenarioConfig.r_rescale_ref": (lambda v: scenario_with(r_rescale_ref=v),
                                     lambda c: c.r_rescale_ref, 1000, 1),
    "ScenarioConfig.initiator_counts": (lambda v: scenario_with(initiator_counts={60: (2, v)}),
                                        lambda c: c.initiator_counts[60][1], 4, 2),
}


@pytest.mark.parametrize("bad", [1.5, 2.5, True, "3"], ids=["1.5", "2.5", "True", "str"])
@pytest.mark.parametrize("field", list(INT_FIELDS))
def test_every_integer_field_rejects_a_non_integer(field, bad):
    """int() would truncate 2.5, and True would pass as 1."""
    with pytest.raises(ValueError, match=f"must be an integer, got {re.escape(repr(bad))}$"):
        INT_FIELDS[field][0](bad)


@pytest.mark.parametrize("field", list(INT_FIELDS))
def test_every_integer_field_checks_its_bound_and_stores_an_int(field):
    make, read, good, low = INT_FIELDS[field]
    if low is not None:
        with pytest.raises(ValueError, match=f"must be >= {low}, got {low - 1}$"):
            make(low - 1)
    value = read(make(np.int64(good)))
    assert value == good and type(value) is int
