"""Property test of the scenario config: one mutated leaf, or one unknown key,
in a valid scenario gives either a ``ConfigError`` or a run that finishes with
a closed energy ledger."""

import copy
import math
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from test_config_cli import BASE_SCENARIO

from evfleetsim.config import VEHICLE_PRESETS, ConfigError, build_config
from evfleetsim.simulation import run_scenario

# 5 vehicles over 2 h, every trip departing in the first two hours
FUZZ_BASE = copy.deepcopy(BASE_SCENARIO)
FUZZ_BASE["horizon_s"] = 2 * 3600.0
FUZZ_BASE["demand"]["departure_weights"] = [1.0, 1.0] + [0.0] * 22
# mutate the fully resolved scenario, so every key of the schema is a target
FUZZ_BASE = build_config(FUZZ_BASE).effective


def leaves(node, path=()):
    """Key paths of every value that is not a mapping or a list."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, path + (i,))
    else:
        yield path


def mappings(node, path=()):
    """Key paths of every mapping, the root included."""
    if isinstance(node, dict):
        yield path
        for key, value in node.items():
            yield from mappings(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from mappings(value, path + (i,))


OVERRIDES = ("fleet", "vehicle", "overrides")
LEAVES = (list(leaves(FUZZ_BASE))
          + [OVERRIDES + path for path in leaves(VEHICLE_PRESETS["compact_ev"])])
MAPPINGS = list(mappings(FUZZ_BASE))

VALUES = st.one_of(
    st.text(max_size=3),
    st.booleans(),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from([-1, -0.5]),  # negative
    st.sampled_from([0.5, 2.5]),  # non-integer
    st.sampled_from([1e300]),  # magnitude
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)


@st.composite
def mutated_scenarios(draw):
    raw = copy.deepcopy(FUZZ_BASE)
    value = draw(VALUES)
    if draw(st.booleans()):
        path = draw(st.sampled_from(LEAVES))
    else:
        path = draw(st.sampled_from(MAPPINGS)) + ("not_a_key",)
    node = raw
    for key in path[:-1]:
        node = node[key] if isinstance(node, list) else node.setdefault(key, {})
    node[path[-1]] = value
    return raw


@settings(max_examples=200, deadline=timedelta(seconds=5), derandomize=True,
          database=None)
@given(mutated_scenarios())
def test_mutated_config_is_config_error_or_a_closed_run(raw):
    # build_config raises only ConfigError: any other exception fails here
    try:
        config = build_config(raw)
    except ConfigError as exc:
        assert exc.errors and str(exc) == "; ".join(exc.errors)
        return
    if config.fleet_size > 5 or config.horizon_s > 2 * 3600.0:
        return
    with tempfile.TemporaryDirectory() as tmp:
        result = run_scenario(config, Path(tmp) / "out")
        assert result.collector.energy_ledger_error() < 1e-6
        result.manager.assert_consistent()
