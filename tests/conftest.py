from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import pytest
import yaml

from evfleetsim import config
from evfleetsim.dynamics import DriveTrace, VehicleParams, VehicleState


class _CrossCheckedLoader(config._LOADER):
    """The package's scenario loader, which also loads each document again
    with PyYAML's pure-Python ``SafeLoader`` and requires the same result
    (by ``repr``, so that ``1``, ``1.0`` and ``True`` differ and a NaN equals
    itself), nested no deeper than ``MAX_CONFIG_DEPTH``."""

    def __init__(self, stream):
        super().__init__(stream)
        self._stream = stream

    def get_single_data(self):
        data = super().get_single_data()
        expected = yaml.load(self._stream.getvalue(), Loader=yaml.SafeLoader)
        assert repr(data) == repr(expected), self._stream.name
        assert depth(expected) <= config.MAX_CONFIG_DEPTH, self._stream.name
        return data


def depth(node) -> int:
    """How deep mappings and lists nest in ``node``."""
    if isinstance(node, dict):
        return 1 + max(map(depth, node.values()), default=0)
    if isinstance(node, list):
        return 1 + max(map(depth, node), default=0)
    return 0


@pytest.fixture(autouse=True)
def cross_checked_loader(monkeypatch):
    """Every scenario file a test loads through ``config.load_raw`` loads
    as the pure-Python loader loads it, within the nesting bound."""
    monkeypatch.setattr(config, "_LOADER", _CrossCheckedLoader)


def make_params(**overrides):
    base = dict(
        mass_kg=1500.0,
        drag_coefficient=0.3,
        frontal_area_m2=2.2,
        rolling_coefficient=0.01,
        drivetrain_efficiency=0.9,
        recuperation_efficiency=0.6,
        max_recuperation_power_w=30000.0,
        auxiliary_power_w=300.0,
        battery_capacity_wh=18000.0,
        max_charging_power_w=3600.0,
        max_acceleration_mps2=2.5,
        max_deceleration_mps2=3.0,
        range_extender=None,
    )
    base.update(overrides)
    return VehicleParams(**base)


@dataclass
class DummyVehicle:
    """Minimal stand-in satisfying the charging manager's vehicle contract:
    a ``vehicle_id`` and a ``state``."""

    vehicle_id: str
    state: VehicleState


def dummy_vehicle(vehicle_id="v0", soc=0.5):
    return DummyVehicle(vehicle_id, VehicleState(soc=soc))


def trace_soc(trace: DriveTrace, entry_soc: float):
    """The state of charge at the end of each step of ``trace``, driven
    from ``entry_soc``, read-only: ``soc0 - soc_drop / soc_scale``, the
    IEEE operations by which the package reads one element. A shared trace
    has no ``soc0``; its base is ``entry_soc``, as the package's is the
    vehicle's ``trace_soc0``."""
    soc0 = entry_soc if trace.soc0 is None else trace.soc0
    soc = soc0 - np.asarray(trace.soc_drop, dtype=float) / trace.soc_scale
    soc.setflags(write=False)
    return soc


def sum_in_order(values) -> float:
    """``values`` added left to right from ``0.0``, as the package adds a
    float total (builtin ``sum()`` compensates from Python 3.12 on)."""
    total = 0.0
    for x in values:
        total += x
    return total


def vehicle_ledger_errors(result, config) -> dict[str, float]:
    """Each vehicle's own energy ledger after the run ``result`` of
    ``config``: the imbalance of grid + range extender + recuperation -
    consumed against capacity * dSOC, relative to the energy it moved
    (absolute if it moved none), keyed by vehicle id."""
    grid_wh: dict[str, float] = defaultdict(float)
    for session in result.manager.sessions:
        grid_wh[session.vehicle_id] += session.energy_wh
    capacity_wh = config.vehicle_params.battery_capacity_wh
    errors = {}
    for v in result.vehicles:
        c = v.state.cumulative
        inflow = grid_wh[v.vehicle_id] + c.range_extended_wh + c.recuperated_wh
        imbalance = abs(inflow - c.consumed_wh
                        - capacity_wh * (v.state.soc - config.initial_soc))
        scale = inflow + c.consumed_wh
        errors[v.vehicle_id] = imbalance / scale if scale else imbalance
    return errors
