from dataclasses import dataclass, field

import pytest

from evfleetsim.dynamics import VehicleParams, VehicleState


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
