"""evfleetsim: deterministic discrete-event simulation of electric vehicle
fleets, their energy flows, charging infrastructure, and trip demand."""

__version__ = "0.1.0"

from .engine import Engine, Event, EventKind, SimulationSummary
from .network import (Coord, Edge, RoadNetwork, Route, airline_distance,
                      generate_grid, load_network, nearest_edge, shortest_path)
from .dynamics import (DriveTrace, Environment, RangeExtenderParams,
                       VehicleParams, VehicleState, battery_power,
                       drive_segment, integrate_soc, range_extender_step,
                       traction_power)
from .charging import (IEC_TYPE2, SCHUKO, ChargingManager, ChargingStation,
                       PlugType, Slot, charge_duration)
from .fleet import (DemandProfile, FleetController, FleetPolicies, Lifecycle,
                    Trip, Vehicle, generate_day_schedule, sample_trip)
from .metrics import MetricsCollector, UtilizationSeries
from .config import (ScenarioConfig, ValidationReport, default_scenario_path,
                     load_config, validate_config)
from .simulation import RunResult, run_scenario, run_scenario_path, sweep
