"""Scenario configuration: one self-describing YAML file holding network,
fleet, stations, demand, policies, numerics, and seed. Loading fills defaults,
validates every cross-reference, and echoes the fully-resolved configuration.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from . import charging, network
from .dynamics import Environment, RangeExtenderParams, VehicleParams
from .fleet import (DemandProfile, DwellDistribution, FleetPolicies, TripsPerDay)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


VEHICLE_PRESETS: dict[str, dict] = {
    "compact_ev": {
        "mass_kg": 1500.0,
        "drag_coefficient": 0.3,
        "frontal_area_m2": 2.2,
        "rolling_coefficient": 0.01,
        "drivetrain_efficiency": 0.9,
        "recuperation_efficiency": 0.6,
        "max_recuperation_power_w": 30000.0,
        "auxiliary_power_w": 300.0,
        "battery_capacity_wh": 18000.0,
        "max_charging_power_w": 3600.0,
        "max_acceleration_mps2": 2.5,
        "max_deceleration_mps2": 3.0,
        "charging_efficiency": 1.0,
        "range_extender": {
            "power_w": 15000.0,
            "soc_on": 0.2,
            "soc_off": 0.4,
            "specific_fuel_l_per_kwh": 0.28,
        },
    },
}
# degenerate preset for sanity runs: the battery is effectively bottomless
VEHICLE_PRESETS["infinite_battery"] = {
    **copy.deepcopy(VEHICLE_PRESETS["compact_ev"]),
    "battery_capacity_wh": 1e9,
}

DEFAULTS: dict = {
    "schema_version": SCHEMA_VERSION,
    "seed": 42,
    "horizon_s": 86400.0,
    "network": {
        "grid": {
            "rows": 10,
            "cols": 10,
            "edge_length_m": 250.0,
            "speed_limit_mps": 13.9,
        },
        "hourly_speed_factors": None,
    },
    "depot_edge": None,
    "fleet": {
        "size": 100,
        "initial_soc": 1.0,
        "vehicle": {"preset": "compact_ev", "overrides": {}},
    },
    "stations": [],
    "demand": {
        "schedule_size": None,
        "departure_weights": [
            0.2, 0.1, 0.1, 0.1, 0.2, 0.5, 1.5, 3.0, 4.0, 3.0, 2.0, 1.5,
            1.5, 2.0, 2.0, 2.5, 3.0, 4.0, 3.5, 2.5, 1.5, 1.0, 0.5, 0.3,
        ],
        "distance_bins": [
            {"upper_m": 400.0, "weight": 1.0},
            {"upper_m": 700.0, "weight": 3.0},
            {"upper_m": 1000.0, "weight": 4.0},
            {"upper_m": 1300.0, "weight": 2.0},
        ],
        "dwell": {"family": "lognormal", "mu_log": 7.5, "sigma_log": 0.5},
        "trips_per_vehicle_per_day": {"family": "poisson", "mean": 1.2},
    },
    "policies": {
        "routing_weight": "travel_time",
        "dispatch_reserve_soc": 0.10,
        "depot_charge_threshold": 0.95,
        "target_soc": 1.0,
        "safety_margin_soc": 0.05,
        "queue_estimate": "mean_power",
    },
    "numerics": {
        "dynamics_dt_s": 1.0,
        "metrics_interval_s": 10.0,
        "utilization_bin_s": 300.0,
        "tick_buffer_rows": 100000,
    },
    "environment": {"gravity_mps2": 9.81, "air_density_kgpm3": 1.2},
}

SWEEPABLE_PARAMS = (
    "fleet.size",
    "stations.count",
    "stations.slot_power_w",
    "stations.max_simultaneous",
)


def _is_int(value) -> bool:
    """An integer that is not a bool (YAML ``true`` is a Python int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite int or float that is not a bool."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


@dataclass(frozen=True)
class StationSpec:
    station_id: str
    edge_id: str
    max_simultaneous: int
    slot_powers_w: tuple[float, ...]

    def build(self) -> charging.ChargingStation:
        slots = [
            charging.Slot(f"s{i}", power)
            for i, power in enumerate(self.slot_powers_w)
        ]
        return charging.ChargingStation(
            self.station_id, self.edge_id, slots, self.max_simultaneous
        )


@dataclass
class ScenarioConfig:
    effective: dict
    base_dir: Path
    seed: int
    horizon_s: float
    depot_edge: str
    fleet_size: int
    initial_soc: float
    vehicle_params: VehicleParams
    station_specs: list[StationSpec]
    demand: DemandProfile
    schedule_size: int
    policies: FleetPolicies
    safety_margin_soc: float
    queue_estimate: str
    dynamics_dt_s: float
    metrics_interval_s: float
    utilization_bin_s: float
    tick_buffer_rows: int
    environment: Environment
    _network: network.RoadNetwork | None = field(default=None, repr=False)

    def build_network(self) -> network.RoadNetwork:
        if self._network is None:
            self._network = _build_network(self.effective["network"], self.base_dir)
        return self._network

    def build_stations(self) -> list[charging.ChargingStation]:
        return [spec.build() for spec in self.station_specs]

    def config_hash(self) -> str:
        canonical = json.dumps(self.effective, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class ValidationReport:
    ok: bool
    errors: list[str]
    effective: dict | None = None
    config: ScenarioConfig | None = None


def _build_network(net_cfg: dict, base_dir: Path) -> network.RoadNetwork:
    factors = net_cfg.get("hourly_speed_factors")
    if "files" in net_cfg and net_cfg["files"]:
        files = net_cfg["files"]
        nodes = Path(files["nodes"])
        edges = Path(files["edges"])
        if not nodes.is_absolute():
            nodes = base_dir / nodes
        if not edges.is_absolute():
            edges = base_dir / edges
        return network.load_network(nodes, edges, factors)
    grid = net_cfg["grid"]
    return network.generate_grid(
        int(grid["rows"]), int(grid["cols"]),
        float(grid["edge_length_m"]), float(grid["speed_limit_mps"]),
        factors,
    )


def _build_vehicle_params(vcfg: dict, errors: list[str]) -> VehicleParams | None:
    preset_name = vcfg.get("preset", "compact_ev")
    preset = VEHICLE_PRESETS.get(preset_name)
    if preset is None:
        errors.append(
            f"fleet.vehicle.preset: unknown preset {preset_name!r} "
            f"(available: {sorted(VEHICLE_PRESETS)})"
        )
        return None
    merged = _deep_merge(preset, vcfg.get("overrides") or {})
    re_cfg = merged.pop("range_extender", None)
    try:
        re_params = RangeExtenderParams(**re_cfg) if re_cfg else None
    except (TypeError, ValueError) as exc:
        errors.append(f"fleet.vehicle.range_extender: {exc}")
        return None
    try:
        return VehicleParams(**merged, range_extender=re_params)
    except (TypeError, ValueError) as exc:
        errors.append(f"fleet.vehicle: {exc}")
        return None


def _build_demand(dcfg: dict, errors: list[str]) -> DemandProfile | None:
    try:
        bins = tuple(
            (float(b["upper_m"]), float(b["weight"]))
            for b in dcfg["distance_bins"]
        )
        dwell_cfg = dict(dcfg["dwell"])
        dwell = DwellDistribution(
            family=dwell_cfg.get("family", "lognormal"),
            mu_log=float(dwell_cfg.get("mu_log", 7.5)),
            sigma_log=float(dwell_cfg.get("sigma_log", 0.5)),
            fixed_s=float(dwell_cfg.get("fixed_s", 1800.0)),
        )
        trips_cfg = dict(dcfg["trips_per_vehicle_per_day"])
        trips = TripsPerDay(
            family=trips_cfg.get("family", "poisson"),
            mean=float(trips_cfg.get("mean", 1.0)),
            fixed_n=int(trips_cfg.get("n", trips_cfg.get("fixed_n", 1))),
        )
        return DemandProfile(
            departure_weights=tuple(float(w) for w in dcfg["departure_weights"]),
            distance_bins=bins,
            dwell=dwell,
            trips_per_day=trips,
        )
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(f"demand: {exc}")
        return None


def build_config(raw: dict, base_dir: Path | str = ".") -> ScenarioConfig:
    """Resolve defaults and build a validated :class:`ScenarioConfig`;
    raises :class:`ConfigError` listing every problem found."""
    report = _validate(raw, Path(base_dir))
    if not report.ok:
        raise ConfigError("; ".join(report.errors))
    return report.config


def _validate(raw: dict, base_dir: Path) -> ValidationReport:
    errors: list[str] = []
    if not isinstance(raw, dict):
        return ValidationReport(False, ["config root must be a mapping"])
    merged = _deep_merge(DEFAULTS, raw)

    if merged.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"schema_version: expected {SCHEMA_VERSION}, "
            f"got {merged.get('schema_version')!r}"
        )

    seed = merged.get("seed")
    if not _is_int(seed) or seed < 0:
        errors.append("seed: must be a non-negative integer")
        seed = 0

    horizon = merged.get("horizon_s")
    if not _is_real(horizon) or horizon < 0:
        errors.append("horizon_s: must be a finite non-negative number")
        horizon = 0.0

    net = None
    try:
        net = _build_network(merged["network"], base_dir)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        errors.append(f"network: {exc}")

    depot = merged.get("depot_edge")
    if not depot:
        errors.append("depot_edge: required")
    elif net is not None and depot not in net.edges:
        errors.append(f"depot_edge: unknown edge {depot!r}")

    fleet_cfg = merged["fleet"]
    fleet_size = fleet_cfg.get("size")
    if not _is_int(fleet_size) or fleet_size < 0:
        errors.append("fleet.size: must be a non-negative integer")
        fleet_size = 0
    initial_soc = fleet_cfg.get("initial_soc", 1.0)
    if not _is_real(initial_soc) or not 0.0 <= initial_soc <= 1.0:
        errors.append("fleet.initial_soc: must be a number in [0, 1]")
        initial_soc = 1.0
    vehicle_params = _build_vehicle_params(fleet_cfg.get("vehicle") or {}, errors)

    station_specs: list[StationSpec] = []
    seen_station_ids: set[str] = set()
    stations_cfg = merged.get("stations") or []
    if not isinstance(stations_cfg, list):
        errors.append("stations: must be a list")
        stations_cfg = []
    for i, scfg in enumerate(stations_cfg):
        path = f"stations[{i}]"
        if not isinstance(scfg, dict):
            errors.append(f"{path}: must be a mapping")
            continue
        sid = scfg.get("station_id")
        if not sid:
            errors.append(f"{path}.station_id: required")
            continue
        if sid in seen_station_ids:
            errors.append(f"{path}.station_id: duplicate {sid!r}")
            continue
        seen_station_ids.add(sid)
        edge_id = scfg.get("edge_id")
        if not edge_id:
            errors.append(f"{path}.edge_id: required")
            continue
        if net is not None and edge_id not in net.edges:
            errors.append(f"{path}.edge_id: unknown edge {edge_id!r}")
            continue
        powers: list[float] = []
        slots_cfg = scfg.get("slots") or []
        if not isinstance(slots_cfg, list):
            errors.append(f"{path}.slots: must be a list")
            continue
        for j, slot in enumerate(slots_cfg):
            if not isinstance(slot, dict):
                errors.append(f"{path}.slots[{j}]: must be a mapping")
                continue
            if "plug" in slot:
                plug = charging.PLUG_PRESETS.get(slot["plug"])
                if plug is None:
                    errors.append(
                        f"{path}.slots[{j}].plug: unknown plug {slot['plug']!r} "
                        f"(available: {sorted(charging.PLUG_PRESETS)})"
                    )
                    continue
                powers.append(plug.power_w)
            elif "power_w" in slot:
                power = slot["power_w"]
                if not _is_real(power) or power <= 0:
                    errors.append(
                        f"{path}.slots[{j}].power_w: must be a positive number"
                    )
                    continue
                powers.append(float(power))
            else:
                errors.append(f"{path}.slots[{j}]: needs 'plug' or 'power_w'")
        if not powers:
            errors.append(f"{path}.slots: at least one valid slot required")
            continue
        max_sim = scfg.get("max_simultaneous", len(powers))
        if not _is_int(max_sim) or not 1 <= max_sim <= len(powers):
            errors.append(
                f"{path}.max_simultaneous: must be in [1, {len(powers)}]"
            )
            continue
        station_specs.append(StationSpec(sid, edge_id, max_sim, tuple(powers)))

    demand = _build_demand(merged["demand"], errors)
    schedule_size = merged["demand"].get("schedule_size")
    if schedule_size is None:
        schedule_size = fleet_size
    elif not _is_int(schedule_size) or schedule_size < 0:
        errors.append("demand.schedule_size: must be a non-negative integer or null")
        schedule_size = fleet_size
    merged["demand"]["schedule_size"] = schedule_size

    pcfg = merged["policies"]
    policies = None
    try:
        if pcfg["routing_weight"] not in ("travel_time", "distance"):
            raise ConfigError(
                f"routing_weight must be 'travel_time' or 'distance', "
                f"got {pcfg['routing_weight']!r}"
            )
        for key in ("dispatch_reserve_soc", "depot_charge_threshold",
                    "target_soc", "safety_margin_soc"):
            value = float(pcfg[key])
            if not (0.0 <= value <= 1.0):
                raise ConfigError(f"{key} must be in [0, 1], got {value}")
        if pcfg["queue_estimate"] not in ("mean_power", "max_power"):
            raise ConfigError(
                f"queue_estimate must be 'mean_power' or 'max_power', "
                f"got {pcfg['queue_estimate']!r}"
            )
        policies = FleetPolicies(
            routing_weight=pcfg["routing_weight"],
            dispatch_reserve_soc=float(pcfg["dispatch_reserve_soc"]),
            depot_charge_threshold=float(pcfg["depot_charge_threshold"]),
            target_soc=float(pcfg["target_soc"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(f"policies: {exc}")

    ncfg = merged["numerics"]
    numerics_ok = True
    for key in ("dynamics_dt_s", "metrics_interval_s", "utilization_bin_s"):
        if not _is_real(ncfg.get(key)) or ncfg[key] <= 0:
            errors.append(f"numerics.{key}: must be a finite positive number")
            numerics_ok = False
    if not _is_int(ncfg.get("tick_buffer_rows")) or ncfg["tick_buffer_rows"] < 1:
        errors.append("numerics.tick_buffer_rows: must be a positive integer")
        numerics_ok = False

    env = None
    try:
        env = Environment(
            gravity=float(merged["environment"]["gravity_mps2"]),
            air_density=float(merged["environment"]["air_density_kgpm3"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(f"environment: {exc}")

    if errors:
        return ValidationReport(False, errors, effective=merged)

    config = ScenarioConfig(
        effective=merged,
        base_dir=base_dir,
        seed=seed,
        horizon_s=float(horizon),
        depot_edge=depot,
        fleet_size=fleet_size,
        initial_soc=float(initial_soc),
        vehicle_params=vehicle_params,
        station_specs=station_specs,
        demand=demand,
        schedule_size=schedule_size,
        policies=policies,
        safety_margin_soc=float(pcfg["safety_margin_soc"]),
        queue_estimate=pcfg["queue_estimate"],
        dynamics_dt_s=float(ncfg["dynamics_dt_s"]) if numerics_ok else 1.0,
        metrics_interval_s=float(ncfg["metrics_interval_s"]) if numerics_ok else 10.0,
        utilization_bin_s=float(ncfg["utilization_bin_s"]) if numerics_ok else 300.0,
        tick_buffer_rows=int(ncfg["tick_buffer_rows"]) if numerics_ok else 100000,
        environment=env,
        _network=net,
    )
    return ValidationReport(True, [], effective=merged, config=config)


def load_raw(path: str | Path) -> dict:
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config root of {path} must be a mapping")
    return raw


def validate_config(path: str | Path) -> ValidationReport:
    """Load, resolve defaults, and validate a scenario file. Returns a report
    that either echoes the effective configuration or names every offending
    key."""
    path = Path(path)
    try:
        raw = load_raw(path)
    except ConfigError as exc:
        return ValidationReport(False, [str(exc)])
    return _validate(raw, path.parent.resolve())


def load_config(path: str | Path) -> ScenarioConfig:
    report = validate_config(path)
    if not report.ok:
        raise ConfigError("; ".join(report.errors))
    return report.config


def apply_sweep_override(effective: dict, param: str, value) -> dict:
    """Return a copy of an effective config dict with one sweepable parameter
    replaced."""
    if param not in SWEEPABLE_PARAMS:
        raise ConfigError(
            f"parameter {param!r} is not sweepable (choose from "
            f"{', '.join(SWEEPABLE_PARAMS)})"
        )
    out = copy.deepcopy(effective)
    if param == "fleet.size":
        out["fleet"]["size"] = int(value)
    elif param == "stations.count":
        n = int(value)
        stations = out.get("stations") or []
        if not (1 <= n <= len(stations)):
            raise ConfigError(
                f"stations.count: value {n} needs 1..{len(stations)} "
                f"defined stations"
            )
        out["stations"] = stations[:n]
    elif param == "stations.slot_power_w":
        power = float(value)
        for station in out.get("stations") or []:
            station["slots"] = [{"power_w": power} for _ in station["slots"]]
    elif param == "stations.max_simultaneous":
        for station in out.get("stations") or []:
            station["max_simultaneous"] = int(value)
    return out


def default_scenario_path() -> Path:
    """Path of the bundled desk-scale scenario."""
    return Path(__file__).parent / "data" / "default_scenario.yaml"
