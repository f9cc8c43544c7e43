"""Scenario configuration: one self-describing YAML file holding network,
fleet, stations, demand, policies, numerics, and seed. Loading fills defaults,
validates every cross-reference, and echoes the fully-resolved configuration.

:func:`build_config` (a raw mapping) and :func:`load_config` (a file) are the
only entry points. Both return a :class:`ScenarioConfig` or raise
:class:`ConfigError` naming every problem found.

``DEFAULTS`` is the schema: one pass merges the raw YAML into it and checks
each value against the type of its default (``_SHAPES`` adds what a default
cannot show). The vehicle overrides are checked the same way against the
chosen preset of ``VEHICLE_PRESETS``. Ranges are checked by the constructors
of the domain objects, whose errors are prefixed with the key path; only the
checks no constructor makes live here.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from . import charging, metrics, network
from .dynamics import (Environment, RangeExtenderParams, VehicleParams,
                       traction_power)
from .engine import left_sum, ms
from .fleet import (DemandProfile, DwellDistribution, FleetPolicies, TripsPerDay)

SCHEMA_VERSION = 1
# the most vehicles a fleet, and the most schedules a demand, may have: ten
# times the largest fleet run so far (10,000 vehicles); at 2**63 the run
# never ends
MAX_VEHICLES = 100_000
# the longest horizon a run may have: the demand model schedules one day, and
# a week leaves room for the last charges; at 1e300 s the engine's periodic
# metrics tick would fire up to 3e298 times and the run never ends
MAX_HORIZON_S = 7 * 86400.0
# the most rows a run may write to ticks.csv (one per vehicle and tick): the
# largest fleet at the paper's 10 s cadence over the longest horizon,
# 6,048,100,000 rows. At the bundled day's 71.9 bytes per row that is about
# 435 GB of ticks.csv, so the cap refuses only runs that write more than any
# fleet the model admits at the paper's cadence; the bundled day with a 1 ms
# tick interval would be 8.6 billion rows, about 620 GB
MAX_TICK_ROWS = (int(MAX_HORIZON_S) // 10 + 1) * MAX_VEHICLES
# the most rows a run may write to utilization.csv (one per bin): one-second
# bins over the longest horizon, 604,800 rows
MAX_UTILIZATION_BINS = int(MAX_HORIZON_S)
# the most steps one drive plan may have: a plan keeps about 160 bytes per
# step in its tuples of floats (up to about 260 if no value repeated), and
# building it peaks at about 215, by tracemalloc on CPython 3.11, x86-64
# (a 1000 m edge at 0.7 m/s); so about 16 MB at the cap, 22 MB while it is
# built. The bundled day's plans have at most 29 steps at its dt of 1 s and
# about 29,300 at the smallest dt, 0.001 s; an edge at a speed limit of
# 0.001 m/s would need 250 million
MAX_DRIVE_STEPS = 100_000
# the most rows a run may write to histograms.csv: each row past the
# configured bins is one last-bin width of driven distance, so 100,000 rows
# of the bundled 300 m bins cover 30,000 km; a last bin 0.001 m wide would
# need 90 million rows to cover the bundled grid's 90 km of road
MAX_HISTOGRAM_ROWS = 100_000
# the deepest nesting of mappings and lists a scenario file may have; the
# bundled scenario nests 5 deep. PyYAML's composer recurses once per level
# and raises RecursionError at about 500 (libyaml's own composer, on the C
# stack, would crash the process at 100,000 nested "["), so the composer
# checks the depth as it composes, in the one parse
MAX_CONFIG_DEPTH = 32
# libyaml's scanner and parser, when PyYAML was built with libyaml (as its
# wheels are), under PyYAML's composer and safe constructor; else the same
# loader in pure Python. Either way the composer is PyYAML's, so it bounds
# the nesting and words its errors alike on both
_LOADER = yaml.SafeLoader
if hasattr(yaml, "CSafeLoader"):
    class _LOADER(yaml.composer.Composer, yaml.CSafeLoader):
        def __init__(self, stream):
            yaml.CSafeLoader.__init__(self, stream)
            yaml.composer.Composer.__init__(self)

_TOO_DEEP = f"mappings and lists nested more than {MAX_CONFIG_DEPTH} deep"


class ConfigError(ValueError):
    """A scenario that cannot be built. ``errors`` lists every problem, each
    prefixed with its key path; ``str`` joins them with ``"; "``."""

    def __init__(self, *errors: str):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


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
        # the overrides are checked against the chosen preset
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
        "dwell": {"family": "lognormal", "mu_log": 7.5, "sigma_log": 0.5,
                  "fixed_s": 1800.0},
        "trips_per_vehicle_per_day": {"family": "poisson", "mean": 1.2, "n": 1},
    },
    "policies": {
        "routing_weight": "travel_time",
        "dispatch_reserve_soc": 0.10,
        "depot_charge_threshold": 0.95,
        "target_soc": 1.0,
        "safety_margin_soc": 0.05,
    },
    "numerics": {
        "dynamics_dt_s": 1.0,
        "metrics_interval_s": 10.0,
        "utilization_bin_s": 300.0,
    },
    "environment": {"gravity_mps2": 9.81, "air_density_kgpm3": 1.2},
}

# What a default cannot show, by key path ("[]" marks a list item): the
# shape of a value whose default is None or absent, and the item of a list
# whose default is empty. A list's items are shaped like its first item and
# must give every key of it that _OPTIONAL does not list.
_SHAPES: dict = {
    "network.files": {"nodes": "", "edges": ""},
    "network.hourly_speed_factors": [1.0],
    "depot_edge": "",
    "demand.schedule_size": 0,
    "stations": [{"station_id": "", "edge_id": "", "max_simultaneous": 1,
                  "slots": [{"plug": "", "power_w": 1.0}]}],
}
# mappings that may be null besides the values that default to None
_NULLABLE = {"network.grid", "fleet.vehicle.overrides.range_extender"}
# item keys that may be left out: a slot gives one of plug and power_w
_OPTIONAL = {"stations[].max_simultaneous", "stations[].slots[].plug",
             "stations[].slots[].power_w"}
_KINDS = {str: "a string", int: "an integer", float: "a finite number"}

SWEEPABLE_PARAMS = (
    "fleet.size",
    "stations.count",
    "stations.slot_power_w",
    "stations.max_simultaneous",
)


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _leaf(value, default, path: str, errors: list[str]):
    """``value`` as the type of ``default``: a str, an int that is not a
    bool, or a finite float (an int is taken and converted)."""
    kind = type(default)
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            pass
    if type(value) is kind and (kind is not float or math.isfinite(value)):
        return value
    errors.append(f"{path}: must be {_KINDS[kind]}, got {value!r:.40}")
    return None


def _resolve(value, default, path: str, key: str, errors: list[str],
             fill: bool = True):
    """Merge ``value`` into ``default`` and check its shape in one pass.

    Returns a typed copy. Keys that a mapping leaves out take their default
    while ``fill`` holds; in a list item or a shape of ``_SHAPES`` they are
    required unless ``_OPTIONAL`` lists them. An unknown key, a wrong type
    or a misplaced null is appended to ``errors`` with its path.
    """
    if value is None and (default is None or key in _NULLABLE):
        return None
    if key in _SHAPES:
        default, fill = _SHAPES[key], False
    if isinstance(default, list):
        if not isinstance(value, list):
            errors.append(f"{path}: must be a list")
            return None
        return [_resolve(item, default[0], f"{path}[{i}]", f"{key}[]", errors,
                         fill=False)
                for i, item in enumerate(value)]
    if not isinstance(default, dict):
        return _leaf(value, default, path, errors)
    if not isinstance(value, dict):
        errors.append(f"{path or 'config root'}: must be a mapping")
        return None
    if not default:  # fleet.vehicle.overrides, typed against the preset
        return copy.deepcopy(value)
    out = {}
    for k, sub in default.items():
        if k in value:
            out[k] = _resolve(value[k], sub, _join(path, k), _join(key, k),
                              errors, fill)
        elif fill:
            out[k] = copy.deepcopy(sub)
        elif _join(key, k) not in _OPTIONAL:
            errors.append(f"{_join(path, k)}: required")
    for k in value:
        if k in default:
            continue
        if _join(key, k) in _SHAPES:
            out[k] = _resolve(value[k], None, _join(path, k), _join(key, k),
                              errors)
        else:
            errors.append(f"{_join(path, k)}: unknown key")
    return out


def _build(path: str, errors: list[str], make, *args, **kwargs):
    """``make(*args, **kwargs)``, or None with its error prefixed by
    ``path``."""
    try:
        return make(*args, **kwargs)
    except (ValueError, OSError) as exc:
        errors.append(f"{path}: {exc}")
        return None


@dataclass
class ScenarioConfig:
    """A validated scenario: the fully resolved mapping ``effective``,
    which a run echoes and hashes, and the values and objects built
    from it."""

    effective: dict
    seed: int
    horizon_s: float
    depot_edge: str
    fleet_size: int
    initial_soc: float
    vehicle_params: VehicleParams
    stations: list[charging.ChargingStation]
    demand: DemandProfile
    schedule_size: int
    policies: FleetPolicies
    dynamics_dt_s: float
    metrics_interval_s: float
    utilization_bin_s: float
    environment: Environment
    network: network.RoadNetwork

    def config_hash(self) -> str:
        canonical = json.dumps(self.effective, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _build_network(net_cfg: dict, base_dir: Path) -> network.RoadNetwork:
    files, grid = net_cfg.get("files"), net_cfg["grid"]
    factors = net_cfg["hourly_speed_factors"]
    if (files is None) == (grid is None):
        raise ConfigError("give exactly one of files and grid "
                          "(grid: null to load files)")
    if files is not None:
        return network.load_network(base_dir / files["nodes"],
                                    base_dir / files["edges"], factors)
    return network.generate_grid(grid["rows"], grid["cols"],
                                 grid["edge_length_m"], grid["speed_limit_mps"],
                                 factors)


def _build_stations(stations_cfg: list[dict], net: network.RoadNetwork | None,
                    errors: list[str]) -> list[charging.ChargingStation]:
    stations: list[charging.ChargingStation] = []
    seen: set[str] = set()
    for i, scfg in enumerate(stations_cfg):
        path = f"stations[{i}]"
        sid, edge_id = scfg["station_id"], scfg["edge_id"]
        if sid in seen:
            errors.append(f"{path}.station_id: duplicate {sid!r}")
            continue
        seen.add(sid)
        if net is not None and edge_id not in net.edges:
            errors.append(f"{path}.edge_id: unknown edge {edge_id!r}")
            continue
        powers = []
        for j, slot in enumerate(scfg["slots"]):
            if len(slot) != 1:
                errors.append(f"{path}.slots[{j}]: needs exactly one of "
                              f"plug and power_w")
            elif "power_w" in slot:
                powers.append(slot["power_w"])
            elif slot["plug"] in charging.PLUG_PRESETS:
                powers.append(charging.PLUG_PRESETS[slot["plug"]])
            else:
                errors.append(
                    f"{path}.slots[{j}].plug: unknown plug {slot['plug']!r} "
                    f"(available: {sorted(charging.PLUG_PRESETS)})")
        if len(powers) < len(scfg["slots"]):
            continue
        slots = tuple(charging.Slot(f"s{j}", power)
                      for j, power in enumerate(powers))
        station = _build(path, errors, charging.ChargingStation, sid, edge_id,
                         slots, scfg.get("max_simultaneous", len(slots)))
        if station is not None:
            stations.append(station)
    return stations


def _build_demand(dcfg: dict, errors: list[str]) -> DemandProfile | None:
    dwell = _build("demand.dwell", errors, DwellDistribution, **dcfg["dwell"])
    trips = _build("demand.trips_per_vehicle_per_day", errors, TripsPerDay,
                   **dcfg["trips_per_vehicle_per_day"])
    if dwell is None or trips is None:
        return None
    bins = tuple((b["upper_m"], b["weight"]) for b in dcfg["distance_bins"])
    return _build("demand", errors, DemandProfile,
                  tuple(dcfg["departure_weights"]), bins,
                  dwell=dwell, trips_per_day=trips)


def build_config(raw: dict, base_dir: Path | str = ".") -> ScenarioConfig:
    """Resolve defaults and build a validated :class:`ScenarioConfig`;
    relative network files are read from ``base_dir``. Raises
    :class:`ConfigError` listing every problem found."""
    errors: list[str] = []
    cfg = _resolve(raw, DEFAULTS, "", "", errors)
    if errors:
        raise ConfigError(*errors)
    vehicle = cfg["fleet"]["vehicle"]
    preset = VEHICLE_PRESETS.get(vehicle["preset"])
    if preset is None:
        raise ConfigError(
            f"fleet.vehicle.preset: unknown preset {vehicle['preset']!r} "
            f"(available: {sorted(VEHICLE_PRESETS)})")
    # the preset's values merged with the overrides
    params = _resolve(vehicle["overrides"], preset, "fleet.vehicle.overrides",
                      "fleet.vehicle.overrides", errors)
    if errors:
        raise ConfigError(*errors)

    if cfg["schema_version"] != SCHEMA_VERSION:
        errors.append(f"schema_version: expected {SCHEMA_VERSION}, "
                      f"got {cfg['schema_version']!r}")
    if cfg["seed"] < 0:
        errors.append("seed: must be non-negative")
    if not 0 <= cfg["horizon_s"] <= MAX_HORIZON_S:
        errors.append(f"horizon_s: must be in [0, {MAX_HORIZON_S:g}]")

    net = _build("network", errors, _build_network, cfg["network"],
                 Path(base_dir))
    depot = cfg["depot_edge"]
    if depot is None:
        errors.append("depot_edge: required, an edge id")
    elif net is not None and depot not in net.edges:
        errors.append(f"depot_edge: unknown edge {depot!r}")

    fleet_cfg = cfg["fleet"]
    if not 0 <= fleet_cfg["size"] <= MAX_VEHICLES:
        errors.append(f"fleet.size: must be in [0, {MAX_VEHICLES}]")
    if not 0.0 <= fleet_cfg["initial_soc"] <= 1.0:
        errors.append("fleet.initial_soc: must be in [0, 1]")
    re_cfg = params.pop("range_extender")
    range_extender = (_build("fleet.vehicle.range_extender", errors,
                             RangeExtenderParams, **re_cfg)
                      if re_cfg else None)
    vehicle_params = _build("fleet.vehicle", errors, VehicleParams, **params,
                            range_extender=range_extender)
    ecfg = cfg["environment"]
    environment = _build("environment", errors, Environment,
                         ecfg["gravity_mps2"], ecfg["air_density_kgpm3"])
    # the longest drive plan: its duration (s) and edge
    longest = (0.0, None)
    if net is not None and vehicle_params is not None:
        # drive_segment cannot plan an edge that is shorter than the
        # braking distance from its speed limit to standstill, nor one on
        # which the traction power at full acceleration or braking from the
        # speed limit is not finite
        d_max = vehicle_params.max_deceleration_mps2
        accelerations = (vehicle_params.max_acceleration_mps2, -d_max)
        # an edge's longest drive goes from standstill to standstill; at
        # cruise speed v it lasts at most length / v + v * ramp, which is
        # convex in v, so at the slowest or the fastest hour's factor
        ramp = (1.0 / accelerations[0] + 1.0 / d_max) / 2.0
        factors = (min(net.hourly_speed_factors),
                   max(net.hourly_speed_factors))
        for eid in sorted(net.edges):
            e = net.edges[eid]
            for f in factors:
                v = e.speed_limit_mps * f
                drive_s = e.length_m / v + v * ramp if v > 0.0 else math.inf
                if drive_s > longest[0]:
                    longest = (drive_s, eid)
            if e.speed_limit_mps * e.speed_limit_mps / (2.0 * d_max) > e.length_m:
                errors.append(
                    f"network, fleet.vehicle.max_deceleration_mps2: edge "
                    f"{eid} ({e.length_m:g} m) is shorter than the braking "
                    f"distance from its speed limit to standstill")
                break
            if environment is not None and not all(math.isfinite(
                    traction_power(e.speed_limit_mps, a, e.gradient,
                                   vehicle_params, environment))
                    for a in accelerations):
                errors.append(
                    f"network, environment, fleet.vehicle: the traction "
                    f"power at the speed limit of edge {eid} is not finite")
                break

    stations = _build_stations(cfg["stations"], net, errors)
    if vehicle_params is not None:
        # every session, at most a full-battery charge, must fit the clock
        for st in stations:
            for slot in st.slots:
                full_s = charging.charge_duration(
                    vehicle_params.battery_capacity_wh, slot.power_w,
                    vehicle_params.max_charging_power_w,
                    vehicle_params.charging_efficiency)
                _build(f"stations, fleet.vehicle.max_charging_power_w: full "
                       f"charge at slot {slot.slot_id} of {st.station_id!r}",
                       errors, ms, full_s)

    demand = _build_demand(cfg["demand"], errors)
    if net is not None and net.nodes and demand is not None:
        # nearest_edge squares the offset of a trip destination, at most the
        # largest distance bin away from the depot, from every node
        reach = max(upper for upper, _ in demand.distance_bins)
        xs = [c.x for c in net.nodes.values()]
        ys = [c.y for c in net.nodes.values()]
        dx = reach + (max(xs) - min(xs))
        dy = reach + (max(ys) - min(ys))
        if not math.isfinite(dx * dx + dy * dy):
            errors.append(
                f"demand.distance_bins: upper_m {reach:g} reaches too far "
                f"beyond the network: the square of the offset is not finite")
        # a trip drives one shortest route, which passes each edge at most
        # once, so the histogram's edges extend at most to the road's length
        road_m = left_sum(e.length_m for e in net.edges.values())
        rows = metrics.histogram_rows(demand.bin_edges(), road_m)
        if rows > MAX_HISTOGRAM_ROWS:
            errors.append(
                f"demand.distance_bins: bins as wide as the last one over "
                f"{road_m:g} m of road are up to {rows:,.0f} histograms.csv "
                f"rows, more than {MAX_HISTOGRAM_ROWS:,}")
    if cfg["demand"]["schedule_size"] is None:
        cfg["demand"]["schedule_size"] = fleet_cfg["size"]
    elif not 0 <= cfg["demand"]["schedule_size"] <= MAX_VEHICLES:
        errors.append(f"demand.schedule_size: must be in [0, {MAX_VEHICLES}] "
                      f"or null")

    pcfg = cfg["policies"]
    if pcfg["routing_weight"] not in network.ROUTING_WEIGHTS:
        errors.append(f"policies.routing_weight: must be 'travel_time' or "
                      f"'distance', got {pcfg['routing_weight']!r}")
    elif net is not None and depot in net.edges:
        # a vehicle that charges away from the depot drives home from the
        # station; the run reuses these memoised routes
        for st in stations:
            if st.edge_id == depot:
                continue
            try:
                network.shortest_path(net, st.edge_id, depot,
                                      pcfg["routing_weight"])
            except network.NoRouteError:
                errors.append(f"stations: station {st.station_id!r} on edge "
                              f"{st.edge_id!r} has no route back to the "
                              f"depot edge {depot!r}")
    for key in ("dispatch_reserve_soc", "depot_charge_threshold",
                "target_soc", "safety_margin_soc"):
        if not 0.0 <= pcfg[key] <= 1.0:
            errors.append(f"policies.{key}: must be in [0, 1]")

    ncfg = cfg["numerics"]
    for key, value in ncfg.items():
        # the clock counts whole milliseconds; a metrics interval below
        # 0.5 ms would round to a 0 ms tick that never advances it
        if value < 0.001:
            errors.append(f"numerics.{key}: must be at least 0.001 s")
        _build(f"numerics.{key}", errors, ms, value)
    if not errors:
        # the rows the run will write, from a valid horizon, fleet and
        # numerics: a tick at 0 ms and every interval up to the horizon
        # (none without vehicles), and a bin from each start before it
        horizon_ms = ms(cfg["horizon_s"])
        ticks = horizon_ms // ms(ncfg["metrics_interval_s"]) + 1
        rows = ticks * fleet_cfg["size"]
        if rows > MAX_TICK_ROWS:
            errors.append(
                f"numerics.metrics_interval_s: {ticks:,} ticks of "
                f"{fleet_cfg['size']:,} vehicles are {rows:,} ticks.csv rows, "
                f"more than {MAX_TICK_ROWS:,}")
        bins = max(1, -(-horizon_ms // ms(ncfg["utilization_bin_s"])))
        if bins > MAX_UTILIZATION_BINS:
            errors.append(
                f"numerics.utilization_bin_s: {bins:,} bins over the horizon "
                f"are more than {MAX_UTILIZATION_BINS:,} utilization.csv rows")
        longest_s, eid = longest
        dt = ncfg["dynamics_dt_s"]
        steps = longest_s / dt
        if steps > MAX_DRIVE_STEPS:
            errors.append(
                f"numerics.dynamics_dt_s: the longest drive, {longest_s:g} s "
                f"on edge {eid}, is {steps:,.0f} steps of {dt:g} s, more "
                f"than {MAX_DRIVE_STEPS:,}")

    if errors:
        raise ConfigError(*errors)

    return ScenarioConfig(
        effective=cfg,
        seed=cfg["seed"],
        horizon_s=cfg["horizon_s"],
        depot_edge=depot,
        fleet_size=fleet_cfg["size"],
        initial_soc=fleet_cfg["initial_soc"],
        vehicle_params=vehicle_params,
        stations=stations,
        demand=demand,
        schedule_size=cfg["demand"]["schedule_size"],
        policies=FleetPolicies(**pcfg),
        dynamics_dt_s=ncfg["dynamics_dt_s"],
        metrics_interval_s=ncfg["metrics_interval_s"],
        utilization_bin_s=ncfg["utilization_bin_s"],
        environment=environment,
        network=net,
    )


def _bounded(loader: type) -> type:
    """``loader``, a loader with PyYAML's composer, whose composer raises a
    ``ComposerError`` marked at the first mapping or list nested deeper than
    ``MAX_CONFIG_DEPTH``, before its recursion goes deeper."""

    def within_bound(compose):
        def compose_within_bound(self, anchor):
            depth = self.nesting + 1
            if depth > MAX_CONFIG_DEPTH:
                raise yaml.composer.ComposerError(
                    None, None, _TOO_DEEP, self.peek_event().start_mark)
            self.nesting = depth
            node = compose(self, anchor)
            self.nesting = depth - 1
            return node
        return compose_within_bound

    return type(loader.__name__, (loader,), {
        "nesting": 0,
        "compose_sequence_node": within_bound(loader.compose_sequence_node),
        "compose_mapping_node": within_bound(loader.compose_mapping_node),
    })


def load_raw(path: str | Path) -> dict:
    """Read a scenario file as UTF-8 YAML and return its root mapping
    (``{}`` for an empty file).

    Raises :class:`ConfigError` for a file that cannot be opened or read
    (``cannot read config``), one that is not UTF-8 (``cannot read
    config``, ``not UTF-8``), one that is not valid YAML or holds more than
    one document (``cannot parse config``, then the parser's message and
    the file's line and column), one nested deeper than ``MAX_CONFIG_DEPTH``
    (``cannot parse config``), and one whose root is not a mapping.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            # read whole, so that a file that is not UTF-8 fails before any
            # parse error; a parse error's marks name the stream, so it
            # takes the file's name
            stream = io.StringIO(fh.read())
        stream.name = fh.name
        raw = yaml.load(stream, Loader=_bounded(_LOADER))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"cannot read config {path}: not UTF-8 ({exc.reason}: "
            f"{exc.object[exc.start:exc.end]!r})") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config root of {path} must be a mapping")
    return raw


def load_config(path: str | Path) -> ScenarioConfig:
    """Read a scenario file and build it with :func:`build_config`, relative
    to the file's directory."""
    path = Path(path)
    return build_config(load_raw(path), path.parent.resolve())


def apply_sweep_override(effective: dict, param: str, value) -> dict:
    """Return a copy of an effective config dict with one sweepable parameter
    replaced. The value is assigned unchanged, so :func:`build_config` checks
    its type as it checks the file's."""
    if param not in SWEEPABLE_PARAMS:
        raise ConfigError(
            f"parameter {param!r} is not sweepable (choose from "
            f"{', '.join(SWEEPABLE_PARAMS)})"
        )
    out = copy.deepcopy(effective)
    if param == "fleet.size":
        out["fleet"]["size"] = value
    elif param == "stations.count":
        if type(value) is not int:
            raise ConfigError(f"stations.count: must be an integer, "
                              f"got {value!r}")
        stations = out.get("stations") or []
        if not (1 <= value <= len(stations)):
            raise ConfigError(
                f"stations.count: value {value} needs 1..{len(stations)} "
                f"defined stations"
            )
        out["stations"] = stations[:value]
    elif param == "stations.slot_power_w":
        for station in out.get("stations") or []:
            station["slots"] = [{"power_w": value} for _ in station["slots"]]
    elif param == "stations.max_simultaneous":
        for station in out.get("stations") or []:
            station["max_simultaneous"] = value
    return out


def default_scenario_path() -> Path:
    """Path of the bundled desk-scale scenario."""
    return Path(__file__).parent / "data" / "default_scenario.yaml"
