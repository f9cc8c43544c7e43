"""Scenario execution: from a :class:`~evfleetsim.config.ScenarioConfig`,
whose network and stations :func:`~evfleetsim.config.build_config` has
built, assemble the fleet, the charging manager and the demand schedule, run
the event loop to the horizon, and export all collected metrics."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import __version__, charging, dynamics, fleet, metrics
from .config import (ScenarioConfig, apply_sweep_override, build_config,
                     load_config)
from .engine import Engine, Event, EventKind, MS_PER_S, SimulationSummary, ms

# "value" is the swept parameter's value; the other columns name RunResult
# fields
SWEEP_HEADER = [
    "value", "min_idle", "mean_wait_s", "n_stranded", "n_delayed",
    "total_grid_wh", "total_fuel_l",
]
_SWEEP_FORMATS = {"mean_wait_s": ".3f", "total_grid_wh": ".6f",
                  "total_fuel_l": ".6f"}
EVENT_HEADER = ["time_s", "sequence", "kind", "payload"]


@dataclass
class RunResult:
    """What one run gives back: the output directory and manifest, the
    engine summary, the collector, the trips, vehicles and charging
    manager, and the headline numbers of the run, as the collector's
    export computed them."""

    out_dir: Path
    manifest: dict
    engine_summary: SimulationSummary
    collector: metrics.MetricsCollector
    trips: list[fleet.Trip]
    vehicles: list[fleet.Vehicle]
    manager: charging.ChargingManager
    min_idle: int
    mean_wait_s: float
    n_stranded: int
    n_delayed: int
    total_grid_wh: float
    total_fuel_l: float


def run_scenario(
    config: ScenarioConfig,
    out_dir: str | Path,
    event_log: bool = False,
) -> RunResult:
    """Run one scenario end to end and write the output files."""
    out_dir = Path(out_dir)
    net = config.network
    horizon_ms = ms(config.horizon_s)

    engine = Engine(keep_event_log=event_log)
    params = config.vehicle_params
    manager = charging.ChargingManager(config.stations, params,
                                       config.policies.target_soc)

    vehicles = [
        fleet.Vehicle(
            vehicle_id=f"v{i:04d}",
            state=dynamics.VehicleState(soc=config.initial_soc),
        )
        for i in range(config.fleet_size)
    ]
    trips: list[fleet.Trip] = []
    if config.fleet_size > 0 and config.schedule_size > 0:
        trips = fleet.generate_day_schedule(
            config.seed, config.demand, config.schedule_size, net,
            config.depot_edge, config.policies.routing_weight,
        )
    collector = metrics.MetricsCollector(
        out_dir, vehicles, trips, manager.sessions, params)
    try:
        controller = fleet.FleetController(
            engine=engine,
            net=net,
            manager=manager,
            vehicles=vehicles,
            depot_edge=config.depot_edge,
            model=dynamics.DriveModel(params, config.environment,
                                      config.dynamics_dt_s),
            policies=config.policies,
            transition_hook=collector.record_transition,
        )
        controller.register_handlers()
        controller.schedule_trips(trips)

        collector.schedule_ticks(engine, ms(config.metrics_interval_s),
                                 horizon_ms)
        engine.on(EventKind.SIMULATION_END, lambda event: None)
        engine.schedule(Event(EventKind.SIMULATION_END), horizon_ms)

        summary = engine.run_until(horizon_ms)

        manager.truncate_active_sessions(horizon_ms)

        run_info = dict(
            version=__version__,
            seed=config.seed,
            config_hash=config.config_hash(),
            fleet_size=config.fleet_size,
            n_events=summary.total_dispatched,
            n_trips=len(trips),
            wall_clock_s=summary.wall_clock_s,
        )
        manifest = collector.export_all(
            run_info, horizon_ms,
            histogram_edges=config.demand.bin_edges(),
            utilization_bin_s=config.utilization_bin_s,
        )
        if event_log:
            metrics.write_csv(out_dir / "events.csv", EVENT_HEADER, (
                (f"{at / MS_PER_S:.3f}", seq, kind, payload)
                for at, seq, kind, payload in engine.event_log))
    finally:
        collector.close()

    return RunResult(
        out_dir=out_dir,
        manifest=manifest,
        engine_summary=summary,
        collector=collector,
        trips=trips,
        vehicles=vehicles,
        manager=manager,
        **{name: getattr(collector, name) for name in SWEEP_HEADER[1:]},
    )


def sweep(
    config_path: str | Path,
    param: str,
    values: list,
    out_dir: str | Path,
) -> list[dict]:
    """One independent run per value with a shared demand seed; aggregates
    the fleet-dimensioning metrics into ``sweep.csv``.

    For ``fleet.size`` sweeps every run keeps the base configuration's
    schedule size, which the effective config holds resolved, so every run
    faces the identical job schedule.
    Every value's configuration is built before the first run, so a bad
    value raises :class:`~evfleetsim.config.ConfigError` before any output
    is written.
    """
    effective = load_config(config_path).effective
    base_dir = Path(config_path).parent.resolve()
    configs = [build_config(apply_sweep_override(effective, param, value),
                            base_dir)
               for value in values]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    for value, cfg in zip(values, configs):
        tag = f"{param.replace('.', '_')}_{value}"
        result = run_scenario(cfg, out_dir / tag)
        row = {"value": value}
        row.update((name, getattr(result, name)) for name in SWEEP_HEADER[1:])
        rows.append(row)

    metrics.write_csv(out_dir / "sweep.csv", SWEEP_HEADER, (
        [format(row[name], _SWEEP_FORMATS.get(name, ""))
         for name in SWEEP_HEADER] for row in rows))
    return rows
