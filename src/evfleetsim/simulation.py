"""Scenario assembly and execution: build the network, stations, fleet, and
demand schedule from a configuration, run the event loop to the horizon, and
export all collected metrics."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, charging, dynamics, fleet, metrics
from .config import (ScenarioConfig, apply_sweep_override, build_config,
                     load_config)
from .engine import (Engine, Event, EventKind, MS_PER_S, SimulationSummary, ms,
                     write_event_log_csv)

# "value" is the swept parameter's value; the other columns name RunResult
# fields
SWEEP_HEADER = [
    "value", "min_idle", "mean_wait_s", "n_stranded", "n_delayed",
    "total_grid_wh", "total_fuel_l",
]
_SWEEP_FORMATS = {"mean_wait_s": ".3f", "total_grid_wh": ".6f",
                  "total_fuel_l": ".6f"}


@dataclass
class RunResult:
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
    collector = metrics.MetricsCollector(out_dir)
    params = config.vehicle_params
    manager = charging.ChargingManager(
        engine,
        config.build_stations(),
        params,
        safety_margin_soc=config.safety_margin_soc,
    )

    vehicles = [
        fleet.Vehicle(
            vehicle_id=f"v{i:04d}",
            state=dynamics.VehicleState(
                soc=config.initial_soc, edge_id=config.depot_edge
            ),
        )
        for i in range(config.fleet_size)
    ]
    controller = fleet.FleetController(
        engine=engine,
        net=net,
        manager=manager,
        vehicles=vehicles,
        depot_edge=config.depot_edge,
        env=config.environment,
        params=params,
        policies=config.policies,
        dynamics_dt_s=config.dynamics_dt_s,
        transition_hook=collector.record_transition,
    )
    controller.register_handlers()
    for v in vehicles:
        collector.record_transition(0, v.vehicle_id, None, fleet.Lifecycle.IDLE)

    trips: list[fleet.Trip] = []
    if config.fleet_size > 0 and config.schedule_size > 0:
        trips = fleet.generate_day_schedule(
            config.seed, config.demand, config.schedule_size, net,
            config.depot_edge, config.policies.routing_weight,
        )
    controller.schedule_trips(trips)

    tick_ms = ms(config.metrics_interval_s)

    def on_tick(event: Event) -> None:
        now = engine.now_ms
        samples = []
        for v in vehicles:
            lifecycle = v.lifecycle
            if lifecycle is fleet.Lifecycle.STRANDED:
                continue
            tr = v.trace
            if tr is not None and len(tr) > 0:
                offset = (now - v.trace_start_ms) / MS_PER_S
                i = int(np.searchsorted(tr.time_s, offset, side="right")) - 1
                i = min(max(i, 0), len(tr) - 1)
                samples.append((v.vehicle_id, lifecycle, float(tr.soc[i]), (
                    float(tr.v_mps[i]), float(tr.a_mps2[i]),
                    float(tr.p_traction_w[i]), float(tr.p_battery_w[i]),
                    float(tr.p_recup_w[i]), float(tr.p_re_w[i]),
                )))
            elif lifecycle is fleet.Lifecycle.CHARGING and v.session is not None:
                s = v.session
                elapsed = max(0.0, (now - s.grant_ms) / MS_PER_S)
                _, soc = charging.session_progress(s, params, elapsed)
                inflow = s.effective_power_w * params.charging_efficiency
                samples.append((v.vehicle_id, lifecycle, soc,
                                (0.0, 0.0, 0.0, -inflow, 0.0, 0.0)))
            else:
                samples.append((v.vehicle_id, lifecycle, v.state.soc, None))
        collector.record_ticks(now, samples)
        nxt = now + tick_ms
        if nxt <= horizon_ms:
            engine.schedule(Event(EventKind.METRICS_TICK), nxt)

    engine.on(EventKind.METRICS_TICK, on_tick)
    engine.on(EventKind.SIMULATION_END, lambda event: None)
    if horizon_ms >= 0 and config.fleet_size > 0:
        engine.schedule(Event(EventKind.METRICS_TICK), 0)
    engine.schedule(Event(EventKind.SIMULATION_END), horizon_ms)

    summary = engine.run_until(horizon_ms)

    manager.truncate_active_sessions(horizon_ms)
    for v in vehicles:
        collector.record_vehicle_final(
            v.vehicle_id, v.state.cumulative,
            soc_start=config.initial_soc, soc_end=v.state.soc,
            n_trips=v.n_trips, capacity_wh=params.battery_capacity_wh,
        )
    collector.set_trips(trips)
    collector.set_sessions(manager.sessions)

    n_stranded = sum(
        1 for v in vehicles if v.lifecycle is fleet.Lifecycle.STRANDED
    )
    n_delayed = sum(
        1 for t in trips
        if t.delay_ms > 0 or (t.status == "pending" and t.depart_ms <= horizon_ms)
    )
    waits = [
        (s.grant_ms - s.enqueue_ms) / MS_PER_S for s in manager.sessions
    ]
    mean_wait_s = float(sum(waits) / len(waits)) if waits else 0.0
    total_grid_wh = float(sum(s.energy_wh for s in manager.sessions))
    total_fuel_l = float(sum(v.state.cumulative.fuel_liters for v in vehicles))

    collector.set_run_info(
        version=__version__,
        seed=config.seed,
        config_hash=config.config_hash(),
        fleet_size=config.fleet_size,
        horizon_ms=horizon_ms,
        n_events=summary.total_dispatched,
        n_trips=len(trips),
        n_stranded=n_stranded,
        n_delayed=n_delayed,
        mean_wait_s=mean_wait_s,
        wall_clock_s=summary.wall_clock_s,
    )
    manifest = collector.export_all(
        histogram_edges=config.demand.bin_edges(),
        utilization_bin_s=config.utilization_bin_s,
    )
    if event_log:
        write_event_log_csv(engine, out_dir / "events.csv")

    return RunResult(
        out_dir=out_dir,
        manifest=manifest,
        engine_summary=summary,
        collector=collector,
        trips=trips,
        vehicles=vehicles,
        manager=manager,
        min_idle=manifest["min_idle"],
        mean_wait_s=mean_wait_s,
        n_stranded=n_stranded,
        n_delayed=n_delayed,
        total_grid_wh=total_grid_wh,
        total_fuel_l=total_fuel_l,
    )


def sweep(
    config_path: str | Path,
    param: str,
    values: list,
    out_dir: str | Path,
) -> list[dict]:
    """One independent run per value with a shared demand seed; aggregates
    the fleet-dimensioning metrics into ``sweep.csv``.

    For ``fleet.size`` sweeps the schedule size is pinned to the base
    configuration's value so every run faces the identical job schedule.
    Every value's configuration is built before the first run, so a bad
    value raises :class:`~evfleetsim.config.ConfigError` before any output
    is written.
    """
    effective = load_config(config_path).effective
    base_dir = Path(config_path).parent.resolve()
    pinned_schedule = effective["demand"]["schedule_size"]
    configs = []
    for value in values:
        override = apply_sweep_override(effective, param, value)
        if param == "fleet.size":
            override["demand"]["schedule_size"] = pinned_schedule
        configs.append(build_config(override, base_dir))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    for value, cfg in zip(values, configs):
        tag = f"{param.replace('.', '_')}_{value}"
        result = run_scenario(cfg, out_dir / tag)
        row = {"value": value}
        row.update((name, getattr(result, name)) for name in SWEEP_HEADER[1:])
        rows.append(row)

    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        for row in rows:
            writer.writerow([format(row[name], _SWEEP_FORMATS.get(name, ""))
                             for name in SWEEP_HEADER])
    return rows
