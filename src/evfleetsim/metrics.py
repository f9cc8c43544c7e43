"""Run data collection and exports: per-tick vehicle records, lifecycle
transition log, trip/session logs, power-flow summaries, distance histograms,
and the idle-fleet (overdimensioning) time series. Everything is written as
CSV so any external tool can plot it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import MS_PER_S
from .fleet import BUSY_STATES, Lifecycle, Trip

TICK_HEADER = [
    "t_s", "vehicle_id", "state", "v_mps", "a_mps2", "soc",
    "p_traction_w", "p_battery_w", "p_recup_w", "p_re_w",
]
TRIP_HEADER = [
    "trip_id", "vehicle_id", "depart_t", "airline_m", "driven_out_m",
    "driven_return_m", "dwell_s", "delay_s", "status",
]
SESSION_HEADER = [
    "station_id", "slot_id", "vehicle_id", "enqueue_t", "grant_t",
    "complete_t", "energy_wh",
]
SUMMARY_HEADER = [
    "vehicle_id", "consumed_wh", "recuperated_wh", "range_extended_wh",
    "grid_charged_wh", "fuel_l", "distance_m", "n_trips",
    "idle_s", "charging_s", "queued_s", "driving_s",
]
UTILIZATION_HEADER = ["bin_start_s", "idle", "busy", "charging", "queued", "stranded"]
HISTOGRAM_HEADER = ["bin_lower_m", "bin_upper_m", "airline_count", "driven_count"]

_STATE_GROUP = {
    Lifecycle.IDLE: "idle",
    Lifecycle.EN_ROUTE: "busy",
    Lifecycle.DWELLING: "busy",
    Lifecycle.RETURNING: "busy",
    Lifecycle.CHARGING: "charging",
    Lifecycle.QUEUED_AT_STATION: "queued",
    Lifecycle.STRANDED: "stranded",
}


class MetricsError(ValueError):
    pass


def _group_by_vehicle(items, vehicle_id) -> dict[str, list]:
    """Items grouped by ``vehicle_id(item)`` in one pass; each group keeps
    the original order, so sums over a group match a filtered scan bit for
    bit."""
    groups: dict[str, list] = {}
    for item in items:
        groups.setdefault(vehicle_id(item), []).append(item)
    return groups


def _state_periods(transitions, horizon_ms: int) -> list[tuple[str, float, float]]:
    """(state, start_s, end_s) tiles covering [0, horizon] from one vehicle's
    transitions in time order."""
    periods: list[tuple[str, float, float]] = []
    current: Lifecycle | None = None
    start = 0
    for t_ms, _, _, new in transitions:
        if current is not None and t_ms > start:
            periods.append((current.value, start / MS_PER_S, t_ms / MS_PER_S))
        current = new
        start = t_ms
    if current is not None and horizon_ms > start:
        periods.append((current.value, start / MS_PER_S, horizon_ms / MS_PER_S))
    return periods


@dataclass(frozen=True)
class TickRecord:
    t_ms: int
    vehicle_id: str
    state: str
    v_mps: float
    a_mps2: float
    soc: float
    p_traction_w: float
    p_battery_w: float
    p_recup_w: float
    p_re_w: float


@dataclass
class Period:
    start_s: float
    end_s: float
    location: str  # station/slot for charging, edge id otherwise


@dataclass
class PowerFlowSummary:
    vehicle_id: str
    consumed_wh: float
    recuperated_wh: float
    range_extended_wh: float
    grid_charged_wh: float
    fuel_liters: float
    distance_m: float
    charging_periods: list[Period]
    idle_periods: list[Period]


@dataclass
class UtilizationSeries:
    bin_s: float
    bin_starts_s: list[float]
    counts: dict[str, list[int]]

    @property
    def min_idle(self) -> int:
        """Overdimension margin: the fewest idle vehicles over the bin-start
        samples. Dips shorter than a bin that fall between two samples are
        not seen, so this can overstate the exact minimum."""
        idle = self.counts["idle"]
        return min(idle) if idle else 0


@dataclass
class _VehicleFinal:
    consumed_wh: float
    recuperated_wh: float
    range_extended_wh: float
    fuel_liters: float
    distance_m: float
    soc_start: float
    soc_end: float
    n_trips: int
    capacity_wh: float


class MetricsCollector:
    """Accumulates run data; tick rows stream to disk once the in-memory
    buffer exceeds ``tick_buffer_rows`` (metrics are the product, so any I/O
    failure is allowed to propagate and abort the run)."""

    def __init__(self, out_dir: str | Path | None = None,
                 tick_buffer_rows: int = 100_000):
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.tick_buffer_rows = tick_buffer_rows
        self._tick_buffer: list[TickRecord] = []
        self._ticks_flushed = 0
        self._ticks_path: Path | None = None
        self.transitions: list[tuple[int, str, Lifecycle | None, Lifecycle]] = []
        self.trips: list[Trip] = []
        self.sessions: list = []
        self.finals: dict[str, _VehicleFinal] = {}
        self.run_info: dict = {}

    # -- recording ------------------------------------------------------------

    def record_tick(self, record: TickRecord) -> None:
        for name in ("v_mps", "a_mps2", "soc", "p_traction_w", "p_battery_w",
                     "p_recup_w", "p_re_w"):
            value = getattr(record, name)
            if not math.isfinite(value):
                raise MetricsError(
                    f"non-finite {name}={value} in tick for {record.vehicle_id}"
                )
        self._tick_buffer.append(record)
        if self.out_dir is not None and len(self._tick_buffer) >= self.tick_buffer_rows:
            self._flush_ticks()

    def record_transition(self, t_ms: int, vehicle_id: str,
                          old: Lifecycle | None, new: Lifecycle) -> None:
        self.transitions.append((t_ms, vehicle_id, old, new))

    def record_vehicle_final(self, vehicle_id: str, cumulative,
                             soc_start: float, soc_end: float,
                             n_trips: int, capacity_wh: float) -> None:
        self.finals[vehicle_id] = _VehicleFinal(
            consumed_wh=cumulative.consumed_wh,
            recuperated_wh=cumulative.recuperated_wh,
            range_extended_wh=cumulative.range_extended_wh,
            fuel_liters=cumulative.fuel_liters,
            distance_m=cumulative.distance_m,
            soc_start=soc_start,
            soc_end=soc_end,
            n_trips=n_trips,
            capacity_wh=capacity_wh,
        )

    def set_trips(self, trips: list[Trip]) -> None:
        self.trips = list(trips)

    def set_sessions(self, sessions: list) -> None:
        self.sessions = list(sessions)

    def set_run_info(self, **info) -> None:
        self.run_info.update(info)

    # -- tick streaming ---------------------------------------------------------

    def _tick_row(self, r: TickRecord) -> list[str]:
        return [
            f"{r.t_ms / MS_PER_S:.3f}", r.vehicle_id, r.state,
            f"{r.v_mps:.4f}", f"{r.a_mps2:.4f}", f"{r.soc:.9f}",
            f"{r.p_traction_w:.3f}", f"{r.p_battery_w:.3f}",
            f"{r.p_recup_w:.3f}", f"{r.p_re_w:.3f}",
        ]

    def _flush_ticks(self) -> None:
        if self.out_dir is None:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        if self._ticks_path is None:
            self._ticks_path = self.out_dir / "ticks.csv"
            with open(self._ticks_path, "w", newline="") as fh:
                csv.writer(fh).writerow(TICK_HEADER)
        with open(self._ticks_path, "a", newline="") as fh:
            writer = csv.writer(fh)
            for record in self._tick_buffer:
                writer.writerow(self._tick_row(record))
        self._ticks_flushed += len(self._tick_buffer)
        self._tick_buffer.clear()

    @property
    def tick_count(self) -> int:
        return self._ticks_flushed + len(self._tick_buffer)

    # -- analyses ----------------------------------------------------------------

    def accepted_trips(self) -> list[Trip]:
        return [t for t in self.trips if t.status != "rejected"]

    def distance_histogram(
        self, bin_edges: list[float]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Aligned airline/driven histograms over the same bins. Values beyond
        the last edge are counted in the last bin so totals always equal the
        number of accepted trips."""
        edges = np.asarray(bin_edges, dtype=float)
        if len(edges) < 2 or np.any(np.diff(edges) <= 0):
            raise MetricsError("bin edges must be strictly increasing")
        accepted = self.accepted_trips()
        airline = np.array([t.sampled_airline_m for t in accepted])
        driven = np.array([t.outbound.total_length_m for t in accepted])
        hi = np.nextafter(edges[-1], -np.inf)
        airline_counts, _ = np.histogram(np.clip(airline, edges[0], hi), bins=edges)
        driven_counts, _ = np.histogram(np.clip(driven, edges[0], hi), bins=edges)
        return edges, airline_counts, driven_counts

    def unused_vehicles_series(self, bin_s: float, horizon_ms: int) -> UtilizationSeries:
        """Per-bin lifecycle counts sampled at each bin start; ``idle`` is the
        unused-vehicle series, and its minimum over the run is the
        overdimension margin."""
        if bin_s <= 0:
            raise MetricsError("bin width must be positive")
        state: dict[str, str] = {}
        counts: dict[str, list[int]] = {
            g: [] for g in ("idle", "busy", "charging", "queued", "stranded")
        }
        # running per-group counts; a vehicle counts as idle until its
        # first transition
        current = {g: 0 for g in counts}
        current["idle"] = len({t[1] for t in self.transitions})
        starts: list[float] = []
        events = self.transitions  # already in dispatch (time) order
        pointer = 0
        bin_ms = int(round(bin_s * MS_PER_S))
        t = 0
        while t < horizon_ms or t == 0:
            while pointer < len(events) and events[pointer][0] <= t:
                _, vid, _, new = events[pointer]
                current[state.get(vid, "idle")] -= 1
                state[vid] = _STATE_GROUP[new]
                current[state[vid]] += 1
                pointer += 1
            starts.append(t / MS_PER_S)
            for g in counts:
                counts[g].append(current[g])
            t += bin_ms
            if bin_ms == 0:
                break
        return UtilizationSeries(bin_s=bin_s, bin_starts_s=starts, counts=counts)

    def _transitions_by_vehicle(self) -> dict[str, list]:
        return _group_by_vehicle(self.transitions, lambda t: t[1])

    def _sessions_by_vehicle(self) -> dict[str, list]:
        return _group_by_vehicle(self.sessions, lambda s: s.vehicle_id)

    def state_periods(self, vehicle_id: str, horizon_ms: int) -> list[tuple[str, float, float]]:
        """(state, start_s, end_s) tiles covering [0, horizon] for one vehicle."""
        return _state_periods(
            self._transitions_by_vehicle().get(vehicle_id, []), horizon_ms)

    def power_flow_summary(self, vehicle_id: str) -> PowerFlowSummary:
        final = self.finals.get(vehicle_id)
        if final is None:
            raise MetricsError(f"unknown vehicle {vehicle_id}")
        sessions = self._sessions_by_vehicle().get(vehicle_id, [])
        grid = sum(s.energy_wh for s in sessions)
        horizon_ms = self.run_info.get("horizon_ms", 0)
        charging_periods = [
            Period(s.grant_ms / MS_PER_S, s.complete_ms / MS_PER_S,
                   f"{s.station_id}/{s.slot_id}")
            for s in sessions if s.complete_ms > s.grant_ms
        ]
        idle_periods = [
            Period(start, end, "depot")
            for state, start, end in self.state_periods(vehicle_id, horizon_ms)
            if state == Lifecycle.IDLE.value
        ]
        return PowerFlowSummary(
            vehicle_id=vehicle_id,
            consumed_wh=final.consumed_wh,
            recuperated_wh=final.recuperated_wh,
            range_extended_wh=final.range_extended_wh,
            grid_charged_wh=grid,
            fuel_liters=final.fuel_liters,
            distance_m=final.distance_m,
            charging_periods=charging_periods,
            idle_periods=idle_periods,
        )

    def energy_ledger_error(self) -> float:
        """Relative imbalance of the fleet-wide energy ledger:
        ``sum(grid + re + recup - consumed)`` vs ``sum(capacity * dSOC)``."""
        lhs = 0.0
        rhs = 0.0
        scale = 0.0
        sessions = self._sessions_by_vehicle()
        for vid, final in self.finals.items():
            grid = sum(s.energy_wh for s in sessions.get(vid, []))
            lhs += grid + final.range_extended_wh + final.recuperated_wh - final.consumed_wh
            rhs += final.capacity_wh * (final.soc_end - final.soc_start)
            scale += final.consumed_wh + grid + final.range_extended_wh + final.recuperated_wh
        if scale == 0.0:
            return abs(lhs - rhs)
        return abs(lhs - rhs) / scale

    # -- export --------------------------------------------------------------------

    def export_all(self, out_dir: str | Path | None = None,
                   histogram_edges: list[float] | None = None,
                   utilization_bin_s: float = 300.0) -> dict:
        """Write all CSVs plus ``manifest.json``; returns the manifest dict."""
        out = Path(out_dir) if out_dir is not None else self.out_dir
        if out is None:
            raise MetricsError("no output directory configured")
        if self.out_dir is None:
            self.out_dir = out
        out.mkdir(parents=True, exist_ok=True)
        horizon_ms = self.run_info.get("horizon_ms", 0)
        files: dict[str, int] = {}

        self._flush_ticks()
        if self._ticks_path is None:
            self._ticks_path = out / "ticks.csv"
            with open(self._ticks_path, "w", newline="") as fh:
                csv.writer(fh).writerow(TICK_HEADER)
        files["ticks.csv"] = self._ticks_flushed

        with open(out / "trips.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRIP_HEADER)
            for t in self.trips:
                if t.status == "pending":
                    delay_s = max(0.0, (horizon_ms - t.depart_ms) / MS_PER_S)
                else:
                    delay_s = t.delay_ms / MS_PER_S
                writer.writerow([
                    t.trip_id, t.vehicle_id or "",
                    f"{t.depart_ms / MS_PER_S:.3f}",
                    f"{t.sampled_airline_m:.3f}",
                    f"{t.outbound.total_length_m:.3f}" if t.outbound else "",
                    f"{t.return_route.total_length_m:.3f}" if t.return_route else "",
                    f"{t.dwell_s:.1f}", f"{delay_s:.3f}", t.status,
                ])
        files["trips.csv"] = len(self.trips)

        with open(out / "sessions.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SESSION_HEADER)
            for s in self.sessions:
                writer.writerow([
                    s.station_id, s.slot_id, s.vehicle_id,
                    f"{s.enqueue_ms / MS_PER_S:.3f}",
                    f"{s.grant_ms / MS_PER_S:.3f}",
                    f"{s.complete_ms / MS_PER_S:.3f}",
                    f"{s.energy_wh:.6f}",
                ])
        files["sessions.csv"] = len(self.sessions)

        transitions = self._transitions_by_vehicle()
        sessions = self._sessions_by_vehicle()
        with open(out / "summary.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SUMMARY_HEADER)
            for vid in sorted(self.finals):
                final = self.finals[vid]
                grid = sum(s.energy_wh for s in sessions.get(vid, []))
                seconds = {s.value: 0.0 for s in Lifecycle}
                for state, start, end in _state_periods(
                        transitions.get(vid, []), horizon_ms):
                    seconds[state] += end - start
                writer.writerow([
                    vid,
                    f"{final.consumed_wh:.6f}", f"{final.recuperated_wh:.6f}",
                    f"{final.range_extended_wh:.6f}",
                    f"{grid:.6f}",
                    f"{final.fuel_liters:.6f}", f"{final.distance_m:.3f}",
                    final.n_trips,
                    f"{seconds[Lifecycle.IDLE.value]:.3f}",
                    f"{seconds[Lifecycle.CHARGING.value]:.3f}",
                    f"{seconds[Lifecycle.QUEUED_AT_STATION.value]:.3f}",
                    f"{seconds[Lifecycle.EN_ROUTE.value] + seconds[Lifecycle.RETURNING.value]:.3f}",
                ])
        files["summary.csv"] = len(self.finals)

        series = self.unused_vehicles_series(utilization_bin_s, horizon_ms)
        with open(out / "utilization.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(UTILIZATION_HEADER)
            for i, start in enumerate(series.bin_starts_s):
                writer.writerow([
                    f"{start:.1f}",
                    series.counts["idle"][i], series.counts["busy"][i],
                    series.counts["charging"][i], series.counts["queued"][i],
                    series.counts["stranded"][i],
                ])
        files["utilization.csv"] = len(series.bin_starts_s)

        if histogram_edges is None:
            histogram_edges = self._default_histogram_edges()
        edges, airline_counts, driven_counts = self.distance_histogram(histogram_edges)
        with open(out / "histograms.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(HISTOGRAM_HEADER)
            for i in range(len(edges) - 1):
                writer.writerow([
                    f"{edges[i]:.1f}", f"{edges[i + 1]:.1f}",
                    int(airline_counts[i]), int(driven_counts[i]),
                ])
        files["histograms.csv"] = len(edges) - 1

        manifest = dict(self.run_info)
        manifest.pop("horizon_ms", None)
        manifest["horizon_s"] = horizon_ms / MS_PER_S
        manifest["files"] = files
        manifest["min_idle"] = series.min_idle
        with open(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return manifest

    def _default_histogram_edges(self) -> list[float]:
        accepted = self.accepted_trips()
        if not accepted:
            return [0.0, 1000.0]
        top = max(
            max(t.sampled_airline_m for t in accepted),
            max(t.outbound.total_length_m for t in accepted),
        )
        width = 250.0
        n = max(1, int(math.ceil(top / width + 1e-9)))
        return [width * i for i in range(n + 1)]
