"""Run data collection and exports: per-tick vehicle records, lifecycle
transition log, trip/session logs, power-flow summaries, distance histograms,
and the idle-fleet (overdimensioning) time series. Everything is written as
CSV so any external tool can plot it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import MS_PER_S, ms
from .fleet import Lifecycle, Trip

TICK_HEADER = [
    "t_s", "vehicle_id", "state", "v_mps", "a_mps2", "soc",
    "p_traction_w", "p_battery_w", "p_recup_w", "p_re_w",
]
_TICK_VALUES = TICK_HEADER[3:]
# (v_mps, a_mps2, p_traction_w, p_battery_w, p_recup_w, p_re_w) of a vehicle
# with no drive trace and no charging session
_AT_REST = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
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
# ticks.csv rows held in memory before they are appended to the file
TICK_BUFFER_ROWS = 100_000

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


def _row_tail(vehicle_id: str, lifecycle: Lifecycle, soc: float,
              motion) -> str:
    """One ``ticks.csv`` row without its time field, with the ``\\r\\n``
    terminator of :func:`csv.writer`."""
    v, a, p_traction, p_battery, p_recup, p_re = motion
    for name, value in zip(_TICK_VALUES,
                           (v, a, soc, p_traction, p_battery, p_recup, p_re)):
        if not math.isfinite(value):
            raise MetricsError(
                f"non-finite {name}={value} in tick for {vehicle_id}")
    return (f"{vehicle_id},{lifecycle.value},{v:.4f},{a:.4f},{soc:.9f},"
            f"{p_traction:.3f},{p_battery:.3f},{p_recup:.3f},{p_re:.3f}\r\n")


def _group_by_vehicle(items, vehicle_id) -> dict[str, list]:
    """Items grouped by ``vehicle_id(item)`` in one pass; each group keeps
    the original order, so sums over a group match a filtered scan bit for
    bit."""
    groups: dict[str, list] = {}
    for item in items:
        groups.setdefault(vehicle_id(item), []).append(item)
    return groups


def state_periods(transitions, horizon_ms: int) -> list[tuple[str, float, float]]:
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


def covering_edges(base_edges, trips) -> list[float]:
    """The distinct ``base_edges`` in order, extended by bins as wide as the
    last one until they cover the airline and driven distances of the
    accepted ``trips``, so the exported histograms stay aligned and complete.
    Without a bin of positive width the extension steps by 250 m."""
    edges = sorted(set(base_edges))
    width = edges[-1] - edges[-2] if len(edges) > 1 else 250.0
    top = max((max(t.sampled_airline_m, t.outbound.total_length_m)
               for t in trips), default=edges[-1])
    while len(edges) < 2 or edges[-1] < top:
        edges.append(edges[-1] + width)
    return edges


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
    """Accumulates run data for the output directory ``out_dir``; tick rows
    stream to disk once the rows buffered in memory reach
    ``TICK_BUFFER_ROWS`` (metrics are the product, so any I/O failure is
    allowed to propagate and abort the run)."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        # one string of formatted ticks.csv rows per recorded tick
        self._tick_chunks: list[str] = []
        self._pending_rows = 0
        self._ticks_flushed = 0
        self._ticks_path: Path | None = None
        # vehicle_id -> (lifecycle, soc, row tail) of its last row at rest
        self._rest_rows: dict[str, tuple[Lifecycle, float, str]] = {}
        self.transitions: list[tuple[int, str, Lifecycle | None, Lifecycle]] = []
        self.trips: list[Trip] = []
        self.sessions: list = []
        self.finals: dict[str, _VehicleFinal] = {}
        self.run_info: dict = {}

    # -- recording ------------------------------------------------------------

    def record_ticks(self, t_ms: int, samples) -> None:
        """Record one ``ticks.csv`` row per sample, in the given order.

        Each sample is ``(vehicle_id, lifecycle, soc, motion)``. ``motion``
        is ``None`` for a vehicle at rest (no drive trace, no charging
        session), else ``(v_mps, a_mps2, p_traction_w, p_battery_w,
        p_recup_w, p_re_w)``. Every value must be finite. Vehicle ids and
        lifecycle values are written as they are, so they must not need CSV
        quoting.
        """
        tails = []
        rest_rows = self._rest_rows
        for vehicle_id, lifecycle, soc, motion in samples:
            if motion is not None:
                tails.append(_row_tail(vehicle_id, lifecycle, soc, motion))
                continue
            # keyed on the identity of the soc object: the same object
            # formats to the same bytes, and a cached soc was checked finite
            cached = rest_rows.get(vehicle_id)
            if cached is None or cached[0] is not lifecycle or cached[1] is not soc:
                cached = rest_rows[vehicle_id] = (
                    lifecycle, soc,
                    _row_tail(vehicle_id, lifecycle, soc, _AT_REST))
            tails.append(cached[2])
        if not tails:
            return
        head = f"{t_ms / MS_PER_S:.3f},"
        self._tick_chunks.append(head + head.join(tails))
        self._pending_rows += len(tails)
        if self._pending_rows >= TICK_BUFFER_ROWS:
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

    def _flush_ticks(self) -> None:
        if self._ticks_path is None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            self._ticks_path = self.out_dir / "ticks.csv"
            with open(self._ticks_path, "w", newline="") as fh:
                fh.write(",".join(TICK_HEADER) + "\r\n")
        with open(self._ticks_path, "a", newline="") as fh:
            fh.writelines(self._tick_chunks)
        self._ticks_flushed += self._pending_rows
        self._pending_rows = 0
        self._tick_chunks.clear()

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
        bin_ms = ms(bin_s)
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

    def export_all(self, histogram_edges: list[float],
                   utilization_bin_s: float = 300.0) -> dict:
        """Write all CSVs plus ``manifest.json`` to ``out_dir``; returns the
        manifest dict.

        ``histogram_edges`` are the base bin edges of ``histograms.csv``,
        extended by :func:`covering_edges` to the realised distances."""
        out = self.out_dir
        out.mkdir(parents=True, exist_ok=True)
        horizon_ms = self.run_info.get("horizon_ms", 0)
        files: dict[str, int] = {}

        self._flush_ticks()
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
                for state, start, end in state_periods(
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

        edges, airline_counts, driven_counts = self.distance_histogram(
            covering_edges(histogram_edges, self.accepted_trips()))
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
