"""Run data collection and exports: per-tick vehicle records, lifecycle
transition log, trip/session logs, per-vehicle energy and time summaries,
distance histograms, and the idle-fleet (overdimensioning) time series.
Everything is written as CSV in one dialect, that of :func:`write_csv`,
so any external tool can plot it. ``ticks.csv``, by far the largest file,
is formatted on the hot path as ASCII bytes in that same dialect and
written as one byte stream.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_right
from collections import Counter
from pathlib import Path

from .charging import session_progress
from .dynamics import VehicleParams
from .engine import MS_PER_S, Engine, Event, EventKind, ms
from .fleet import Lifecycle, Trip, Vehicle

TICK_HEADER = [
    "t_s", "vehicle_id", "state", "v_mps", "a_mps2", "soc",
    "p_traction_w", "p_battery_w", "p_recup_w", "p_re_w",
]
_TICK_VALUES = TICK_HEADER[3:]
# the states in which a vehicle's ticks.csv row changes without a transition
_LIVE_STATES = (Lifecycle.EN_ROUTE, Lifecycle.RETURNING, Lifecycle.CHARGING)
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
# the ticks.csv row of a vehicle at rest after its id and state, with a slot
# for its SOC
_REST_TEMPLATE = b"0.0000,0.0000,%.9f,0.000,0.000,0.000,0.000\r\n"
# bytes of ticks.csv held by the open file before it writes them out
TICK_WRITE_BUFFER_BYTES = 1 << 16

_STATE_GROUP = {
    Lifecycle.IDLE: "idle",
    Lifecycle.EN_ROUTE: "busy",
    Lifecycle.DWELLING: "busy",
    Lifecycle.RETURNING: "busy",
    Lifecycle.CHARGING: "charging",
    Lifecycle.QUEUED_AT_STATION: "queued",
    Lifecycle.STRANDED: "stranded",
}
# each state's column of the utilization.csv counts, after bin_start_s
_STATE_COLUMN = {state: UTILIZATION_HEADER.index(group) - 1
                 for state, group in _STATE_GROUP.items()}
# each state's ticks.csv field and the comma after it
_STATE_FIELD = {state: b"%s," % state.value.encode("ascii")
                for state in Lifecycle}


class MetricsError(ValueError):
    pass


def _row_tail(vehicle: Vehicle, t_ms: int, params: VehicleParams,
              power_texts: dict[float, bytes]) -> bytes:
    """``vehicle``'s ``ticks.csv`` row at ``t_ms`` after its time, id and
    state fields, as ASCII bytes with the ``\\r\\n`` terminator of
    :func:`csv.writer`: its trace sample, charging session or state at
    rest. The trace sample is the last one that starts at or before the
    vehicle's offset into the trace, found by bisecting ``tr.time_s`` (the
    first sample before the trace starts). Its SOC is read as the scalar
    ``soc0 - soc_drop[i] / soc_scale`` (see
    :class:`~evfleetsim.dynamics.DriveTrace`), so no SOC column is built;
    a shared trace has no ``soc0``, and its base is the SOC the vehicle
    entered the edge with, ``vehicle.trace_soc0``.
    The tail is a ``bytes`` template with a ``%.9f`` slot for the SOC
    (``b"%.9f" % x`` equals ``f"{x:.9f}".encode()`` for every finite
    float), stored once its values are all finite. A trace sample's
    template is the same for every vehicle that reads it: the first read
    formats it and stores it in the trace's ``row_texts``. A charging row's
    template depends only on its session's effective power:
    ``power_texts`` maps each power to its one template, formatted on the
    first row at that power. A row at rest has the one ``_REST_TEMPLATE``.
    Every value must be finite, and a charging vehicle must hold its
    session."""
    tr = vehicle.trace
    if tr is not None and len(tr) > 0:
        offset = (t_ms - vehicle.trace_start_ms) / MS_PER_S
        i = max(bisect_right(tr.time_s, offset) - 1, 0)
        soc0 = tr.soc0
        if soc0 is None:
            soc0 = vehicle.trace_soc0
        soc = soc0 - tr.soc_drop[i] / tr.soc_scale
        template = tr.row_texts[i]
        if template is None:
            template = _sample_template(vehicle, tr, i, soc)
    elif vehicle.lifecycle is Lifecycle.CHARGING:
        s = vehicle.session
        elapsed = max(0.0, (t_ms - s.grant_ms) / MS_PER_S)
        _, soc = session_progress(s, params, elapsed)
        power = s.effective_power_w
        template = power_texts.get(power)
        if template is None:
            p_battery = -(power * params.charging_efficiency)
            if not math.isfinite(soc + p_battery):
                _reject_non_finite(vehicle, (0.0, 0.0, soc, 0.0, p_battery))
            template = power_texts[power] = (
                b"0.0000,0.0000,%%.9f,0.000,%.3f,0.000,0.000\r\n" % p_battery)
    else:
        soc = vehicle.state.soc
        template = _REST_TEMPLATE
    if not math.isfinite(soc):
        # a template's motion values are finite
        _reject_non_finite(vehicle, (0.0, 0.0, soc))
    return template % soc


def _sample_template(vehicle: Vehicle, tr, i: int, soc: float) -> bytes:
    """Format sample ``i`` of the trace ``tr`` into its row template, as
    :func:`_row_tail` uses it, and store it in ``tr.row_texts``; a sample
    with a non-finite value among its motion values or ``soc`` raises
    :class:`MetricsError` and stores nothing."""
    v, a = tr.v_mps[i], tr.a_mps2[i]
    p_traction, p_battery = tr.p_traction_w[i], tr.p_battery_w[i]
    p_recup, p_re = tr.p_recup_w[i], tr.p_re_w[i]
    if not math.isfinite(v + a + soc + p_traction + p_battery + p_recup + p_re):
        _reject_non_finite(vehicle, (v, a, soc, p_traction, p_battery, p_recup,
                                    p_re))
    template = tr.row_texts[i] = (
        b"%.4f,%.4f,%%.9f,%.3f,%.3f,%.3f,%.3f\r\n"
        % (v, a, p_traction, p_battery, p_recup, p_re))
    return template


def _reject_non_finite(vehicle: Vehicle, values) -> None:
    """Raise :class:`MetricsError` naming the first non-finite of a tick
    row's ``values``; a sum that overflowed from finite values passes."""
    for name, value in zip(_TICK_VALUES, values):
        if not math.isfinite(value):
            raise MetricsError(
                f"non-finite {name}={value} in tick for {vehicle.vehicle_id}")


def write_csv(path, header, rows) -> int:
    """Write ``header`` and then each of ``rows`` to ``path`` with
    :func:`csv.writer`, streaming them; returns the number of rows. Every
    CSV output but ``ticks.csv``, which formats its rows by hand on the hot
    path in the same dialect, is written here."""
    n = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for n, row in enumerate(rows, 1):
            writer.writerow(row)
    return n


def _extension_width(edges: list[float]) -> float:
    """The width of the bins that extend the sorted, distinct histogram
    ``edges``: the last bin's, or 250 m without a bin."""
    return edges[-1] - edges[-2] if len(edges) > 1 else 250.0


def histogram_rows(base_edges, top: float) -> float:
    """At least the rows of ``histograms.csv`` over ``base_edges`` when no
    distance exceeds ``top`` (see :meth:`MetricsCollector._histogram_rows`),
    without extending the edges: the bins up to the last base edge, and
    one more than the widths from there to ``top``, for the rounding of
    the repeated additions; ``inf`` if the widths overflow."""
    edges = sorted(set(base_edges))
    return len(edges) + max(0.0, top - edges[-1]) / _extension_width(edges)


class MetricsCollector:
    """Collects a run's data for the output directory ``out_dir``.

    It is built before the run with the run's ``vehicles``, its ``trips``,
    the charging manager's ``sessions`` list and the fleet's one vehicle
    model ``params``, and keeps references to all three lists, not copies.
    It notes each vehicle's starting SOC and logs its initial ``IDLE``
    transition itself. During the run it records the ticks that
    :meth:`schedule_ticks` schedules and the transitions it is handed; at
    the end :meth:`export_all` and :meth:`energy_ledger_error` read each
    vehicle's energy, distance and SOC from its ``state`` and its trip
    count from ``n_trips``, and the trips and sessions as they stand then.

    It is the one owner of a run's results, which :meth:`export_all`
    computes in one pass per record, each the generator that writes the
    record's file: :meth:`_trip_rows` over the trips, :meth:`_session_rows`
    over the sessions, :meth:`_walk` over the transitions and
    :meth:`_summary_rows` over the vehicles. Every float total is added
    left to right, as builtin ``sum()`` added before Python 3.12.

    It owns the ``ticks.csv`` rows: it keeps each vehicle's last row, as
    ASCII bytes after the time field, in one list, ``b""`` and then one
    row per vehicle, in vehicle order. A tick formats again only the
    *live* vehicles, each into its place, and writes the list, joined with
    the tick's time field, in one ``write``. A formatted row is the
    vehicle's id field, built once per vehicle, its state's field and
    :func:`_row_tail`, whose charging rows share one template per
    effective power for the whole run; ids and state values are ASCII that
    needs no CSV quoting. The invariant: a vehicle's row can change
    between ticks only while it is ``EN_ROUTE``, ``RETURNING`` or
    ``CHARGING``, or if it transitioned since the last tick (a finished
    session's SOC is set in the handler that moves the vehicle on, and the
    horizon cuts sessions after the last tick). Every vehicle starts live,
    :meth:`record_transition` makes it live, and it leaves once a tick has
    formatted it in any other state, never while it drives.

    ``ticks.csv`` is a byte stream, so its bytes do not depend on the
    locale. The constructor creates ``out_dir``, opens the file in binary
    mode with a write buffer of ``TICK_WRITE_BUFFER_BYTES`` and writes its
    header, so an unwritable ``out_dir`` fails before the run starts.
    Each recorded tick is written at once; no rows are held beyond the
    file's buffer. :meth:`close` flushes and closes the file: it is called
    by :meth:`export_all`, and by the runner on every way out of a run.
    Metrics are the product, so any I/O failure is allowed to propagate and
    abort the run.
    """

    def __init__(self, out_dir: str | Path, vehicles: list[Vehicle],
                 trips: list[Trip], sessions: list, params: VehicleParams):
        # vehicle index -> its ticks.csv id field and the comma after it
        self._id_fields = [b"%s," % v.vehicle_id.encode("ascii")
                           for v in vehicles]
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._ticks = open(self.out_dir / "ticks.csv", "wb",
                           buffering=TICK_WRITE_BUFFER_BYTES)
        self._ticks.write(",".join(TICK_HEADER).encode("ascii") + b"\r\n")
        self._tick_rows = 0
        # a charging session's effective power -> its row template
        self._power_texts: dict[float, bytes] = {}
        # b"" and then the last row of each vehicle, after the time field,
        # in vehicle order: joined with a tick's time field they are the
        # tick's bytes
        self._rows = [b""] * (len(vehicles) + 1)
        self._live = set(range(len(vehicles)))
        self._index = {v.vehicle_id: i for i, v in enumerate(vehicles)}
        self.vehicles = vehicles
        self.trips = trips
        self.sessions = sessions
        self.params = params
        # each vehicle's starting SOC, in vehicle order
        self._soc_start = [v.state.soc for v in vehicles]
        self.transitions: list[tuple[int, str, Lifecycle]] = [
            (0, v.vehicle_id, Lifecycle.IDLE) for v in vehicles]

    # -- recording ------------------------------------------------------------

    def schedule_ticks(self, engine: Engine, interval_ms: int,
                       horizon_ms: int) -> None:
        """Handle ``MetricsTick`` on ``engine``, whose clock is at 0 ms: a
        tick now and then one every ``interval_ms`` up to ``horizon_ms``,
        the one event of the engine's periodic source. A run without
        vehicles has no ticks."""

        def on_tick(event: Event) -> None:
            self.record_ticks(event.at)

        engine.on(EventKind.METRICS_TICK, on_tick)
        if self.vehicles:
            engine.every(Event(EventKind.METRICS_TICK), interval_ms,
                         horizon_ms)

    def record_ticks(self, t_ms: int) -> None:
        """Write the ``ticks.csv`` rows at ``t_ms``, in one ``write``: one
        per vehicle, in vehicle order. Only the live vehicles are formatted
        again."""
        rows, live = self._rows, self._live
        if live:
            vehicles, id_fields = self.vehicles, self._id_fields
            params, power_texts = self.params, self._power_texts
            for i in sorted(live):
                vehicle = vehicles[i]
                lifecycle = vehicle.lifecycle
                rows[i + 1] = (id_fields[i] + _STATE_FIELD[lifecycle]
                               + _row_tail(vehicle, t_ms, params, power_texts))
                if lifecycle not in _LIVE_STATES:
                    live.discard(i)
        n = len(rows) - 1
        if n:
            # the leading b"" puts the time field before the first row
            time_field = b"%.3f," % (t_ms / MS_PER_S)
            self._ticks.write(time_field.join(rows))
            self._tick_rows += n

    def record_transition(self, t_ms: int, vehicle_id: str,
                          new: Lifecycle) -> None:
        i = self._index[vehicle_id]  # an unknown id raises KeyError
        self.transitions.append((t_ms, vehicle_id, new))
        self._live.add(i)

    def close(self) -> None:
        """Write out and close ``ticks.csv``; closing again does nothing."""
        self._ticks.close()

    # -- analyses ----------------------------------------------------------------

    def energy_ledger_error(self) -> float:
        """Relative imbalance of the fleet-wide energy ledger:
        ``sum(grid + re + recup - consumed)`` vs ``sum(capacity * dSOC)``,
        added left to right in vehicle order, after :meth:`export_all`."""
        lhs = rhs = scale = 0.0
        for v, soc_start, grid in zip(self.vehicles, self._soc_start,
                                      self._grid_wh):
            c = v.state.cumulative
            lhs += grid + c.range_extended_wh + c.recuperated_wh - c.consumed_wh
            rhs += (self.params.battery_capacity_wh
                    * (v.state.soc - soc_start))
            scale += c.consumed_wh + grid + c.range_extended_wh + c.recuperated_wh
        if scale == 0.0:
            return abs(lhs - rhs)
        return abs(lhs - rhs) / scale

    def _walk(self, bin_ms: int, horizon_ms: int):
        """The one walk over the transition log, in dispatch (time) order.

        It yields one ``utilization.csv`` row per bin: the bin's start in
        ms, every ``bin_ms`` from 0 while before ``horizon_ms`` (the bin at
        0 always), and the vehicles in each group, counted after every
        transition at or before that start. It adds each period a vehicle
        spends in a state, ended by its next transition or by
        ``horizon_ms``, to ``_state_ms[state][i]``, ``i`` the vehicle's
        index: whole milliseconds, so each total is exact. Once exhausted,
        it sets ``min_idle``, the overdimension margin: the fewest idle
        vehicles at 0 and after the last transition of each timestamp,
        which is exact. A vehicle can pass through idle within one
        millisecond: it is set idle, then dispatched from the delayed list
        at the same time, and the count between two transitions of one
        timestamp is not taken. It also sets what explains the margin:
        ``min_idle_at_s``, the first such instant with ``min_idle`` idle
        vehicles (0.0 if the idle count never falls below the fleet size),
        and ``min_idle_states``, the vehicles in each other state then,
        keyed by the state's value, as in ``ticks.csv``."""
        index = self._index
        n = len(self.vehicles)
        state_ms = self._state_ms = {state: [0] * n for state in Lifecycle}
        state = [Lifecycle.IDLE] * n
        since_ms = [0] * n
        # vehicles per group, in utilization.csv order: idle first
        counts = [n] + [0] * (len(UTILIZATION_HEADER) - 2)
        # vehicles per state, and at the fewest idle so far
        by_state = dict.fromkeys(Lifecycle, 0)
        by_state[Lifecycle.IDLE] = n
        min_idle, min_at_ms, min_states = n, 0, dict(by_state)
        end = max(horizon_ms, 1)
        t_bin = t_last = 0
        for t_ms, vid, new in self.transitions:
            if t_ms != t_last:
                # the counts after the last transition at t_last
                if counts[0] < min_idle:
                    min_idle, min_at_ms, min_states = (counts[0], t_last,
                                                       dict(by_state))
                t_last = t_ms
                while t_bin < t_ms and t_bin < end:
                    yield (t_bin, *counts)
                    t_bin += bin_ms
            i = index[vid]
            old = state[i]
            state_ms[old][i] += t_ms - since_ms[i]
            counts[_STATE_COLUMN[old]] -= 1
            counts[_STATE_COLUMN[new]] += 1
            by_state[old] -= 1
            by_state[new] += 1
            state[i] = new
            since_ms[i] = t_ms
        while t_bin < end:
            yield (t_bin, *counts)
            t_bin += bin_ms
        for i, (old, start_ms) in enumerate(zip(state, since_ms)):
            if horizon_ms > start_ms:
                state_ms[old][i] += horizon_ms - start_ms
        if counts[0] < min_idle:
            min_idle, min_at_ms, min_states = counts[0], t_last, by_state
        self.min_idle = min_idle
        self.min_idle_at_s = min_at_ms / MS_PER_S
        self.min_idle_states = {state.value: k for state, k
                                in min_states.items()
                                if state is not Lifecycle.IDLE}

    # -- export --------------------------------------------------------------------

    def _trip_rows(self, horizon_ms: int):
        """Yield the ``trips.csv`` rows; once exhausted, it has set
        ``n_delayed`` and collected the airline and driven distances of
        the accepted (not rejected) trips, in trip order."""
        airline = self._airline_m = []
        driven = self._driven_m = []
        n_delayed = 0
        for t in self.trips:
            pending = t.status == "pending"
            if pending:
                delay_s = max(0.0, (horizon_ms - t.depart_ms) / MS_PER_S)
            else:
                delay_s = t.delay_ms / MS_PER_S
            n_delayed += t.delay_ms > 0 or (pending
                                            and t.depart_ms <= horizon_ms)
            if t.status != "rejected":
                airline.append(t.sampled_airline_m)
                driven.append(t.outbound.total_length_m)
            yield (
                t.trip_id, t.vehicle_id or "",
                f"{t.depart_ms / MS_PER_S:.3f}",
                f"{t.sampled_airline_m:.3f}",
                f"{t.outbound.total_length_m:.3f}" if t.outbound else "",
                f"{t.return_route.total_length_m:.3f}" if t.return_route else "",
                f"{t.dwell_s:.1f}", f"{delay_s:.3f}", t.status,
            )
        self.n_delayed = n_delayed

    def _session_rows(self):
        """The one pass over the sessions, in list order: it yields the
        ``sessions.csv`` rows. Once exhausted, it has set each vehicle's
        grid energy (``_grid_wh``, by vehicle index), ``total_grid_wh`` and
        ``mean_wait_s``, each total added left to right."""
        index = self._index
        grid = self._grid_wh = [0.0] * len(self.vehicles)
        total_wh = total_wait_s = 0.0
        for s in self.sessions:
            grid[index[s.vehicle_id]] += s.energy_wh
            total_wh += s.energy_wh
            total_wait_s += (s.grant_ms - s.enqueue_ms) / MS_PER_S
            yield (s.station_id, s.slot_id, s.vehicle_id,
                   f"{s.enqueue_ms / MS_PER_S:.3f}",
                   f"{s.grant_ms / MS_PER_S:.3f}",
                   f"{s.complete_ms / MS_PER_S:.3f}", f"{s.energy_wh:.6f}")
        self.total_grid_wh = total_wh
        self.mean_wait_s = (total_wait_s / len(self.sessions)
                            if self.sessions else 0.0)

    def _summary_rows(self):
        """The one pass over the vehicles, in vehicle order: it yields the
        ``summary.csv`` rows, from the grid energy of :meth:`_session_rows`
        and the milliseconds per state of :meth:`_walk`, divided once into
        seconds here. Once exhausted, it has set ``n_stranded`` and
        ``total_fuel_l``, added left to right."""
        idle, charging, queued, en_route, returning = map(self._state_ms.get, (
            Lifecycle.IDLE, Lifecycle.CHARGING, Lifecycle.QUEUED_AT_STATION,
            Lifecycle.EN_ROUTE, Lifecycle.RETURNING))
        grid = self._grid_wh
        n_stranded, total_fuel_l = 0, 0.0
        for i, v in enumerate(self.vehicles):
            c = v.state.cumulative
            n_stranded += v.lifecycle is Lifecycle.STRANDED
            total_fuel_l += c.fuel_liters
            yield (v.vehicle_id, f"{c.consumed_wh:.6f}",
                   f"{c.recuperated_wh:.6f}", f"{c.range_extended_wh:.6f}",
                   f"{grid[i]:.6f}", f"{c.fuel_liters:.6f}",
                   f"{c.distance_m:.3f}", v.n_trips,
                   f"{idle[i] / MS_PER_S:.3f}", f"{charging[i] / MS_PER_S:.3f}",
                   f"{queued[i] / MS_PER_S:.3f}",
                   f"{(en_route[i] + returning[i]) / MS_PER_S:.3f}")
        self.n_stranded = n_stranded
        self.total_fuel_l = total_fuel_l

    def _histogram_rows(self, base_edges):
        """Yield the ``histograms.csv`` rows over the distances that
        :meth:`_trip_rows` collected. The edges are the distinct
        ``base_edges``, extended by bins as wide as the last one (250 m
        without a bin of positive width) until they cover every distance.
        A bin counts from its lower edge up to its upper one, which only
        the last bin includes."""
        airline, driven = self._airline_m, self._driven_m
        edges = sorted(set(base_edges))
        width = _extension_width(edges)
        top = max(max(airline, default=edges[-1]),
                  max(driven, default=edges[-1]))
        while len(edges) < 2 or edges[-1] < top:
            edges.append(edges[-1] + width)
        # bisecting between the outer edges counts the last edge in bin n
        n = len(edges) - 1
        airline_bins = Counter(bisect_right(edges, x, 1, n) for x in airline)
        driven_bins = Counter(bisect_right(edges, x, 1, n) for x in driven)
        for k in range(1, n + 1):
            yield (f"{edges[k - 1]:.1f}", f"{edges[k]:.1f}", airline_bins[k],
                   driven_bins[k])

    def export_all(self, run_info: dict, horizon_ms: int,
                   histogram_edges: list[float],
                   utilization_bin_s: float) -> dict:
        """Write all CSVs plus ``manifest.json`` to ``out_dir`` and set the
        run's results, ``n_stranded``, ``n_delayed``, ``total_fuel_l``,
        ``total_grid_wh``, ``mean_wait_s``, ``min_idle`` and what explains
        it (see :meth:`_walk`); returns the
        manifest dict: ``run_info`` with the horizon, the row count of each
        file and the results but the two totals added.

        The four passes write ``trips.csv``, ``sessions.csv``,
        ``utilization.csv`` and ``summary.csv``, in that order, each leaving
        the tallies a later file reads; ``histograms.csv`` comes last.

        ``horizon_ms`` ends the last state period and the last utilization
        bin; a trip still pending that should have left by then is delayed.
        ``histogram_edges`` are the base bin edges of ``histograms.csv``,
        extended to the realised distances (see :meth:`_histogram_rows`).
        ``utilization_bin_s`` is the bin width of ``utilization.csv``, at
        least 1 ms: a narrower one would round to a 0 ms step of the clock.
        ``bin_start_s`` has one decimal if the width is a multiple of
        100 ms, else three, the clock's resolution: every start is exact.
        """
        out = self.out_dir
        self.close()
        if not utilization_bin_s >= 0.001:
            raise MetricsError("bin width must be at least 1 ms")
        bin_ms = ms(utilization_bin_s)
        start_format = ".1f" if bin_ms % 100 == 0 else ".3f"
        # file name -> header and a lazy iterable of its rows, written in
        # this order: summary.csv reads the grid energies that sessions.csv
        # leaves and the seconds that utilization.csv's walk leaves;
        # histograms.csv reads the distances that trips.csv leaves
        tables = {
            "trips.csv": (TRIP_HEADER, self._trip_rows(horizon_ms)),
            "sessions.csv": (SESSION_HEADER, self._session_rows()),
            "utilization.csv": (UTILIZATION_HEADER, (
                (format(start_ms / MS_PER_S, start_format), *counts)
                for start_ms, *counts in self._walk(bin_ms, horizon_ms))),
            "summary.csv": (SUMMARY_HEADER, self._summary_rows()),
            "histograms.csv": (HISTOGRAM_HEADER,
                               self._histogram_rows(histogram_edges)),
        }
        files = {"ticks.csv": self._tick_rows}
        for name, (header, rows) in tables.items():
            files[name] = write_csv(out / name, header, rows)

        manifest = dict(run_info, horizon_s=horizon_ms / MS_PER_S,
                        files=files, n_stranded=self.n_stranded,
                        n_delayed=self.n_delayed,
                        mean_wait_s=self.mean_wait_s, min_idle=self.min_idle,
                        min_idle_at_s=self.min_idle_at_s,
                        min_idle_states=self.min_idle_states)
        with open(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return manifest
