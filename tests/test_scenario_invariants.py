"""Cross-module invariants checked on whole scenario runs."""

import copy
import csv
import importlib.util
import json
from pathlib import Path

import pytest
import yaml

from test_config_cli import BASE_SCENARIO, write_scenario

from evfleetsim import metrics
from evfleetsim.charging import ChargingManager
from evfleetsim.config import load_config
from evfleetsim.engine import Engine, EventKind
from evfleetsim.fleet import FleetController, Lifecycle
from evfleetsim.metrics import (_STATE_GROUP, TICK_HEADER, MetricsCollector,
                                state_periods)
from evfleetsim.network import Coord, Edge, RoadNetwork, shortest_path
from evfleetsim.simulation import run_scenario


def write_busy_scenario(tmp_path, name="scenario.yaml", vehicles=3,
                        trips_per_vehicle=3, **overrides):
    # by default 3 vehicles, all 9 trips departing within one hour, a single
    # 1-slot depot station and a second station one block east: enough
    # contention for diversions; 5 vehicles with 4 trips each also queue
    return write_scenario(
        tmp_path,
        name=name,
        fleet={"size": vehicles},
        stations=[
            {"station_id": "st0", "edge_id": "e00000", "max_simultaneous": 1,
             "slots": [{"plug": "schuko"}]},
            {"station_id": "st1", "edge_id": "e00004", "max_simultaneous": 1,
             "slots": [{"plug": "schuko"}]},
        ],
        demand={
            "departure_weights": [0.0] * 6 + [1.0] + [0.0] * 17,
            "trips_per_vehicle_per_day": {"family": "fixed",
                                          "n": trips_per_vehicle},
        },
        horizon_s=12 * 3600.0,
        **overrides,
    )


@pytest.fixture()
def busy_run(tmp_path):
    return run_scenario(load_config(write_busy_scenario(tmp_path)), tmp_path / "out")


def test_periods_tile_horizon_for_every_vehicle(busy_run):
    result = busy_run
    horizon_ms = result.collector.run_info["horizon_ms"]
    for v in result.vehicles:
        periods = state_periods([t for t in result.collector.transitions
                                 if t[1] == v.vehicle_id], horizon_ms)
        assert periods[0][1] == 0.0
        assert periods[-1][2] == horizon_ms / 1000.0
        for (_, _, end), (_, start, _) in zip(periods, periods[1:]):
            assert end == start


def test_charging_periods_disjoint_per_vehicle_and_slot(busy_run):
    result = busy_run
    assert len(result.manager.sessions) > 0
    by_vehicle: dict = {}
    by_slot: dict = {}
    for s in result.manager.sessions:
        by_vehicle.setdefault(s.vehicle_id, []).append((s.grant_ms, s.complete_ms))
        by_slot.setdefault((s.station_id, s.slot_id), []).append(
            (s.grant_ms, s.complete_ms)
        )
    for spans in list(by_vehicle.values()) + list(by_slot.values()):
        spans.sort()
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start


def test_vehicle_in_exactly_one_state_at_all_times(busy_run):
    result = busy_run
    horizon_ms = result.collector.run_info["horizon_ms"]
    series = result.collector.unused_vehicles_series(600.0, horizon_ms)
    for i in range(len(series.bin_starts_s)):
        assert sum(series.counts[g][i] for g in series.counts) == 3


def test_diverted_vehicles_complete_the_leg(busy_run):
    # the divert feasibility gate plus margin must mean nobody strands
    result = busy_run
    diverted = {
        s.vehicle_id
        for s in result.manager.sessions if s.station_id == "st1"
    }
    assert result.n_stranded == 0
    for v in result.vehicles:
        assert v.lifecycle is not Lifecycle.STRANDED
        if v.vehicle_id in diverted:
            assert v.state.soc > 0.0


def test_infinite_battery_preset_never_strands_never_charges(tmp_path):
    path = write_scenario(
        tmp_path,
        fleet={"size": 4,
               "vehicle": {"preset": "infinite_battery", "overrides": {}}},
        policies={"depot_charge_threshold": 0.95},
        demand={"trips_per_vehicle_per_day": {"family": "fixed", "n": 3}},
    )
    result = run_scenario(load_config(path), tmp_path / "out")
    assert result.n_stranded == 0
    assert len(result.manager.sessions) == 0
    for v in result.vehicles:
        assert v.state.soc > 0.9999


def test_global_energy_ledger_balances(busy_run):
    assert busy_run.collector.energy_ledger_error() < 1e-6


def run_checking_consistency(monkeypatch, path, out_dir):
    """Run a scenario and call ChargingManager.assert_consistent after every
    dispatched event; returns the result and the kinds checked."""
    managers, checked = [], []
    init, on = ChargingManager.__init__, Engine.on

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        managers.append(self)

    def checking_on(self, kind, handler):
        def checked_handler(event):
            handler(event)
            for manager in managers:
                manager.assert_consistent()
            checked.append(event.kind)
        on(self, kind, checked_handler)

    monkeypatch.setattr(ChargingManager, "__init__", recording_init)
    monkeypatch.setattr(Engine, "on", checking_on)
    result = run_scenario(load_config(path), out_dir)
    assert managers == [result.manager]
    assert len(checked) == result.engine_summary.total_dispatched
    return result, set(checked)


@pytest.mark.parametrize("vehicles,trips_per_vehicle", [(3, 3), (5, 4)],
                         ids=["busy_run", "divert_5x4"])
def test_charging_manager_consistent_after_every_event(
        tmp_path, monkeypatch, vehicles, trips_per_vehicle):
    path = write_busy_scenario(tmp_path, vehicles=vehicles,
                               trips_per_vehicle=trips_per_vehicle)
    result, kinds = run_checking_consistency(monkeypatch, path,
                                             tmp_path / "out")
    assert {EventKind.CHARGE_REQUEST, EventKind.SLOT_GRANTED,
            EventKind.CHARGE_COMPLETE} <= kinds
    assert any(s.station_id == "st1" for s in result.manager.sessions)  # diverted


def test_range_extender_switches_without_events(tmp_path):
    # 1 kWh batteries starting at 30 %: each vehicle's range extender
    # switches on below 20 % during its first trip and off again at 40 %
    path = write_scenario(
        tmp_path, horizon_s=24 * 3600.0,
        fleet={"size": 2, "initial_soc": 0.3,
               "vehicle": {"preset": "compact_ev",
                           "overrides": {"battery_capacity_wh": 1000.0}}},
    )
    result = run_scenario(load_config(path), tmp_path / "out", event_log=True)
    with open(tmp_path / "out" / "events.csv", newline="") as fh:
        kinds = [row["kind"] for row in csv.DictReader(fh)]
    assert "RangeExtenderToggle" not in kinds
    assert result.manifest["n_events"] == len(kinds)
    assert result.total_fuel_l > 0.0
    assert result.collector.energy_ledger_error() < 1e-6
    # the relay shows in ticks.csv instead
    with open(tmp_path / "out" / "ticks.csv", newline="") as fh:
        assert any(float(row["p_re_w"]) > 0.0 for row in csv.DictReader(fh))


# --- ticks.csv against a csv.writer reference ----------------------------------

def write_reference_ticks(path, ticks):
    """ticks.csv as csv.writer writes it, one row per sample of each tick."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TICK_HEADER)
        for t_ms, samples in ticks:
            for vehicle_id, lifecycle, soc, motion in samples:
                v, a, p_traction, p_battery, p_recup, p_re = motion or (0.0,) * 6
                writer.writerow([
                    f"{t_ms / 1000:.3f}", vehicle_id, lifecycle.value,
                    f"{v:.4f}", f"{a:.4f}", f"{soc:.9f}",
                    f"{p_traction:.3f}", f"{p_battery:.3f}",
                    f"{p_recup:.3f}", f"{p_re:.3f}",
                ])


def test_ticks_csv_equals_reference_writer(tmp_path, monkeypatch):
    ticks = []
    record_ticks = MetricsCollector.record_ticks

    def capture(self, t_ms, samples):
        ticks.append((t_ms, list(samples)))
        record_ticks(self, t_ms, samples)

    monkeypatch.setattr(MetricsCollector, "record_ticks", capture)
    path = write_busy_scenario(tmp_path, vehicles=5, trips_per_vehicle=4)
    result = run_scenario(load_config(path), tmp_path / "out")
    kinds = {(lifecycle, motion is None)
             for _, samples in ticks for _, lifecycle, _, motion in samples}
    assert {(Lifecycle.EN_ROUTE, False), (Lifecycle.CHARGING, False),
            (Lifecycle.QUEUED_AT_STATION, True), (Lifecycle.IDLE, True)} <= kinds
    assert any(s.station_id == "st1" for s in result.manager.sessions)  # diverted

    write_reference_ticks(tmp_path / "reference.csv", ticks)
    assert ((tmp_path / "out" / "ticks.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())
    assert result.manifest["files"]["ticks.csv"] == sum(len(s) for _, s in ticks)


def test_ticks_csv_independent_of_flush_boundaries(tmp_path, monkeypatch):
    path = write_busy_scenario(tmp_path, vehicles=5, trips_per_vehicle=4)
    default = run_scenario(load_config(path), tmp_path / "out")
    expected = (tmp_path / "out" / "ticks.csv").read_bytes()
    rows_per_tick = expected.count(b"\n0.000,")
    assert rows_per_tick == 5 and default.n_stranded == 0
    for rows in (1, rows_per_tick - 1, rows_per_tick):
        monkeypatch.setattr(metrics, "TICK_BUFFER_ROWS", rows)
        result = run_scenario(load_config(path), tmp_path / f"out_{rows}")
        assert (tmp_path / f"out_{rows}" / "ticks.csv").read_bytes() == expected
        assert (result.manifest["files"]["ticks.csv"]
                == default.manifest["files"]["ticks.csv"])


# --- memoised drive plans and the benchmark's tracer --------------------------

class NeverStores(dict):
    """A plan memo that forgets every plan: each drive is planned afresh."""

    def __setitem__(self, key, value):
        pass


def run_recording_controllers(monkeypatch, path, out_dir, plans=None):
    """Run a scenario; returns the result and its controllers, whose plan
    memo is replaced by ``plans()`` when that is given."""
    controllers = []
    init = FleetController.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if plans is not None:
            self.plans = plans()
        controllers.append(self)

    monkeypatch.setattr(FleetController, "__init__", recording_init)
    return run_scenario(load_config(path), out_dir), controllers


def test_plan_memo_leaves_every_output_byte_equal(tmp_path, monkeypatch):
    path = write_busy_scenario(tmp_path, vehicles=5, trips_per_vehicle=4)
    memo, (memo_ctrl,) = run_recording_controllers(
        monkeypatch, path, tmp_path / "memo")
    fresh, (fresh_ctrl,) = run_recording_controllers(
        monkeypatch, path, tmp_path / "fresh", plans=NeverStores)
    segments = memo.engine_summary.dispatched[EventKind.SEGMENT_COMPLETE]
    assert 0 < len(memo_ctrl.plans) < segments
    assert len(fresh_ctrl.plans) == 0
    assert any(s.station_id == "st1" for s in memo.manager.sessions)  # diverted

    for name in memo.manifest["files"]:
        assert ((tmp_path / "memo" / name).read_bytes()
                == (tmp_path / "fresh" / name).read_bytes()), name
    manifests = [json.loads((tmp_path / run / "manifest.json").read_text())
                 for run in ("memo", "fresh")]
    for manifest in manifests:
        del manifest["wall_clock_s"]
    assert manifests[0] == manifests[1]


def load_bench_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_sees_the_dynamics_calls(tmp_path):
    # the benchmark's per-layer metrics patch these module functions and
    # charging manager methods and read their results; a refactor that calls
    # around them would silently zero the metrics
    tracing = load_bench_tracing()
    tracer = tracing.Tracer("busy_run")
    with tracing.traced(tracer):
        result = run_scenario(load_config(write_busy_scenario(tmp_path)),
                              tmp_path / "out")
    totals = tracer.totals()
    segments = result.engine_summary.dispatched[EventKind.SEGMENT_COMPLETE]
    assert segments > 0
    assert totals["dynamics.drive_segment"][0] >= segments
    assert totals["dynamics.estimate_route_energy"][0] > 0
    assert tracer.counters["dynamics.trace_samples"] > 0
    # request_charge returns Queued and select_station DivertTo on this run
    assert tracer.counters["charging.peak_queue"] >= 1
    assert tracer.counters["charging.diverts"] >= 1
    completes = result.engine_summary.dispatched[EventKind.CHARGE_COMPLETE]
    assert completes > 0
    assert totals["charging.release_slot"][0] == completes


# --- grouped metrics against per-vehicle reference filters -------------------

def reference_state_periods(transitions, vehicle_id, horizon_ms):
    periods = []
    current, start = None, 0
    for t_ms, vid, _, new in transitions:
        if vid != vehicle_id:
            continue
        if current is not None and t_ms > start:
            periods.append((current.value, start / 1000.0, t_ms / 1000.0))
        current, start = new, t_ms
    if current is not None and horizon_ms > start:
        periods.append((current.value, start / 1000.0, horizon_ms / 1000.0))
    return periods


def reference_grid_wh(sessions, vehicle_id):
    return sum(s.energy_wh for s in sessions if s.vehicle_id == vehicle_id)


def test_grouped_metrics_equal_reference_filters(busy_run):
    collector = busy_run.collector
    horizon_ms = collector.run_info["horizon_ms"]
    sessions = collector.sessions
    assert len({s.vehicle_id for s in sessions}) > 1

    expected = []
    for vid in sorted(collector.finals):
        final = collector.finals[vid]
        periods = reference_state_periods(collector.transitions, vid, horizon_ms)
        own = [t for t in collector.transitions if t[1] == vid]
        assert state_periods(own, horizon_ms) == periods
        seconds = dict.fromkeys((s.value for s in Lifecycle), 0.0)
        for state, start, end in periods:
            seconds[state] += end - start
        expected.append(",".join([
            vid, f"{final.consumed_wh:.6f}", f"{final.recuperated_wh:.6f}",
            f"{final.range_extended_wh:.6f}",
            f"{reference_grid_wh(sessions, vid):.6f}",
            f"{final.fuel_liters:.6f}", f"{final.distance_m:.3f}",
            str(final.n_trips), f"{seconds['idle']:.3f}",
            f"{seconds['charging']:.3f}", f"{seconds['queued']:.3f}",
            f"{seconds['en_route'] + seconds['returning']:.3f}",
        ]))
    summary = (busy_run.out_dir / "summary.csv").read_text().splitlines()[1:]
    assert summary == expected

    lhs = rhs = scale = 0.0
    for vid, final in collector.finals.items():
        grid = reference_grid_wh(sessions, vid)
        lhs += grid + final.range_extended_wh + final.recuperated_wh - final.consumed_wh
        rhs += final.capacity_wh * (final.soc_end - final.soc_start)
        scale += final.consumed_wh + grid + final.range_extended_wh + final.recuperated_wh
    assert collector.energy_ledger_error() == abs(lhs - rhs) / scale

    vehicle_ids = {t[1] for t in collector.transitions}
    for bin_s in (300.0, 600.0, 7.0):
        series = collector.unused_vehicles_series(bin_s, horizon_ms)
        starts_ms = range(0, horizon_ms, int(round(bin_s * 1000)))
        assert series.bin_starts_s == [t / 1000.0 for t in starts_ms]
        for i, start_ms in enumerate(starts_ms):
            state = dict.fromkeys(vehicle_ids, "idle")
            for t_ms, vid, _, new in collector.transitions:
                if t_ms <= start_ms:
                    state[vid] = _STATE_GROUP[new]
            for group, counts in series.counts.items():
                assert counts[i] == list(state.values()).count(group)


def test_repeated_route_query_returns_equal_route():
    # the short way (a-b-d) is slow, the long way (a-c-d) fast, so the two
    # weights pick different routes between the same edges
    nodes = {"s": Coord(-100, 0), "a": Coord(0, 0), "b": Coord(100, 0),
             "c": Coord(100, 300), "d": Coord(200, 0), "t": Coord(300, 0)}
    edges = {
        "in": Edge("in", "s", "a", 100.0, 10.0, 0.0),
        "ab": Edge("ab", "a", "b", 100.0, 1.0, 0.0),
        "bd": Edge("bd", "b", "d", 100.0, 1.0, 0.0),
        "ac": Edge("ac", "a", "c", 320.0, 30.0, 0.0),
        "cd": Edge("cd", "c", "d", 320.0, 30.0, 0.0),
        "out": Edge("out", "d", "t", 100.0, 10.0, 0.0),
    }

    def fresh():
        return RoadNetwork(nodes, edges, [1.0] * 12 + [0.5] * 12)

    net = fresh()
    queries = [("in", "out", "travel_time", 3), ("in", "out", "distance", 3),
               ("in", "out", "travel_time", 15)]
    first = [shortest_path(net, *q) for q in queries]
    for query, route in zip(queries, first):
        assert shortest_path(net, *query) == route
        assert shortest_path(fresh(), *query) == route
    assert first[0].edges == ["in", "ac", "cd", "out"]
    assert first[1].edges == ["in", "ab", "bd", "out"]
