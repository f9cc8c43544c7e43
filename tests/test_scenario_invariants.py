"""Cross-module invariants checked on whole scenario runs."""

import csv
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict, deque
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (make_params, sum_in_order, trace_soc,
                      vehicle_ledger_errors)
from test_config_cli import write_scenario
from test_golden import SEEDS, probe_config, run_key
from test_metrics import shared_trace, walk

from evfleetsim import dynamics, metrics
from evfleetsim.charging import ChargingManager, Queued, session_progress
from evfleetsim.config import default_scenario_path, load_config
from evfleetsim.engine import (Engine, EventKind, ModelError,
                               SimulationAborted, ms)
from evfleetsim.fleet import FleetController, Lifecycle, Vehicle
from evfleetsim.metrics import TICK_HEADER, MetricsCollector
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
    # the oracle's periods tile [0, horizon], and the walk's milliseconds of
    # each vehicle add up to the horizon (test_grouped_metrics_equal_reference_filters
    # checks them against the oracle's sums)
    result = busy_run
    horizon_ms = ms(result.manifest["horizon_s"])
    _, _, state_ms, _ = walk(result.collector, ms(600.0), horizon_ms)
    for i, v in enumerate(result.vehicles):
        periods = reference_state_periods(result.collector.transitions,
                                          v.vehicle_id, horizon_ms)
        assert periods[0][1] == 0
        assert periods[-1][2] == horizon_ms
        for (_, _, end), (_, start, _) in zip(periods, periods[1:]):
            assert end == start
        assert sum(total[i] for total in state_ms.values()) == horizon_ms


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
    horizon_ms = ms(result.manifest["horizon_s"])
    starts, counts, _, _ = walk(result.collector, ms(600.0), horizon_ms)
    for i in range(len(starts)):
        assert sum(counts[g][i] for g in counts) == 3


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


@pytest.mark.parametrize("vehicles,trips_per_vehicle", [(3, 3), (5, 4)],
                         ids=["busy_run", "divert_5x4"])
def test_energy_ledger_closes_per_vehicle(tmp_path, vehicles,
                                          trips_per_vehicle):
    config = load_config(write_busy_scenario(
        tmp_path, vehicles=vehicles, trips_per_vehicle=trips_per_vehicle))
    result = run_scenario(config, tmp_path / "out")
    errors = vehicle_ledger_errors(result, config)
    assert len(errors) == vehicles
    assert max(errors.values()) < 1e-6
    assert len({s.vehicle_id for s in result.manager.sessions}) > 1


def test_each_charge_complete_is_scheduled_with_its_grant(tmp_path):
    # the fleet schedules a session's SlotGranted and then its
    # ChargeComplete, back to back: consecutive sequence numbers, one payload
    result = run_scenario(load_config(write_busy_scenario(tmp_path)),
                          tmp_path / "out", event_log=True)
    with open(tmp_path / "out" / "events.csv", newline="") as fh:
        rows = {int(row["sequence"]): row for row in csv.DictReader(fh)}
    completes = [row for row in rows.values() if row["kind"] == "ChargeComplete"]
    assert len(completes) == sum(not s.truncated for s in result.manager.sessions)
    assert completes
    for row in completes:
        granted = rows[int(row["sequence"]) - 1]
        assert granted["kind"] == "SlotGranted"
        assert granted["payload"] == row["payload"]


def assert_relays_settled(vehicles, params):
    """At rest, and between two legs, no vehicle holds the range
    extender's relay on at an SOC at or above ``soc_off``: a drive or a
    charge that leaves the SOC there switches the relay off."""
    re = params.range_extender
    if re is not None:
        assert not any(v.state.range_extender_on and v.state.soc >= re.soc_off
                       for v in vehicles)


def run_checking_consistency(monkeypatch, config, out_dir, check=None):
    """Run a scenario and, after every dispatched event, call
    ChargingManager.assert_consistent, check that the fleet controller's
    idle heap holds exactly the idle vehicles and that no vehicle holds
    the range extender's relay on at or above ``soc_off`` (also after the
    horizon cuts the sessions), and call ``check(manager)`` if given;
    returns the result and the kinds checked."""
    managers, controllers, checked = [], [], []
    init, fleet_init, on = (ChargingManager.__init__,
                            FleetController.__init__, Engine.on)

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        managers.append(self)

    def recording_fleet_init(self, *args, **kwargs):
        fleet_init(self, *args, **kwargs)
        controllers.append(self)

    def checking_on(self, kind, handler):
        def checked_handler(event):
            handler(event)
            for manager in managers:
                manager.assert_consistent()
                if check is not None:
                    check(manager)
            for controller in controllers:
                assert sorted(controller._idle_heap) == sorted(
                    (-v.state.soc, i)
                    for i, v in enumerate(controller.vehicles.values())
                    if v.lifecycle is Lifecycle.IDLE)
                assert_relays_settled(controller.vehicles.values(),
                                      controller.model.params)
            checked.append(event.kind)
        on(self, kind, checked_handler)

    monkeypatch.setattr(ChargingManager, "__init__", recording_init)
    monkeypatch.setattr(FleetController, "__init__", recording_fleet_init)
    monkeypatch.setattr(Engine, "on", checking_on)
    result = run_scenario(config, out_dir)
    assert_relays_settled(result.vehicles, config.vehicle_params)
    assert managers == [result.manager]
    assert len(controllers) == 1
    assert len(checked) == result.engine_summary.total_dispatched
    return result, set(checked)


@pytest.mark.parametrize("vehicles,trips_per_vehicle", [(3, 3), (5, 4)],
                         ids=["busy_run", "divert_5x4"])
def test_charging_manager_consistent_after_every_event(
        tmp_path, monkeypatch, vehicles, trips_per_vehicle):
    path = write_busy_scenario(tmp_path, vehicles=vehicles,
                               trips_per_vehicle=trips_per_vehicle)
    result, kinds = run_checking_consistency(monkeypatch, load_config(path),
                                             tmp_path / "out")
    assert {EventKind.CHARGE_REQUEST, EventKind.SLOT_GRANTED,
            EventKind.CHARGE_COMPLETE} <= kinds
    assert any(s.station_id == "st1" for s in result.manager.sessions)  # diverted


@pytest.mark.parametrize("vehicles,trips_per_vehicle", [(3, 3), (5, 4)],
                         ids=["busy_run", "divert_5x4"])
def test_a_queued_vehicle_leaves_only_by_a_grant_from_the_head(
        tmp_path, monkeypatch, vehicles, trips_per_vehicle):
    # model queues: a request answered with Queued appends its vehicle, a
    # slot release that hands the slot on pops the head; after every event
    # the manager's queues must equal the model's
    model: dict[str, deque] = defaultdict(deque)
    counts = {"queued": 0, "granted": 0}
    request, release = ChargingManager.request_charge, ChargingManager.release_slot

    def recording_request(self, vehicle, station_id, at_ms):
        result = request(self, vehicle, station_id, at_ms)
        if isinstance(result, Queued):
            model[station_id].append(vehicle.vehicle_id)
            assert result.position == len(model[station_id])
            counts["queued"] += 1
        return result

    def recording_release(self, station_id, slot_id, at_ms):
        handoff = release(self, station_id, slot_id, at_ms)
        if handoff is not None:
            assert handoff.vehicle_id == model[station_id].popleft()
            counts["granted"] += 1
        return handoff

    def queues_equal_the_model(manager):
        for sid, queue in manager.queues.items():
            assert [e.vehicle.vehicle_id for e in queue] == list(model[sid])

    monkeypatch.setattr(ChargingManager, "request_charge", recording_request)
    monkeypatch.setattr(ChargingManager, "release_slot", recording_release)
    path = write_busy_scenario(tmp_path, vehicles=vehicles,
                               trips_per_vehicle=trips_per_vehicle)
    result, _ = run_checking_consistency(monkeypatch, load_config(path),
                                         tmp_path / "out",
                                         queues_equal_the_model)
    queues_equal_the_model(result.manager)
    waiting = {vid for queue in model.values() for vid in queue}
    assert counts["queued"] == counts["granted"] + len(waiting)
    for v in result.vehicles:
        assert (v.lifecycle is Lifecycle.QUEUED_AT_STATION) is (
            v.vehicle_id in waiting)
    # on the 3x3 run the one vehicle that finds a station full diverts, so
    # nothing queues; 5x4 queues and grants from the queues
    assert (counts["granted"] > 0) is (vehicles == 5)


@pytest.mark.parametrize("seed", SEEDS)
def test_idle_heap_holds_the_idle_vehicles_while_vehicles_strand(
        tmp_path, monkeypatch, seed):
    # the golden stranding probe: a vehicle strands, or charges at the
    # depot and goes idle again, between dispatches
    config = probe_config(run_key("bundled_day-stranding", seed))
    result, kinds = run_checking_consistency(monkeypatch, config,
                                             tmp_path / "out")
    assert result.n_stranded > 0
    assert {EventKind.STRANDED, EventKind.CHARGE_COMPLETE} <= kinds


@pytest.mark.parametrize("probe", ["charging_divert-re1000wh-s1003",
                                   "charging_divert-re2000wh-s1003"])
def test_no_vehicle_holds_its_relay_on_at_or_above_soc_off(
        tmp_path, monkeypatch, probe):
    # golden range-extender probes whose vehicles end drives and charges
    # above soc_off with the relay on: they arrive at stations, queue,
    # charge and idle so, unless the relay is switched off there
    result, kinds = run_checking_consistency(monkeypatch, probe_config(probe),
                                             tmp_path / "out")
    assert result.total_fuel_l > 0.0
    assert {EventKind.CHARGE_COMPLETE, EventKind.SLOT_GRANTED} <= kinds


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


def test_every_drive_with_the_relay_on_takes_the_step_loop(tmp_path,
                                                           monkeypatch):
    # 1 kWh batteries starting at 30 % with no dispatch reserve: the range
    # extender switches on during the first trips and is still on when some
    # edges start; each such drive returns a trace of its own, never the
    # plan's
    path = write_scenario(
        tmp_path, horizon_s=24 * 3600.0,
        fleet={"size": 5, "initial_soc": 0.3,
               "vehicle": {"preset": "compact_ev",
                           "overrides": {"battery_capacity_wh": 1000.0}}},
        policies={"depot_charge_threshold": 1.0,
                  "dispatch_reserve_soc": 0.0},
        demand={"trips_per_vehicle_per_day": {"family": "fixed", "n": 4}},
    )
    relay_on = []
    drive_segment = dynamics.drive_segment

    def recording(state, edge, v_entry, v_exit, speed_factor, model):
        on = state.range_extender_on
        result = drive_segment(state, edge, v_entry, v_exit, speed_factor,
                               model)
        if on:
            relay_on.append(result)
        return result

    monkeypatch.setattr(dynamics, "drive_segment", recording)
    result = run_scenario(load_config(path), tmp_path / "out")
    assert len(relay_on) > 1
    for drive in relay_on:
        soc0 = drive.trace.soc0
        assert soc0 == -0.0 and np.signbit(soc0)
        assert drive.trace.soc_scale == -1.0
    assert result.total_fuel_l > 0.0
    assert result.collector.energy_ledger_error() < 1e-6


# --- ticks.csv against an every-vehicle reference sampler ------------------------

class ReferenceSampler:
    """Samples every vehicle on every ``MetricsTick`` from its trace, its
    charging session or its state at rest, and writes the rows with
    :mod:`csv`; the collector's own rows must equal them."""

    def __init__(self, monkeypatch):
        self.ticks = []  # (t_ms, [(vehicle_id, lifecycle, soc, motion)])
        record_ticks = MetricsCollector.record_ticks

        def sample_then_record(collector, t_ms):
            self.ticks.append((t_ms, [
                self.sample(v, collector.params, t_ms)
                for v in collector.vehicles]))
            record_ticks(collector, t_ms)

        monkeypatch.setattr(MetricsCollector, "record_ticks",
                            sample_then_record)

    @staticmethod
    def sample(v, params, now):
        tr = v.trace
        if tr is not None and len(tr) > 0:
            offset = (now - v.trace_start_ms) / 1000
            i = int(np.searchsorted(tr.time_s, offset, side="right")) - 1
            i = min(max(i, 0), len(tr) - 1)
            soc = float(trace_soc(tr, v.trace_soc0)[i])
            return (v.vehicle_id, v.lifecycle, soc, (
                float(tr.v_mps[i]), float(tr.a_mps2[i]),
                float(tr.p_traction_w[i]), float(tr.p_battery_w[i]),
                float(tr.p_recup_w[i]), float(tr.p_re_w[i])))
        if v.lifecycle is Lifecycle.CHARGING and v.session is not None:
            s = v.session
            elapsed = max(0.0, (now - s.grant_ms) / 1000)
            _, soc = session_progress(s, params, elapsed)
            inflow = s.effective_power_w * params.charging_efficiency
            return (v.vehicle_id, v.lifecycle, soc,
                    (0.0, 0.0, 0.0, -inflow, 0.0, 0.0))
        return (v.vehicle_id, v.lifecycle, v.state.soc, None)

    def kinds(self) -> set:
        """(lifecycle, at rest) of every sample."""
        return {(lifecycle, motion is None)
                for _, samples in self.ticks
                for _, lifecycle, _, motion in samples}

    def write(self, path) -> int:
        """Write the reference ticks.csv; returns its row count."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TICK_HEADER)
            for t_ms, samples in self.ticks:
                for vehicle_id, lifecycle, soc, motion in samples:
                    v, a, p_traction, p_battery, p_recup, p_re = (
                        motion or (0.0,) * 6)
                    writer.writerow([
                        f"{t_ms / 1000:.3f}", vehicle_id, lifecycle.value,
                        f"{v:.4f}", f"{a:.4f}", f"{soc:.9f}",
                        f"{p_traction:.3f}", f"{p_battery:.3f}",
                        f"{p_recup:.3f}", f"{p_re:.3f}",
                    ])
        return sum(len(samples) for _, samples in self.ticks)


def assert_ticks_equal_reference(result, sampler, tmp_path):
    rows = sampler.write(tmp_path / "reference.csv")
    assert ((result.out_dir / "ticks.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())
    assert result.manifest["files"]["ticks.csv"] == rows
    dispatched = result.engine_summary.dispatched[EventKind.METRICS_TICK]
    assert len(sampler.ticks) == dispatched > 0


FINE_TICKS = {"dynamics_dt_s": 1.0, "metrics_interval_s": 5.0,
              "utilization_bin_s": 300.0}


@pytest.mark.parametrize("vehicles, trips, numerics", [
    (5, 4, {}), (3, 3, {"numerics": FINE_TICKS})], ids=["busy", "divert"])
def test_ticks_csv_equals_reference_writer(tmp_path, monkeypatch, vehicles,
                                           trips, numerics):
    path = write_busy_scenario(tmp_path, vehicles=vehicles,
                               trips_per_vehicle=trips, **numerics)
    sampler = ReferenceSampler(monkeypatch)
    result = run_scenario(load_config(path), tmp_path / "out")
    assert {(Lifecycle.EN_ROUTE, False), (Lifecycle.RETURNING, False),
            (Lifecycle.CHARGING, False), (Lifecycle.DWELLING, True),
            (Lifecycle.IDLE, True)} <= sampler.kinds()
    if vehicles == 5:
        assert (Lifecycle.QUEUED_AT_STATION, True) in sampler.kinds()
    assert any(s.station_id == "st1" for s in result.manager.sessions)
    assert_ticks_equal_reference(result, sampler, tmp_path)


def test_ticks_csv_equals_reference_with_a_stranded_vehicle(tmp_path,
                                                            monkeypatch):
    # dispatch that sees every route as free sends 1 kWh batteries without
    # range extender out until they strand
    monkeypatch.setattr(FleetController, "route_energy_wh",
                        lambda self, route, factor: 0.0)
    path = write_busy_scenario(tmp_path, numerics=FINE_TICKS)
    raw = yaml.safe_load(path.read_text())
    raw["fleet"].update(initial_soc=0.15, vehicle={
        "preset": "compact_ev", "overrides": {
            "battery_capacity_wh": 1000.0, "range_extender": None}})
    path.write_text(yaml.safe_dump(raw))
    sampler = ReferenceSampler(monkeypatch)
    result = run_scenario(load_config(path), tmp_path / "out")
    assert 0 < result.n_stranded < 3
    assert (Lifecycle.STRANDED, True) in sampler.kinds()
    assert_ticks_equal_reference(result, sampler, tmp_path)
    # a stranded vehicle keeps its row, at rest
    assert len(sampler.ticks[-1][1]) == 3
    assert [lifecycle for _, lifecycle, _, _ in sampler.ticks[-1][1]].count(
        Lifecycle.STRANDED) == result.n_stranded


def test_strandings_keep_every_row_in_vehicle_order(tmp_path, monkeypatch):
    # the middle vehicle strands, then the first and the last in one tick;
    # two of the others drive one shared trace, so their rows change
    trace = shared_trace(6)
    vehicles = [Vehicle(f"v{i}", dynamics.VehicleState(soc=0.5 + i / 16))
                for i in range(5)]
    sampler = ReferenceSampler(monkeypatch)
    collector = MetricsCollector(tmp_path / "out", vehicles, [], [],
                                 make_params())

    def move(t_ms, vehicle, new):
        vehicle.lifecycle = new
        collector.record_transition(t_ms, vehicle.vehicle_id, new)

    for vehicle in vehicles[1::2]:
        move(0, vehicle, Lifecycle.EN_ROUTE)
        vehicle.trace, vehicle.trace_soc0 = trace, vehicle.state.soc
    for t_ms, stranded in ((0, ()), (1000, ()), (2000, (2,)), (3000, ()),
                           (4000, (0, 4)), (5000, ())):
        for i in stranded:
            move(t_ms - 500, vehicles[i], Lifecycle.STRANDED)
        collector.record_ticks(t_ms)
    collector.close()
    rows = sampler.write(tmp_path / "reference.csv")
    assert ((tmp_path / "out" / "ticks.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())
    assert [len(samples) for _, samples in sampler.ticks] == [5] * 6
    assert rows == 30
    assert [(vid, lifecycle.value) for vid, lifecycle, *_
            in sampler.ticks[-1][1]] == [
        ("v0", "stranded"), ("v1", "en_route"), ("v2", "stranded"),
        ("v3", "en_route"), ("v4", "stranded")]


def test_ticks_csv_equals_reference_across_an_empty_trace(tmp_path,
                                                          monkeypatch):
    # a segment without trace samples (as on an edge that vanishes within
    # one millisecond) leaves its vehicle driving: the ticks during the
    # depot edge show it at rest, the later ones its next segment's trace
    drive_segment = dynamics.drive_segment

    def no_samples_on_the_depot_edge(state, edge, *args):
        result = drive_segment(state, edge, *args)
        if edge.edge_id == "e00000":
            result = replace(result, trace=dynamics.DriveTrace(
                *(() for f in fields(dynamics.DriveTrace) if f.init)))
        return result

    monkeypatch.setattr(dynamics, "drive_segment",
                        no_samples_on_the_depot_edge)
    path = write_busy_scenario(tmp_path, numerics=FINE_TICKS)
    sampler = ReferenceSampler(monkeypatch)
    result = run_scenario(load_config(path), tmp_path / "out")
    assert {(Lifecycle.EN_ROUTE, True), (Lifecycle.EN_ROUTE, False),
            (Lifecycle.RETURNING, True)} <= sampler.kinds()
    assert_ticks_equal_reference(result, sampler, tmp_path)


def test_ticks_csv_independent_of_flush_boundaries(tmp_path, monkeypatch):
    # write buffers below one row, about one tick and the production size
    path = write_busy_scenario(tmp_path, vehicles=5, trips_per_vehicle=4)
    default = run_scenario(load_config(path), tmp_path / "out")
    expected = (tmp_path / "out" / "ticks.csv").read_bytes()
    lines = expected.splitlines(keepends=True)
    first_tick = [line for line in lines if line.startswith(b"0.000,")]
    assert len(first_tick) == 5 and default.n_stranded == 0
    tick_bytes = sum(map(len, first_tick))
    assert 16 < min(map(len, lines))
    for size in (16, tick_bytes - 1, tick_bytes):
        monkeypatch.setattr(metrics, "TICK_WRITE_BUFFER_BYTES", size)
        result = run_scenario(load_config(path), tmp_path / f"out_{size}")
        assert (tmp_path / f"out_{size}" / "ticks.csv").read_bytes() == expected
        assert (result.manifest["files"]["ticks.csv"]
                == default.manifest["files"]["ticks.csv"])


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts open files in /proc/self/fd")
def test_an_aborted_run_closes_ticks_csv_with_whole_rows(tmp_path,
                                                         monkeypatch):
    def fail(self, event):
        raise ModelError("dwell without a plan")

    path = write_busy_scenario(tmp_path, numerics=FINE_TICKS)
    monkeypatch.setattr(FleetController, "on_dwell_complete", fail)
    before = open_fds()
    with pytest.raises(SimulationAborted, match="DwellComplete") as err:
        run_scenario(load_config(path), tmp_path / "out")
    assert open_fds() == before
    assert err.value.event.at > 0
    text = (tmp_path / "out" / "ticks.csv").read_bytes().decode()
    header, *rows = text.split("\r\n")
    assert header == ",".join(TICK_HEADER)
    assert rows.pop() == ""  # the file ends with a whole row
    assert len(rows) % 3 == 0 and len(rows) > 3
    assert all(len(row.split(",")) == len(TICK_HEADER) for row in rows)
    # every tick before the failing event, and no later one
    interval_ms = ms(FINE_TICKS["metrics_interval_s"])
    last_t_ms = ms(float(rows[-1].split(",")[0]))
    assert 0 <= err.value.event.at - last_t_ms <= interval_ms
    assert len(rows) == 3 * (last_t_ms // interval_ms + 1)


# --- memoised drive plans and the benchmark's tracer --------------------------

class NeverStores(dict):
    """A memo that forgets every entry: each value is computed afresh."""

    def __setitem__(self, key, value):
        pass


# every memo of a run, by owner; the fresh run swaps each for a NeverStores
MEMOS = {"controller": ("_route_energy", "_divert"),
         "model": ("plans",),
         "network": ("_routes", "_paths", "_search", "_arc_tables")}
# the owners' dicts that are not memos: run state, the fleet index, the road
# graph and its node numbering
NOT_MEMOS = {"controller": {"vehicles", "trips", "_index"},
             "model": set(),
             "network": {"nodes", "edges", "_node_number"}}


def memo_owners(ctrl):
    return {"controller": ctrl, "model": ctrl.model, "network": ctrl.net}


def memo_sizes(ctrl):
    """The entry count of each memo, by ``owner.name``."""
    owners = memo_owners(ctrl)
    return {f"{owner}.{name}": len(getattr(owners[owner], name))
            for owner, names in MEMOS.items() for name in names}


def run_recording_controllers(monkeypatch, path, out_dir, memo=None):
    """Run a scenario; returns the result and its controllers. As each
    controller is built, every dict of the controller, its drive model and
    its network must be a memo or named in ``NOT_MEMOS``, so a new memo
    cannot escape the comparison; when ``memo`` is given, each memo is
    replaced by ``memo()``."""
    controllers = []
    init = FleetController.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for owner, obj in memo_owners(self).items():
            dicts = {name for name, value in vars(obj).items()
                     if isinstance(value, dict)}
            assert dicts == set(MEMOS[owner]) | NOT_MEMOS[owner], owner
            if memo is not None:
                for name in MEMOS[owner]:
                    setattr(obj, name, memo())
        controllers.append(self)

    monkeypatch.setattr(FleetController, "__init__", recording_init)
    return run_scenario(load_config(path), out_dir), controllers


def test_plan_memo_leaves_every_output_byte_equal(tmp_path, monkeypatch):
    path = write_busy_scenario(tmp_path, vehicles=5, trips_per_vehicle=4)
    memo, (memo_ctrl,) = run_recording_controllers(
        monkeypatch, path, tmp_path / "memo")
    fresh, (fresh_ctrl,) = run_recording_controllers(
        monkeypatch, path, tmp_path / "fresh", memo=NeverStores)
    segments = memo.engine_summary.dispatched[EventKind.SEGMENT_COMPLETE]
    assert 0 < len(memo_ctrl.model.plans) < segments
    sizes = memo_sizes(memo_ctrl)
    assert all(size > 0 for size in sizes.values()), sizes
    assert set(memo_sizes(fresh_ctrl).values()) == {0}
    assert any(s.station_id == "st1" for s in memo.manager.sessions)  # diverted

    for name in memo.manifest["files"]:
        assert ((tmp_path / "memo" / name).read_bytes()
                == (tmp_path / "fresh" / name).read_bytes()), name
    manifests = [json.loads((tmp_path / run / "manifest.json").read_text())
                 for run in ("memo", "fresh")]
    for manifest in manifests:
        del manifest["wall_clock_s"]
    assert manifests[0] == manifests[1]


def test_every_plan_of_the_bundled_run_rounds_its_duration_once(
        tmp_path, monkeypatch):
    # a plan's shared result carries its duration on the millisecond clock,
    # rounded as the clock rounds every time it schedules
    _, (ctrl,) = run_recording_controllers(
        monkeypatch, default_scenario_path(), tmp_path / "out")
    plans = list(ctrl.model.plans.values())
    assert plans
    for plan in plans:
        assert plan.result.duration_ms == ms(plan.profile.duration)


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # the event kinds and lifecycle states hash by identity and strings by
    # PYTHONHASHSEED; no output may depend on either, so two processes with
    # different hash seeds must write the same files, events.csv included
    # (manifest.json differs only in its wall_clock_s)
    path = write_busy_scenario(tmp_path)
    src = Path(dynamics.__file__).resolve().parents[1]
    for seed in "01":
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-m", "evfleetsim.cli", "run",
                        str(path), "--out", str(tmp_path / seed),
                        "--event-log"], env=env, check=True,
                       capture_output=True)
    names = sorted(p.name for p in (tmp_path / "0").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "1").iterdir())
    assert "events.csv" in names and "ticks.csv" in names
    for name in names:
        first, second = ((tmp_path / seed / name).read_bytes()
                         for seed in "01")
        if name == "manifest.json":
            first, second = (json.loads(m) for m in (first, second))
            assert first.pop("wall_clock_s") >= 0.0
            second.pop("wall_clock_s")
        assert first == second, name


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
        result = run_scenario(load_config(write_busy_scenario(
            tmp_path, vehicles=5, trips_per_vehicle=4)), tmp_path / "out")
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
    # the tick handler is the collector's; its span keeps the layer's name
    ticks = result.engine_summary.dispatched[EventKind.METRICS_TICK]
    assert ticks > 0
    assert totals["simulation.tick_sample"][0] == ticks
    assert totals["metrics.record_ticks"][0] == ticks
    assert (totals["metrics.record_transition"][0]
            == len(result.collector.transitions) - len(result.vehicles))
    layers = tracing.layer_metrics(
        tracer, {"trips_dispatched": 1,
                 "tick_rows": result.manifest["files"]["ticks.csv"]}, 1.0)
    assert layers["simulation.tick_sample.s"] > 0.0
    assert 0.0 < layers["simulation.tick_sample.self_s"] < (
        layers["simulation.tick_sample.s"])
    assert layers["metrics.self_s"] > 0.0


def test_bench_tracer_sees_the_schedule_snap_and_routes(tmp_path):
    # the schedule snaps and routes through the module functions the
    # benchmark patches: one nearest_edge call for the day, and the two
    # shortest_path calls of every accepted trip under its span
    tracing = load_bench_tracing()
    tracer = tracing.Tracer("schedule")
    with tracing.traced(tracer):
        result = run_scenario(load_config(write_busy_scenario(
            tmp_path, vehicles=5, trips_per_vehicle=4)), tmp_path / "out")
    accepted = [t for t in result.trips if t.status != "rejected"]
    rejected = len(result.trips) - len(accepted)
    assert len(accepted) == 20
    schedule = "fleet.generate_day_schedule"
    assert tracer.totals()[schedule][0] == 1
    assert tracer.calls_under("network.nearest_edge", schedule) == 1
    assert (tracer.calls_under("network.shortest_path", schedule)
            == 2 * len(accepted) + rejected)


# --- grouped metrics against per-vehicle reference filters -------------------

def reference_state_periods(transitions, vehicle_id, horizon_ms):
    periods = []
    current, start = None, 0
    for t_ms, vid, new in transitions:
        if vid != vehicle_id:
            continue
        if current is not None and t_ms > start:
            periods.append((current.value, start, t_ms))
        current, start = new, t_ms
    if current is not None and horizon_ms > start:
        periods.append((current.value, start, horizon_ms))
    return periods


def reference_state_ms(transitions, vehicle_id, horizon_ms):
    """Each state's whole milliseconds of one vehicle: the oracle's
    periods, added exactly as integers."""
    total = dict.fromkeys((s.value for s in Lifecycle), 0)
    for state, start, end in reference_state_periods(
            transitions, vehicle_id, horizon_ms):
        total[state] += end - start
    return total


def reference_grid_wh(sessions, vehicle_id):
    return sum_in_order(s.energy_wh for s in sessions
                        if s.vehicle_id == vehicle_id)


def states_after(transitions, vehicles, t_ms):
    """The vehicles in each state, by its value, after every transition at
    or before ``t_ms``, by brute force."""
    state = {v.vehicle_id: Lifecycle.IDLE for v in vehicles}
    for at, vid, new in transitions:
        if at <= t_ms:
            state[vid] = new
    counts = Counter(new.value for new in state.values())
    return {new.value: counts[new.value] for new in Lifecycle}


# the utilization.csv group of each state, as the README lists them
GROUP = {"idle": "idle", "en_route": "busy", "dwelling": "busy",
         "returning": "busy", "charging": "charging", "queued": "queued",
         "stranded": "stranded"}


def check_walk(collector, bin_ms, horizon_ms):
    """The walk of ``collector`` against the oracles: each vehicle's
    milliseconds per state against :func:`reference_state_ms`, the counts at
    each bin start against the state of every vehicle there, found by
    brute force, and ``min_idle`` against the idle count at 0 and after
    each distinct timestamp of the log, with the first such timestamp that
    reads it and the vehicles in each other state there."""
    starts, counts, state_ms, min_idle = walk(collector, bin_ms, horizon_ms)
    transitions = collector.transitions
    for i, v in enumerate(collector.vehicles):
        expected = reference_state_ms(transitions, v.vehicle_id, horizon_ms)
        assert {state.value: total[i]
                for state, total in state_ms.items()} == expected
    assert starts == list(range(0, max(horizon_ms, 1), bin_ms))
    for i, start_ms in enumerate(starts):
        state = {v.vehicle_id: "idle" for v in collector.vehicles}
        for t_ms, vid, new in transitions:
            if t_ms <= start_ms:
                state[vid] = GROUP[new.value]
        for group, column in counts.items():
            assert column[i] == list(state.values()).count(group)
    after = [(t_ms, states_after(transitions, collector.vehicles, t_ms))
             for t_ms in sorted({0, *(t_ms for t_ms, _, _ in transitions)})]
    assert min_idle == min(states["idle"] for _, states in after)
    at_ms, states = next((t_ms, states) for t_ms, states in after
                         if states["idle"] == min_idle)
    assert collector.min_idle_at_s == at_ms / 1000
    assert collector.min_idle_states == {
        state: k for state, k in states.items() if state != "idle"}


def test_grouped_metrics_equal_reference_filters(busy_run):
    collector = busy_run.collector
    config = load_config(busy_run.out_dir.parent / "scenario.yaml")
    horizon_ms = ms(config.horizon_s)
    sessions = busy_run.manager.sessions
    assert len({s.vehicle_id for s in sessions}) > 1

    # summary.csv lists the vehicles in vehicle order, as ticks.csv does
    expected = []
    for v in busy_run.vehicles:
        vid, final = v.vehicle_id, v.state.cumulative
        state_ms = reference_state_ms(collector.transitions, vid, horizon_ms)
        expected.append(",".join([
            vid, f"{final.consumed_wh:.6f}", f"{final.recuperated_wh:.6f}",
            f"{final.range_extended_wh:.6f}",
            f"{reference_grid_wh(sessions, vid):.6f}",
            f"{final.fuel_liters:.6f}", f"{final.distance_m:.3f}",
            str(v.n_trips), *(f"{total / 1000:.3f}" for total in (
                state_ms["idle"], state_ms["charging"], state_ms["queued"],
                state_ms["en_route"] + state_ms["returning"])),
        ]))
    summary = (busy_run.out_dir / "summary.csv").read_text().splitlines()[1:]
    assert summary == expected

    lhs = rhs = scale = 0.0
    capacity_wh = config.vehicle_params.battery_capacity_wh
    for v in busy_run.vehicles:
        final = v.state.cumulative
        grid = reference_grid_wh(sessions, v.vehicle_id)
        lhs += grid + final.range_extended_wh + final.recuperated_wh - final.consumed_wh
        rhs += capacity_wh * (v.state.soc - config.initial_soc)
        scale += final.consumed_wh + grid + final.range_extended_wh + final.recuperated_wh
    assert collector.energy_ledger_error() == abs(lhs - rhs) / scale

    for bin_s in (300.0, 600.0, 7.0):
        check_walk(collector, ms(bin_s), horizon_ms)


@st.composite
def transition_logs(draw):
    """A collector's fleet, horizon and bin width, and a transition log in
    time order: bins of 1 ms, bins as wide as the horizon or wider, and
    transitions that fall on bin starts and on the horizon."""
    n = draw(st.integers(1, 4))
    horizon_ms = draw(st.integers(0, 3000))
    bin_ms = draw(st.one_of(st.just(1), st.integers(1, 500),
                            st.integers(max(horizon_ms, 1), 2 * horizon_ms + 2)))
    on_bin = st.integers(0, horizon_ms // bin_ms).map(lambda k: k * bin_ms)
    times = draw(st.lists(st.one_of(st.integers(0, horizon_ms), on_bin,
                                    st.just(horizon_ms)), max_size=30))
    log = [(t_ms, draw(st.integers(0, n - 1)), draw(st.sampled_from(Lifecycle)))
           for t_ms in sorted(times)]
    return n, horizon_ms, bin_ms, log


@settings(max_examples=150, deadline=None)
@given(transition_logs())
def test_walk_equals_the_oracles_on_drawn_logs(drawn):
    n, horizon_ms, bin_ms, log = drawn
    with tempfile.TemporaryDirectory() as out_dir:
        vehicles = [Vehicle(f"v{i}", dynamics.VehicleState(soc=1.0))
                    for i in range(n)]
        collector = MetricsCollector(out_dir, vehicles, [], [], make_params())
        try:
            for t_ms, i, new in log:
                collector.record_transition(t_ms, f"v{i}", new)
            check_walk(collector, bin_ms, horizon_ms)
        finally:
            collector.close()


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
    queries = [("in", "out", "travel_time"), ("in", "out", "distance")]
    first = [shortest_path(net, *q) for q in queries]
    for query, route in zip(queries, first):
        assert shortest_path(net, *query) is route
        assert shortest_path(fresh(), *query) == route
    assert first[0].edges == ("in", "ac", "cd", "out")
    assert first[1].edges == ("in", "ab", "bd", "out")
