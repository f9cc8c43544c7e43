import csv
import math

import numpy as np
import pytest

from evfleetsim import metrics
from evfleetsim.charging import ChargeSession
from evfleetsim.dynamics import Cumulative
from evfleetsim.engine import ms
from evfleetsim.fleet import Lifecycle, Trip
from evfleetsim.metrics import (TICK_HEADER, MetricsCollector, MetricsError,
                                covering_edges, state_periods)
from evfleetsim.network import Route


def rest(vid="v0", soc=0.5, lifecycle=Lifecycle.IDLE):
    return (vid, lifecycle, soc, None)


def moving(vid="v0", soc=0.5, v_mps=10.0, a_mps2=0.0, p_traction_w=5000.0,
           p_battery_w=5300.0, p_recup_w=0.0, p_re_w=0.0):
    return (vid, Lifecycle.EN_ROUTE, soc,
            (v_mps, a_mps2, p_traction_w, p_battery_w, p_recup_w, p_re_w))


def make_trip(tid, airline, driven, status="completed", depart_s=100.0,
              vehicle_id="v0"):
    trip = Trip(tid, ms(depart_s), "e0", airline, 60.0,
                destination_edge="e1",
                outbound=Route(["e0", "e1"], driven, "e0", "e1"),
                return_route=Route(["e1", "e0"], driven, "e1", "e0"),
                status=status)
    trip.vehicle_id = vehicle_id
    return trip


def session(vid="v0", grant_s=0.0, dur_s=3600.0, energy=2300.0,
            enqueue_s=None, station="st", slot="s0"):
    enqueue_s = grant_s if enqueue_s is None else enqueue_s
    return ChargeSession(
        station_id=station, slot_id=slot, vehicle_id=vid,
        enqueue_ms=ms(enqueue_s), grant_ms=ms(grant_s),
        complete_ms=ms(grant_s + dur_s), duration_s=dur_s,
        effective_power_w=energy * 3600.0 / dur_s, energy_wh=energy,
        start_soc=0.5, target_soc=1.0, completed=True,
    )


# --- tick recording -------------------------------------------------------------

def test_one_record_one_row_after_flush(tmp_path):
    collector = MetricsCollector(tmp_path)
    collector.record_ticks(0, [rest()])
    collector._flush_ticks()
    rows = (tmp_path / "ticks.csv").read_text().splitlines()
    assert rows[0] == ",".join(TICK_HEADER)
    assert rows[1] == "0.000,v0,idle,0.0000,0.0000,0.500000000,0.000,0.000,0.000,0.000"
    assert len(rows) == 2


def test_bulk_record_count_matches_exactly(tmp_path, monkeypatch):
    n_ticks, per_tick = 10_000, 100
    monkeypatch.setattr(metrics, "TICK_BUFFER_ROWS", 200_000)
    collector = MetricsCollector(tmp_path)
    samples = [rest(f"v{i}") for i in range(per_tick)]
    for k in range(n_ticks):
        collector.record_ticks(k * 1000, samples)
    manifest = collector.export_all([0.0, 1000.0])
    n = n_ticks * per_tick
    assert manifest["files"]["ticks.csv"] == n
    with open(tmp_path / "ticks.csv") as fh:
        assert sum(1 for _ in fh) == n + 1


def test_non_finite_tick_rejected(tmp_path):
    collector = MetricsCollector(tmp_path)
    with pytest.raises(MetricsError, match="non-finite v_mps=nan in tick for v7"):
        collector.record_ticks(0, [rest("v0"), moving("v7", v_mps=float("nan"))])
    with pytest.raises(MetricsError, match="non-finite p_battery_w=inf in tick for v3"):
        collector.record_ticks(0, [moving("v3", p_battery_w=float("inf"))])


def test_non_finite_rest_sample_rejected(tmp_path):
    collector = MetricsCollector(tmp_path)
    with pytest.raises(MetricsError, match="non-finite soc=nan in tick for v0"):
        collector.record_ticks(0, [rest("v0", soc=float("nan"))])
    # the same vehicle after its row at rest was cached
    collector.record_ticks(0, [rest("v1", soc=0.5)])
    collector.record_ticks(10_000, [rest("v1", soc=0.5)])
    with pytest.raises(MetricsError, match="non-finite soc=nan in tick for v1"):
        collector.record_ticks(20_000, [rest("v1", soc=float("nan"))])


def test_rest_rows_follow_state_and_soc(tmp_path):
    # a reused row must change with the lifecycle and with the sign of zero
    collector = MetricsCollector(tmp_path)
    soc, queued = 0.25, Lifecycle.QUEUED_AT_STATION
    collector.record_ticks(0, [rest("v0", soc)])
    collector.record_ticks(1000, [rest("v0", soc, queued)])
    collector.record_ticks(2000, [rest("v0", 0.0, queued)])
    collector.record_ticks(3000, [rest("v0", -0.0, queued)])
    collector.record_ticks(4000, [rest("v0", 0.0, queued)])
    collector._flush_ticks()
    rows = [line.split(",")[:3] + [line.split(",")[5]] for line in
            (tmp_path / "ticks.csv").read_text().splitlines()[1:]]
    assert rows == [
        ["0.000", "v0", "idle", "0.250000000"],
        ["1.000", "v0", "queued", "0.250000000"],
        ["2.000", "v0", "queued", "0.000000000"],
        ["3.000", "v0", "queued", "-0.000000000"],
        ["4.000", "v0", "queued", "0.000000000"],
    ]


# --- distance histogram -----------------------------------------------------------

def test_covering_edges_extend_by_whole_bins():
    trips = [make_trip("t0", 900.0, 1340.0)]
    base = [0.0, 400.0, 700.0]
    assert covering_edges(base, []) == base
    assert covering_edges(base, trips) == [0.0, 400.0, 700.0, 1000.0, 1300.0,
                                           1600.0]
    # a single point bin has no width to repeat: 250 m steps
    assert covering_edges([0.0, 0.0], trips) == [250.0 * i for i in range(7)]
    assert covering_edges([0.0, 0.0], []) == [0.0, 250.0]


def test_histogram_bin_placement(tmp_path):
    collector = MetricsCollector(tmp_path)
    collector.set_trips([make_trip("t0", 400.0, 520.0)])
    edges, airline, driven = collector.distance_histogram([0.0, 500.0, 1000.0])
    assert airline.tolist() == [1, 0]
    assert driven.tolist() == [0, 1]


def test_histogram_totals_equal_accepted_trips(tmp_path):
    trips = [make_trip(f"t{i}", 100.0 + i * 90.0, 200.0 + i * 95.0)
             for i in range(20)]
    trips.append(Trip("rej", 0, "e0", 500.0, 10.0, status="rejected"))
    collector = MetricsCollector(tmp_path)
    collector.set_trips(trips)
    edges, airline, driven = collector.distance_histogram([0.0, 800.0, 1600.0, 2400.0])
    assert int(airline.sum()) == 20
    assert int(driven.sum()) == 20


def test_driven_dominates_airline_per_trip(tmp_path):
    # oracle: pairwise comparison over the trip log
    rng = np.random.default_rng(4)
    trips = []
    for i in range(200):
        airline = float(rng.uniform(50, 2000))
        trips.append(make_trip(f"t{i}", airline, airline * float(rng.uniform(1.0, 1.8))))
    collector = MetricsCollector(tmp_path)
    collector.set_trips(trips)
    for trip in collector.accepted_trips():
        assert trip.outbound.total_length_m >= trip.sampled_airline_m


# --- utilization -----------------------------------------------------------------

def start_idle(collector, vids, t=0):
    for vid in vids:
        collector.record_transition(t, vid, None, Lifecycle.IDLE)


def test_nobody_dispatched_all_idle(tmp_path):
    collector = MetricsCollector(tmp_path)
    start_idle(collector, ["v0", "v1", "v2"])
    series = collector.unused_vehicles_series(60.0, ms(600.0))
    assert all(c == 3 for c in series.counts["idle"])
    assert series.min_idle == 3


def test_one_vehicle_busy_whole_run(tmp_path):
    collector = MetricsCollector(tmp_path)
    start_idle(collector, ["v0", "v1"])
    collector.record_transition(0, "v0", Lifecycle.IDLE, Lifecycle.EN_ROUTE)
    series = collector.unused_vehicles_series(60.0, ms(600.0))
    assert all(c == 1 for c in series.counts["idle"])
    assert all(c == 1 for c in series.counts["busy"])
    assert series.min_idle == 1


def test_partition_sums_to_fleet_size(tmp_path):
    rng = np.random.default_rng(9)
    collector = MetricsCollector(tmp_path)
    vids = [f"v{i}" for i in range(7)]
    start_idle(collector, vids)
    states = list(Lifecycle)
    t = 0
    for _ in range(300):
        t += int(rng.integers(1, 5000))
        vid = vids[int(rng.integers(0, len(vids)))]
        collector.record_transition(t, vid, None,
                                    states[int(rng.integers(0, len(states)))])
    series = collector.unused_vehicles_series(120.0, t + 1000)
    for i in range(len(series.bin_starts_s)):
        assert sum(series.counts[g][i] for g in series.counts) == 7


# --- power flow summaries (summary.csv) -------------------------------------------

def summary_rows(out_dir):
    return (out_dir / "summary.csv").read_text().splitlines()[1:]


def test_never_moved_vehicle_summary(tmp_path):
    collector = MetricsCollector(tmp_path)
    start_idle(collector, ["v0"])
    collector.set_run_info(horizon_ms=ms(1000.0))
    collector.record_vehicle_final("v0", Cumulative(), 1.0, 1.0, 0, 18000.0)
    collector.export_all([0.0, 1000.0])
    # no energy, no distance, no trips; idle from 0 to 1000 s, nothing else
    wh, s = f"{0.0:.6f}", f"{0.0:.3f}"
    assert summary_rows(tmp_path) == [
        f"v0,{wh},{wh},{wh},{wh},{wh},{0.0:.3f},0,{1000.0:.3f},{s},{s},{s}"]


def test_energy_identity_and_fuel_definition(tmp_path):
    # grid + recup + re - consumed = capacity * dSOC; fuel = rate * re_kwh
    collector = MetricsCollector(tmp_path)
    start_idle(collector, ["v0"])
    cap = 18000.0
    consumed, recup, re, grid = 4000.0, 600.0, 1200.0, 1500.0
    soc0 = 0.9
    soc1 = soc0 + (grid + recup + re - consumed) / cap
    rate = 0.28
    cum = Cumulative(consumed_wh=consumed, recuperated_wh=recup,
                     range_extended_wh=re, fuel_liters=rate * re / 1000.0,
                     distance_m=12000.0)
    collector.record_vehicle_final("v0", cum, soc0, soc1, 3, cap)
    collector.set_sessions([session("v0", grant_s=100.0, dur_s=900.0, energy=grid)])
    collector.set_run_info(horizon_ms=ms(4000.0))
    collector.export_all([0.0, 1000.0])
    row = summary_rows(tmp_path)[0]
    assert row == ",".join(
        ["v0"] + [f"{x:.6f}" for x in (consumed, recup, re, grid, rate * re / 1000.0)]
        + [f"{12000.0:.3f}", "3", f"{4000.0:.3f}"] + [f"{0.0:.3f}"] * 3)
    consumed_x, recup_x, re_x, grid_x, fuel_x = map(float, row.split(",")[1:6])
    lhs = grid_x + recup_x + re_x - consumed_x
    assert lhs == pytest.approx(cap * (soc1 - soc0), rel=1e-9)
    assert fuel_x == pytest.approx(rate * re_x / 1000.0, rel=1e-9, abs=1e-12)
    assert collector.energy_ledger_error() < 1e-9


def test_periods_tile_horizon(tmp_path):
    collector = MetricsCollector(tmp_path)
    start_idle(collector, ["v0"])
    seq = [(100.0, Lifecycle.EN_ROUTE), (200.0, Lifecycle.DWELLING),
           (250.0, Lifecycle.RETURNING), (400.0, Lifecycle.CHARGING),
           (500.0, Lifecycle.IDLE)]
    prev = Lifecycle.IDLE
    for t_s, new in seq:
        collector.record_transition(ms(t_s), "v0", prev, new)
        prev = new
    periods = state_periods(collector.transitions, ms(1000.0))
    assert periods[0] == ("idle", 0.0, 100.0)
    assert periods[-1] == ("idle", 500.0, 1000.0)
    # contiguous tiling, no gaps or overlaps
    for (_, _, end), (_, start, _) in zip(periods, periods[1:]):
        assert end == start
    assert sum(end - start for _, start, end in periods) == pytest.approx(1000.0)


# --- export ------------------------------------------------------------------------

def test_export_manifest_lists_six_files(tmp_path):
    collector = MetricsCollector(tmp_path)
    start_idle(collector, ["v0"])
    collector.record_ticks(0, [rest()])
    collector.set_trips([make_trip("t0", 400.0, 520.0)])
    collector.set_sessions([session()])
    collector.record_vehicle_final("v0", Cumulative(), 1.0, 1.0, 1, 18000.0)
    collector.set_run_info(horizon_ms=ms(600.0), seed=1)
    manifest = collector.export_all([0.0, 250.0])
    assert sorted(manifest["files"]) == [
        "histograms.csv", "sessions.csv", "summary.csv", "ticks.csv",
        "trips.csv", "utilization.csv",
    ]
    assert manifest["files"]["ticks.csv"] == 1
    assert manifest["files"]["trips.csv"] == 1
    for name in manifest["files"]:
        assert (tmp_path / name).exists()
    assert (tmp_path / "manifest.json").exists()


def test_export_empty_scenario_headers_only(tmp_path):
    collector = MetricsCollector(tmp_path)
    collector.set_run_info(horizon_ms=0)
    manifest = collector.export_all([0.0, 1000.0])
    for name in ("ticks.csv", "trips.csv", "sessions.csv", "summary.csv",
                 "histograms.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        data_rows = manifest["files"][name]
        if name in ("ticks.csv", "trips.csv", "sessions.csv", "summary.csv"):
            assert data_rows == 0
        assert len(lines) == 1 + data_rows
        assert "," in lines[0]


def test_summary_csv_schema(tmp_path):
    collector = MetricsCollector(tmp_path)
    start_idle(collector, ["v0"])
    collector.record_vehicle_final("v0", Cumulative(), 1.0, 1.0, 0, 18000.0)
    collector.set_run_info(horizon_ms=ms(100.0))
    collector.export_all([0.0, 1000.0])
    with open(tmp_path / "summary.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["vehicle_id", "consumed_wh", "recuperated_wh",
                      "range_extended_wh", "grid_charged_wh", "fuel_l",
                      "distance_m", "n_trips", "idle_s", "charging_s",
                      "queued_s", "driving_s"]
