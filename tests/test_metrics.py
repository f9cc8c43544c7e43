import csv
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_params, trace_soc
from test_golden import probe_config, run_key
from evfleetsim import metrics
from evfleetsim.charging import ChargeSession, session_progress
from evfleetsim.config import MAX_HORIZON_S
from evfleetsim.dynamics import Cumulative, DriveTrace, VehicleState
from evfleetsim.engine import ms
from evfleetsim.fleet import Lifecycle, Trip, Vehicle
from evfleetsim.metrics import (TICK_HEADER, UTILIZATION_HEADER,
                                MetricsCollector, MetricsError)
from evfleetsim.network import Route
from evfleetsim.simulation import run_scenario


CAPACITY_WH = 18000.0


# the collectors collector_for built in the running test
_collectors = []


@pytest.fixture(autouse=True)
def close_collectors():
    """Close each test's collectors, and so their open ``ticks.csv``."""
    yield
    while _collectors:
        _collectors.pop().close()


def collector_for(out_dir, vehicles=(), trips=(), sessions=()):
    collector = MetricsCollector(out_dir, list(vehicles), list(trips),
                                 list(sessions),
                                 make_params(battery_capacity_wh=CAPACITY_WH))
    _collectors.append(collector)
    return collector


def fleet_of(*vids, soc=1.0):
    return [Vehicle(vid, VehicleState(soc=soc)) for vid in vids]


def transition(collector, t_ms, vehicle, new):
    """Move ``vehicle`` to ``new`` and tell ``collector``, as the fleet
    controller does."""
    vehicle.lifecycle = new
    collector.record_transition(t_ms, vehicle.vehicle_id, new)


def drive(vehicle, soc=0.5, v_mps=10.0, a_mps2=0.0, p_traction_w=5000.0,
          p_battery_w=5300.0, p_recup_w=0.0, p_re_w=0.0, start_ms=0):
    """Give ``vehicle`` a one-sample drive trace starting at ``start_ms``
    that ends at ``soc``, stored as the step loop stores it."""
    vehicle.trace_start_ms = start_ms
    vehicle.trace = DriveTrace((0.0,), *((x,) for x in (
        1.0, v_mps, a_mps2, p_traction_w, p_battery_w, p_recup_w, p_re_w)),
        soc0=-0.0, soc_drop=(soc,), soc_scale=-1.0)


def shared_trace(n=3):
    """A plan's trace of ``n`` one-second samples as vehicles share it: no
    ``soc0``, so each vehicle's SOC starts at its own ``trace_soc0``."""
    steps = [float(k) for k in range(n)]
    return DriveTrace(tuple(steps), (1.0,) * n,
                      tuple(10.0 + k for k in steps), (0.5,) * n,
                      tuple(5000.0 + k for k in steps),
                      tuple(5300.0 + k for k in steps), (0.0,) * n,
                      (0.0,) * n, None,
                      tuple(5300.0 * (k + 1) for k in steps),
                      CAPACITY_WH * 3600.0)


def driving_on(trace, vid, entry_soc, start_ms=0):
    vehicle = Vehicle(vid, VehicleState(soc=entry_soc), Lifecycle.EN_ROUTE)
    vehicle.trace, vehicle.trace_soc0 = trace, entry_soc
    vehicle.trace_start_ms = start_ms
    return vehicle


def driving(vid="v0", **sample):
    vehicle = Vehicle(vid, VehicleState(soc=0.5), Lifecycle.EN_ROUTE)
    drive(vehicle, **sample)
    return vehicle


def make_trip(tid, airline, driven, status="completed", depart_s=100.0,
              vehicle_id="v0"):
    trip = Trip(tid, ms(depart_s), airline, 60.0,
                destination_edge="e1",
                outbound=Route(("e0", "e1"), driven, ()),
                return_route=Route(("e1", "e0"), driven, ()),
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
        start_soc=0.5, target_soc=1.0,
    )


# --- tick recording -------------------------------------------------------------

def tick_rows(out_dir):
    return (out_dir / "ticks.csv").read_text().splitlines()[1:]


def test_one_record_one_row_after_flush(tmp_path):
    collector = collector_for(tmp_path, fleet_of("v0", soc=0.5))
    collector.record_ticks(0)
    collector.close()
    rows = (tmp_path / "ticks.csv").read_text().splitlines()
    assert rows[0] == ",".join(TICK_HEADER)
    assert rows[1] == "0.000,v0,idle,0.0000,0.0000,0.500000000,0.000,0.000,0.000,0.000"
    assert len(rows) == 2


def test_bulk_record_count_matches_exactly(tmp_path):
    n_ticks, per_tick = 10_000, 100
    collector = collector_for(
        tmp_path, fleet_of(*(f"v{i}" for i in range(per_tick)), soc=0.5))
    for k in range(n_ticks):
        collector.record_ticks(k * 1000)
    manifest = collector.export_all({}, 0, [0.0, 1000.0], 300.0)
    n = n_ticks * per_tick
    assert manifest["files"]["ticks.csv"] == n
    with open(tmp_path / "ticks.csv") as fh:
        assert sum(1 for _ in fh) == n + 1


def test_recording_ticks_holds_no_rows_in_memory(tmp_path):
    # 5,000 ticks of 100 vehicles at rest are 500,000 rows (about 33 MB)
    vehicles = fleet_of(*(f"v{i:04d}" for i in range(100)), soc=0.5)
    tracemalloc.start()
    try:
        collector = collector_for(tmp_path, vehicles)
        for k in range(5000):
            collector.record_ticks(k * 10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    collector.close()
    assert peak < 1 << 20
    with open(tmp_path / "ticks.csv") as fh:
        assert sum(1 for _ in fh) == 1 + 500_000


def test_non_finite_tick_rejected(tmp_path):
    collector = collector_for(
        tmp_path, fleet_of("v0") + [driving("v7", v_mps=float("nan"))])
    with pytest.raises(MetricsError, match="non-finite v_mps=nan in tick for v7"):
        collector.record_ticks(0)
    collector = collector_for(tmp_path, [driving("v3", p_battery_w=float("inf"))])
    with pytest.raises(MetricsError, match="non-finite p_battery_w=inf in tick for v3"):
        collector.record_ticks(0)
    (v5,) = vehicles = fleet_of("v5")
    v5.lifecycle, v5.session = Lifecycle.CHARGING, session("v5")
    v5.session.effective_power_w = float("inf")
    collector = collector_for(tmp_path, vehicles)
    with pytest.raises(MetricsError, match="non-finite p_battery_w=-inf in tick for v5"):
        collector.record_ticks(0)


def test_a_non_finite_sample_stores_no_template(tmp_path):
    # the first non-finite value in row order is named: soc before p_battery_w
    (v0,) = vehicles = [driving("v0", soc=float("nan"),
                                p_battery_w=float("inf"))]
    collector = collector_for(tmp_path, vehicles)
    with pytest.raises(MetricsError, match="non-finite soc=nan in tick for v0"):
        collector.record_ticks(0)
    assert v0.trace.row_texts == [None]
    # a stored template's values are finite; a vehicle that enters the
    # shared trace with a non-finite SOC still fails on its soc
    trace = shared_trace()
    vehicles = [driving_on(trace, "v1", 0.5),
                driving_on(trace, "v2", float("inf"))]
    collector = collector_for(tmp_path, vehicles)
    with pytest.raises(MetricsError, match="non-finite soc=inf in tick for v2"):
        collector.record_ticks(0)
    assert trace.row_texts[0] is not None


def test_non_finite_rest_sample_rejected(tmp_path):
    collector = collector_for(tmp_path, fleet_of("v0", soc=float("nan")))
    with pytest.raises(MetricsError, match="non-finite soc=nan in tick for v0"):
        collector.record_ticks(0)
    # the same vehicle after its row at rest was kept from tick to tick
    (v1,) = vehicles = fleet_of("v1", soc=0.5)
    collector = collector_for(tmp_path, vehicles)
    collector.record_ticks(0)
    collector.record_ticks(10_000)
    v1.state.soc = float("nan")
    transition(collector, 15_000, v1, Lifecycle.QUEUED_AT_STATION)
    with pytest.raises(MetricsError, match="non-finite soc=nan in tick for v1"):
        collector.record_ticks(20_000)


def test_rest_rows_follow_state_and_soc(tmp_path):
    # a kept row must change with the lifecycle and with the sign of zero
    (v0,) = vehicles = fleet_of("v0", soc=0.25)
    collector = collector_for(tmp_path, vehicles)
    idle, queued = Lifecycle.IDLE, Lifecycle.QUEUED_AT_STATION
    collector.record_ticks(0)
    transition(collector, 500, v0, queued)
    collector.record_ticks(1000)
    for t_ms, soc in ((2000, 0.0), (3000, -0.0), (4000, 0.0)):
        # out of the queue and back within one millisecond
        v0.state.soc = soc
        transition(collector, t_ms - 1, v0, idle)
        transition(collector, t_ms - 1, v0, queued)
        collector.record_ticks(t_ms)
    collector.record_ticks(5000)
    collector.close()
    rows = [line.split(",")[:3] + [line.split(",")[5]]
            for line in tick_rows(tmp_path)]
    assert rows == [
        ["0.000", "v0", "idle", "0.250000000"],
        ["1.000", "v0", "queued", "0.250000000"],
        ["2.000", "v0", "queued", "0.000000000"],
        ["3.000", "v0", "queued", "-0.000000000"],
        ["4.000", "v0", "queued", "0.000000000"],
        ["5.000", "v0", "queued", "0.000000000"],
    ]


def test_only_vehicles_that_changed_are_formatted_again(tmp_path, monkeypatch):
    formatted = []
    row_tail = metrics._row_tail

    def counting(vehicle, t_ms, *args):
        formatted.append((t_ms, vehicle.vehicle_id))
        return row_tail(vehicle, t_ms, *args)

    monkeypatch.setattr(metrics, "_row_tail", counting)
    v0, v1, v2 = vehicles = fleet_of("v0", "v1", "v2", soc=0.5)
    collector = collector_for(tmp_path, vehicles)
    collector.record_ticks(0)
    transition(collector, 500, v1, Lifecycle.EN_ROUTE)
    drive(v1, start_ms=500)
    collector.record_ticks(1000)
    # still driving, now without a trace sample (as between two segments)
    v1.trace = None
    collector.record_ticks(2000)
    drive(v1, soc=0.4, start_ms=2500)
    collector.record_ticks(3000)
    v1.trace = None
    transition(collector, 3500, v1, Lifecycle.IDLE)
    transition(collector, 3500, v2, Lifecycle.EN_ROUTE)
    v2.lifecycle = Lifecycle.STRANDED
    collector.record_ticks(4000)
    collector.record_ticks(5000)
    # a stranded vehicle is formatted once, at rest, and then left alone
    assert formatted == [(0, "v0"), (0, "v1"), (0, "v2"), (1000, "v1"),
                         (2000, "v1"), (3000, "v1"), (4000, "v1"),
                         (4000, "v2")]
    collector.close()
    rows = [",".join(line.split(",")[:3] + line.split(",")[5:6])
            for line in tick_rows(tmp_path)]
    assert rows == [
        "0.000,v0,idle,0.500000000", "0.000,v1,idle,0.500000000",
        "0.000,v2,idle,0.500000000",
        "1.000,v0,idle,0.500000000", "1.000,v1,en_route,0.500000000",
        "1.000,v2,idle,0.500000000",
        "2.000,v0,idle,0.500000000", "2.000,v1,en_route,0.500000000",
        "2.000,v2,idle,0.500000000",
        "3.000,v0,idle,0.500000000", "3.000,v1,en_route,0.400000000",
        "3.000,v2,idle,0.500000000",
        "4.000,v0,idle,0.500000000", "4.000,v1,idle,0.500000000",
        "4.000,v2,stranded,0.500000000",
        "5.000,v0,idle,0.500000000", "5.000,v1,idle,0.500000000",
        "5.000,v2,stranded,0.500000000",
    ]


def test_vehicles_on_one_shared_trace_share_its_row_template(tmp_path,
                                                            monkeypatch):
    formatted = []
    sample_template = metrics._sample_template

    def counting(vehicle, tr, i, soc):
        formatted.append((vehicle.vehicle_id, i))
        return sample_template(vehicle, tr, i, soc)

    monkeypatch.setattr(metrics, "_sample_template", counting)
    trace = shared_trace()
    vehicles = [driving_on(trace, "v0", 0.5), driving_on(trace, "v1", 0.25)]
    collector = collector_for(tmp_path, vehicles)
    collector.record_ticks(1500)
    template = trace.row_texts[1]
    assert formatted == [("v0", 1)]
    assert trace.row_texts == [None, template, None]
    collector.record_ticks(2500)
    assert formatted == [("v0", 1), ("v0", 2)]
    assert trace.row_texts[1] is template
    collector.close()
    rows = [line.split(",") for line in tick_rows(tmp_path)]
    for t_s, i, (first, second) in ((1.5, 1, rows[:2]), (2.5, 2, rows[2:])):
        assert first[:2] == [f"{t_s:.3f}", "v0"] and second[1] == "v1"
        assert first[2:5] + first[6:] == second[2:5] + second[6:]
        assert first[2:5] == ["en_route", f"{10.0 + i:.4f}", "0.5000"]
        for row, entry_soc in ((first, 0.5), (second, 0.25)):
            soc = entry_soc - trace.soc_drop[i] / trace.soc_scale
            assert row[5] == f"{soc:.9f}"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_percent_format_equals_the_format_spec(x):
    # the SOC slot of a row template and the values around it, as text and
    # as the bytes of ticks.csv, signed zeros included
    assert "%.9f" % x == f"{x:.9f}"
    for spec in (".9f", ".4f", ".3f"):
        assert ("%" + spec).encode() % x == format(x, spec).encode()


@given(st.integers(min_value=0, max_value=ms(MAX_HORIZON_S)))
def test_time_field_bytes_equal_the_format_spec(t_ms):
    assert b"%.3f," % (t_ms / 1000) == f"{t_ms / 1000:.3f},".encode()


@st.composite
def starts_and_offset(draw):
    """Strictly increasing step starts on the millisecond clock, and an
    offset into the trace before the first start, exactly on a start,
    between two starts or after the last one, all in ms."""
    starts = sorted(draw(st.sets(st.integers(0, 100_000), min_size=1,
                                 max_size=20)))
    offset = draw(st.one_of(
        st.integers(-5000, starts[0] - 1),
        st.sampled_from(starts),
        st.integers(starts[0], starts[-1]),
        st.integers(starts[-1] + 1, starts[-1] + 5000)))
    return starts, offset


@given(starts_and_offset())
def test_a_tick_reads_the_sample_that_searchsorted_finds(drawn):
    # the bisect on a trace's step starts, clamped to its first sample,
    # against numpy's sorted search on the same starts
    starts_ms, offset_ms = drawn
    n = len(starts_ms)
    trace = DriveTrace(tuple(t / 1000 for t in starts_ms), (1.0,) * n,
                       tuple(map(float, range(n))),
                       *((0.0,) * n for _ in range(5)),
                       soc0=-0.0, soc_drop=(0.5,) * n, soc_scale=-1.0)
    vehicle = driving_on(trace, "v0", 0.5, start_ms=10_000)
    tail = metrics._row_tail(vehicle, 10_000 + offset_ms,
                             make_params(battery_capacity_wh=CAPACITY_WH), {})
    i = np.searchsorted(trace.time_s, offset_ms / 1000, "right") - 1
    assert float(tail.split(b",")[0]) == min(max(i, 0), n - 1)


def test_charging_rows_follow_each_session(tmp_path):
    # the text around the SOC is formatted once per effective power, and
    # each row still follows the session the vehicle holds at its tick
    (v0,) = vehicles = fleet_of("v0", soc=0.5)
    v0.lifecycle = Lifecycle.CHARGING
    params = make_params(battery_capacity_wh=CAPACITY_WH)
    collector = collector_for(tmp_path, vehicles)
    slow = session(grant_s=0.0, energy=2300.0)
    fast = session(grant_s=2.0, energy=3600.0)
    v0.session = slow
    collector.record_ticks(0)
    collector.record_ticks(1000)
    v0.session = fast
    collector.record_ticks(3000)
    v0.session = slow
    collector.record_ticks(4000)
    collector.close()

    def row(t_s, s, elapsed_s):
        _, soc = session_progress(s, params, elapsed_s)
        inflow = s.effective_power_w * params.charging_efficiency
        return (f"{t_s:.3f},v0,charging,0.0000,0.0000,{soc:.9f},0.000,"
                f"{-inflow:.3f},0.000,0.000")

    assert tick_rows(tmp_path) == [row(0.0, slow, 0.0), row(1.0, slow, 1.0),
                                   row(3.0, fast, 1.0), row(4.0, slow, 4.0)]
    assert row(1.0, slow, 1.0) != row(1.0, fast, 1.0)


def test_charging_sessions_share_one_template_per_power(tmp_path):
    # a charging row's template depends only on the session's power: two
    # sessions at 2,300 W share one, the 3,600 W session gets its own
    vehicles = fleet_of("v0", "v1", "v2", soc=0.5)
    for vehicle, s in zip(vehicles, (session("v0"), session("v1", grant_s=1.0),
                                     session("v2", energy=3600.0))):
        vehicle.lifecycle, vehicle.session = Lifecycle.CHARGING, s
    collector = collector_for(tmp_path, vehicles)
    collector.record_ticks(2000)
    templates = collector._power_texts
    assert list(templates) == [2300.0, 3600.0]
    assert templates[2300.0].split(b",")[4] == b"-2300.000"
    assert templates[3600.0].split(b",")[4] == b"-3600.000"
    collector.close()
    assert [row.split(",")[1] + "," + row.split(",")[7]
            for row in tick_rows(tmp_path)] == [
        "v0,-2300.000", "v1,-2300.000", "v2,-3600.000"]


def test_a_charging_vehicle_without_a_session_fails_the_tick(tmp_path):
    # the fleet hands a vehicle its session as it starts charging; a tick
    # that finds none raises rather than writing a row at rest
    (v0,) = vehicles = fleet_of("v0", soc=0.5)
    v0.lifecycle = Lifecycle.CHARGING
    collector = collector_for(tmp_path, vehicles)
    with pytest.raises(AttributeError):
        collector.record_ticks(0)


def reference_tick_rows(t_ms, vehicles) -> list[list[str]]:
    """The ``ticks.csv`` rows at ``t_ms`` built from scratch: one per
    vehicle, from its shared trace's sample while it drives, else at
    rest."""
    rows = []
    for v in vehicles:
        motion, soc = (0.0,) * 6, v.state.soc
        if v.lifecycle is Lifecycle.EN_ROUTE:
            tr = v.trace
            offset = (t_ms - v.trace_start_ms) / 1000
            i = max(int(np.searchsorted(tr.time_s, offset, side="right")) - 1,
                    0)
            soc = float(trace_soc(tr, v.trace_soc0)[i])
            motion = tuple(float(column[i]) for column in (
                tr.v_mps, tr.a_mps2, tr.p_traction_w, tr.p_battery_w,
                tr.p_recup_w, tr.p_re_w))
        v_mps, a_mps2, *powers = motion
        rows.append([f"{t_ms / 1000:.3f}", v.vehicle_id, v.lifecycle.value,
                     f"{v_mps:.4f}", f"{a_mps2:.4f}", f"{soc:.9f}",
                     *(f"{p:.3f}" for p in powers)])
    return rows


@pytest.mark.parametrize("strandings", [
    {2000: (0, 3, 6)},
    {1000: (0,), 2000: (3,), 3000: (6,)},
    {1000: (6, 0), 2000: (3, 1), 3000: (5,)},
    {1000: (0, 3, 6), 2000: (1, 2, 4, 5)},
], ids=["first-middle-last-in-one-tick", "first-middle-last-in-turn",
        "pairs-then-one", "everyone"])
def test_stranding_rows_equal_rows_rebuilt_from_scratch(tmp_path, monkeypatch,
                                                        strandings):
    # the odd vehicles drive one shared trace, so their rows change at
    # every tick; the first, a middle and the last vehicle are at rest. A
    # stranded vehicle keeps its row, at rest, formatted on the tick it is
    # found stranded on and never again
    formatted = []
    row_tail = metrics._row_tail

    def counting(vehicle, t_ms, *args):
        formatted.append((t_ms, vehicle.vehicle_id))
        return row_tail(vehicle, t_ms, *args)

    monkeypatch.setattr(metrics, "_row_tail", counting)
    trace = shared_trace(6)
    vehicles = fleet_of(*(f"v{i}" for i in range(7)), soc=0.75)
    for i, vehicle in enumerate(vehicles):
        vehicle.state.soc -= i / 64
        if i % 2:
            vehicle.lifecycle = Lifecycle.EN_ROUTE
            vehicle.trace, vehicle.trace_soc0 = trace, vehicle.state.soc
    collector = collector_for(tmp_path, vehicles)
    expected = [TICK_HEADER]
    for t_ms in range(0, 6000, 1000):
        for i in strandings.get(t_ms, ()):
            # the controller ends the route, as on arrival
            vehicles[i].trace = None
            transition(collector, t_ms - 500, vehicles[i], Lifecycle.STRANDED)
        collector.record_ticks(t_ms)
        expected += reference_tick_rows(t_ms, vehicles)
    manifest = collector.export_all({}, 6000, [0.0, 1000.0], 300.0)
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(expected)
    assert ((tmp_path / "ticks.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())
    assert manifest["files"]["ticks.csv"] == len(expected) - 1 == 6 * 7
    for t_ms, stranded in strandings.items():
        for i in stranded:
            assert max(t for t, vid in formatted if vid == f"v{i}") == t_ms
    # the kept rows are the last tick's, after its time field
    assert collector._rows == [b""] + [
        ",".join(row[1:]).encode() + b"\r\n" for row in expected[-7:]]


# --- distance histogram -----------------------------------------------------------

def histogram(collector, base_edges):
    """Export ``collector`` with ``base_edges`` and read its
    ``histograms.csv``: the edges as written and the airline and driven
    counts per bin."""
    collector.export_all({}, ms(600.0), base_edges, 300.0)
    with open(collector.out_dir / "histograms.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    edges = [row[0] for row in rows] + [row[1] for row in rows[-1:]]
    return (edges, [int(row[2]) for row in rows],
            [int(row[3]) for row in rows])


def covering(base_edges, distances):
    """Oracle of the exported edges: the distinct ``base_edges``, extended
    by whole last-bin widths (250 m without one) until they cover
    ``distances``."""
    edges = sorted(set(base_edges))
    width = edges[-1] - edges[-2] if len(edges) > 1 else 250.0
    while len(edges) < 2 or edges[-1] < max(distances, default=edges[-1]):
        edges.append(edges[-1] + width)
    return edges


@pytest.mark.parametrize("base, trips, expected", [
    ([0.0, 400.0, 700.0], [], [0.0, 400.0, 700.0]),
    ([0.0, 400.0, 700.0], [(900.0, 1340.0)],
     [0.0, 400.0, 700.0, 1000.0, 1300.0, 1600.0]),
    # a single point bin has no width to repeat: 250 m steps
    ([0.0, 0.0], [(900.0, 1340.0)], [250.0 * i for i in range(7)]),
    ([0.0, 0.0], [], [0.0, 250.0]),
])
def test_histogram_edges_extend_by_whole_bins(tmp_path, base, trips,
                                              expected):
    collector = collector_for(tmp_path, trips=[
        make_trip(f"t{i}", *trip) for i, trip in enumerate(trips)])
    edges, _, _ = histogram(collector, base)
    assert edges == [f"{e:.1f}" for e in expected]


def test_histogram_bin_placement(tmp_path):
    collector = collector_for(tmp_path, trips=[make_trip("t0", 400.0, 520.0)])
    _, airline, driven = histogram(collector, [0.0, 500.0, 1000.0])
    assert airline == [1, 0]
    assert driven == [0, 1]


def test_histogram_totals_equal_accepted_trips(tmp_path):
    trips = [make_trip(f"t{i}", 100.0 + i * 90.0, 200.0 + i * 95.0)
             for i in range(20)]
    trips.append(Trip("rej", 0, 500.0, 10.0, status="rejected"))
    collector = collector_for(tmp_path, trips=trips)
    _, airline, driven = histogram(collector, [0.0, 800.0, 1600.0, 2400.0])
    assert sum(airline) == 20
    assert sum(driven) == 20


@st.composite
def histogram_cases(draw):
    """Base edges as the demand profile gives them, ``0.0`` and then the
    bins' upper edges, or the degenerate ``[0, 0]``, and the airline and
    driven distances of accepted trips: anywhere up to three last-bin
    widths past the base, or exactly on an edge, interior, last of the
    base or on one of the extensions. A rejected trip, far beyond every
    edge, must not count."""
    base = draw(st.one_of(st.just([0.0, 0.0]), st.lists(
        st.integers(1, 5000).map(float), min_size=1, max_size=5).map(
            lambda uppers: [0.0] + sorted(uppers))))
    ladder = covering(base, [])
    width = ladder[-1] - ladder[-2]
    for _ in range(3):
        ladder.append(ladder[-1] + width)
    distance = st.one_of(st.floats(0.0, ladder[-1]), st.sampled_from(ladder))
    pairs = draw(st.lists(st.tuples(distance, distance), max_size=30))
    return base, pairs, draw(st.booleans())


@given(case=histogram_cases())
def test_histogram_equals_numpy_over_covering_edges(tmp_path_factory, case):
    base, pairs, rejected = case
    trips = [make_trip(f"t{i}", a, d) for i, (a, d) in enumerate(pairs)]
    if rejected:
        trips.insert(0, Trip("rej", 0, 1e9, 10.0, status="rejected"))
    collector = collector_for(tmp_path_factory.mktemp("hist"), trips=trips)
    edges, airline, driven = histogram(collector, base)
    expected = covering(base, [x for pair in pairs for x in pair])
    assert edges == [f"{e:.1f}" for e in expected]
    for counts, k in ((airline, 0), (driven, 1)):
        assert counts == np.histogram([pair[k] for pair in pairs],
                                      bins=expected)[0].tolist()


def test_trip_pass_collects_distances_per_trip(tmp_path):
    # oracle: pairwise comparison over the trip log
    rng = np.random.default_rng(4)
    trips = []
    for i in range(200):
        airline = float(rng.uniform(50, 2000))
        trips.append(make_trip(f"t{i}", airline, airline * float(rng.uniform(1.0, 1.8))))
    trips.insert(7, Trip("rej", 0, 500.0, 10.0, status="rejected"))
    collector = collector_for(tmp_path, trips=trips)
    collector.export_all({}, ms(600.0), [0.0, 1000.0], 300.0)
    accepted = [t for t in trips if t.status != "rejected"]
    assert collector._airline_m == [t.sampled_airline_m for t in accepted]
    assert collector._driven_m == [t.outbound.total_length_m
                                   for t in accepted]
    assert all(d >= a for a, d in zip(collector._airline_m,
                                      collector._driven_m))


# --- utilization ----------------------------------------------------------------

def walk(collector, bin_ms, horizon_ms):
    """Run ``collector``'s one walk over its transition log: the bin starts
    in ms, the vehicles per group at each start, each vehicle's
    milliseconds per state (by vehicle index) and ``min_idle``."""
    rows = list(collector._walk(bin_ms, horizon_ms))
    counts = {group: [row[k] for row in rows]
              for k, group in enumerate(UTILIZATION_HEADER[1:], 1)}
    return ([row[0] for row in rows], counts, collector._state_ms,
            collector.min_idle)


def test_nobody_dispatched_all_idle(tmp_path):
    collector = collector_for(tmp_path, fleet_of("v0", "v1", "v2"))
    _, counts, _, min_idle = walk(collector, ms(60.0), ms(600.0))
    assert all(c == 3 for c in counts["idle"])
    assert min_idle == 3


def test_one_vehicle_busy_whole_run(tmp_path):
    collector = collector_for(tmp_path, fleet_of("v0", "v1"))
    collector.record_transition(0, "v0", Lifecycle.EN_ROUTE)
    _, counts, _, min_idle = walk(collector, ms(60.0), ms(600.0))
    assert all(c == 1 for c in counts["idle"])
    assert all(c == 1 for c in counts["busy"])
    assert min_idle == 1


def test_min_idle_is_exact_between_bin_starts_and_within_a_millisecond(
        tmp_path):
    v0, v1, v2 = vehicles = fleet_of("v0", "v1", "v2")
    collector = collector_for(tmp_path, vehicles)
    # one idle between the bin starts at 0 and 60 s
    transition(collector, 10_000, v0, Lifecycle.EN_ROUTE)
    transition(collector, 20_000, v1, Lifecycle.EN_ROUTE)
    transition(collector, 30_000, v0, Lifecycle.IDLE)
    transition(collector, 30_000, v1, Lifecycle.IDLE)
    # at 150 s v0 and v1 leave and v2 comes back: the fleet holds one idle,
    # never none
    transition(collector, 100_000, v2, Lifecycle.EN_ROUTE)
    transition(collector, 150_000, v0, Lifecycle.EN_ROUTE)
    transition(collector, 150_000, v1, Lifecycle.EN_ROUTE)
    transition(collector, 150_000, v2, Lifecycle.IDLE)
    transition(collector, 170_000, v0, Lifecycle.IDLE)
    _, counts, _, min_idle = walk(collector, ms(60.0), ms(300.0))
    assert counts["idle"] == [3, 3, 2, 2, 2]
    assert min_idle == 1


@pytest.mark.parametrize("bin_s", [0.0004, 0.0, -60.0])
def test_utilization_bin_under_one_ms_raises(tmp_path, bin_s):
    # 0.0004 s rounds to a 0 ms step, which would give a single bin; the
    # export fails before it writes a file
    collector = collector_for(tmp_path, fleet_of("v0"))
    with pytest.raises(MetricsError, match="at least 1 ms"):
        collector.export_all({}, ms(600.0), [0.0, 1000.0], bin_s)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ticks.csv"]


def test_one_ms_utilization_bins(tmp_path):
    collector = collector_for(tmp_path, fleet_of("v0"))
    starts, _, _, _ = walk(collector, 1, 5)
    assert starts == [0, 1, 2, 3, 4]
    manifest = collector.export_all({}, 5, [0.0, 1000.0], 0.001)
    assert manifest["files"]["utilization.csv"] == 5


@pytest.mark.parametrize("bin_s, horizon_ms, decimals", [
    (0.25, 2000, 3), (0.001, 250, 3), (0.2, 1000, 1), (300.0, ms(900.0), 1)])
def test_utilization_bin_starts_are_exact(tmp_path, bin_s, horizon_ms,
                                          decimals):
    # one decimal when the width is a multiple of 100 ms, else the clock's
    # three: every start parses back to exactly k times the width
    collector = collector_for(tmp_path, fleet_of("v0"))
    collector.export_all({}, horizon_ms, [0.0, 1000.0], bin_s)
    with open(tmp_path / "utilization.csv", newline="") as fh:
        starts = [row[0] for row in list(csv.reader(fh))[1:]]
    assert len(starts) == horizon_ms // ms(bin_s)
    for k, text in enumerate(starts):
        assert len(text.split(".")[1]) == decimals
        assert Fraction(text) == k * Fraction(str(bin_s))


def test_partition_sums_to_fleet_size(tmp_path):
    rng = np.random.default_rng(9)
    vids = [f"v{i}" for i in range(7)]
    collector = collector_for(tmp_path, fleet_of(*vids))
    states = list(Lifecycle)
    t = 0
    for _ in range(300):
        t += int(rng.integers(1, 5000))
        vid = vids[int(rng.integers(0, len(vids)))]
        collector.record_transition(t, vid,
                                    states[int(rng.integers(0, len(states)))])
    starts, counts, _, _ = walk(collector, ms(120.0), t + 1000)
    for i in range(len(starts)):
        assert sum(counts[g][i] for g in counts) == 7


# --- power flow summaries (summary.csv) -------------------------------------------

def summary_rows(out_dir):
    return (out_dir / "summary.csv").read_text().splitlines()[1:]


def test_never_moved_vehicle_summary(tmp_path):
    collector = collector_for(tmp_path, fleet_of("v0"))
    collector.export_all({}, ms(1000.0), [0.0, 1000.0], 300.0)
    # no energy, no distance, no trips; idle from 0 to 1000 s, nothing else
    wh, s = f"{0.0:.6f}", f"{0.0:.3f}"
    assert summary_rows(tmp_path) == [
        f"v0,{wh},{wh},{wh},{wh},{wh},{0.0:.3f},0,{1000.0:.3f},{s},{s},{s}"]


def test_energy_identity_and_fuel_definition(tmp_path):
    # grid + recup + re - consumed = capacity * dSOC; fuel = rate * re_kwh
    cap = CAPACITY_WH
    consumed, recup, re, grid = 4000.0, 600.0, 1200.0, 1500.0
    soc0 = 0.9
    soc1 = soc0 + (grid + recup + re - consumed) / cap
    rate = 0.28
    vehicles = fleet_of("v0", soc=soc0)
    collector = collector_for(
        tmp_path, vehicles,
        sessions=[session("v0", grant_s=100.0, dur_s=900.0, energy=grid)])
    # the run moves the vehicle's state after the collector is built
    v0 = vehicles[0]
    v0.state.soc = soc1
    v0.state.cumulative = Cumulative(
        consumed_wh=consumed, recuperated_wh=recup, range_extended_wh=re,
        fuel_liters=rate * re / 1000.0, distance_m=12000.0)
    v0.n_trips = 3
    collector.export_all({}, ms(4000.0), [0.0, 1000.0], 300.0)
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
    collector = collector_for(tmp_path, fleet_of("v0"))
    seq = [(100.0, Lifecycle.EN_ROUTE), (200.0, Lifecycle.DWELLING),
           (250.0, Lifecycle.RETURNING), (400.0, Lifecycle.CHARGING),
           (500.0, Lifecycle.IDLE)]
    for t_s, new in seq:
        collector.record_transition(ms(t_s), "v0", new)
    _, _, state_ms, _ = walk(collector, ms(300.0), ms(1000.0))
    # idle from 0 to 100 s and from 500 s to the horizon; a gap or an
    # overlap between periods would change a total
    assert {state.value: total[0] for state, total in state_ms.items()} == {
        "idle": 100_000 + 500_000, "en_route": 100_000, "dwelling": 50_000,
        "returning": 150_000, "charging": 100_000, "queued": 0,
        "stranded": 0}
    assert sum(total[0] for total in state_ms.values()) == 1_000_000


# --- export ------------------------------------------------------------------------

def test_export_manifest_lists_six_files(tmp_path):
    vehicles = fleet_of("v0")
    vehicles[0].n_trips = 1
    collector = collector_for(tmp_path, vehicles,
                              [make_trip("t0", 400.0, 520.0)], [session()])
    collector.record_ticks(0)
    manifest = collector.export_all({"seed": 1}, ms(600.0), [0.0, 250.0], 300.0)
    assert manifest["seed"] == 1 and manifest["horizon_s"] == 600.0
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
    collector = collector_for(tmp_path)
    manifest = collector.export_all({}, 0, [0.0, 1000.0], 300.0)
    for name in ("ticks.csv", "trips.csv", "sessions.csv", "summary.csv",
                 "histograms.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        data_rows = manifest["files"][name]
        if name in ("ticks.csv", "trips.csv", "sessions.csv", "summary.csv"):
            assert data_rows == 0
        assert len(lines) == 1 + data_rows
        assert "," in lines[0]


def test_summary_csv_schema(tmp_path):
    collector = collector_for(tmp_path, fleet_of("v0"))
    collector.export_all({}, ms(100.0), [0.0, 1000.0], 300.0)
    with open(tmp_path / "summary.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["vehicle_id", "consumed_wh", "recuperated_wh",
                      "range_extended_wh", "grid_charged_wh", "fuel_l",
                      "distance_m", "n_trips", "idle_s", "charging_s",
                      "queued_s", "driving_s"]


def test_summary_rows_in_vehicle_order(tmp_path):
    # the order of ticks.csv, not of the ids: v10 sorts before v2
    collector = collector_for(tmp_path, fleet_of("v2", "v10", "v1"))
    collector.record_ticks(0)
    collector.export_all({}, ms(100.0), [0.0, 1000.0], 300.0)
    assert [row.split(",")[0] for row in summary_rows(tmp_path)] == [
        row.split(",")[1] for row in tick_rows(tmp_path)] == ["v2", "v10", "v1"]


class CountingList(list):
    """A list that counts how often it is iterated."""

    def __init__(self, items):
        super().__init__(items)
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_export_walks_each_record_once(tmp_path, monkeypatch):
    records = ("trips", "sessions", "vehicles", "transitions")
    passes = {}
    export_all = MetricsCollector.export_all

    def counted_export(collector, *args, **kwargs):
        for name in records:
            setattr(collector, name, CountingList(getattr(collector, name)))
        manifest = export_all(collector, *args, **kwargs)
        passes.update((name, getattr(collector, name).passes)
                      for name in records)
        return manifest

    monkeypatch.setattr(MetricsCollector, "export_all", counted_export)
    result = run_scenario(probe_config(run_key("charging_divert", 42)),
                          tmp_path)
    assert result.trips and result.manager.sessions and result.n_delayed
    assert passes == dict.fromkeys(records, 1)
