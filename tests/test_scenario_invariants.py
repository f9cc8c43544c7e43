"""Cross-module invariants checked on whole scenario runs."""

import copy

import pytest
import yaml

from test_config_cli import BASE_SCENARIO, write_scenario

from evfleetsim.fleet import Lifecycle
from evfleetsim.metrics import _STATE_GROUP, Period, PowerFlowSummary
from evfleetsim.network import Coord, Edge, RoadNetwork, shortest_path
from evfleetsim.simulation import run_scenario_path


@pytest.fixture()
def busy_run(tmp_path):
    # 3 vehicles, all 9 trips departing within one hour, a single 1-slot
    # depot station and a second station one block east: enough contention
    # for queueing and diversions
    path = write_scenario(
        tmp_path,
        fleet={"size": 3},
        stations=[
            {"station_id": "st0", "edge_id": "e00000", "max_simultaneous": 1,
             "slots": [{"plug": "schuko"}]},
            {"station_id": "st1", "edge_id": "e00004", "max_simultaneous": 1,
             "slots": [{"plug": "schuko"}]},
        ],
        demand={
            "departure_weights": [0.0] * 6 + [1.0] + [0.0] * 17,
            "trips_per_vehicle_per_day": {"family": "fixed", "n": 3},
        },
        horizon_s=12 * 3600.0,
    )
    return run_scenario_path(path, tmp_path / "out")


def test_periods_tile_horizon_for_every_vehicle(busy_run):
    result = busy_run
    horizon_ms = result.collector.run_info["horizon_ms"]
    for v in result.vehicles:
        periods = result.collector.state_periods(v.vehicle_id, horizon_ms)
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
    result = run_scenario_path(path, tmp_path / "out")
    assert result.n_stranded == 0
    assert len(result.manager.sessions) == 0
    for v in result.vehicles:
        assert v.state.soc > 0.9999


def test_global_energy_ledger_balances(busy_run):
    assert busy_run.collector.energy_ledger_error() < 1e-6


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

    for vid, final in collector.finals.items():
        periods = reference_state_periods(collector.transitions, vid, horizon_ms)
        assert collector.state_periods(vid, horizon_ms) == periods
        assert collector.power_flow_summary(vid) == PowerFlowSummary(
            vehicle_id=vid,
            consumed_wh=final.consumed_wh,
            recuperated_wh=final.recuperated_wh,
            range_extended_wh=final.range_extended_wh,
            grid_charged_wh=reference_grid_wh(sessions, vid),
            fuel_liters=final.fuel_liters,
            distance_m=final.distance_m,
            charging_periods=[
                Period(s.grant_ms / 1000.0, s.complete_ms / 1000.0,
                       f"{s.station_id}/{s.slot_id}")
                for s in sessions
                if s.vehicle_id == vid and s.complete_ms > s.grant_ms
            ],
            idle_periods=[Period(start, end, "depot")
                          for state, start, end in periods
                          if state == Lifecycle.IDLE.value],
        )

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
