"""Acceptance suite: one test per release criterion, each printing a
PASS line (visible with ``pytest -s``; the per-test -v lines carry the same
criterion numbers)."""

import filecmp
import math
import time

import numpy as np
import pytest

from conftest import dummy_vehicle, make_params, vehicle_ledger_errors

from evfleetsim.charging import (ChargeSession, ChargingManager,
                                 ChargingStation, Slot, charge_duration)
from evfleetsim.config import default_scenario_path, load_config
from evfleetsim.dynamics import (DriveModel, Environment, VehicleState,
                                 drive_segment)
from evfleetsim.engine import Engine, Event, EventKind
from evfleetsim.fleet import generate_day_schedule
from evfleetsim.metrics import MetricsCollector
from evfleetsim.network import (Edge, airline_distance, generate_grid,
                                nearest_edge, shortest_path, snap_distance)
from evfleetsim.simulation import run_scenario, sweep

ENV = Environment()


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion} PASS: {text}")


@pytest.fixture(scope="module")
def bundled_run(tmp_path_factory):
    """One timed run of the bundled 100-vehicle, 24 h scenario (shared by the
    ledger, determinism, and performance criteria)."""
    out = tmp_path_factory.mktemp("bundled")
    started = time.perf_counter()
    result = run_scenario(load_config(default_scenario_path()), out)
    elapsed = time.perf_counter() - started
    return result, elapsed


def test_c1_plug_rate_fidelity():
    # SchuKo 2300 W and IEC Type 2 3600 W fill matching deficits in exactly
    # one hour; an 11 kW slot is capped by the vehicle's 3600 W limit
    assert charge_duration(2300.0, 2300.0, 1e9, 1.0) == 3600.0
    assert charge_duration(3600.0, 3600.0, 1e9, 1.0) == 3600.0
    assert charge_duration(3600.0, 11000.0, 3600.0, 1.0) == 3600.0

    station = ChargingStation("st", "e", (Slot("s0", 11000.0),), 1)
    mgr = ChargingManager([station], make_params(), 1.0)
    # soc 0.75 keeps the deficit exactly representable: 4500 Wh of 18 kWh
    vehicle = dummy_vehicle("v", soc=0.75)
    granted = mgr.request_charge(vehicle, "st", 0)
    assert granted.effective_power_w == 3600.0  # vehicle cap binds
    assert granted.duration_s == 4500.0
    assert granted.complete_ms == 4_500_000
    report(1, "plug rates 2300/3600 W and the vehicle cap are exact")


def test_c2_simultaneity_and_fifo_randomized():
    rng = np.random.default_rng(20250810)
    started = time.perf_counter()
    for case in range(1000):
        engine = Engine()
        station = ChargingStation(
            "st", "e", (Slot("s0", 2300.0), Slot("s1", 3600.0)), 2
        )
        mgr = ChargingManager([station], make_params(), 1.0)
        occupancy = mgr.occupancy["st"]
        n = int(rng.integers(3, 12))
        vehicles = {
            f"v{i}": dummy_vehicle(f"v{i}", soc=float(rng.uniform(0.3, 0.95)))
            for i in range(n)
        }
        arrivals, grants = [], []

        def grant(session):
            # the fleet controller's part: schedule the session's end
            grants.append(session.vehicle_id)
            engine.schedule(Event(EventKind.CHARGE_COMPLETE,
                                  {"slot": session.slot_id}),
                            session.complete_ms)

        def on_request(event):
            vid = event.payload["vehicle"]
            arrivals.append(vid)
            result = mgr.request_charge(vehicles[vid], "st", engine.now_ms)
            if isinstance(result, ChargeSession):
                grant(result)
            assert len(occupancy) <= 2

        def on_complete(event):
            handoff = mgr.release_slot("st", event.payload["slot"], engine.now_ms)
            if handoff is not None:
                grant(handoff)
            assert len(occupancy) <= 2

        engine.on(EventKind.CHARGE_REQUEST, on_request)
        engine.on(EventKind.CHARGE_COMPLETE, on_complete)
        for i in range(n):
            engine.schedule(Event(EventKind.CHARGE_REQUEST, {"vehicle": f"v{i}"}),
                            int(rng.integers(0, 7_200_000)))
        engine.run_until(10**13)
        assert grants == arrivals  # grant order == arrival order (FIFO)
        assert len(mgr.sessions) == n
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(2, f"1000 randomized schedules: <=2 concurrent, FIFO ({elapsed:.1f}s)")


def test_c3_energy_conservation_random_trips_and_fleet_ledger(bundled_run):
    rng = np.random.default_rng(31)
    started = time.perf_counter()
    for _ in range(200):
        params = make_params(
            battery_capacity_wh=float(rng.uniform(8000, 40000)),
            auxiliary_power_w=float(rng.uniform(0, 600)),
        )
        state = VehicleState(soc=float(rng.uniform(0.6, 0.95)))
        soc0 = state.soc
        integral_wh = 0.0
        v_prev = 0.0
        for _ in range(int(rng.integers(1, 10))):
            v_lim = float(rng.uniform(8, 25))
            edge = Edge("e", "a", "b", float(rng.uniform(100, 1200)), v_lim,
                        float(rng.uniform(-0.06, 0.06)))
            result = drive_segment(state, edge, min(v_prev, v_lim),
                                   float(rng.uniform(0, v_lim)), 1.0,
                                   DriveModel(params, ENV, 1.0))
            integral_wh += float(-np.dot(
                result.trace.p_battery_w,
                np.asarray(result.trace.dt_s) / 3600.0))
            v_prev = state.velocity
        delta_wh = (state.soc - soc0) * params.battery_capacity_wh
        flows_wh = state.cumulative.consumed_wh + state.cumulative.recuperated_wh
        # capacity*dSOC*3600 J vs the integral of battery power, relative to
        # total moved energy
        scale = max(flows_wh, 1e-9)
        assert abs(delta_wh - integral_wh) / scale < 1e-6
    elapsed = time.perf_counter() - started

    result, _ = bundled_run
    ledger = result.collector.energy_ledger_error()
    assert ledger < 1e-6
    per_vehicle = vehicle_ledger_errors(
        result, load_config(default_scenario_path()))
    assert len(per_vehicle) == len(result.vehicles)
    assert max(per_vehicle.values()) < 1e-6
    assert len(result.manager.sessions) > 0
    assert elapsed < 30.0
    report(3, f"200 random trips conserve energy; fleet ledger error "
              f"{ledger:.2e}, worst vehicle {max(per_vehicle.values()):.2e}")


def test_c4_kinematic_work_oracles():
    params = make_params(auxiliary_power_w=0.0)
    v, d = 15.0, 900.0
    flat = Edge("f", "a", "b", d, v, 0.0)
    res = drive_segment(VehicleState(soc=0.9), flat, v, v, 1.0,
                        DriveModel(params, ENV, 1.0))
    work = float(np.dot(res.trace.p_traction_w, res.trace.dt_s))
    expected = (0.01 * 1500.0 * 9.81 + 0.5 * 1.2 * 0.3 * 2.2 * v * v) * d
    assert abs(work - expected) / expected < 1e-4

    grad = 0.05
    up = drive_segment(VehicleState(soc=0.9), Edge("u", "a", "b", d, v, grad),
                       v, v, 1.0, DriveModel(params, ENV, 1.0))
    down = drive_segment(VehicleState(soc=0.9),
                         Edge("d", "a", "b", d, v, -grad), v, v, 1.0,
                         DriveModel(params, ENV, 1.0))
    e_up = float(np.dot(up.trace.p_traction_w, up.trace.dt_s))
    e_down = float(np.dot(down.trace.p_traction_w, down.trace.dt_s))
    expected_diff = 2.0 * 1500.0 * 9.81 * math.sin(math.atan(grad)) * d
    assert abs((e_up - e_down) - expected_diff) / expected_diff < 1e-4
    report(4, "flat-edge work and gradient asymmetry match closed forms")


def test_c5_distance_distribution_fig1_analogue(tmp_path):
    config = load_config(default_scenario_path())
    net = config.network
    # scale the schedule to ~10^4 trips (poisson mean 2.0 per vehicle-slot)
    trips = generate_day_schedule(config.seed, config.demand, 5000, net,
                                  config.depot_edge,
                                  config.policies.routing_weight)
    n_total = len(trips)
    assert n_total > 9000

    accepted = [t for t in trips if t.status != "rejected"]
    # (a) sampled airline distances reproduce the configured histogram
    edges = config.demand.bin_edges()
    weights = np.array([w for _, w in config.demand.distance_bins])
    probs = weights / weights.sum()
    samples = np.array([t.sampled_airline_m for t in trips])
    counts, _ = np.histogram(samples, bins=edges)
    assert int(counts.sum()) == n_total
    for count, p in zip(counts, probs):
        sigma = math.sqrt(n_total * p * (1.0 - p))
        assert abs(count - n_total * p) <= 3.0 * sigma

    # (b) driven >= airline up to the nearest-edge snap slack, every trip
    depot_point = net.edge_midpoint(config.depot_edge)
    for t in accepted:
        route = t.outbound
        start = net.nodes[net.edges[route.edges[0]].from_node]
        end = net.nodes[net.edges[route.edges[-1]].to_node]
        slack = (airline_distance(depot_point, start)
                 + airline_distance(t.destination_point, end))
        assert route.total_length_m >= t.sampled_airline_m - slack - 1e-9

    # (c) exported paired histograms are aligned, non-degenerate, plot-ready
    collector = MetricsCollector(tmp_path, [], trips, [],
                                 config.vehicle_params)
    manifest = collector.export_all({}, 0, config.demand.bin_edges(), 300.0)
    lines = (tmp_path / "histograms.csv").read_text().splitlines()
    assert lines[0] == "bin_lower_m,bin_upper_m,airline_count,driven_count"
    airline_col = [int(l.split(",")[2]) for l in lines[1:]]
    driven_col = [int(l.split(",")[3]) for l in lines[1:]]
    assert sum(airline_col) == len(accepted) == sum(driven_col)
    assert sum(1 for c in airline_col if c > 0) >= 2
    assert sum(1 for c in driven_col if c > 0) >= 2
    report(5, f"{n_total} sampled trips fit the histogram; driven dominates airline")


def test_c6_fleet_size_sweep_fig2_analogue(tmp_path):
    values = [100, 90, 80, 70, 60]
    started = time.perf_counter()
    rows = sweep(default_scenario_path(), "fleet.size", values, tmp_path)
    elapsed = time.perf_counter() - started
    min_idle = [row["min_idle"] for row in rows]
    # non-increasing as the fleet shrinks under fixed demand
    assert all(a >= b for a, b in zip(min_idle, min_idle[1:])), min_idle
    assert min_idle[0] > 0  # the 100-vehicle fleet is overdimensioned
    assert elapsed < 300.0
    report(6, f"min idle over sizes {values}: {min_idle} ({elapsed:.0f}s)")


def test_c7_determinism_byte_identical_csvs(bundled_run, tmp_path):
    first, _ = bundled_run
    second = run_scenario(load_config(default_scenario_path()), tmp_path / "again")
    for name in sorted(first.manifest["files"]):
        assert filecmp.cmp(first.out_dir / name, second.out_dir / name,
                           shallow=False), f"{name} differs between runs"
    report(7, "two seeded runs produced byte-identical CSVs")


def test_c8_routing_oracles():
    from test_network import bellman_ford, random_network
    from evfleetsim.network import _edge_weight

    rng = np.random.default_rng(88)
    started = time.perf_counter()
    for _ in range(100):
        net = random_network(rng)  # grids up to 5x5 = 25 nodes (< 50)
        ids = sorted(net.edges)
        frm = ids[int(rng.integers(0, len(ids)))]
        to = ids[int(rng.integers(0, len(ids)))]
        if frm == to:
            continue
        route = shortest_path(net, frm, to, "distance")
        got = sum(_edge_weight(net.edges[e], "distance") for e in route.edges)
        expected = (
            bellman_ford(net, net.edges[frm].to_node,
                         net.edges[to].from_node, lambda e: e.length_m)
            + net.edges[frm].length_m + net.edges[to].length_m
        )
        assert abs(got - expected) <= 1e-9 * max(1.0, expected)

    from evfleetsim.network import Coord

    net = generate_grid(6, 6, 120.0, 13.9)
    for _ in range(100):
        p = Coord(float(rng.uniform(-100, 700)), float(rng.uniform(-100, 700)))
        dists = {eid: snap_distance(net, p, eid) for eid in net.edges}
        d_min = min(dists.values())
        ties = [eid for eid, d in dists.items()
                if d <= d_min * (1.0 + 1e-9) + 1e-150]
        assert nearest_edge(net, [p]) == [min(ties)]
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(8, f"Dijkstra matches Bellman-Ford; nearest-edge matches scan ({elapsed:.1f}s)")


def test_c9_bundled_scenario_runtime(bundled_run):
    result, elapsed = bundled_run
    assert elapsed < 60.0, f"bundled run took {elapsed:.1f}s"
    assert result.engine_summary.total_dispatched > 0
    assert result.n_stranded == 0
    report(9, f"bundled 100-vehicle 24 h run completed in {elapsed:.1f}s")
