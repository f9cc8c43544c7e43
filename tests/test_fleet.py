import csv
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_params
from test_network import reference_route

from evfleetsim import dynamics, fleet

from evfleetsim.charging import ChargingManager, ChargingStation, Slot
from evfleetsim.config import (DEFAULTS, build_config, default_scenario_path,
                               load_raw)
from evfleetsim.dynamics import DriveModel, Environment, VehicleState
from evfleetsim.engine import (Engine, Event, EventKind, SimulationAborted,
                               hour_of, ms)
from evfleetsim.fleet import (DemandProfile, DemandStreams, DwellDistribution,
                              FleetController, FleetError, FleetPolicies,
                              Lifecycle, ModelError, Trip,
                              TripsPerDay, Vehicle, cumulative, draw_index,
                              generate_day_schedule, sample_trip, uniform)
from evfleetsim.metrics import MetricsCollector
from evfleetsim.network import (Coord, Edge, NoRouteError, RoadNetwork,
                                airline_distance, generate_grid, nearest_edge,
                                shortest_path)

ENV = Environment()


def dwell(**kwargs):
    """A dwell distribution: the schema's defaults with ``kwargs`` set."""
    return DwellDistribution(**{**DEFAULTS["demand"]["dwell"], **kwargs})


def profile(bins=((400.0, 1.0), (800.0, 1.0)), weights=None, **kwargs):
    if weights is None:
        weights = [1.0] * 24
    return DemandProfile(
        departure_weights=tuple(weights),
        distance_bins=tuple(bins),
        dwell=kwargs.pop("dwell", dwell(family="fixed", fixed_s=60.0)),
        trips_per_day=kwargs.pop("trips", TripsPerDay(family="fixed", mean=0.0,
                                                      n=1)),
    )


# --- demand profile -----------------------------------------------------------

def test_profile_rejects_bad_weights_and_bins():
    with pytest.raises(FleetError):
        profile(weights=[1.0] * 23)
    with pytest.raises(FleetError):
        profile(weights=[-1.0] + [1.0] * 23)
    with pytest.raises(FleetError):
        profile(bins=((400.0, 1.0), (300.0, 1.0)))
    with pytest.raises(FleetError):
        profile(bins=((400.0, -2.0),))


def test_degenerate_single_point_distance_bin():
    prof = profile(bins=((0.0, 1.0),))
    assert prof.bin_edges() == [0.0, 0.0]
    net = generate_grid(8, 8, 200.0, 10.0)
    depot = sorted(net.edges)[0]
    streams = DemandStreams(1)
    for i in range(50):
        trip = sample_trip(streams, prof, net.edge_midpoint(depot), f"t{i}")
        assert trip.sampled_airline_m == 0.0
    with pytest.raises(FleetError, match="strictly increasing"):
        profile(bins=((0.0, 1.0), (0.0, 1.0)))


@pytest.mark.parametrize("kwargs", [
    {"mu_log": 800.5},
    {"mu_log": 7.5, "sigma_log": 18.0},
    {"family": "fixed", "fixed_s": 1e306},
], ids=["mu_log", "sigma_log", "fixed_s"])
def test_dwell_rejects_draws_beyond_the_clock(kwargs):
    with pytest.raises(ValueError):
        dwell(**kwargs)


def test_dwell_draws_at_the_bound_fit_the_clock():
    # mu_log + 40 * sigma_log = 690 < ln(1e300): the largest allowed spread
    widest = dwell(mu_log=650.0, sigma_log=1.0)
    rng = np.random.default_rng(5)
    for _ in range(20_000):
        ms(widest.sample(rng))  # raises ClockRangeError beyond the clock


def test_two_bin_frequencies_within_3_sigma():
    # oracle: binomial bounds at N=10^4, p=0.75: mean 7500, 3 sigma ~ 130
    prof = profile(bins=((100.0, 1.0), (200.0, 3.0)))
    streams = DemandStreams(7)
    net = generate_grid(4, 4, 200.0, 10.0)
    depot_point = net.edge_midpoint(sorted(net.edges)[0])
    hi = 0
    n = 10_000
    for i in range(n):
        trip = sample_trip(streams, prof, depot_point, f"t{i}")
        if trip.sampled_airline_m > 100.0:
            hi += 1
    assert 7500 - 130 <= hi <= 7500 + 130


def test_driven_route_at_least_airline_minus_snap_slack():
    net = generate_grid(6, 6, 150.0, 10.0)
    depot = sorted(net.edges)[180 // 2]
    prof = profile(bins=((200.0, 1.0), (500.0, 2.0), (900.0, 1.0)))
    depot_point = net.edge_midpoint(depot)
    # one trip for each of 300 vehicles: the draws of 300 trips in a row
    for trip in generate_day_schedule(23, prof, 300, net, depot,
                                      "travel_time"):
        if trip.status == "rejected":
            continue
        route = trip.outbound
        start_node = net.nodes[net.edges[route.edges[0]].from_node]
        end_node = net.nodes[net.edges[route.edges[-1]].to_node]
        slack = airline_distance(depot_point, start_node) + airline_distance(
            trip.destination_point, end_node
        )
        assert route.total_length_m >= trip.sampled_airline_m - slack - 1e-9


def test_rejected_destination_counted_not_resampled():
    # an unreachable island edge: destinations snapping to it are rejected
    nodes = {
        "a": Coord(0, 0), "b": Coord(100, 0),
        "i1": Coord(5000, 0), "i2": Coord(5100, 0),
    }
    edges = {
        "home": Edge("home", "a", "b", 100.0, 10.0, 0.0),
        "back": Edge("back", "b", "a", 100.0, 10.0, 0.0),
        "island": Edge("island", "i1", "i2", 100.0, 10.0, 0.0),
    }
    net = RoadNetwork(nodes, edges)
    prof = profile(bins=((5000.0, 1.0),))
    statuses = {trip.status for trip in generate_day_schedule(
        3, prof, 80, net, "home", "travel_time")}
    assert "rejected" in statuses


def test_day_schedule_fixed_trip_count_and_sorted():
    net = generate_grid(4, 4, 200.0, 10.0)
    depot = sorted(net.edges)[0]
    prof = profile(trips=TripsPerDay(family="fixed", mean=0.0, n=2))
    trips = generate_day_schedule(5, prof, 1, net, depot, "travel_time")
    assert len(trips) == 2
    fleet10 = generate_day_schedule(5, prof, 10, net, depot,
                                    "travel_time")
    assert len(fleet10) == 20
    departs = [t.depart_ms for t in fleet10]
    assert departs == sorted(departs)


def test_day_schedule_deterministic_under_seed():
    net = generate_grid(4, 4, 200.0, 10.0)
    depot = sorted(net.edges)[0]
    prof = profile(trips=TripsPerDay(family="poisson", mean=1.5, n=0))

    def snapshot(seed):
        return [
            (t.trip_id, t.depart_ms, t.sampled_airline_m, t.destination_edge,
             t.dwell_s, t.status)
            for t in generate_day_schedule(seed, prof, 20, net, depot,
                                             "travel_time")
        ]

    assert snapshot(11) == snapshot(11)
    assert snapshot(11) != snapshot(12)


def load_bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_schedule(streams, profile, fleet_size, net, depot_edge, weight):
    """The day's trips drawn, snapped and routed one at a time, each before
    the next is drawn, and sorted as the schedule is."""
    trips = []
    for _ in range(fleet_size):
        for _ in range(profile.trips_per_day.sample(streams.schedule)):
            rng = streams.schedule
            hour = draw_index(rng, profile.departure_cdf)
            depart_ms = ms(hour * 3600.0 + rng.uniform(0.0, 3600.0))
            idx = draw_index(rng, profile.distance_cdf)
            lower = profile.distance_bins[idx - 1][0] if idx > 0 else 0.0
            distance = rng.uniform(lower, profile.distance_bins[idx][0])
            bearing = streams.bearing.uniform(0.0, 2.0 * math.pi)
            dwell_s = profile.dwell.sample(streams.dwell)
            depot = net.edge_midpoint(depot_edge)
            point = Coord(depot.x + distance * math.cos(bearing),
                          depot.y + distance * math.sin(bearing))
            trip = Trip(f"t{len(trips):06d}", depart_ms, distance, dwell_s,
                        destination_point=point)
            [trip.destination_edge] = nearest_edge(net, [point])
            try:
                trip.outbound = reference_route(
                    net, depot_edge, trip.destination_edge, weight)
                trip.return_route = reference_route(
                    net, trip.destination_edge, depot_edge, weight)
            except NoRouteError:
                trip.status = "rejected"
            trips.append(trip)
    trips.sort(key=lambda t: (t.depart_ms, t.trip_id))
    return trips


@pytest.mark.parametrize("seed", [42, 1003])
@pytest.mark.parametrize("workload", ["bundled_day", "charging_divert"])
def test_day_schedule_equals_trip_by_trip_reference(monkeypatch, workload,
                                                    seed):
    path = default_scenario_path()
    raw = load_bench_workloads().scenario(workload, load_raw(path), seed)
    config = build_config(raw, path.parent)
    made = []

    class RecordedStreams(DemandStreams):
        def __init__(self, master_seed):
            super().__init__(master_seed)
            made.append(self)

    monkeypatch.setattr(fleet, "DemandStreams", RecordedStreams)
    args = (config.demand, config.schedule_size, config.network,
            config.depot_edge, config.policies.routing_weight)
    trips = generate_day_schedule(config.seed, *args)
    streams = DemandStreams(config.seed)
    expected = reference_schedule(streams, *args)
    assert len(trips) == len(expected) > 0
    for trip, ref in zip(trips, expected):
        assert trip == ref
    [bulk_streams] = made
    for name in ("schedule", "bearing", "dwell"):
        assert (getattr(bulk_streams, name).bit_generator.state
                == getattr(streams, name).bit_generator.state)


def test_day_schedule_requires_positive_fleet():
    net = generate_grid(2, 2, 100.0, 10.0)
    with pytest.raises(FleetError):
        generate_day_schedule(1, profile(), 0, net, sorted(net.edges)[0],
                              "travel_time")


# --- lifecycle ------------------------------------------------------------------

def build_sim(n_vehicles=2, soc=1.0, with_station=True, params=None,
              policies=None, hourly_speed_factors=None):
    """``soc`` is one value for every vehicle or a list with one per vehicle;
    SOCs are set before the controller indexes the idle vehicles."""
    net = generate_grid(3, 3, 100.0, 10.0, hourly_speed_factors)
    depot = sorted(net.edges)[0]
    engine = Engine()
    stations = []
    if with_station:
        stations = [ChargingStation("st", depot, (Slot("s0", 3600.0),), 1)]
    params = params or make_params()
    policies = policies or FleetPolicies()
    mgr = ChargingManager(stations, params, policies.target_soc)
    socs = soc if isinstance(soc, list) else [soc] * n_vehicles
    vehicles = [
        Vehicle(f"v{i}", VehicleState(soc=socs[i]))
        for i in range(n_vehicles)
    ]
    transitions = []
    ctrl = FleetController(
        engine, net, mgr, vehicles, depot, DriveModel(params, ENV, 1.0),
        policies,
        transition_hook=lambda t, vid, new: transitions.append((t, vid, new)),
    )
    ctrl.register_handlers()
    return engine, net, mgr, ctrl, vehicles, transitions, depot


def make_trip(net, depot, dest_edge, depart_s=10.0, dwell_s=30.0, tid="t1"):
    out = shortest_path(net, depot, dest_edge, "distance")
    back = shortest_path(net, dest_edge, depot, "distance")
    return Trip(tid, ms(depart_s), out.total_length_m, dwell_s,
                destination_point=net.edge_midpoint(dest_edge),
                destination_edge=dest_edge, outbound=out, return_route=back)


def test_trip_lifecycle_idle_enroute_dwell_return_charge_idle():
    # threshold 1.0: any consumption at all triggers a depot charge on return
    engine, net, mgr, ctrl, vehicles, transitions, depot = build_sim(
        n_vehicles=1, policies=FleetPolicies(depot_charge_threshold=1.0)
    )
    dest = sorted(net.edges)[10]
    trip = make_trip(net, depot, dest)
    ctrl.schedule_trips([trip])
    engine.run_until(ms(3600))
    assert trip.status == "completed"
    assert trip.vehicle_id == "v0"
    states = [new for _, vid, new in transitions if vid == "v0"]
    assert states[0] is Lifecycle.EN_ROUTE
    assert Lifecycle.DWELLING in states
    assert Lifecycle.RETURNING in states
    assert Lifecycle.CHARGING in states
    assert states[-1] is Lifecycle.IDLE
    assert vehicles[0].state.soc == pytest.approx(1.0)


def test_vehicle_goes_idle_without_charging_when_soc_high():
    # threshold 0.5: a short trip leaves soc well above it
    engine, net, mgr, ctrl, vehicles, transitions, depot = build_sim(
        n_vehicles=1, policies=FleetPolicies(depot_charge_threshold=0.5)
    )
    trip = make_trip(net, depot, sorted(net.edges)[4])
    ctrl.schedule_trips([trip])
    engine.run_until(ms(3600))
    states = [new for _, vid, new in transitions]
    assert Lifecycle.CHARGING not in states
    assert len(mgr.sessions) == 0
    assert trip.status == "completed"


def test_dispatch_prefers_highest_soc_vehicle():
    engine, net, mgr, ctrl, vehicles, transitions, depot = build_sim(
        n_vehicles=2, soc=[0.6, 0.9],
        policies=FleetPolicies(depot_charge_threshold=0.0),
    )
    trip = make_trip(net, depot, sorted(net.edges)[8])
    ctrl.schedule_trips([trip])
    engine.run_until(ms(3600))
    assert trip.vehicle_id == "v1"


def test_dispatch_skips_vehicles_below_reserve():
    small = make_params(battery_capacity_wh=2000.0)
    # v0 budget: 0.01 * 2000 Wh = 20 Wh, not enough;
    # v1 budget: 0.45 * 2000 Wh = 900 Wh, plenty for the round trip
    engine, net, mgr, ctrl, vehicles, transitions, depot = build_sim(
        n_vehicles=2, soc=[0.51, 0.95], params=small,
        policies=FleetPolicies(depot_charge_threshold=0.0,
                               dispatch_reserve_soc=0.5),
    )
    trip = make_trip(net, depot, sorted(net.edges)[10])
    ctrl.schedule_trips([trip])
    engine.run_until(ms(3600))
    assert trip.vehicle_id == "v1"


def test_busy_fleet_delays_trip_and_dispatches_later():
    engine, net, mgr, ctrl, vehicles, transitions, depot = build_sim(
        n_vehicles=1, policies=FleetPolicies(depot_charge_threshold=0.0)
    )
    dest = sorted(net.edges)[10]
    t1 = make_trip(net, depot, dest, depart_s=10.0, dwell_s=120.0, tid="t1")
    t2 = make_trip(net, depot, dest, depart_s=11.0, dwell_s=10.0, tid="t2")
    ctrl.schedule_trips([t1, t2])
    engine.run_until(ms(7200))
    assert t1.delay_ms == 0
    assert t2.status == "completed"
    assert t2.delay_ms > 0
    assert ctrl.delayed == []


def test_trip_accounting_partition():
    engine, net, mgr, ctrl, vehicles, transitions, depot = build_sim(
        n_vehicles=2, policies=FleetPolicies(depot_charge_threshold=0.0)
    )
    dest = sorted(net.edges)[10]
    trips = [
        make_trip(net, depot, dest, depart_s=float(5 + i), tid=f"t{i}")
        for i in range(6)
    ]
    trips[5] = Trip("t5", ms(50.0), 100.0, 10.0, status="rejected")
    ctrl.schedule_trips(trips)
    engine.run_until(ms(120))  # stop early: some trips still active/pending
    dispatched = sum(1 for t in trips if t.dispatch_ms is not None)
    rejected = sum(1 for t in trips if t.status == "rejected")
    pending = sum(1 for t in trips if t.status == "pending")
    assert dispatched + rejected + pending == len(trips)
    assert rejected == 1


def test_illegal_transition_raises_model_error():
    engine, net, mgr, ctrl, vehicles, transitions, depot = build_sim(n_vehicles=1)
    vehicles[0].lifecycle = Lifecycle.CHARGING
    with pytest.raises(ModelError, match="illegal DwellComplete"):
        ctrl.on_dwell_complete(
            Event(EventKind.DWELL_COMPLETE, {"vehicle": "v0"}, at=0, sequence=0)
        )


def _strand(ctrl, vehicles):
    vehicles[0].lifecycle = Lifecycle.STRANDED


def _complete_trip(ctrl, vehicles):
    ctrl.trips["t1"] = Trip("t1", 0, 100.0, 10.0, status="completed")


def _return(ctrl, vehicles):
    vehicles[0].lifecycle = Lifecycle.RETURNING


@pytest.mark.parametrize("setup, kind, payload, match", [
    (None, EventKind.SEGMENT_COMPLETE, {"vehicle": "ghost"},
     "unknown vehicle 'ghost'"),
    (_strand, EventKind.DWELL_COMPLETE, {"vehicle": "v0"},
     "illegal DwellComplete"),
    (None, EventKind.VEHICLE_SPAWN, {"trip": "t9"}, "non-pending trip 't9'"),
    (_complete_trip, EventKind.VEHICLE_SPAWN, {"trip": "t1"},
     "non-pending trip 't1'"),
    (_return, EventKind.SEGMENT_COMPLETE, {"vehicle": "v0"}, "without a route"),
    (_return, EventKind.SLOT_GRANTED,
     {"vehicle": "v0", "station": "st", "slot": "s0"},
     "without a matching session"),
], ids=["unknown_vehicle", "stranded_vehicle", "unknown_trip",
        "non_pending_trip", "segment_without_route", "grant_without_session"])
def test_impossible_events_raise_model_error(setup, kind, payload, match):
    engine, net, mgr, ctrl, vehicles, transitions, depot = build_sim(n_vehicles=1)
    if setup is not None:
        setup(ctrl, vehicles)
    with pytest.raises(ModelError, match=match):
        engine.handlers[kind](Event(kind, dict(payload), at=0, sequence=0))
    engine.schedule(Event(kind, dict(payload)), ms(1))
    with pytest.raises(SimulationAborted, match=kind.value) as err:
        engine.run_until(ms(2))
    assert err.value.event.kind is kind
    assert isinstance(err.value.cause, ModelError)


# the states in which each vehicle event can arrive, and every (kind,
# state) pair refused
DRIVING = {Lifecycle.EN_ROUTE, Lifecycle.RETURNING}
ACCEPTS = {
    EventKind.SEGMENT_COMPLETE: DRIVING,
    EventKind.STRANDED: DRIVING,
    EventKind.ARRIVE_DESTINATION: DRIVING,
    EventKind.DWELL_COMPLETE: {Lifecycle.DWELLING},
    EventKind.CHARGE_REQUEST: {Lifecycle.RETURNING},
    EventKind.SLOT_GRANTED: {Lifecycle.RETURNING, Lifecycle.QUEUED_AT_STATION},
    EventKind.CHARGE_COMPLETE: {Lifecycle.CHARGING},
}
REFUSED = [(kind, state) for kind, accepted in ACCEPTS.items()
           for state in Lifecycle if state not in accepted]


def test_the_table_lists_every_vehicle_event():
    engine, *_ = build_sim(n_vehicles=1)
    assert {kind: set(states)
            for kind, states in fleet._ACCEPTS.items()} == ACCEPTS
    assert set(ACCEPTS) == set(engine.handlers) - {EventKind.VEHICLE_SPAWN}


@pytest.mark.parametrize("kind, state", REFUSED,
                         ids=[f"{k.value}-{s.value}" for k, s in REFUSED])
def test_an_event_in_a_state_the_table_refuses_aborts(kind, state):
    engine, net, mgr, ctrl, vehicles, transitions, depot = build_sim(n_vehicles=1)
    vehicles[0].lifecycle = state
    # every field a vehicle handler reads
    payload = {"vehicle": "v0", "station": "st", "slot": "s0"}
    with pytest.raises(ModelError, match=f"illegal {kind.value}: vehicle=v0 "
                                         f"lifecycle={state.value} "):
        engine.handlers[kind](Event(kind, dict(payload), at=0, sequence=0))
    engine.schedule(Event(kind, dict(payload)), ms(1))
    with pytest.raises(SimulationAborted, match=f"illegal {kind.value}") as err:
        engine.run_until(ms(2))
    assert err.value.event.kind is kind
    assert isinstance(err.value.cause, ModelError)


def test_a_session_shorter_than_a_millisecond_ends_after_its_grant():
    # ms(duration) rounds to 0: the grant and the completion share the
    # millisecond they are scheduled in, and the grant must come first
    engine, net, mgr, ctrl, vehicles, transitions, depot = build_sim(n_vehicles=1)
    vehicles[0].lifecycle = Lifecycle.RETURNING
    vehicles[0].state.soc = 1.0 - 1e-12
    engine.schedule(Event(EventKind.CHARGE_REQUEST,
                          {"vehicle": "v0", "station": "st"}), ms(1))
    engine.run_until(ms(2))
    (session,) = mgr.sessions
    assert session.grant_ms == session.complete_ms == ms(1)
    assert [new for _, _, new in transitions] == [Lifecycle.CHARGING,
                                                  Lifecycle.IDLE]
    assert vehicles[0].state.soc == 1.0


def test_stranded_vehicle_is_terminal():
    # dispatch's feasibility gate would refuse this trip, so start the route
    # directly: mid-route battery depletion must end in the terminal state
    tiny = make_params(battery_capacity_wh=30.0, auxiliary_power_w=0.0)
    engine, net, mgr, ctrl, vehicles, transitions, depot = build_sim(
        n_vehicles=1, soc=0.08, params=tiny,
    )
    far = sorted(net.edges)[-1]
    trip = make_trip(net, depot, far)
    trip.vehicle_id = "v0"
    trip.status = "active"
    vehicles[0].trip = trip
    ctrl._begin_route(vehicles[0], trip.outbound, Lifecycle.EN_ROUTE)
    engine.run_until(ms(3600))
    assert vehicles[0].lifecycle is Lifecycle.STRANDED
    assert trip.status == "stranded"
    # any further event for it is impossible
    with pytest.raises(ModelError, match="illegal DwellComplete"):
        ctrl.on_dwell_complete(
            Event(EventKind.DWELL_COMPLETE, {"vehicle": "v0"},
                  at=engine.now_ms, sequence=0)
        )


def vehicle_log(engine, vehicle_id):
    """The ``(at, sequence, kind, payload)`` rows of ``vehicle_id`` in the
    engine's event log, in dispatch order."""
    return [row for row in engine.event_log
            if f"vehicle={vehicle_id}" in row[3].split(";")]


def assert_aborted_as_fired(engine, err, kind, payload):
    """The abort carries the identity of the event as it fired: the log's
    last row is written before its handler."""
    event = err.value.event
    assert event.kind is kind and event.payload == payload
    at, sequence, logged_kind, logged_payload = engine.event_log[-1]
    assert (event.at, event.sequence, event.kind.value, event.payload_str()) \
        == (at, sequence, logged_kind, logged_payload)
    assert str(err.value).startswith(
        f"handler for {kind.value} at t={at / 1000:.3f}s "
        f"(seq={sequence}, {logged_payload}) failed: ")


def test_a_route_that_cannot_be_driven_aborts_its_dispatch():
    # the smallest brake the vehicle model admits cannot stop from the
    # 10 m/s limit on a 100 m edge: dispatch plans every leg of the round
    # trip, so the route's last leg raises at the trip's VehicleSpawn
    engine, net, mgr, ctrl, vehicles, transitions, depot = build_sim(
        n_vehicles=1, params=make_params(max_deceleration_mps2=0.1))
    engine.keep_event_log = True
    trip = make_trip(net, depot, sorted(net.edges)[10])
    ctrl.schedule_trips([trip])
    with pytest.raises(SimulationAborted) as err:
        engine.run_until(ms(3600))
    assert isinstance(err.value.cause, dynamics.InfeasibleSegmentError)
    assert_aborted_as_fired(engine, err, EventKind.VEHICLE_SPAWN,
                            {"trip": "t1"})
    assert trip.status == "pending" and vehicles[0].lifecycle is Lifecycle.IDLE
    assert vehicle_log(engine, "v0") == []


def test_a_leg_that_cannot_be_driven_aborts_naming_the_completed_leg():
    # at hour 0's factor of 0.3 the same brake stops from 3 m/s within an
    # edge, so the trip is dispatched just before hour 1; from hour 1 on
    # the vehicle reaches the full 10 m/s limit, and the route's last leg
    # raises, driven from the SegmentComplete of the leg before it
    engine, net, mgr, ctrl, vehicles, transitions, depot = build_sim(
        n_vehicles=1, params=make_params(max_deceleration_mps2=0.1),
        hourly_speed_factors=[0.3] + [1.0] * 23)
    engine.keep_event_log = True
    trip = make_trip(net, depot, sorted(net.edges)[10], depart_s=3599.0)
    assert len(trip.outbound.edges) >= 3
    ctrl.schedule_trips([trip])
    with pytest.raises(SimulationAborted) as err:
        engine.run_until(ms(7200))
    assert isinstance(err.value.cause, dynamics.InfeasibleSegmentError)
    assert trip.status == "active"
    completed = trip.outbound.edges[-2]
    assert_aborted_as_fired(engine, err, EventKind.SEGMENT_COMPLETE,
                            {"vehicle": "v0", "edge": completed})
    assert [row[3] for row in vehicle_log(engine, "v0")
            if row[2] == "SegmentComplete"] == [
        f"edge={edge};vehicle=v0" for edge in trip.outbound.edges[:-1]]


def test_an_arrival_carries_the_payload_of_the_routes_last_segment():
    engine, net, mgr, ctrl, vehicles, transitions, depot = build_sim(
        n_vehicles=1, policies=FleetPolicies(depot_charge_threshold=0.5))
    engine.keep_event_log = True
    trip = make_trip(net, depot, sorted(net.edges)[10])
    ctrl.schedule_trips([trip])
    engine.run_until(ms(3600))
    assert trip.status == "completed"
    rows = vehicle_log(engine, "v0")
    arrivals = [k for k, row in enumerate(rows)
                if row[2] == "ArriveDestination"]
    assert len(arrivals) == 2
    for k, route in zip(arrivals, (trip.outbound, trip.return_route)):
        _, _, kind, payload = rows[k - 1]
        assert kind == "SegmentComplete"
        assert rows[k][3] == payload == f"edge={route.edges[-1]};vehicle=v0"
        assert rows[k][0] == rows[k - 1][0]


def test_queue_then_slot_granted_fifo_at_depot():
    engine, net, mgr, ctrl, vehicles, transitions, depot = build_sim(
        n_vehicles=3, soc=1.0,
        policies=FleetPolicies(depot_charge_threshold=1.0, target_soc=1.0),
    )
    dest = sorted(net.edges)[10]
    trips = [
        make_trip(net, depot, dest, depart_s=float(5 + 3 * i), dwell_s=10.0,
                  tid=f"t{i}")
        for i in range(3)
    ]
    ctrl.schedule_trips(trips)
    engine.run_until(ms(4 * 3600))
    # single 1-slot station: all three vehicles charged, in FIFO order
    assert len(mgr.sessions) == 3
    grant_order = [s.grant_ms for s in mgr.sessions]
    assert grant_order == sorted(grant_order)
    enqueue_order = [s.enqueue_ms for s in mgr.sessions]
    assert enqueue_order == sorted(enqueue_order)
    assert all(v.lifecycle is Lifecycle.IDLE for v in vehicles)


# --- the drive of one edge ------------------------------------------------------
# vehicles that drive one plan without clamping get the one result the plan
# built, and each reads its trace's SOC from the SOC it entered the edge
# with; the factor of a drive is that of the hour the drive starts in


def recording_drives(monkeypatch):
    """Record every call of ``dynamics.drive_segment`` the controller makes,
    as ``(speed_factor, result)``."""
    drives = []
    drive_segment = dynamics.drive_segment

    def recording(state, edge, v_entry, v_exit, speed_factor, model):
        result = drive_segment(state, edge, v_entry, v_exit, speed_factor,
                               model)
        drives.append((speed_factor, result))
        return result

    monkeypatch.setattr(dynamics, "drive_segment", recording)
    return drives


def test_vehicles_on_one_plan_share_its_result_and_read_their_own_soc(
        tmp_path, monkeypatch):
    entry_socs = [0.9, 0.6, 1e-6]  # the last empties within the first step
    engine, net, mgr, ctrl, vehicles, _, depot = build_sim(
        n_vehicles=3, soc=entry_socs)
    drives = recording_drives(monkeypatch)
    route = shortest_path(net, depot, sorted(net.edges)[10], "distance")
    for vehicle in vehicles:
        ctrl._begin_route(vehicle, route, Lifecycle.EN_ROUTE)
    (_, shared), (_, other), (_, stranded) = drives
    (plan,) = ctrl.model.plans.values()
    assert shared is other is plan.result
    assert vehicles[0].trace is vehicles[1].trace is shared.trace
    assert shared.trace.soc0 is None
    # the drive that strands gets a result of its own, and the columns the
    # step loop writes are its own too
    assert stranded.stranded and stranded is not shared
    assert stranded.trace.soc0 == -0.0
    for name in ("p_battery_w", "p_recup_w", "p_re_w", "soc_drop"):
        assert (getattr(stranded.trace, name)
                is not getattr(shared.trace, name)), name

    # a tick in the middle of the edge: each vehicle on the shared trace
    # gets the SOC of its own entry SOC
    collector = MetricsCollector(tmp_path, vehicles, [], mgr.sessions,
                                 ctrl.model.params)
    t_ms = shared.duration_ms // 2
    collector.record_ticks(t_ms)
    collector.close()
    with open(tmp_path / "ticks.csv", newline="") as fh:
        soc = {row["vehicle_id"]: row["soc"] for row in csv.DictReader(fh)}
    trace = shared.trace
    i = int(np.searchsorted(trace.time_s, t_ms / 1000.0, side="right")) - 1
    assert 0 < i < len(trace) - 1
    cum_wh_s = np.cumsum(np.multiply(trace.p_battery_w, trace.dt_s))
    c = ctrl.model.params.battery_capacity_wh * 3600.0
    for vehicle, entry_soc in zip(vehicles[:2], entry_socs):
        assert soc[vehicle.vehicle_id] == f"{entry_soc - cum_wh_s[i] / c:.9f}"
    assert soc["v0"] != soc["v1"]
    assert soc["v2"] == "0.000000000"


def test_a_drive_takes_the_factor_of_the_hour_it_starts_in(monkeypatch):
    factors = [1.0 - hour / 100.0 for hour in range(24)]
    engine, net, mgr, ctrl, vehicles, _, depot = build_sim(
        n_vehicles=3, hourly_speed_factors=factors)
    drives = recording_drives(monkeypatch)
    # a trip home from here ends idle, whatever the clock then reads
    route = shortest_path(net, sorted(net.edges)[10], depot, "distance")
    starts = [(3_599_999, 0), (3_600_000, 1), (86_400_000, 0)]
    for vehicle, (t_ms, hour) in zip(vehicles, starts):
        engine.run_until(t_ms)
        assert engine.now_ms == t_ms and hour_of(t_ms) == hour
        first = len(drives)
        ctrl._begin_route(vehicle, route, Lifecycle.RETURNING)
        factor, _ = drives[first]
        assert (factor == net.hourly_speed_factors[hour_of(t_ms)]
                == factors[hour])


# --- dispatch index -------------------------------------------------------------

def round_trip_wh(trip, params, factor):
    """The energy of ``trip``'s round trip at ``factor``, planned by a
    fresh drive model."""
    model = DriveModel(params, ENV, 1.0)
    return (dynamics.estimate_route_energy(trip.outbound, model, factor)
            + dynamics.estimate_route_energy(trip.return_route, model, factor))


def reference_dispatch(vehicles, params, trip, reserve, net, hour=0):
    """The full scan dispatch is checked against: every idle vehicle in
    fleet order with its own round-trip energy; the feasible vehicle with
    the highest SOC wins, ties to the first."""
    best = None
    factor = net.hourly_speed_factors[hour]
    for v in vehicles:
        if v.lifecycle is not Lifecycle.IDLE:
            continue
        budget = (v.state.soc - reserve) * params.battery_capacity_wh
        need = round_trip_wh(trip, params, factor)
        if budget < need:
            continue
        if best is None or v.state.soc > best.state.soc:
            best = v
    return best


# a vehicle's SOC: near the dispatch edge of the first trip (budget equal to
# the round-trip estimate, give or take one ulp), a tie-prone fixed value, or
# anything in [0, 1]
SOC_SPEC = st.one_of(
    st.tuples(st.just("edge"), st.integers(-1, 1)),
    st.tuples(st.just("value"), st.sampled_from([0.0, 0.1, 0.5, 0.5, 1.0])),
    st.tuples(st.just("value"), st.floats(0.0, 1.0)),
)
# idle: idle when the controller indexes the fleet (SOC 1.0); cycled:
# charging then and idle since, pushed as it enters idle; busy: charging
VEHICLE_SPEC = st.tuples(st.sampled_from(["idle", "cycled", "busy"]), SOC_SPEC)


@settings(max_examples=150, deadline=None)
@given(
    specs=st.lists(VEHICLE_SPEC, min_size=1, max_size=12),
    reserve=st.sampled_from([0.0, 0.1, 0.5]),
    capacity=st.sampled_from([30.0, 200.0, 2000.0]),
    destinations=st.lists(st.integers(0, 23), min_size=1, max_size=4),
)
def test_dispatch_matches_full_scan(specs, reserve, capacity, destinations):
    params = make_params(battery_capacity_wh=capacity)
    engine, net, mgr, ctrl, vehicles, transitions, depot = build_sim(
        n_vehicles=len(specs), soc=1.0, params=params,
        policies=FleetPolicies(dispatch_reserve_soc=reserve),
    )
    edges = sorted(net.edges)
    trips = [make_trip(net, depot, edges[d], tid=f"t{i}")
             for i, d in enumerate(destinations)]
    need = round_trip_wh(trips[0], params, net.hourly_speed_factors[0])
    for v, (kind, (how, x)) in zip(vehicles, specs):
        if kind == "idle":
            continue
        v.lifecycle = Lifecycle.CHARGING
        if how == "edge":
            v.state.soc = reserve + need / capacity
            if x:
                v.state.soc = math.nextafter(v.state.soc, x * math.inf)
        else:
            v.state.soc = x
    # a vehicle leaves idle only by dispatch, so the states are set before
    # a controller indexes the fleet
    ctrl = FleetController(engine, net, mgr, vehicles, depot, ctrl.model,
                           ctrl.policies, ctrl.transition_hook)
    for v, (kind, _) in zip(vehicles, specs):
        if kind == "cycled":
            ctrl._transition(v, Lifecycle.IDLE)

    for trip in trips:
        expected = reference_dispatch(vehicles, params, trip, reserve, net)
        assert ctrl._try_dispatch(trip) is (expected is not None)
        assert trip.vehicle_id == (expected.vehicle_id if expected else None)


def test_equal_socs_dispatch_in_fleet_order_beyond_ten_thousand_vehicles():
    # ids sort as strings, so "v1000" < "v10000" < "v1001": ties go by the
    # vehicle's place in the fleet, not by its id
    engine, net, mgr, ctrl, vehicles, _, depot = build_sim(n_vehicles=10_001)
    for v in vehicles[:1000]:
        v.lifecycle = Lifecycle.CHARGING
    ctrl = FleetController(engine, net, mgr, vehicles, depot, ctrl.model,
                           ctrl.policies, ctrl.transition_hook)
    dest = sorted(net.edges)[10]
    for tid in ("t0", "t1", "t2"):
        trip = make_trip(net, depot, dest, tid=tid)
        assert ctrl._try_dispatch(trip)
    assert [v.vehicle_id for v in vehicles
            if v.lifecycle is Lifecycle.EN_ROUTE] == ["v1000", "v1001", "v1002"]


# --- categorical draws ------------------------------------------------------------
# sample_trip draws the hour and the distance bin by bisecting a cumulative
# distribution; it must take the index and the stream position of
# Generator.choice

@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
                     min_size=1, max_size=30).filter(lambda w: sum(w) > 0),
    seed=st.integers(0, 2**32 - 1),
)
def test_draw_index_matches_generator_choice(weights, seed):
    w = np.asarray(weights)
    p = w / w.sum()
    cdf = cumulative(weights)
    ours, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        index = draw_index(ours, cdf)
        assert index == int(numpy_rng.choice(len(weights), p=p))
        assert weights[index] > 0.0
    # both generators have consumed the same stream
    assert ours.random() == numpy_rng.random()


# --- uniform draws -----------------------------------------------------------------
# sample_trip draws its depart time, distance and bearing with fleet.uniform;
# each must be the value and the stream position of Generator.uniform

BOUNDS = st.one_of(
    st.sampled_from([(0.0, 3600.0), (0.0, 2.0 * math.pi), (0.0, 400.0),
                     (400.0, 700.0), (2000.0, 5000.0), (0.0, 0.0)]),
    st.tuples(st.floats(-1e12, 1e12), st.floats(-1e12, 1e12)).map(sorted),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1e-300)).map(sorted))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), bounds=BOUNDS)
def test_uniform_equals_generator_uniform_bit_for_bit(seed, bounds):
    low, high = bounds
    ours, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(200):
        got = uniform(ours, low, high)
        assert type(got) is float
        assert got.hex() == float(numpy_rng.uniform(low, high)).hex()
    assert ours.bit_generator.state == numpy_rng.bit_generator.state
