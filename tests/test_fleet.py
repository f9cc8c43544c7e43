import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_params

from evfleetsim import dynamics

from evfleetsim.charging import ChargingManager, ChargingStation, Slot
from evfleetsim.dynamics import Environment, VehicleState
from evfleetsim.engine import Engine, Event, EventKind, SimulationAborted, ms
from evfleetsim.fleet import (DemandProfile, DemandStreams, DwellDistribution,
                              FleetController, FleetError, FleetPolicies,
                              Lifecycle, ModelError, Trip, TripsPerDay,
                              Vehicle, generate_day_schedule, sample_trip)
from evfleetsim.network import (Coord, Edge, RoadNetwork, airline_distance,
                                generate_grid, shortest_path, snap_distance)

ENV = Environment()


def profile(bins=((400.0, 1.0), (800.0, 1.0)), weights=None, **kwargs):
    if weights is None:
        weights = [1.0] * 24
    return DemandProfile(
        departure_weights=tuple(weights),
        distance_bins=tuple(bins),
        dwell=kwargs.pop("dwell", DwellDistribution(family="fixed", fixed_s=60.0)),
        trips_per_day=kwargs.pop("trips", TripsPerDay(family="fixed", fixed_n=1)),
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
        trip = sample_trip(streams, prof, depot, net, f"t{i}")
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
        DwellDistribution(**kwargs)


def test_dwell_draws_at_the_bound_fit_the_clock():
    # mu_log + 40 * sigma_log = 690 < ln(1e300): the largest allowed spread
    dwell = DwellDistribution(mu_log=650.0, sigma_log=1.0)
    rng = np.random.default_rng(5)
    for _ in range(20_000):
        ms(dwell.sample(rng))  # raises ClockRangeError beyond the clock


def test_two_bin_frequencies_within_3_sigma():
    # oracle: binomial bounds at N=10^4, p=0.75: mean 7500, 3 sigma ~ 130
    prof = profile(bins=((100.0, 1.0), (200.0, 3.0)))
    streams = DemandStreams(7)
    net = generate_grid(4, 4, 200.0, 10.0)
    depot = sorted(net.edges)[0]
    hi = 0
    n = 10_000
    for i in range(n):
        trip = sample_trip(streams, prof, depot, net, f"t{i}")
        if trip.sampled_airline_m > 100.0:
            hi += 1
    assert 7500 - 130 <= hi <= 7500 + 130


def test_driven_route_at_least_airline_minus_snap_slack():
    net = generate_grid(6, 6, 150.0, 10.0)
    depot = sorted(net.edges)[180 // 2]
    prof = profile(bins=((200.0, 1.0), (500.0, 2.0), (900.0, 1.0)))
    streams = DemandStreams(23)
    depot_point = net.edge_midpoint(depot)
    for i in range(300):
        trip = sample_trip(streams, prof, depot, net, f"t{i}")
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
    streams = DemandStreams(3)
    statuses = {
        sample_trip(streams, prof, "home", net, f"t{i}").status for i in range(80)
    }
    assert "rejected" in statuses


def test_day_schedule_fixed_trip_count_and_sorted():
    net = generate_grid(4, 4, 200.0, 10.0)
    depot = sorted(net.edges)[0]
    prof = profile(trips=TripsPerDay(family="fixed", fixed_n=2))
    trips = generate_day_schedule(5, prof, 1, net, depot)
    assert len(trips) == 2
    fleet10 = generate_day_schedule(5, prof, 10, net, depot)
    assert len(fleet10) == 20
    departs = [t.depart_ms for t in fleet10]
    assert departs == sorted(departs)


def test_day_schedule_deterministic_under_seed():
    net = generate_grid(4, 4, 200.0, 10.0)
    depot = sorted(net.edges)[0]
    prof = profile(trips=TripsPerDay(family="poisson", mean=1.5))

    def snapshot(seed):
        return [
            (t.trip_id, t.depart_ms, t.sampled_airline_m, t.destination_edge,
             t.dwell_s, t.status)
            for t in generate_day_schedule(seed, prof, 20, net, depot)
        ]

    assert snapshot(11) == snapshot(11)
    assert snapshot(11) != snapshot(12)


def test_day_schedule_requires_positive_fleet():
    net = generate_grid(2, 2, 100.0, 10.0)
    with pytest.raises(FleetError):
        generate_day_schedule(1, profile(), 0, net, sorted(net.edges)[0])


# --- lifecycle ------------------------------------------------------------------

def build_sim(n_vehicles=2, soc=1.0, with_station=True, params=None,
              policies=None):
    """``soc`` is one value for every vehicle or a list with one per vehicle;
    SOCs are set before the controller indexes the idle vehicles."""
    net = generate_grid(3, 3, 100.0, 10.0)
    depot = sorted(net.edges)[0]
    engine = Engine()
    stations = []
    if with_station:
        stations = [ChargingStation("st", depot, [Slot("s0", 3600.0)], 1)]
    params = params or make_params()
    mgr = ChargingManager(engine, stations, params)
    socs = soc if isinstance(soc, list) else [soc] * n_vehicles
    vehicles = [
        Vehicle(f"v{i}", VehicleState(soc=socs[i], edge_id=depot))
        for i in range(n_vehicles)
    ]
    transitions = []
    ctrl = FleetController(
        engine, net, mgr, vehicles, depot, ENV, params,
        policies or FleetPolicies(), 1.0,
        transition_hook=lambda t, vid, old, new: transitions.append((t, vid, old, new)),
    )
    ctrl.register_handlers()
    return engine, net, mgr, ctrl, vehicles, transitions, depot


def make_trip(net, depot, dest_edge, depart_s=10.0, dwell_s=30.0, tid="t1"):
    out = shortest_path(net, depot, dest_edge, "distance")
    back = shortest_path(net, dest_edge, depot, "distance")
    return Trip(tid, ms(depart_s), depot, out.total_length_m, dwell_s,
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
    states = [new for _, vid, _, new in transitions if vid == "v0"]
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
    states = [new for _, vid, _, new in transitions]
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
    trips[5] = Trip("t5", ms(50.0), depot, 100.0, 10.0, status="rejected")
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
    with pytest.raises(ModelError, match="illegal dwell completion"):
        ctrl.on_dwell_complete(
            Event(EventKind.DWELL_COMPLETE, {"vehicle": "v0"}, at=0, sequence=0)
        )


def _strand(ctrl, vehicles):
    vehicles[0].lifecycle = Lifecycle.STRANDED


def _complete_trip(ctrl, vehicles):
    ctrl.trips["t1"] = Trip("t1", 0, ctrl.depot_edge, 100.0, 10.0,
                            status="completed")


def _return(ctrl, vehicles):
    vehicles[0].lifecycle = Lifecycle.RETURNING


@pytest.mark.parametrize("setup, kind, payload, match", [
    (None, EventKind.SEGMENT_COMPLETE, {"vehicle": "ghost"},
     "unknown vehicle 'ghost'"),
    (_strand, EventKind.DWELL_COMPLETE, {"vehicle": "v0"},
     "event for stranded vehicle"),
    (None, EventKind.VEHICLE_SPAWN, {"trip": "t9"}, "non-pending trip 't9'"),
    (_complete_trip, EventKind.VEHICLE_SPAWN, {"trip": "t1"},
     "non-pending trip 't1'"),
    (None, EventKind.SEGMENT_COMPLETE, {"vehicle": "v0"}, "without a route"),
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


def test_stranded_vehicle_is_terminal():
    # dispatch's feasibility gate would refuse this trip, so start the route
    # directly: mid-route battery depletion must end in the terminal state
    from evfleetsim.fleet import Mission

    tiny = make_params(battery_capacity_wh=30.0, auxiliary_power_w=0.0)
    engine, net, mgr, ctrl, vehicles, transitions, depot = build_sim(
        n_vehicles=1, soc=0.08, params=tiny,
    )
    far = sorted(net.edges)[-1]
    trip = make_trip(net, depot, far)
    trip.vehicle_id = "v0"
    trip.status = "active"
    vehicles[0].trip = trip
    ctrl._begin_route(vehicles[0], trip.outbound, Mission.TRIP_OUT,
                      Lifecycle.EN_ROUTE)
    engine.run_until(ms(3600))
    assert vehicles[0].lifecycle is Lifecycle.STRANDED
    assert trip.status == "stranded"
    # any further event for it is impossible
    with pytest.raises(ModelError, match="stranded vehicle"):
        ctrl.on_dwell_complete(
            Event(EventKind.DWELL_COMPLETE, {"vehicle": "v0"},
                  at=engine.now_ms, sequence=0)
        )


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


# --- dispatch index -------------------------------------------------------------

def reference_dispatch(vehicles, params, trip, reserve, net, hour=0):
    """The full scan dispatch is checked against: every idle vehicle in id
    order with its own round-trip estimate; the feasible vehicle with the
    highest SOC wins, ties to the first."""
    best = None
    for v in sorted(vehicles, key=lambda v: v.vehicle_id):
        if v.lifecycle is not Lifecycle.IDLE:
            continue
        budget = (v.state.soc - reserve) * params.battery_capacity_wh
        need = (
            dynamics.estimate_route_energy(net, trip.outbound, params, ENV, hour)
            + dynamics.estimate_route_energy(net, trip.return_route, params,
                                             ENV, hour)
        )
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
# idle: never left the constructor's idle state (SOC 1.0); cycled: left idle,
# SOC changed, idle again (its first index entry is stale); busy: not idle
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
    need = (dynamics.estimate_route_energy(net, trips[0].outbound, params, ENV, 0)
            + dynamics.estimate_route_energy(net, trips[0].return_route, params,
                                             ENV, 0))
    for v, (kind, (how, x)) in zip(vehicles, specs):
        if kind == "idle":
            continue
        ctrl._transition(v, Lifecycle.CHARGING)
        if how == "edge":
            v.state.soc = reserve + need / capacity
            if x:
                v.state.soc = math.nextafter(v.state.soc, x * math.inf)
        else:
            v.state.soc = x
        if kind == "cycled":
            ctrl._transition(v, Lifecycle.IDLE)

    for trip in trips:
        expected = reference_dispatch(vehicles, params, trip, reserve, net)
        assert ctrl._try_dispatch(trip) is (expected is not None)
        assert trip.vehicle_id == (expected.vehicle_id if expected else None)
