from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dummy_vehicle, make_params

from evfleetsim import network
from evfleetsim.charging import (PLUG_PRESETS, ChargeSession, ChargingError,
                                 ChargingManager, ChargingStation, DivertTo,
                                 Queued, Slot, charge_duration,
                                 session_progress)
from evfleetsim.dynamics import (DriveModel, Environment, RangeExtenderParams,
                                 VehicleState)
from evfleetsim.engine import MS_PER_S, Engine, Event, EventKind, ms
from evfleetsim.fleet import (FleetController, FleetPolicies, Lifecycle,
                              Vehicle)
from evfleetsim.network import Coord, Edge, RoadNetwork

ENV = Environment()
PARAMS = make_params()


def two_slot_station(station_id="st1", edge_id="e1", max_simultaneous=2):
    return ChargingStation(
        station_id, edge_id,
        (Slot("s0", PLUG_PRESETS["schuko"]), Slot("s1", PLUG_PRESETS["iec_type2"])),
        max_simultaneous,
    )


def line_network():
    nodes = {"n0": Coord(0, 0), "n1": Coord(600, 0), "n2": Coord(1200, 0)}
    edges = {
        "e1": Edge("e1", "n0", "n1", 600.0, 10.0, 0.0),
        "e2": Edge("e2", "n1", "n2", 600.0, 10.0, 0.0),
        "e1r": Edge("e1r", "n1", "n0", 600.0, 10.0, 0.0),
        "e2r": Edge("e2r", "n2", "n1", 600.0, 10.0, 0.0),
    }
    return RoadNetwork(nodes, edges)


# --- plug presets and closed-form durations -----------------------------------

def test_plug_presets_carry_rated_powers():
    assert PLUG_PRESETS == {"schuko": 2300.0, "iec_type2": 3600.0}


def test_charge_duration_zero_deficit():
    assert charge_duration(0.0, 2300.0, 3600.0, 1.0) == 0.0


def test_charge_duration_schuko_hour():
    assert charge_duration(2300.0, 2300.0, 3600.0, 1.0) == pytest.approx(3600.0)


def test_charge_duration_vehicle_cap_binds():
    assert charge_duration(3600.0, 11000.0, 3600.0, 1.0) == pytest.approx(3600.0)


def test_charge_duration_efficiency_lengthens():
    assert charge_duration(1000.0, 1000.0, 5000.0, 0.5) == pytest.approx(7200.0)


# --- request / grant / queue ----------------------------------------------------

def test_empty_station_grants_best_slot():
    mgr = ChargingManager([two_slot_station()], PARAMS, 1.0)
    result = mgr.request_charge(dummy_vehicle("a", soc=0.5), "st1", 0)
    assert isinstance(result, ChargeSession)
    assert result.slot_id == "s1"  # 3600 W beats 2300 W
    mgr.assert_consistent()


def test_highest_power_tie_broken_by_lowest_slot_id():
    station = ChargingStation(
        "st1", "e1", (Slot("s0", 3600.0), Slot("s1", 3600.0)), 2
    )
    mgr = ChargingManager([station], PARAMS, 1.0)
    result = mgr.request_charge(dummy_vehicle("a"), "st1", 0)
    assert result.slot_id == "s0"


def test_third_vehicle_queues_at_two_slot_station():
    mgr = ChargingManager([two_slot_station()], PARAMS, 1.0)
    mgr.request_charge(dummy_vehicle("a"), "st1", 0)
    mgr.request_charge(dummy_vehicle("b"), "st1", 0)
    result = mgr.request_charge(dummy_vehicle("c"), "st1", 0)
    assert result == Queued(1)
    mgr.assert_consistent()


def test_max_simultaneous_below_slot_count():
    station = two_slot_station(max_simultaneous=1)
    mgr = ChargingManager([station], PARAMS, 1.0)
    assert isinstance(mgr.request_charge(dummy_vehicle("a"), "st1", 0),
                      ChargeSession)
    assert isinstance(mgr.request_charge(dummy_vehicle("b"), "st1", 0), Queued)
    assert len(mgr.occupancy["st1"]) == 1


def test_double_request_is_an_error():
    mgr = ChargingManager([two_slot_station()], PARAMS, 1.0)
    vehicle = dummy_vehicle("a")
    mgr.request_charge(vehicle, "st1", 0)
    with pytest.raises(ChargingError, match="already charging"):
        mgr.request_charge(vehicle, "st1", 0)


def test_unknown_station_is_an_error():
    mgr = ChargingManager([two_slot_station()], PARAMS, 1.0)
    with pytest.raises(ChargingError, match="unknown station"):
        mgr.request_charge(dummy_vehicle("a"), "nope", 0)


def test_would_queue_says_full_and_changes_nothing():
    mgr = ChargingManager([two_slot_station()], PARAMS, 1.0)
    a, b, c = (dummy_vehicle(vid) for vid in "abc")
    assert not mgr.would_queue(a, "st1")
    mgr.request_charge(a, "st1", 0)
    assert not mgr.would_queue(b, "st1")
    mgr.request_charge(b, "st1", 0)
    assert mgr.would_queue(c, "st1")
    assert not mgr.queues["st1"] and len(mgr.sessions) == 2
    mgr.assert_consistent()
    assert mgr.request_charge(c, "st1", 0) == Queued(1)


def test_completion_time_and_energy_closed_form():
    mgr = ChargingManager([two_slot_station()], PARAMS, 1.0)
    vehicle = dummy_vehicle("a", soc=0.5)  # deficit 9000 Wh
    result = mgr.request_charge(vehicle, "st1", 0)
    assert result.effective_power_w == 3600.0
    assert result.duration_s == pytest.approx(9000.0 * 3600.0 / 3600.0)
    assert result.complete_ms == ms(9000.0)
    # conservation at the plug, closed form
    s = result
    assert s.energy_wh == pytest.approx(
        s.effective_power_w * s.duration_s * 1.0 / 3600.0, rel=1e-9
    )


def test_release_grants_fifo_head_and_errors_on_free_slot():
    mgr = ChargingManager([two_slot_station()], PARAMS, 0.9)
    a = dummy_vehicle("a", soc=0.5)
    g_a = mgr.request_charge(a, "st1", 0)
    mgr.request_charge(dummy_vehicle("b"), "st1", 0)
    mgr.request_charge(dummy_vehicle("c"), "st1", 0)
    mgr.request_charge(dummy_vehicle("d"), "st1", 0)
    assert [e.vehicle.vehicle_id for e in mgr.queues["st1"]] == ["c", "d"]
    handoff = mgr.release_slot("st1", g_a.slot_id, ms(10))
    assert not g_a.truncated
    assert a.state.soc == 0.9
    assert isinstance(handoff, ChargeSession)
    assert handoff.vehicle_id == "c"
    assert handoff.slot_id == g_a.slot_id
    assert handoff.enqueue_ms == 0 and handoff.grant_ms == ms(10)
    # the handoff holds the released session's slot
    assert mgr.occupancy["st1"][g_a.slot_id].session is handoff
    assert [e.vehicle.vehicle_id for e in mgr.queues["st1"]] == ["d"]
    mgr.release_slot("st1", handoff.slot_id, ms(20))
    assert not mgr.queues["st1"]
    mgr.assert_consistent()
    with pytest.raises(ChargingError, match="releasing free slot"):
        mgr.release_slot("st1", "s9", ms(30))


def test_release_free_slot_is_an_error():
    mgr = ChargingManager([two_slot_station()], PARAMS, 1.0)
    with pytest.raises(ChargingError, match="releasing free slot"):
        mgr.release_slot("st1", "s0", 0)


def schedule_completion(engine, session):
    """Schedule the ChargeComplete of a session the manager returned, as the
    fleet controller does."""
    engine.schedule(Event(EventKind.CHARGE_COMPLETE, {
        "vehicle": session.vehicle_id, "station": session.station_id,
        "slot": session.slot_id}), session.complete_ms)


def test_randomized_service_order_equals_arrival_order():
    # oracle: replay the grant log; per station it must be the identity
    # permutation on arrivals (FIFO), with occupancy never above the limit
    rng = np.random.default_rng(99)
    for case in range(100):
        engine = Engine()
        station = two_slot_station()
        mgr = ChargingManager([station], PARAMS, 1.0)
        occupancy = mgr.occupancy["st1"]
        n = int(rng.integers(3, 15))
        vehicles = {
            f"v{i}": dummy_vehicle(f"v{i}", soc=float(rng.uniform(0.2, 0.9)))
            for i in range(n)
        }
        arrivals: list[str] = []
        grants: list[str] = []

        def on_request(event):
            vid = event.payload["vehicle"]
            arrivals.append(vid)
            result = mgr.request_charge(vehicles[vid], "st1", engine.now_ms)
            if isinstance(result, ChargeSession):
                grants.append(vid)
                schedule_completion(engine, result)
            assert len(occupancy) <= station.max_simultaneous
            mgr.assert_consistent()

        def on_complete(event):
            handoff = mgr.release_slot("st1", event.payload["slot"], engine.now_ms)
            if handoff is not None:
                grants.append(handoff.vehicle_id)
                schedule_completion(engine, handoff)
            assert len(occupancy) <= station.max_simultaneous
            mgr.assert_consistent()

        engine.on(EventKind.CHARGE_REQUEST, on_request)
        engine.on(EventKind.CHARGE_COMPLETE, on_complete)
        for i in range(n):
            engine.schedule(
                Event(EventKind.CHARGE_REQUEST, {"vehicle": f"v{i}"}),
                int(rng.integers(0, 3_600_000)),
            )
        engine.run_until(10**12)
        assert grants == arrivals
        assert len(mgr.sessions) == n


# --- the stored queue totals ------------------------------------------------------

def rescanned_wait_s(mgr, station, at_ms):
    """The wait estimate of ``station`` at ``at_ms`` by its formula, with
    the occupants' remaining ms and the queued charge ms summed afresh."""
    sid = station.station_id
    remaining_ms = sum(max(0, occ.session.complete_ms - at_ms)
                       for occ in mgr.occupancy[sid].values())
    queued_ms = sum(entry.charge_ms for entry in mgr.queues[sid])
    return ((remaining_ms + queued_ms)
            / (MS_PER_S * station.max_simultaneous))


ONE_SLOT = ChargingStation("st1", "e1", (Slot("s0", PLUG_PRESETS["schuko"]),), 1)
QUEUE_OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("request"), st.floats(0.0, 0.999)),
    st.tuples(st.just("release"), st.integers(0, 1)),
    # an estimate between the requests and releases changes nothing
    st.tuples(st.just("estimate"), st.none()),
), max_size=40)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([ONE_SLOT, two_slot_station()]), QUEUE_OPERATIONS,
       st.lists(st.integers(0, 5_000_000), min_size=40, max_size=40))
def test_the_wait_estimate_equals_a_fresh_rescan(station, operations, steps):
    mgr = ChargingManager([station], PARAMS, 1.0)
    sid = station.station_id
    at_ms = 0
    for k, ((name, arg), step) in enumerate(zip(operations, steps)):
        at_ms += step
        if name == "request":
            mgr.request_charge(dummy_vehicle(f"v{k}", soc=arg), sid, at_ms)
        elif name == "release" and mgr.occupancy[sid]:
            slots = sorted(mgr.occupancy[sid])
            mgr.release_slot(sid, slots[arg % len(slots)], at_ms)
        elif name == "estimate":
            mgr.estimate_wait_s(station, at_ms)
        mgr.assert_consistent()
        assert repr(mgr.estimate_wait_s(station, at_ms)) == repr(
            rescanned_wait_s(mgr, station, at_ms))


def test_assert_consistent_refuses_a_corrupted_queue_total():
    mgr = ChargingManager([ONE_SLOT], PARAMS, 1.0)
    for vid, soc in (("a", 0.5), ("b", 0.3), ("c", 0.7)):
        mgr.request_charge(dummy_vehicle(vid, soc=soc), "st1", 0)
    mgr.assert_consistent()
    total = mgr.estimate_wait_s(ONE_SLOT, 0)
    mgr._queued_ms["st1"] += 1
    with pytest.raises(AssertionError, match="stored queue total"):
        mgr.assert_consistent()
    assert mgr.estimate_wait_s(ONE_SLOT, 0) != total


class _UnreadableQueue(deque):
    """A queue that refuses to be iterated."""

    def __iter__(self):
        raise AssertionError("the queue was scanned")


def test_the_wait_estimate_after_a_handoff_does_not_scan_the_queue():
    mgr = ChargingManager([ONE_SLOT], PARAMS, 1.0)
    first = mgr.request_charge(dummy_vehicle("o", soc=0.5), "st1", 0)
    for k in range(50):
        mgr.request_charge(dummy_vehicle(f"q{k}", soc=k / 100), "st1", 0)
    handoff = mgr.release_slot("st1", first.slot_id, ms(10))
    assert handoff.vehicle_id == "q0"
    mgr.assert_consistent()
    queue = mgr.queues["st1"]
    mgr.queues["st1"] = _UnreadableQueue(queue)
    wait = mgr.estimate_wait_s(ONE_SLOT, ms(20))
    mgr.queues["st1"] = queue
    assert repr(wait) == repr(rescanned_wait_s(mgr, ONE_SLOT, ms(20)))


# --- wait-or-divert ---------------------------------------------------------------
# the controller builds and filters the divert alternatives, the manager
# compares the waits

def divert_controller(net, mgr, vehicles=()):
    return FleetController(Engine(), net, mgr, list(vehicles), "e1",
                           DriveModel(PARAMS, ENV, 1.0), FleetPolicies(),
                           lambda *args: None)


def decide(ctrl, vehicle, at_ms=0):
    """``ctrl``'s wait-or-divert decision for ``vehicle``, which finds A
    full, at ``at_ms``: the controller's clock is set by a fresh, empty
    engine."""
    ctrl.engine = Engine()
    ctrl.engine.run_until(at_ms)
    return ctrl._select_divert(vehicle, "A")


def saturated_manager():
    mgr = ChargingManager(
        [two_slot_station("A", "e1"), two_slot_station("B", "e2")], PARAMS,
        1.0)
    # occupy both slots of A with sessions lasting an hour or more
    for vid in ("o1", "o2"):
        mgr.request_charge(dummy_vehicle(vid, soc=0.8), "A", 0)
    return mgr


def test_select_station_waits_when_no_alternative():
    st_a = two_slot_station("A", "e1")
    mgr = ChargingManager([st_a], PARAMS, 1.0)
    mgr.request_charge(dummy_vehicle("o1"), "A", 0)
    mgr.request_charge(dummy_vehicle("o2"), "A", 0)
    net = line_network()
    me = dummy_vehicle("me", soc=0.5)
    assert divert_controller(net, mgr).divert_alternatives("A", 1.0) == []
    assert mgr.select_station("A", 0, []) is None
    assert decide(divert_controller(net, mgr), me) is None


def test_select_station_diverts_to_free_nearby_station():
    net = line_network()
    mgr = saturated_manager()
    me = dummy_vehicle("me", soc=0.5)
    assert mgr.would_queue(me, "A")
    decision = decide(divert_controller(net, mgr), me)
    assert isinstance(decision, DivertTo)
    assert decision.station_id == "B"
    assert decision.route.edges == ("e1", "e2")


def test_select_station_respects_energy_feasibility_gate():
    net = line_network()
    mgr = saturated_manager()
    # soc barely above the safety margin: cannot reach B
    me = dummy_vehicle("me", soc=0.0501)
    decision = decide(divert_controller(net, mgr), me)
    assert decision is None


def test_select_station_prefers_waiting_when_local_wait_short():
    net = line_network()
    st_a = two_slot_station("A", "e1")
    st_b = two_slot_station("B", "e2")
    mgr = ChargingManager([st_a, st_b], PARAMS, 1.0)
    # occupants almost done: local wait ~ 5 s, divert costs >= 120 s travel
    for vid in ("o1", "o2"):
        vehicle = dummy_vehicle(vid, soc=0.9998)
        mgr.request_charge(vehicle, "A", 0)
    me = dummy_vehicle("me", soc=0.5)
    decision = decide(divert_controller(net, mgr), me)
    assert decision is None


# the alternatives are memoised per (current station, speed factor):
# congested at hour 1, the divert to B takes 2400 s instead of 120 s; hours
# 0 and 2 share a factor; station C sits on a road that A cannot reach
SLOW_HOUR_1 = [1.0, 0.05] + [1.0] * 22


def divert_network():
    net = line_network()
    nodes = {**net.nodes, "n8": Coord(0, 5000), "n9": Coord(600, 5000)}
    edges = {**net.edges, "e9": Edge("e9", "n8", "n9", 600.0, 10.0, 0.0)}
    return RoadNetwork(nodes, edges, SLOW_HOUR_1)


def divert_manager():
    mgr = ChargingManager([two_slot_station("A", "e1"),
                           two_slot_station("B", "e2"),
                           two_slot_station("C", "e9")], PARAMS, 1.0)
    for vid in ("o1", "o2"):
        mgr.request_charge(dummy_vehicle(vid, soc=0.8), "A", 0)
    return mgr


def test_select_station_memo_decides_as_a_fresh_memo_across_hours():
    net = divert_network()
    mgr = divert_manager()
    me = dummy_vehicle("me", soc=0.5)
    ctrl = divert_controller(net, mgr)
    decisions = []
    for at_s in (0, 1800, 3599.999, 3600, 5000, 0, 3700):
        at = ms(at_s)
        decision = decide(ctrl, me, at)
        assert decision == decide(
            divert_controller(divert_network(), divert_manager()), me, at)
        decisions.append(None if decision is None else decision.station_id)
    # the wait at A shrinks through hour 0; B is cheap then, dear in hour 1
    assert decisions == ["B", "B", "B", None, None, "B", None]


def test_select_station_searches_an_unreachable_station_once_per_key(
        monkeypatch):
    net = divert_network()
    mgr = divert_manager()
    me = dummy_vehicle("me", soc=0.5)
    searches = []
    route_between = network._route_between

    def counted(net, from_edge, to_edge, weight):
        searches.append(to_edge)
        return route_between(net, from_edge, to_edge, weight)

    monkeypatch.setattr(network, "_route_between", counted)
    ctrl = divert_controller(net, mgr)
    for at_s in (0, 10, 20, 3600, 3610, 30):
        decide(ctrl, me, ms(at_s))
    # one search per (station, factor) for C; the route to B is memoised on
    # the network, so it is searched once
    assert sorted(searches) == ["e2", "e9", "e9"]


def test_hours_with_equal_factors_share_the_controller_memos():
    net = divert_network()
    mgr = divert_manager()
    me = dummy_vehicle("me", soc=0.5)
    ctrl = divert_controller(net, mgr)
    factors = net.hourly_speed_factors
    assert factors[0] == factors[2] != factors[1]

    def sizes():
        return len(ctrl._route_energy), len(ctrl._divert)

    decide(ctrl, me, ms(0))
    # one reachable alternative (B): one energy estimate, one divert entry
    # (which holds the travel time)
    assert sizes() == (1, 1)
    alternatives = ctrl._divert["A", 1.0]
    decide(ctrl, me, ms(2 * 3600.0))
    assert sizes() == (1, 1)
    assert ctrl._divert["A", 1.0] is alternatives
    decide(ctrl, me, ms(3600.0))
    assert sizes() == (2, 2)


def fleet_vehicle(soc):
    """A fleet vehicle arriving at station A on ``e1``."""
    return Vehicle("me", VehicleState(soc=soc),
                   Lifecycle.RETURNING)


def charge_request(ctrl, vehicle, station_id="A"):
    ctrl.on_charge_request(Event(EventKind.CHARGE_REQUEST, {
        "vehicle": vehicle.vehicle_id, "station": station_id}))


def test_a_diverting_vehicle_never_joins_the_queue(monkeypatch):
    mgr = saturated_manager()
    me = fleet_vehicle(0.7)
    ctrl = divert_controller(line_network(), mgr, [me])
    requests = []
    monkeypatch.setattr(mgr, "request_charge",
                        lambda *args: requests.append(args))
    charge_request(ctrl, me)
    assert requests == []
    assert me.divert_station == "B" and me.legs is not None
    assert me.lifecycle is Lifecycle.RETURNING
    assert not mgr.queues["A"]
    mgr.assert_consistent()


@pytest.mark.parametrize("check", ["unknown station", "already charging",
                                   "not above current"])
def test_every_request_check_runs_for_a_vehicle_that_would_divert(check):
    mgr = saturated_manager()
    me = fleet_vehicle(0.7)
    ctrl = divert_controller(line_network(), mgr, [me])
    station_id = "A"
    if check == "unknown station":
        station_id = "nope"
    elif check == "already charging":
        mgr.request_charge(me, "B", 0)
    else:
        me.state.soc = 1.0
    # were the request valid, the vehicle would divert from A to B
    assert ctrl._select_divert(me, "A").station_id == "B"
    with pytest.raises(ChargingError, match=check):
        charge_request(ctrl, me, station_id)
    assert me.divert_station is None and me.legs is None
    assert me.lifecycle is Lifecycle.RETURNING
    assert not mgr.queues["A"]
    mgr.assert_consistent()


def test_truncate_active_sessions_keeps_partial_energy():
    mgr = ChargingManager([two_slot_station()], PARAMS, 1.0)
    vehicle = dummy_vehicle("a", soc=0.5)
    granted = mgr.request_charge(vehicle, "st1", 0)
    assert granted.duration_s == pytest.approx(9000.0)
    mgr.truncate_active_sessions(ms(4500.0))
    s = granted
    assert s.truncated
    assert s.duration_s == pytest.approx(4500.0)
    assert s.energy_wh == pytest.approx(3600.0 * 4500.0 / 3600.0)
    assert vehicle.state.soc == pytest.approx(0.5 + s.energy_wh / 18000.0)


@pytest.mark.parametrize("end, relay_on", [
    ("horizon at 900 s", True), ("horizon at 3600 s", False),
    ("release", False)])
def test_a_charge_settles_the_range_extender_relay(end, relay_on):
    # plugged in at 0.3 with the relay on: a charge that leaves the SOC at
    # or above soc_off (0.4) switches it off, one below leaves it on; 3.6 kW
    # charge an 18 kWh battery by 0.05 in 900 s and by 0.2 in 3600 s
    params = make_params(range_extender=RangeExtenderParams(
        power_w=10000.0, soc_on=0.2, soc_off=0.4))
    mgr = ChargingManager([two_slot_station()], params, 1.0)
    vehicle = dummy_vehicle("a", soc=0.3)
    vehicle.state.range_extender_on = True
    granted = mgr.request_charge(vehicle, "st1", 0)
    if end == "release":
        mgr.release_slot("st1", granted.slot_id, granted.complete_ms)
        assert vehicle.state.soc == 1.0
    else:
        mgr.truncate_active_sessions(ms(float(end.split()[2])))
    assert vehicle.state.range_extender_on is relay_on


def test_session_progress_is_linear_and_capped_at_target():
    params = make_params(charging_efficiency=0.9)
    mgr = ChargingManager([two_slot_station()], params, 1.0)
    s = mgr.request_charge(dummy_vehicle("a", soc=0.5), "st1", 0)
    # 3600 W at 90 % stores 3240 Wh per hour of an 18 kWh battery
    assert session_progress(s, params, 0.0) == (0.0, 0.5)
    energy, soc = session_progress(s, params, 3600.0)
    assert energy == pytest.approx(3240.0)
    assert soc == pytest.approx(0.5 + 3240.0 / 18000.0)
    assert session_progress(s, params, 2 * s.duration_s)[1] == 1.0


def test_station_rejects_non_positive_slot_power():
    for power in (0.0, -2300.0):
        with pytest.raises(ChargingError, match="slot powers must be positive"):
            ChargingStation("st1", "e1", (Slot("s0", power),), 1)
