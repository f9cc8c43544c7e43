import numpy as np
import pytest

from conftest import dummy_vehicle, make_params

from evfleetsim.charging import (PLUG_PRESETS, ChargeSession, ChargingError,
                                 ChargingManager, ChargingStation, DivertTo,
                                 Queued, Slot, charge_duration,
                                 session_progress)
from evfleetsim.dynamics import Environment, estimate_route_energy
from evfleetsim.engine import Engine, Event, EventKind, ms
from evfleetsim.network import Coord, Edge, RoadNetwork

ENV = Environment()
PARAMS = make_params()


def two_slot_station(station_id="st1", edge_id="e1", max_simultaneous=2):
    return ChargingStation(
        station_id, edge_id,
        [Slot("s0", PLUG_PRESETS["schuko"]), Slot("s1", PLUG_PRESETS["iec_type2"])],
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
    assert charge_duration(0.0, 2300.0, 3600.0) == 0.0


def test_charge_duration_schuko_hour():
    assert charge_duration(2300.0, 2300.0, 3600.0, 1.0) == pytest.approx(3600.0)


def test_charge_duration_vehicle_cap_binds():
    assert charge_duration(3600.0, 11000.0, 3600.0, 1.0) == pytest.approx(3600.0)


def test_charge_duration_efficiency_lengthens():
    assert charge_duration(1000.0, 1000.0, 5000.0, 0.5) == pytest.approx(7200.0)


# --- request / grant / queue ----------------------------------------------------

def test_empty_station_grants_best_slot():
    engine = Engine()
    mgr = ChargingManager(engine, [two_slot_station()], PARAMS)
    result = mgr.request_charge(dummy_vehicle("a", soc=0.5), "st1", 1.0, 0)
    assert isinstance(result, ChargeSession)
    assert result.slot_id == "s1"  # 3600 W beats 2300 W
    mgr.assert_consistent()


def test_highest_power_tie_broken_by_lowest_slot_id():
    engine = Engine()
    station = ChargingStation(
        "st1", "e1", [Slot("s0", 3600.0), Slot("s1", 3600.0)], 2
    )
    mgr = ChargingManager(engine, [station], PARAMS)
    result = mgr.request_charge(dummy_vehicle("a"), "st1", 1.0, 0)
    assert result.slot_id == "s0"


def test_third_vehicle_queues_at_two_slot_station():
    engine = Engine()
    mgr = ChargingManager(engine, [two_slot_station()], PARAMS)
    mgr.request_charge(dummy_vehicle("a"), "st1", 1.0, 0)
    mgr.request_charge(dummy_vehicle("b"), "st1", 1.0, 0)
    result = mgr.request_charge(dummy_vehicle("c"), "st1", 1.0, 0)
    assert result == Queued(1)
    mgr.assert_consistent()


def test_max_simultaneous_below_slot_count():
    engine = Engine()
    station = two_slot_station(max_simultaneous=1)
    mgr = ChargingManager(engine, [station], PARAMS)
    assert isinstance(mgr.request_charge(dummy_vehicle("a"), "st1", 1.0, 0), ChargeSession)
    assert isinstance(mgr.request_charge(dummy_vehicle("b"), "st1", 1.0, 0), Queued)
    assert len(station.occupancy) == 1


def test_double_request_is_an_error():
    engine = Engine()
    mgr = ChargingManager(engine, [two_slot_station()], PARAMS)
    vehicle = dummy_vehicle("a")
    mgr.request_charge(vehicle, "st1", 1.0, 0)
    with pytest.raises(ChargingError, match="already charging"):
        mgr.request_charge(vehicle, "st1", 1.0, 0)


def test_unknown_station_is_an_error():
    engine = Engine()
    mgr = ChargingManager(engine, [two_slot_station()], PARAMS)
    with pytest.raises(ChargingError, match="unknown station"):
        mgr.request_charge(dummy_vehicle("a"), "nope", 1.0, 0)


def test_completion_time_and_energy_closed_form():
    engine = Engine()
    mgr = ChargingManager(engine, [two_slot_station()], PARAMS)
    vehicle = dummy_vehicle("a", soc=0.5)  # deficit 9000 Wh
    result = mgr.request_charge(vehicle, "st1", 1.0, 0)
    assert result.effective_power_w == 3600.0
    assert result.duration_s == pytest.approx(9000.0 * 3600.0 / 3600.0)
    assert result.complete_ms == ms(9000.0)
    # conservation at the plug, closed form
    s = result
    assert s.energy_wh == pytest.approx(
        s.effective_power_w * s.duration_s * 1.0 / 3600.0, rel=1e-9
    )


def test_release_grants_fifo_head_and_errors_on_free_slot():
    engine = Engine()
    station = two_slot_station()
    mgr = ChargingManager(engine, [station], PARAMS)
    a = dummy_vehicle("a", soc=0.5)
    g_a = mgr.request_charge(a, "st1", 0.9, 0)
    mgr.request_charge(dummy_vehicle("b"), "st1", 1.0, 0)
    mgr.request_charge(dummy_vehicle("c"), "st1", 1.0, 0)
    mgr.request_charge(dummy_vehicle("d"), "st1", 1.0, 0)
    assert [e.vehicle.vehicle_id for e in station.queue] == ["c", "d"]
    handoff = mgr.release_slot("st1", g_a.slot_id, ms(10))
    assert g_a.completed and not g_a.truncated
    assert a.state.soc == 0.9
    assert isinstance(handoff, ChargeSession)
    assert handoff.vehicle_id == "c"
    assert handoff.slot_id == g_a.slot_id
    assert handoff.enqueue_ms == 0 and handoff.grant_ms == ms(10)
    assert not handoff.completed
    assert [e.vehicle.vehicle_id for e in station.queue] == ["d"]
    mgr.release_slot("st1", handoff.slot_id, ms(20))
    assert [e.vehicle.vehicle_id for e in station.queue] == []
    mgr.assert_consistent()
    with pytest.raises(ChargingError, match="releasing free slot"):
        mgr.release_slot("st1", "s9", ms(30))


def test_release_free_slot_is_an_error():
    engine = Engine()
    mgr = ChargingManager(engine, [two_slot_station()], PARAMS)
    with pytest.raises(ChargingError, match="releasing free slot"):
        mgr.release_slot("st1", "s0", 0)


def test_leave_queue_removes_vehicle():
    engine = Engine()
    station = two_slot_station()
    mgr = ChargingManager(engine, [station], PARAMS)
    mgr.request_charge(dummy_vehicle("a"), "st1", 1.0, 0)
    mgr.request_charge(dummy_vehicle("b"), "st1", 1.0, 0)
    mgr.request_charge(dummy_vehicle("c"), "st1", 1.0, 0)
    mgr.leave_queue("c", "st1")
    assert station.queue == []
    with pytest.raises(ChargingError):
        mgr.leave_queue("c", "st1")
    mgr.assert_consistent()


def test_randomized_service_order_equals_arrival_order():
    # oracle: replay the grant log; per station it must be the identity
    # permutation on arrivals (FIFO), with occupancy never above the limit
    rng = np.random.default_rng(99)
    for case in range(100):
        engine = Engine()
        station = two_slot_station()
        mgr = ChargingManager(engine, [station], PARAMS)
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
            result = mgr.request_charge(vehicles[vid], "st1", 1.0, engine.now_ms)
            if isinstance(result, ChargeSession):
                grants.append(vid)
            assert len(station.occupancy) <= station.max_simultaneous
            mgr.assert_consistent()

        def on_complete(event):
            handoff = mgr.release_slot("st1", event.payload["slot"], engine.now_ms)
            if handoff is not None:
                grants.append(handoff.vehicle_id)
            assert len(station.occupancy) <= station.max_simultaneous
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


# --- wait-or-divert ---------------------------------------------------------------

def route_energy(net):
    return lambda route, hour: estimate_route_energy(net, route, PARAMS, ENV,
                                                     hour)


def saturated_manager(net):
    engine = Engine()
    st_a = two_slot_station("A", "e1")
    st_b = two_slot_station("B", "e2")
    mgr = ChargingManager(engine, [st_a, st_b], PARAMS)
    # occupy both slots of A with sessions lasting an hour or more
    for vid in ("o1", "o2"):
        mgr.request_charge(dummy_vehicle(vid, soc=0.8), "A", 1.0, 0)
    return engine, mgr, st_a, st_b


def test_select_station_waits_when_no_alternative():
    engine = Engine()
    st_a = two_slot_station("A", "e1")
    mgr = ChargingManager(engine, [st_a], PARAMS)
    mgr.request_charge(dummy_vehicle("o1"), "A", 1.0, 0)
    mgr.request_charge(dummy_vehicle("o2"), "A", 1.0, 0)
    net = line_network()
    me = dummy_vehicle("me", soc=0.5)
    decision = mgr.select_station(me, "A", net, 0, route_energy(net))
    assert decision is None


def test_select_station_diverts_to_free_nearby_station():
    net = line_network()
    engine, mgr, st_a, st_b = saturated_manager(net)
    me = dummy_vehicle("me", soc=0.5)
    queued = mgr.request_charge(me, "A", 1.0, 0)
    assert isinstance(queued, Queued)
    decision = mgr.select_station(me, "A", net, 0, route_energy(net))
    assert isinstance(decision, DivertTo)
    assert decision.station_id == "B"
    assert decision.route.edges == ["e1", "e2"]


def test_select_station_respects_energy_feasibility_gate():
    net = line_network()
    engine, mgr, st_a, st_b = saturated_manager(net)
    # soc barely above the safety margin: cannot reach B
    me = dummy_vehicle("me", soc=0.0501)
    mgr.request_charge(me, "A", 1.0, 0)
    decision = mgr.select_station(me, "A", net, 0, route_energy(net))
    assert decision is None


def test_select_station_prefers_waiting_when_local_wait_short():
    net = line_network()
    engine = Engine()
    st_a = two_slot_station("A", "e1")
    st_b = two_slot_station("B", "e2")
    mgr = ChargingManager(engine, [st_a, st_b], PARAMS)
    # occupants almost done: local wait ~ 5 s, divert costs >= 120 s travel
    for vid in ("o1", "o2"):
        vehicle = dummy_vehicle(vid, soc=0.9998)
        mgr.request_charge(vehicle, "A", 1.0, 0)
    me = dummy_vehicle("me", soc=0.5)
    mgr.request_charge(me, "A", 1.0, 0)
    decision = mgr.select_station(me, "A", net, 0, route_energy(net))
    assert decision is None


def test_truncate_active_sessions_keeps_partial_energy():
    engine = Engine()
    mgr = ChargingManager(engine, [two_slot_station()], PARAMS)
    vehicle = dummy_vehicle("a", soc=0.5)
    granted = mgr.request_charge(vehicle, "st1", 1.0, 0)
    assert granted.duration_s == pytest.approx(9000.0)
    mgr.truncate_active_sessions(ms(4500.0))
    s = granted
    assert s.truncated
    assert s.duration_s == pytest.approx(4500.0)
    assert s.energy_wh == pytest.approx(3600.0 * 4500.0 / 3600.0)
    assert vehicle.state.soc == pytest.approx(0.5 + s.energy_wh / 18000.0)


def test_session_progress_is_linear_and_capped_at_target():
    engine = Engine()
    params = make_params(charging_efficiency=0.9)
    mgr = ChargingManager(engine, [two_slot_station()], params)
    s = mgr.request_charge(dummy_vehicle("a", soc=0.5), "st1", 1.0, 0)
    # 3600 W at 90 % stores 3240 Wh per hour of an 18 kWh battery
    assert session_progress(s, params, 0.0) == (0.0, 0.5)
    energy, soc = session_progress(s, params, 3600.0)
    assert energy == pytest.approx(3240.0)
    assert soc == pytest.approx(0.5 + 3240.0 / 18000.0)
    assert session_progress(s, params, 2 * s.duration_s)[1] == 1.0


def test_station_rejects_non_positive_slot_power():
    for power in (0.0, -2300.0):
        with pytest.raises(ChargingError, match="slot powers must be positive"):
            ChargingStation("st1", "e1", [Slot("s0", power)], 1)
