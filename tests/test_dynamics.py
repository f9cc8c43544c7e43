import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sum_in_order, trace_soc

from evfleetsim import dynamics
from evfleetsim.dynamics import (Cumulative, DriveModel, DriveTrace,
                                 DynamicsError, Environment,
                                 InfeasibleSegmentError,
                                 RangeExtenderParams, SegmentResult,
                                 VehicleParams, VehicleState, drive_segment,
                                 estimate_route_energy, range_extender_step,
                                 traction_power)
from evfleetsim.engine import ms
from evfleetsim.network import (Edge, RoadNetwork, Route, generate_grid,
                                route_travel_time, shortest_path)

ENV = Environment()


def make_params(**overrides):
    base = dict(
        mass_kg=1500.0,
        drag_coefficient=0.3,
        frontal_area_m2=2.2,
        rolling_coefficient=0.01,
        drivetrain_efficiency=0.9,
        recuperation_efficiency=0.6,
        max_recuperation_power_w=30000.0,
        auxiliary_power_w=300.0,
        battery_capacity_wh=18000.0,
        max_charging_power_w=3600.0,
        max_acceleration_mps2=1.0,
        max_deceleration_mps2=1.0,
        range_extender=None,
    )
    base.update(overrides)
    return VehicleParams(**base)


def flat_edge(length=100.0, speed=10.0, gradient=0.0, eid="e"):
    return Edge(eid, "a", "b", length, speed, gradient)


def drive_time_s(trace):
    """How long the drive of ``trace`` takes, in seconds: the sum of its
    steps."""
    return float(np.sum(trace.dt_s))


def battery_wh(trace):
    """Energy put into the battery over ``trace``, in Wh: the integral of
    battery power, negative for a net discharge."""
    return float(-np.dot(trace.p_battery_w, np.asarray(trace.dt_s) / 3600.0))


def arrays(trace):
    """The step columns of ``trace`` as numpy arrays, for the assertions
    that compare whole columns; the trace holds tuples of floats."""
    return SimpleNamespace(**{
        f.name: np.asarray(getattr(trace, f.name), dtype=float)
        for f in dataclasses.fields(DriveTrace)
        if f.name not in ("soc0", "soc_scale", "row_texts")})


# --- traction power ------------------------------------------------------------

def test_traction_power_zero_at_standstill():
    assert traction_power(0.0, 0.0, 0.0, make_params(), ENV) == 0.0
    assert traction_power(0.0, 2.0, 0.1, make_params(), ENV) == 0.0


def test_traction_power_matches_hand_evaluation():
    # oracle: (0.01*1500*9.81 + 0.5*1.2*0.3*2.2*20^2) * 20 = 6111.0 W
    params = make_params()
    p = traction_power(20.0, 0.0, 0.0, params, ENV)
    assert p == pytest.approx(6111.0, rel=1e-12)


def test_traction_power_negative_when_coasting_hard():
    # oracle: (1500*(-1) + 147.15 + 158.4) * 20 = -23889 W
    p = traction_power(20.0, -1.0, 0.0, make_params(), ENV)
    assert p == pytest.approx(-23889.0, rel=1e-12)


def test_traction_power_gradient_terms():
    params = make_params()
    g = 0.05
    theta = math.atan(g)
    expected = (
        1500.0 * 9.81 * math.sin(theta)
        + 0.01 * 1500.0 * 9.81 * math.cos(theta)
        + 0.5 * 1.2 * 0.3 * 2.2 * 25.0
    ) * 5.0
    assert traction_power(5.0, 0.0, g, params, ENV) == pytest.approx(expected)


# --- battery power ---------------------------------------------------------------
# At constant speed on a steep downhill edge the wheels deliver a surplus, so
# drive_segment's battery power is the hotel load minus the recuperated inflow.

def downhill(params, soc=0.5, length=200.0, v=10.0, gradient=-0.1):
    state = VehicleState(soc=soc)
    result = drive_segment(state, flat_edge(length, v, gradient), v, v, 1.0,
                           DriveModel(params, ENV, 1.0))
    assert np.all(arrays(result.trace).p_traction_w < 0.0)
    return state, result


def test_battery_power_idle_hotel_load():
    params = make_params(auxiliary_power_w=200.0, max_recuperation_power_w=0.0)
    _, result = downhill(params)
    tr = arrays(result.trace)
    assert np.all(tr.p_recup_w == 0.0)
    assert np.all(tr.p_battery_w == 200.0)


def test_battery_power_recuperation_below_cap():
    params = make_params(auxiliary_power_w=0.0)
    _, result = downhill(params)
    tr = arrays(result.trace)
    inflow = -tr.p_traction_w * 0.6
    assert np.all(inflow < 30_000.0)
    np.testing.assert_allclose(tr.p_recup_w, inflow, rtol=1e-12)
    np.testing.assert_allclose(tr.p_battery_w, -inflow, rtol=1e-12)


def test_battery_power_recuperation_cap_binds():
    params = make_params(auxiliary_power_w=0.0, max_recuperation_power_w=5000.0)
    _, result = downhill(params)
    tr = arrays(result.trace)
    assert np.all(-tr.p_traction_w * 0.6 > 5000.0)
    assert np.all(tr.p_recup_w == 5000.0)
    assert np.all(tr.p_battery_w == -5000.0)


def test_recuperation_power_never_exceeds_bounds():
    rng = np.random.default_rng(3)
    for _ in range(200):
        cap = float(rng.uniform(0.0, 50_000.0))
        params = make_params(max_recuperation_power_w=cap)
        v = float(rng.uniform(5.0, 30.0))
        edge = flat_edge(float(rng.uniform(20.0, 500.0)), v,
                         float(rng.uniform(-0.3, 0.05)))
        result = drive_segment(VehicleState(soc=float(rng.uniform(0.1, 0.9))),
                               edge, 0.0, 0.0, 1.0,
                               DriveModel(params, ENV, 1.0))
        tr = arrays(result.trace)
        assert np.all(tr.p_recup_w >= 0.0)
        assert np.all(tr.p_recup_w <= np.minimum(
            np.maximum(-tr.p_traction_w, 0.0) * 0.6, cap) + 1e-9)


# --- range extender ----------------------------------------------------------------

RE = RangeExtenderParams(power_w=12000.0, soc_on=0.2, soc_off=0.4,
                         specific_fuel_l_per_kwh=0.3)


def test_range_extender_stays_off_above_threshold():
    params = make_params(range_extender=RE)
    assert range_extender_step(0.5, False, params) == (0.0, False)


def test_range_extender_turns_on_below_soc_on():
    params = make_params(range_extender=RE)
    assert range_extender_step(0.15, False, params) == (12000.0, True)


def test_range_extender_fuel_for_generated_energy():
    # on for the whole 10 s edge: 0.3 l/kWh * 12 kW * 10 s
    params = make_params(range_extender=RE)
    state = VehicleState(soc=0.3, range_extender_on=True)
    result = drive_segment(state, flat_edge(100.0, 10.0), 10.0, 10.0, 1.0,
                           DriveModel(params, ENV, 1.0))
    assert np.all(arrays(result.trace).p_re_w == 12000.0)
    assert state.cumulative.range_extended_wh == pytest.approx(
        12000.0 * 10.0 / 3600.0)
    assert state.cumulative.fuel_liters == pytest.approx(
        0.3 * 12.0 * 10.0 / 3600.0)


def test_range_extender_hysteresis_keeps_state_between_thresholds():
    params = make_params(range_extender=RE)
    _, on = range_extender_step(0.3, True, params)
    assert on is True
    _, off = range_extender_step(0.3, False, params)
    assert off is False


def test_range_extender_turns_off_at_soc_off():
    params = make_params(range_extender=RE)
    _, on = range_extender_step(0.4, True, params)
    assert on is False


def test_range_extender_hysteresis_property():
    # never on at soc >= soc_off, never freshly activated at soc >= soc_on
    params = make_params(range_extender=RE)
    rng = np.random.default_rng(11)
    on = False
    for _ in range(5000):
        soc = float(rng.uniform(0.0, 1.0))
        was_on = on
        _, on = range_extender_step(soc, on, params)
        if soc >= RE.soc_off:
            assert not on
        if on and not was_on:
            assert soc < RE.soc_on


def test_range_extender_threshold_validation():
    with pytest.raises(DynamicsError):
        RangeExtenderParams(power_w=1000.0, soc_on=0.5, soc_off=0.4)


# --- soc integration ------------------------------------------------------------------
# capacity * dSOC = -p_net * dt, clamped to [0, 1]

def test_integrate_soc_identity():
    # no recuperation and no hotel load: zero net power while coasting
    params = make_params(auxiliary_power_w=0.0, max_recuperation_power_w=0.0)
    state, result = downhill(params, soc=0.5)
    assert np.all(trace_soc(result.trace, 0.5) == 0.5)
    assert state.soc == 0.5


def test_integrate_soc_exact_depletion_clamps_at_zero():
    # a 36 kW hotel load empties the 50 Wh left in 5 s of the 20 s edge
    params = make_params(battery_capacity_wh=100.0, auxiliary_power_w=36_000.0,
                         max_recuperation_power_w=0.0)
    state = VehicleState(soc=0.5)
    result = drive_segment(state, flat_edge(200.0, 10.0, -0.1), 10.0, 10.0,
                           1.0, DriveModel(params, ENV, 1.0))
    assert result.stranded
    assert state.soc == 0.0
    assert float(trace_soc(result.trace, 0.5).min()) == 0.0
    assert drive_time_s(result.trace) == pytest.approx(5.0, rel=1e-9)
    assert result.duration_ms == 5000
    assert battery_wh(result.trace) == pytest.approx(-50.0, rel=1e-9)


def test_integrate_soc_charging():
    # oracle: constant surplus over 20 s, 0.6 of it recuperated, minus 300 W
    params = make_params(auxiliary_power_w=300.0)
    state, result = downhill(params, soc=0.5)
    surplus = -traction_power(10.0, 0.0, -0.1, params, ENV)
    expected = 0.5 + (0.6 * surplus - 300.0) * 20.0 / (18000.0 * 3600.0)
    assert state.soc > 0.5
    assert state.soc == pytest.approx(expected, rel=1e-9)


def test_integrate_soc_clamps_at_one():
    params = make_params(auxiliary_power_w=0.0)
    state, result = downhill(params, soc=0.99, length=2000.0)
    assert state.soc == 1.0
    assert float(trace_soc(result.trace, 0.99).max()) == 1.0
    assert (1.0 - 0.99) * 18000.0 == pytest.approx(battery_wh(result.trace),
                                                   rel=1e-9)


# --- drive_segment ----------------------------------------------------------------------

def test_pure_cruise_segment():
    params = make_params()
    state = VehicleState(soc=0.9)
    edge = flat_edge(100.0, 10.0)
    result = drive_segment(state, edge, 10.0, 10.0, 1.0,
                           DriveModel(params, ENV, 1.0))
    assert drive_time_s(result.trace) == pytest.approx(10.0)
    assert result.duration_ms == 10_000
    assert np.allclose(result.trace.a_mps2, 0.0)
    assert np.allclose(result.trace.v_mps, 10.0)
    assert state.cumulative.distance_m == pytest.approx(100.0, abs=1e-3)


def test_trapezoid_kinematics_oracle():
    # oracle: closed-form v^2/2a: accel 10 s / 50 m, cruise 10 s / 100 m,
    # decel 10 s / 50 m
    params = make_params()
    state = VehicleState(soc=0.9)
    edge = flat_edge(200.0, 10.0)
    result = drive_segment(state, edge, 0.0, 0.0, 1.0,
                           DriveModel(params, ENV, 1.0))
    assert drive_time_s(result.trace) == pytest.approx(30.0, abs=1e-9)
    assert result.duration_ms == 30_000
    assert state.cumulative.distance_m == pytest.approx(200.0, abs=1e-3)
    assert state.velocity == 0.0
    assert max(result.trace.v_mps) <= 10.0 + 1e-9


def test_triangular_profile_when_edge_too_short_for_cruise():
    params = make_params()
    state = VehicleState(soc=0.9)
    edge = flat_edge(50.0, 10.0)
    result = drive_segment(state, edge, 0.0, 0.0, 1.0,
                           DriveModel(params, ENV, 0.5))
    v_peak = math.sqrt(50.0)  # closed form for a = d = 1
    assert drive_time_s(result.trace) == pytest.approx(2 * v_peak, rel=1e-9)
    assert result.duration_ms == round(2000 * v_peak)
    assert max(result.trace.v_mps) < 10.0
    assert state.cumulative.distance_m == pytest.approx(50.0, abs=1e-3)


def test_unreachable_exit_target_ends_slower():
    params = make_params()
    state = VehicleState(soc=0.9)
    edge = flat_edge(10.0, 20.0)
    drive_segment(state, edge, 0.0, 20.0, 1.0, DriveModel(params, ENV, 0.1))
    assert state.velocity == pytest.approx(math.sqrt(20.0), rel=1e-9)
    assert state.cumulative.distance_m == pytest.approx(10.0, abs=1e-3)


def test_infeasible_braking_raises():
    params = make_params()
    state = VehicleState(soc=0.9)
    edge = flat_edge(10.0, 20.0)
    with pytest.raises(InfeasibleSegmentError):
        drive_segment(state, edge, 20.0, 0.0, 1.0,
                      DriveModel(params, ENV, 1.0))


def test_segment_energy_matches_soc_delta_exactly():
    # restatement of the integrator: capacity * dSOC * 3600 = -sum p_net dt
    params = make_params()
    state = VehicleState(soc=0.8)
    edge = flat_edge(300.0, 13.9)
    result = drive_segment(state, edge, 0.0, 0.0, 1.0,
                           DriveModel(params, ENV, 1.0))
    delta_wh = (state.soc - 0.8) * params.battery_capacity_wh
    integral_wh = battery_wh(result.trace)
    assert delta_wh == pytest.approx(integral_wh, rel=1e-9, abs=1e-9)
    c = state.cumulative
    net = c.consumed_wh - c.recuperated_wh - c.range_extended_wh
    assert -net == pytest.approx(integral_wh, rel=1e-9, abs=1e-9)


def scalar_battery_power(p_traction, params):
    """Reference chain: drivetrain losses, capped recuperation, hotel load."""
    if p_traction >= 0:
        return p_traction / params.drivetrain_efficiency + params.auxiliary_power_w
    recuperated = min(-p_traction * params.recuperation_efficiency,
                      params.max_recuperation_power_w)
    return params.auxiliary_power_w - recuperated


def test_trace_is_consistent_with_scalar_power_chain():
    # cross-check the vectorized integration against scalar operations
    params = make_params()
    state = VehicleState(soc=0.8)
    edge = flat_edge(250.0, 13.9, gradient=0.02)
    result = drive_segment(state, edge, 0.0, 5.0, 1.0,
                           DriveModel(params, ENV, 1.0))
    tr = result.trace
    soc = 0.8
    for i in range(len(tr)):
        p_t = traction_power(float(tr.v_mps[i]), float(tr.a_mps2[i]),
                             edge.gradient, params, ENV)
        assert p_t == pytest.approx(float(tr.p_traction_w[i]), rel=1e-9)
        p_b = scalar_battery_power(p_t, params)
        assert p_b == pytest.approx(float(tr.p_battery_w[i]), rel=1e-9)
        soc -= p_b * float(tr.dt_s[i]) / (params.battery_capacity_wh * 3600.0)
        soc = min(1.0, max(0.0, soc))
        assert soc == pytest.approx(float(trace_soc(tr, 0.8)[i]), abs=1e-12)


def test_flat_edge_work_matches_closed_form():
    # oracle: (c_rr*m*g + 0.5*rho*c_d*A*v^2) * d at constant speed
    params = make_params(auxiliary_power_w=0.0)
    state = VehicleState(soc=0.9)
    v, d = 15.0, 600.0
    edge = flat_edge(d, v)
    result = drive_segment(state, edge, v, v, 1.0,
                           DriveModel(params, ENV, 1.0))
    work = float(np.dot(result.trace.p_traction_w, result.trace.dt_s))
    expected = (0.01 * 1500.0 * 9.81 + 0.5 * 1.2 * 0.3 * 2.2 * v * v) * d
    assert work == pytest.approx(expected, rel=1e-4)


def test_gradient_asymmetry_matches_closed_form():
    # oracle: E_up - E_down = 2*m*g*sin(atan(grad))*d at equal constant speed
    params = make_params(auxiliary_power_w=0.0)
    v, d, grad = 12.0, 500.0, 0.04
    up = drive_segment(VehicleState(soc=0.9), flat_edge(d, v, grad), v, v, 1.0,
                       DriveModel(params, ENV, 1.0))
    down = drive_segment(VehicleState(soc=0.9), flat_edge(d, v, -grad), v, v,
                         1.0, DriveModel(params, ENV, 1.0))
    e_up = float(np.dot(up.trace.p_traction_w, up.trace.dt_s))
    e_down = float(np.dot(down.trace.p_traction_w, down.trace.dt_s))
    expected = 2.0 * 1500.0 * 9.81 * math.sin(math.atan(grad)) * d
    assert e_up - e_down == pytest.approx(expected, rel=1e-4)


def test_soc_stays_in_bounds_over_random_parameterizations():
    rng = np.random.default_rng(42)
    for _ in range(60):
        re = None
        if rng.random() < 0.5:
            lo = float(rng.uniform(0.05, 0.4))
            re = RangeExtenderParams(
                power_w=float(rng.uniform(2000, 30000)),
                soc_on=lo, soc_off=float(rng.uniform(lo + 0.05, 1.0)),
            )
        params = make_params(
            mass_kg=float(rng.uniform(800, 2500)),
            battery_capacity_wh=float(rng.uniform(100, 5000)),
            recuperation_efficiency=float(rng.uniform(0.1, 1.0)),
            max_recuperation_power_w=float(rng.uniform(0, 50000)),
            auxiliary_power_w=float(rng.uniform(0, 1000)),
            range_extender=re,
        )
        soc0 = float(rng.uniform(0.0, 1.0))
        state = VehicleState(soc=soc0,
                             range_extender_on=bool(rng.random() < 0.3 and re))
        v_lim = float(rng.uniform(5, 30))
        edge = flat_edge(float(rng.uniform(50, 2000)), v_lim,
                         float(rng.uniform(-0.15, 0.15)))
        dt = float(rng.uniform(0.2, 2.0))
        result = drive_segment(state, edge, 0.0, 0.0, 1.0,
                               DriveModel(params, ENV, dt))
        assert 0.0 <= float(trace_soc(result.trace, soc0).min())
        assert float(trace_soc(result.trace, soc0).max()) <= 1.0
        assert 0.0 <= state.soc <= 1.0
        # recuperation inflow never exceeds its bounds at any sample
        tr = arrays(result.trace)
        bound = np.minimum(
            np.maximum(-tr.p_traction_w, 0.0)
            * params.recuperation_efficiency,
            params.max_recuperation_power_w,
        )
        assert np.all(tr.p_recup_w <= bound + 1e-9)


def test_energy_conservation_over_random_trips():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        params = make_params(
            battery_capacity_wh=float(rng.uniform(5000, 40000)),
            auxiliary_power_w=float(rng.uniform(0, 800)),
        )
        state = VehicleState(soc=float(rng.uniform(0.5, 0.95)))
        soc0 = state.soc
        total_net_wh = 0.0
        v_prev = 0.0
        for _ in range(int(rng.integers(1, 8))):
            v_lim = float(rng.uniform(8, 25))
            edge = flat_edge(float(rng.uniform(100, 1500)), v_lim,
                             float(rng.uniform(-0.05, 0.05)))
            v_exit = float(rng.uniform(0, v_lim))
            result = drive_segment(state, edge, min(v_prev, v_lim), v_exit,
                                   1.0, DriveModel(params, ENV, 1.0))
            total_net_wh += battery_wh(result.trace)
            v_prev = state.velocity
            if result.stranded:
                break
        delta = (state.soc - soc0) * params.battery_capacity_wh
        scale = max(abs(delta), 1.0)
        assert abs(delta - total_net_wh) / scale < 1e-6


def test_soc_monotone_without_recuperation_on_nonnegative_gradient():
    params = make_params(max_recuperation_power_w=0.0, range_extender=None)
    state = VehicleState(soc=0.9)
    prev = 1.0
    for length, grad in [(400, 0.0), (300, 0.03), (500, 0.0), (200, 0.08)]:
        entry_soc = state.soc
        result = drive_segment(state, flat_edge(float(length), 14.0, grad),
                               0.0, 0.0, 1.0, DriveModel(params, ENV, 0.5))
        soc_values = trace_soc(result.trace, entry_soc)
        assert float(soc_values[0]) <= prev
        assert np.all(np.diff(soc_values) <= 1e-15)
        prev = float(soc_values[-1])


def test_stranding_truncates_segment():
    params = make_params(battery_capacity_wh=100.0, auxiliary_power_w=0.0)
    state = VehicleState(soc=0.05)  # 5 Wh: nowhere near enough for 2 km
    edge = flat_edge(2000.0, 15.0)
    result = drive_segment(state, edge, 0.0, 0.0, 1.0,
                           DriveModel(params, ENV, 1.0))
    assert result.stranded
    assert state.soc == 0.0
    assert state.cumulative.distance_m < 2000.0
    assert drive_time_s(result.trace) < 2000.0 / 15.0 + 30.0
    # flows stay ledger-exact even through the truncated step
    assert battery_wh(result.trace) == pytest.approx(-5.0, rel=1e-9)


def test_range_extender_can_sustain_demand_at_empty_battery():
    re = RangeExtenderParams(power_w=40000.0, soc_on=0.3, soc_off=0.8)
    params = make_params(range_extender=re, auxiliary_power_w=0.0)
    state = VehicleState(soc=0.02, range_extender_on=True)
    edge = flat_edge(1000.0, 10.0)
    result = drive_segment(state, edge, 0.0, 0.0, 1.0,
                           DriveModel(params, ENV, 1.0))
    assert not result.stranded
    c = state.cumulative
    assert c.distance_m == pytest.approx(1000.0, abs=1e-3)
    assert c.fuel_liters == pytest.approx(
        re.specific_fuel_l_per_kwh * c.range_extended_wh / 1000.0, rel=1e-12
    )


def test_range_extender_toggles_show_in_trace():
    re = RangeExtenderParams(power_w=5000.0, soc_on=0.5, soc_off=0.6)
    params = make_params(range_extender=re, battery_capacity_wh=300.0,
                         auxiliary_power_w=0.0)
    state = VehicleState(soc=0.55, range_extender_on=False)
    edge = flat_edge(3000.0, 15.0)
    result = drive_segment(state, edge, 0.0, 0.0, 1.0,
                           DriveModel(params, ENV, 1.0))
    on = arrays(result.trace).p_re_w > 0.0
    assert not on[0] and on.any()  # switched on during the edge
    # and switched off again, or still on at the end
    assert state.range_extender_on or np.any(on[:-1] & ~on[1:])


def test_recuperation_clamp_at_full_battery_keeps_ledger_exact():
    params = make_params(auxiliary_power_w=50.0)
    state = VehicleState(soc=1.0)
    edge = flat_edge(800.0, 14.0, gradient=-0.12)  # steep downhill from full
    result = drive_segment(state, edge, 14.0, 14.0, 1.0,
                           DriveModel(params, ENV, 1.0))
    assert float(trace_soc(result.trace, 1.0).max()) <= 1.0
    delta = (state.soc - 1.0) * params.battery_capacity_wh
    integral_wh = battery_wh(result.trace)
    assert delta == pytest.approx(integral_wh, abs=1e-9)
    c = state.cumulative
    net = c.consumed_wh - c.recuperated_wh - c.range_extended_wh
    assert -net == pytest.approx(integral_wh, abs=1e-9)


def test_trace_timestamps_fixed_step():
    params = make_params()
    state = VehicleState(soc=0.7)
    result = drive_segment(state, flat_edge(123.0, 9.0), 0.0, 0.0, 1.0,
                           DriveModel(params, ENV, 1.0))
    t = result.trace.time_s
    assert np.all(np.diff(t) > 0)
    assert np.allclose(np.diff(t)[:-1], 1.0)
    assert (len(result.trace) == len(result.trace.dt_s)
            == len(trace_soc(result.trace, 0.7)))


def test_plans_slice_their_step_starts_from_one_tuple():
    dt = 0.37
    grid = DriveModel(make_params(), ENV, dt)
    short = grid.step_starts(3)
    longer = grid.step_starts(40)
    again = grid.step_starts(5)
    for starts in (short, longer, again):
        expected = (np.arange(len(starts), dtype=float) * dt).tolist()
        assert [t.hex() for t in starts] == [t.hex() for t in expected]
    # after the longest plan so far, later plans share its float objects
    assert all(a is b for a, b in zip(again, longer))
    assert grid.step_starts(0) == ()
    # a plan shares the starts of an earlier, longer plan
    model = DriveModel(make_params(), ENV, 1.0)
    a, b = (drive_segment(VehicleState(soc=0.7), flat_edge(length, 9.0),
                          0.0, 0.0, 1.0, model).trace.time_s
            for length in (250.0, 120.0))
    assert all(x is y for x, y in zip(a, b))


def test_a_plan_holds_one_object_per_distinct_value():
    # cruise, full acceleration and the step length repeat along a plan:
    # in the six step columns, equal values other than zeros share one
    # float object; the cumulative energy almost never repeats, and is not
    # interned
    model = DriveModel(make_params(), ENV, 0.5)
    trace = drive_segment(VehicleState(soc=0.7), flat_edge(900.0, 12.0, 0.02),
                          0.0, 0.0, 1.0, model).trace
    for name in ("dt_s", "v_mps", "a_mps2", "p_traction_w", "p_battery_w",
                 "p_recup_w"):
        nonzero = [x for x in getattr(trace, name) if x]
        assert len({id(x) for x in nonzero}) == len(set(nonzero)), name
    # the step length and full acceleration and braking: 174 steps, 3 floats
    assert len({id(x) for x in trace.dt_s + trace.a_mps2 if x}) == 3


# --- route budgets ----------------------------------------------------------------------
# a route's budget is the battery energy of the plans that driving it would
# use: a drive at one speed factor that takes the fast path on every leg
# drains exactly the budget, up to float rounding

def drive_route(route, model, speed_factor, soc):
    """Drive ``route`` leg by leg from standstill at ``speed_factor`` with
    the controller's entry and exit rule, from ``soc``; returns the battery
    energy drained (Wh) and whether every leg took the fast path."""
    state = VehicleState(soc=soc)
    fast = True
    for edge, next_limit in route.legs:
        result = drive_segment(
            state, edge, *dynamics.leg_speeds(state.velocity, edge,
                                              next_limit, speed_factor),
            speed_factor, model)
        fast = fast and result.trace.soc0 is None
    return (soc - state.soc) * model.params.battery_capacity_wh, fast


def route_of(edges):
    limits = [e.speed_limit_mps for e in edges[1:]] + [None]
    return Route(tuple(e.edge_id for e in edges),
                 sum_in_order(e.length_m for e in edges),
                 tuple(zip(edges, limits)))


def test_no_fast_path_route_drains_more_than_its_budget():
    # mixed limits and gradients, where the steady-cruise estimate this
    # budget replaced was exceeded by about two routes in three
    params = make_params()
    model = DriveModel(params, ENV, 1.0)
    rng = np.random.default_rng(2014)
    n_fast = 0
    for i in range(3000):
        edges = []
        for k in range(int(rng.integers(1, 13))):
            limit = float(rng.uniform(5.0, 30.0))
            braking = limit * limit / (2.0 * params.max_deceleration_mps2)
            edges.append(Edge(f"e{i}_{k}", "a", "b",
                              braking + float(rng.uniform(0.0, 300.0)),
                              limit, float(rng.uniform(-0.12, 0.12))))
        route = route_of(edges)
        factor = float(rng.choice([0.5, 0.8, 1.0]))
        budget = estimate_route_energy(route, model, factor)
        drained, fast = drive_route(route, model, factor, 1.0)
        if fast:
            n_fast += 1
            assert drained <= budget + 1e-9 * abs(budget), (i, drained, budget)
    # from a full battery, a route that recuperates before it has spent as
    # much clamps; the rest take the fast path
    assert n_fast > 1000


@st.composite
def file_networks(draw, min_limit=0.5, min_factor=1e-3):
    """A network as a file gives it: a small grid of nodes whose edges have
    random lengths, speed limits of at least ``min_limit`` and gradients,
    each at least the braking distance from its limit, and 24 hourly
    factors of at least ``min_factor`` drawn from a pool of at most six, so
    factors repeat."""
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    grid = generate_grid(rows, cols, draw(st.floats(10.0, 500.0)), 10.0)
    d_max = make_params().max_deceleration_mps2
    edges = {}
    for eid, e in sorted(grid.edges.items()):
        limit = draw(st.floats(min_limit, 40.0))
        length = max(e.length_m * draw(st.floats(1.0, 3.0)),
                     limit * limit / (2.0 * d_max))
        edges[eid] = dataclasses.replace(
            e, length_m=length, speed_limit_mps=limit,
            gradient=draw(st.floats(-0.3, 0.3)))
    pool = draw(st.lists(st.floats(min_factor, 1.0), min_size=1, max_size=6))
    factors = draw(st.lists(st.sampled_from(pool), min_size=24, max_size=24))
    return RoadNetwork(grid.nodes, edges, factors), factors


def drawn_routes(net, data, n=3):
    ids = sorted(net.edges)
    for _ in range(n):
        frm, to = (data.draw(st.sampled_from(ids)) for _ in range(2))
        weight = data.draw(st.sampled_from(["travel_time", "distance"]))
        yield shortest_path(net, frm, to, weight)


# a slow limit at a small factor would plan drives of thousands of steps
@settings(max_examples=30, deadline=None)
@given(net_factors=file_networks(min_limit=2.0, min_factor=0.2),
       data=st.data())
def test_route_budget_equals_the_realised_energy_on_file_networks(
        net_factors, data):
    net, _ = net_factors
    model = DriveModel(make_params(), ENV, 1.0)
    for route in drawn_routes(net, data):
        for factor in sorted(set(net.hourly_speed_factors)):
            budget = estimate_route_energy(route, model, factor)
            drained, fast = drive_route(route, model, factor, 0.5)
            assert fast
            assert drained == pytest.approx(budget, rel=1e-9, abs=1e-12)


def travel_at_hour(net, route, factors, hour):
    return sum_in_order(net.edges[eid].length_m
                        / (net.edges[eid].speed_limit_mps * factors[hour])
                        for eid in route.edges)


# travel times take the hour's speed factor; at net.hourly_speed_factors[h]
# they must equal, bit for bit, the hour-based times they replaced, which
# scaled each speed limit by factors[h]

@settings(max_examples=60, deadline=None)
@given(net_factors=file_networks(), data=st.data())
def test_travel_times_at_the_hours_factor_equal_the_hourly_times(
        net_factors, data):
    net, factors = net_factors
    assert len(set(factors)) < 24
    for route in drawn_routes(net, data):
        for hour in range(24):
            assert (route_travel_time(route, net.hourly_speed_factors[hour])
                    == travel_at_hour(net, route, factors, hour))


def test_vanishing_edge_gives_an_empty_trace_and_keeps_the_soc():
    # a 1e-300 m edge lasts far less than one step: zero steps
    params = make_params(range_extender=RE)
    state = VehicleState(soc=0.5)
    result = drive_segment(state, flat_edge(1e-300, 14.0), 0.0, 0.0, 1.0,
                           DriveModel(params, ENV, 1.0))
    assert len(result.trace) == 0 and len(trace_soc(result.trace, 0.5)) == 0
    assert not result.stranded
    assert state.soc == 0.5 and not state.range_extender_on
    assert state.cumulative.consumed_wh == battery_wh(result.trace) == 0.0
    assert result.duration_ms == 0


# --- memoised plans ---------------------------------------------------------------------
# drive_segment through a filled plan memo must give the result of a fresh
# one to the last bit

def bits(x):
    """The bytes of a float, tuple or array, so that equality is bit for
    bit (signed zeros included)."""
    return np.asarray(x, dtype=float).tobytes()


STEP_COLUMNS = ("time_s", "dt_s", "v_mps", "a_mps2", "p_traction_w",
                "p_battery_w", "p_recup_w", "p_re_w", "soc_drop")


def assert_same_result(memo, fresh, entry_soc):
    for f in dataclasses.fields(SegmentResult):
        if f.name != "trace":
            assert getattr(memo, f.name) == getattr(fresh, f.name), f.name
    # row_texts, the trace's one mutable part, holds no value of the drive
    columns = {f.name: (getattr(memo.trace, f.name),
                        getattr(fresh.trace, f.name))
               for f in dataclasses.fields(DriveTrace)
               if f.name != "row_texts"}
    columns["soc"] = (trace_soc(memo.trace, entry_soc),
                      trace_soc(fresh.trace, entry_soc))
    for name, (a, b) in columns.items():
        if a is None:  # the entry SOC of a shared trace is the vehicle's
            assert name == "soc0" and b is None
            continue
        assert bits(a) == bits(b), name
        if name in STEP_COLUMNS:
            # tuples of floats, so that vehicles can share a plan's columns
            for column in (a, b):
                assert type(column) is tuple, name
                assert all(type(t) is float for t in column), name
                with pytest.raises(TypeError):
                    column[0] = 0.0
        elif name != "soc":
            assert isinstance(a, float) and isinstance(b, float), name
    for result in (memo, fresh):  # and so are plan results
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.stranded = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.trace.soc0 = 0.5


def drive_with_and_without_memo(edge, v_entry, v_exit, speed_factor, dt,
                                params, soc, re_on):
    """Drive ``edge`` through a plan memo that an earlier drive of the
    same edge filled, and through a fresh memo; both results must be equal.
    Returns the memoised result and the state after it."""
    model = DriveModel(params, ENV, dt)
    try:
        drive_segment(VehicleState(soc=0.5), edge, v_entry, v_exit,
                      speed_factor, model)
    except InfeasibleSegmentError:
        assert model.plans == {}  # an infeasible plan is not stored
        with pytest.raises(InfeasibleSegmentError):
            drive_segment(VehicleState(soc=soc), edge, v_entry, v_exit,
                          speed_factor, DriveModel(params, ENV, dt))
        return None, None
    assert len(model.plans) == 1
    memo_state = VehicleState(soc=soc, range_extender_on=re_on)
    fresh_state = VehicleState(soc=soc, range_extender_on=re_on)
    memo = drive_segment(memo_state, edge, v_entry, v_exit, speed_factor,
                         model)
    fresh = drive_segment(fresh_state, edge, v_entry, v_exit, speed_factor,
                          DriveModel(params, ENV, dt))
    assert len(model.plans) == 1
    assert_same_result(memo, fresh, soc)
    assert memo_state == fresh_state
    # the energy sums added to the state, formed as the integrator forms
    # them from its steps
    trace = arrays(memo.trace)
    hours = trace.dt_s / 3600.0
    c = memo_state.cumulative
    assert c.recuperated_wh == math.fsum(trace.p_recup_w * hours)
    assert c.range_extended_wh == math.fsum(trace.p_re_w * hours)
    return memo, memo_state


@settings(max_examples=300, deadline=None)
@given(
    length=st.floats(0.5, 600.0),
    speed_limit=st.floats(2.0, 30.0),
    gradient=st.one_of(st.sampled_from([0.0, -0.3, 0.3]),
                       st.floats(-0.3, 0.3)),
    speed_factor=st.floats(0.2, 1.0),
    entry_fraction=st.floats(0.0, 1.0),
    v_exit=st.floats(0.0, 30.0),
    dt=st.sampled_from([0.25, 1.0, 2.5]),
    capacity_wh=st.sampled_from([2.0, 20.0, 200.0, 18000.0]),
    range_extender=st.sampled_from([None, RE]),
    soc=st.one_of(st.sampled_from([0.0, 0.2, 0.4, 1.0]), st.floats(0.0, 1.0)),
    re_on=st.booleans(),
)
def test_memoised_plan_gives_the_uncached_result(
        length, speed_limit, gradient, speed_factor, entry_fraction, v_exit,
        dt, capacity_wh, range_extender, soc, re_on):
    params = make_params(battery_capacity_wh=capacity_wh,
                         range_extender=range_extender)
    drive_with_and_without_memo(
        flat_edge(length, speed_limit, gradient),
        entry_fraction * speed_limit * speed_factor, v_exit, speed_factor, dt,
        params, soc, re_on)


@pytest.mark.parametrize("regime", ["stranding", "relay_on", "relay_off",
                                    "full_battery"])
def test_memoised_plan_covers_the_step_loop(regime):
    # the draws above reach each branch of the step loop; these pin one each
    soc, re_on, gradient, re = {
        "stranding": (0.3, False, 0.1, None),
        "relay_on": (0.25, False, 0.1, RE),
        "relay_off": (0.35, True, -0.3, RE),
        "full_battery": (0.999, False, -0.3, None),
    }[regime]
    params = make_params(battery_capacity_wh=20.0, range_extender=re)
    result, state = drive_with_and_without_memo(
        flat_edge(400.0, 14.0, gradient), 0.0, 0.0, 1.0, 1.0, params, soc,
        re_on)
    if regime == "stranding":
        assert result.stranded and state.soc == 0.0
    elif regime == "full_battery":
        assert state.soc == 1.0 and not result.stranded
    else:
        assert state.range_extender_on is not re_on


# --- the scalar fast path ---------------------------------------------------------
# a drive that starts with the relay off and neither clamps nor switches
# reads its plan's flows without forming an array; it must agree bit for bit
# with the array formulas. A drive that starts with the relay on takes the
# step loop.

RELAY = {"absent": (None, False), "off": (RE, False), "on": (RE, True)}


def array_fast_path(plan, soc0, params, re_on):
    """The fast path in its array form: whether it applies, the SOC after
    each step and the energy sums (consumed, recuperated)."""
    cap = params.battery_capacity_wh
    re = params.range_extender
    shared = arrays(plan.result.trace)
    dts = shared.dt_s
    n = len(dts)
    p_consume = array_consumed_power(shared.p_traction_w, params)
    hours = dts / 3600.0
    p_net0 = p_consume - shared.p_recup_w
    soc_traj = soc0 - np.cumsum(p_net0 * dts) / (cap * 3600.0)
    if re is None:
        fast = n > 0 and soc_traj.min() > 0.0 and soc_traj.max() <= 1.0
    else:
        fast = (not re_on and n > 0 and soc_traj.min() >= re.soc_on
                and soc_traj.max() <= 1.0 and soc0 >= re.soc_on)
    sums = (math.fsum(p_consume * hours),
            math.fsum(shared.p_recup_w * hours))
    return bool(fast), soc_traj, sums


@settings(max_examples=300, deadline=None)
@given(
    length=st.floats(0.5, 600.0),
    speed_limit=st.floats(2.0, 30.0),
    gradient=st.one_of(st.sampled_from([0.0, -0.3, 0.3]),
                       st.floats(-0.3, 0.3)),
    v_exit=st.floats(0.0, 30.0),
    capacity_wh=st.sampled_from([2.0, 20.0, 200.0, 18000.0, 1e10]),
    relay=st.sampled_from(sorted(RELAY)),
    soc=st.one_of(st.sampled_from([0.0, 0.2, 0.4, 1.0]), st.floats(0.0, 1.0)),
)
def test_scalar_fast_path_matches_the_array_formulas(
        length, speed_limit, gradient, v_exit, capacity_wh, relay, soc):
    re, re_on = RELAY[relay]
    params = make_params(battery_capacity_wh=capacity_wh, range_extender=re)
    edge = flat_edge(length, speed_limit, gradient)
    model = DriveModel(params, ENV, 1.0)
    try:
        drive_segment(VehicleState(soc=0.5), edge, 0.0, v_exit, 1.0, model)
    except InfeasibleSegmentError:
        return
    (plan,) = model.plans.values()
    fast, soc_traj, (consumed, recuperated) = array_fast_path(
        plan, soc, params, re_on)
    for memo in (model, DriveModel(params, ENV, 1.0)):
        state = VehicleState(soc=soc, range_extender_on=re_on)
        result = drive_segment(state, edge, 0.0, v_exit, 1.0, memo)
        trace = result.trace
        # the fast path hands over the plan's result, the step loop a
        # result with its own SOC array
        assert (trace.soc_scale > 0.0) is fast
        assert (trace.soc0 is None) is fast
        if not fast:
            continue
        assert (result is plan.result) is (memo is model)
        assert bits(trace_soc(trace, soc)) == bits(soc_traj)
        assert bits(state.soc) == bits(soc_traj[-1])
        assert state.range_extender_on is False
        assert not result.stranded
        c = state.cumulative
        assert bits(c.consumed_wh) == bits(0.0 + consumed)
        assert bits(c.recuperated_wh) == bits(0.0 + recuperated)
        assert bits(c.range_extended_wh) == bits(0.0)
        assert bits(c.fuel_liters) == bits(0.0)
        assert bits(c.distance_m) == bits(0.0 + plan.distance_m)


@pytest.mark.parametrize("relay", ["absent", "off"])
def test_memoised_fast_path_uses_no_numpy_and_builds_no_array(relay):
    re, re_on = RELAY[relay]
    params = make_params(range_extender=re)
    edge = flat_edge(400.0, 14.0, 0.02)
    model = DriveModel(params, ENV, 1.0)
    drive_segment(VehicleState(soc=0.5), edge, 0.0, 0.0, 1.0, model)
    (plan,) = model.plans.values()
    state = VehicleState(soc=0.5, range_extender_on=re_on)
    # the module holds no numpy (see test_dynamics_imports_no_numpy)
    assert not any(getattr(value, "__name__", None) == "numpy"
                   for value in vars(dynamics).values())
    result = drive_segment(state, edge, 0.0, 0.0, 1.0, model)
    # the fast path builds nothing: it returns the plan's one result, and
    # every column of its trace is a tuple, which cannot be written
    assert result is plan.result
    trace = result.trace
    for name in STEP_COLUMNS:
        assert type(getattr(trace, name)) is tuple, name
    # the SOC is derived from the plan's cumulative energy and the entry
    # SOC, which the trace leaves to the vehicle
    assert trace.soc0 is None and trace.soc_scale == 18000.0 * 3600.0
    assert result.duration_ms == ms(plan.profile.duration)
    assert state.soc == 0.5 - plan.cum_last / trace.soc_scale
    assert state.range_extender_on is False


# --- checks on a memo hit ---------------------------------------------------------
# the speed_factor range and the entry speed depend only on the plan key, so
# they run when a plan is built; a key that fails them never gets a plan and
# raises on every call, even beside a valid plan for the same edge


def model_with_one_plan(edge):
    model = DriveModel(make_params(), ENV, 1.0)
    drive_segment(VehicleState(soc=0.5), edge, 0.0, 0.0, 1.0, model)
    assert len(model.plans) == 1
    return model


@pytest.mark.parametrize("speed_factor", [0.0, 1.5, math.nan])
def test_bad_speed_factor_raises_beside_a_memoised_plan(speed_factor):
    edge = flat_edge(200.0, 10.0)
    model = model_with_one_plan(edge)
    for _ in range(2):
        with pytest.raises(DynamicsError, match="speed_factor"):
            drive_segment(VehicleState(soc=0.5), edge, 0.0, 0.0,
                          speed_factor, model)
    assert len(model.plans) == 1


def test_too_fast_entry_raises_beside_a_memoised_plan():
    edge = flat_edge(200.0, 10.0)
    model = model_with_one_plan(edge)
    for _ in range(2):
        with pytest.raises(DynamicsError, match="entry speed"):
            drive_segment(VehicleState(soc=0.5, velocity=12.0), edge, 12.0,
                          0.0, 1.0, model)
    assert len(model.plans) == 1


@pytest.mark.parametrize("dt", [0.0, -1.0])
def test_drive_model_rejects_a_non_positive_dt(dt):
    with pytest.raises(DynamicsError, match="dt must be positive"):
        DriveModel(make_params(), ENV, dt)


# --- the array formulas ---------------------------------------------------------
# plans and the step loop work on floats and tuples; every numpy operation
# the array form of them used is elementwise or, for cumsum, sequential, so
# the plain floats must equal the array form's values bit for bit

def array_consumed_power(p_trac, params):
    """The battery power of propulsion and the auxiliary load, as arrays."""
    return (np.where(p_trac >= 0.0, p_trac / params.drivetrain_efficiency,
                     0.0) + params.auxiliary_power_w)


def array_plan(edge, v_entry, v_exit, speed_factor, model):
    """The plan of driving ``edge`` in its array form: the profile's
    velocity and position by ``np.where`` over the step bounds, differences
    by ``np.diff``, the energy out by ``np.cumsum``, and the step starts
    ``np.arange(n) * dt``."""
    params, dt = model.params, model.dt
    p = dynamics._plan_profile(
        edge.length_m, v_entry, v_exit, edge.speed_limit_mps * speed_factor,
        params.max_acceleration_mps2, params.max_deceleration_mps2)
    total = p.duration
    n_full = int(math.floor(total / dt + 1e-12))
    bounds = np.arange(n_full + 1, dtype=float) * dt
    if total - bounds[-1] > 1e-9:
        bounds = np.append(bounds, total)
    else:
        bounds[-1] = total
    dts = np.diff(bounds)
    t1, t2 = p.t_acc, p.t_acc + p.t_cruise
    vel = np.maximum(np.where(
        bounds <= t1, p.v_in + p.accel * bounds,
        np.where(bounds <= t2, p.v_peak,
                 p.v_peak - p.decel * (bounds - t2))), 0.0)
    s1 = p.v_in * t1 + 0.5 * p.accel * t1 * t1
    s2 = s1 + p.v_peak * p.t_cruise
    tau = bounds - t2
    pos = np.where(
        bounds <= t1, p.v_in * bounds + 0.5 * p.accel * bounds * bounds,
        np.where(bounds <= t2, s1 + p.v_peak * (bounds - t1),
                 s2 + p.v_peak * tau - 0.5 * p.decel * tau * tau))
    v_bar = np.diff(pos) / dts
    a_bar = np.diff(vel) / dts
    theta = math.atan(edge.gradient)
    m, g, env = params.mass_kg, model.env.gravity, model.env
    rolling = params.rolling_coefficient * m * g * math.cos(theta) * (v_bar > 0)
    aero = (0.5 * env.air_density * params.drag_coefficient
            * params.frontal_area_m2 * v_bar * v_bar)
    p_trac = (m * a_bar + m * g * math.sin(theta) + rolling + aero) * v_bar
    p_recup = np.where(
        p_trac < 0.0,
        np.minimum(-p_trac * params.recuperation_efficiency,
                   params.max_recuperation_power_w),
        0.0)
    p_consume = array_consumed_power(p_trac, params)
    p_net0 = p_consume - p_recup
    hours = dts / 3600.0
    cum = np.cumsum(p_net0 * dts)
    return SimpleNamespace(
        time_s=np.arange(len(dts)) * dt, dt_s=dts, v_mps=v_bar, a_mps2=a_bar,
        p_traction_w=p_trac, p_battery_w=p_net0, p_recup_w=p_recup,
        p_re_w=np.zeros(len(dts)), soc_drop=cum, pos=pos, hours=hours,
        p_consume=p_consume, duration_s=total, v_out=p.v_out,
        distance_m=float(pos[-1]),
        cum_min=float(cum.min()) if len(cum) else -math.inf,
        cum_max=float(cum.max()) if len(cum) else math.inf,
        cum_last=float(cum[-1]) if len(cum) else 0.0,
        consumed_wh=math.fsum(p_consume * hours),
        recuperated_wh=math.fsum(p_recup * hours))


def array_drive(plan, soc0, re_on, params):
    """The step loop in its array form, on an :func:`array_plan`: the
    columns of its trace, the SOC after each step, and the state after."""
    dts = plan.dt_s
    n = len(dts)
    cap = params.battery_capacity_wh
    re = params.range_extender
    flag = re_on
    stranded = False
    time_s, v_bar, a_bar = plan.time_s, plan.v_mps, plan.a_mps2
    p_trac = plan.p_traction_w
    duration, distance, exit_velocity = (plan.duration_s, plan.distance_m,
                                         plan.v_out)
    p_net0, p_consume = plan.p_battery_w, plan.p_consume
    p_recup = plan.p_recup_w.copy()
    p_net_eff = p_net0.copy()
    re_power_arr = np.zeros(n)
    soc_traj = np.empty(n)
    soc = soc0
    for k in range(n):
        dt_k = dts[k]
        re_power, flag = range_extender_step(soc, flag, params)
        p_net = p_net0[k] - re_power
        if p_net > 0.0:
            t_empty = soc * cap * 3600.0 / p_net
            if t_empty < dt_k * (1.0 - 1e-12):
                re_power_arr[k] = re_power
                p_net_eff[k] = p_net
                soc = 0.0
                soc_traj[k] = soc
                n = k + 1
                trunc_dt = max(t_empty, 0.0)
                stranded = True
                break
            soc -= p_net * dt_k / (cap * 3600.0)
        elif p_net < 0.0:
            t_full = (1.0 - soc) * cap * 3600.0 / (-p_net)
            if t_full < dt_k * (1.0 - 1e-12):
                frac = t_full / dt_k
                absorbed_re = min(re_power, p_consume[k])
                re_power_arr[k] = re_power * frac + absorbed_re * (1.0 - frac)
                p_recup[k] = p_recup[k] * frac + (
                    p_consume[k] - absorbed_re) * (1.0 - frac)
                p_net_eff[k] = p_consume[k] - p_recup[k] - re_power_arr[k]
                soc = 1.0
                soc_traj[k] = soc
                continue
            soc -= p_net * dt_k / (cap * 3600.0)
        re_power_arr[k] = re_power
        p_net_eff[k] = p_net
        soc_traj[k] = soc
    hours = plan.hours
    if stranded:
        dts = dts[:n].copy()
        dts[-1] = trunc_dt
        hours = dts / 3600.0
        time_s, v_bar, a_bar = time_s[:n], v_bar[:n], a_bar[:n]
        p_trac, p_recup = p_trac[:n], p_recup[:n]
        p_consume = p_consume[:n]
        re_power_arr, p_net_eff = re_power_arr[:n], p_net_eff[:n]
        soc_traj = soc_traj[:n]
        duration = float(time_s[-1] + dts[-1]) if n > 1 else float(dts[-1])
        distance = float(plan.pos[n - 1] + v_bar[n - 1] * dts[-1])
        exit_velocity = 0.0
    range_extended_wh = math.fsum(re_power_arr * hours)
    soc = float(soc_traj[-1]) if n > 0 else soc0
    if re is not None and soc >= re.soc_off:
        flag = False  # the relay settles where the drive ends
    c = Cumulative(
        consumed_wh=0.0 + math.fsum(p_consume * hours),
        recuperated_wh=0.0 + math.fsum(p_recup * hours),
        range_extended_wh=0.0 + range_extended_wh,
        fuel_liters=0.0 + (re.specific_fuel_l_per_kwh * range_extended_wh
                           / 1000.0 if re is not None else 0.0),
        distance_m=0.0 + distance)
    state = VehicleState(soc, exit_velocity, flag, c)
    columns = dict(time_s=time_s, dt_s=dts, v_mps=v_bar, a_mps2=a_bar,
                   p_traction_w=p_trac, p_battery_w=p_net_eff,
                   p_recup_w=p_recup, p_re_w=re_power_arr, soc=soc_traj)
    return columns, state, stranded, ms(duration)


def array_fast(plan, soc0, re_on, params):
    """Whether a drive of ``plan`` from ``soc0`` takes the fast path."""
    c = params.battery_capacity_wh * 3600.0
    lowest, highest = soc0 - plan.cum_max / c, soc0 - plan.cum_min / c
    re = params.range_extender
    if re is None:
        return lowest > 0.0 and highest <= 1.0
    return (not re_on and lowest >= re.soc_on and highest <= 1.0
            and soc0 >= re.soc_on)


PLAN_SCALARS = ("v_out", "distance_m", "cum_min", "cum_max",
                "cum_last", "consumed_wh", "recuperated_wh")


def assert_equals_the_array_form(edge, v_entry, v_exit, speed_factor, dt,
                                 params, soc, re_on):
    """Plan and drive ``edge`` from ``soc`` and compare every plan scalar,
    every column of the plan's trace and of the drive's, and the state
    after, bit for bit with the array form; returns the drive's result and
    the state after it, or ``None`` for an infeasible profile."""
    model = DriveModel(params, ENV, dt)
    state = VehicleState(soc=soc, range_extender_on=re_on)
    try:
        result = drive_segment(state, edge, v_entry, v_exit, speed_factor,
                               model)
    except InfeasibleSegmentError:
        return None
    (plan,) = model.plans.values()
    oracle = array_plan(edge, v_entry, v_exit, speed_factor, model)
    for name in PLAN_SCALARS:
        assert bits(getattr(plan, name)) == bits(getattr(oracle, name)), name
    shared = plan.result.trace
    assert plan.result.duration_ms == ms(oracle.duration_s)
    for name in STEP_COLUMNS:
        assert bits(getattr(shared, name)) == bits(getattr(oracle, name)), name
    fast = array_fast(oracle, soc, re_on, params)
    assert (result is plan.result) is fast
    if fast:
        return result, state
    columns, expected, stranded, duration_ms = array_drive(
        oracle, soc, re_on, params)
    trace = result.trace
    for name, column in columns.items():
        ours = trace_soc(trace, soc) if name == "soc" else getattr(trace, name)
        assert bits(ours) == bits(column), name
    assert (result.stranded, result.duration_ms) == (stranded, duration_ms)
    assert bits(state.soc) == bits(expected.soc)
    assert bits(state.velocity) == bits(expected.velocity)
    assert state.range_extender_on is expected.range_extender_on
    for f in dataclasses.fields(Cumulative):
        assert (bits(getattr(state.cumulative, f.name))
                == bits(getattr(expected.cumulative, f.name))), f.name
    return result, state


@settings(max_examples=300, deadline=None)
@given(
    length=st.one_of(st.sampled_from([1e-300, 0.5]), st.floats(0.5, 600.0)),
    speed_limit=st.floats(2.0, 30.0),
    gradient=st.one_of(st.sampled_from([0.0, -0.3, 0.3]),
                       st.floats(-0.3, 0.3)),
    speed_factor=st.floats(0.2, 1.0),
    entry_fraction=st.floats(0.0, 1.0),
    v_exit=st.floats(0.0, 30.0),
    dt=st.one_of(st.sampled_from([0.25, 1.0, 2.5]), st.floats(0.05, 5.0)),
    capacity_wh=st.sampled_from([2.0, 20.0, 200.0, 18000.0]),
    auxiliary_w=st.floats(0.0, 5000.0),
    recuperation_w=st.floats(0.0, 50000.0),
    range_extender=st.sampled_from([None, RE]),
    soc=st.one_of(st.sampled_from([0.0, 0.2, 0.4, 1.0]), st.floats(0.0, 1.0)),
    re_on=st.booleans(),
)
def test_plans_and_drives_equal_the_array_formulas(
        length, speed_limit, gradient, speed_factor, entry_fraction, v_exit,
        dt, capacity_wh, auxiliary_w, recuperation_w, range_extender, soc,
        re_on):
    params = make_params(battery_capacity_wh=capacity_wh,
                         auxiliary_power_w=auxiliary_w,
                         max_recuperation_power_w=recuperation_w,
                         range_extender=range_extender)
    assert_equals_the_array_form(
        flat_edge(length, speed_limit, gradient),
        entry_fraction * speed_limit * speed_factor, v_exit, speed_factor, dt,
        params, soc, re_on)


@pytest.mark.parametrize("regime", ["stranding", "full_battery", "relay_on"])
def test_step_loops_equal_the_array_formulas(regime):
    # the draws above reach each branch of the step loop; these pin one each
    soc, gradient, re = {
        "stranding": (0.3, 0.1, None),
        "full_battery": (0.999, -0.3, None),
        "relay_on": (0.25, 0.1, RE),
    }[regime]
    params = make_params(battery_capacity_wh=20.0, range_extender=re)
    result, state = assert_equals_the_array_form(
        flat_edge(400.0, 14.0, gradient), 0.0, 0.0, 0.7, 0.3, params, soc,
        False)
    assert result.trace.soc0 == -0.0  # the step loop's own trace
    if regime == "stranding":
        assert result.stranded and state.soc == 0.0
    elif regime == "full_battery":
        assert state.soc == 1.0 and not result.stranded
    else:
        assert state.range_extender_on and max(result.trace.p_re_w) > 0.0


def test_dynamics_imports_no_numpy():
    # the drive model runs on floats: a fresh interpreter that imports it
    # loads no numpy
    code = ("import sys, evfleetsim.dynamics; "
            "assert 'numpy' not in sys.modules, 'numpy loaded'")
    src = Path(dynamics.__file__).parent.parent
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})
