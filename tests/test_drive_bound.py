"""The drive-steps cap of the scenario config against the drive model that it
bounds: ``build_config`` asks :func:`~evfleetsim.dynamics.longest_drive_s`
for each edge geometry at the slowest hour and counts its steps with
:func:`~evfleetsim.dynamics.step_count`, the step rule of every plan. The
prediction must be the length of the standstill-to-standstill plan, and no
plan that driving can reach may have more steps."""

import copy
import math
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_config_cli import BASE_SCENARIO, config_errors

from evfleetsim import cli
from evfleetsim.config import (MAX_DRIVE_STEPS, VEHICLE_PRESETS, ConfigError,
                               build_config)
from evfleetsim.dynamics import (DriveModel, DynamicsError, Environment,
                                 VehicleParams, leg_speeds, longest_drive_s,
                                 step_count)
from evfleetsim.network import Edge

ENV = Environment()
COMPACT = {k: v for k, v in VEHICLE_PRESETS["compact_ev"].items()
           if k != "range_extender"}


def vehicle(**overrides):
    return VehicleParams(**{**COMPACT, **overrides})


def predicted_steps(config, edge):
    """The steps that the config's cap counts for ``edge``."""
    slowest = min(config.network.hourly_speed_factors)
    return step_count(longest_drive_s(edge, slowest, config.vehicle_params,
                                      config.environment),
                      config.dynamics_dt_s)


def line_scenario(directory, streets, factors, a_max, d_max, dt):
    """A scenario on a line of streets, each a node apart, whose two
    directed edges share the street's ``(length, limit, gradient)``; its
    network files are written to ``directory``."""
    nodes = ["node_id,x_m,y_m"] + [f"n{i},{i},0"
                                   for i in range(len(streets) + 1)]
    edges = ["edge_id,from_node,to_node,length_m,speed_limit_mps,gradient"]
    for i, (length, limit, gradient) in enumerate(streets):
        edges += [f"a{i},n{i},n{i + 1},{length!r},{limit!r},{gradient!r}",
                  f"b{i},n{i + 1},n{i},{length!r},{limit!r},{gradient!r}"]
    (directory / "nodes.csv").write_text("\n".join(nodes) + "\n")
    (directory / "edges.csv").write_text("\n".join(edges) + "\n")
    raw = copy.deepcopy(BASE_SCENARIO)
    raw["network"] = {"grid": None, "hourly_speed_factors": factors,
                      "files": {"nodes": "nodes.csv", "edges": "edges.csv"}}
    raw["depot_edge"] = "a0"
    raw["stations"] = []
    raw["fleet"]["vehicle"]["overrides"] = {"max_acceleration_mps2": a_max,
                                            "max_deceleration_mps2": d_max}
    raw["numerics"]["dynamics_dt_s"] = dt
    return raw


@st.composite
def streets(draw, d_max):
    """A street whose length is drawn around the braking distance from its
    limit at ``d_max``, so that some are too short to stop in."""
    limit = draw(st.floats(1.0, 30.0))
    braking = limit * limit / (2.0 * d_max)
    length = max(1.0, braking * draw(st.floats(0.9, 2.0)))
    return length, limit, draw(st.floats(-0.3, 0.3))


# plans of up to a few thousand steps, so that each example stays quick
@settings(max_examples=60, deadline=None)
@given(data=st.data(), a_max=st.floats(0.1, 10.0), d_max=st.floats(0.1, 10.0),
       dt=st.floats(0.5, 2.0))
def test_the_cap_counts_the_longest_plan_of_every_accepted_config(
        data, a_max, d_max, dt):
    lines = data.draw(st.lists(streets(d_max), min_size=1, max_size=3))
    pool = data.draw(st.lists(st.floats(0.3, 1.0), min_size=1, max_size=4))
    factors = data.draw(st.lists(st.sampled_from(pool), min_size=24,
                                 max_size=24))
    with tempfile.TemporaryDirectory() as directory:
        raw = line_scenario(Path(directory), lines, factors, a_max, d_max, dt)
        try:
            config = build_config(raw, directory)
        except ConfigError:
            config = None
    assume(config is not None)
    model = DriveModel(config.vehicle_params, config.environment, dt)
    limits = sorted({limit for _, limit, _ in lines})
    slowest = min(factors)
    for edge in config.network.edges.values():
        predicted = predicted_steps(config, edge)
        assert predicted <= MAX_DRIVE_STEPS
        assert predicted == len(model.plan(edge, 0.0, 0.0,
                                           slowest).result.trace)
        for _ in range(3):
            factor = data.draw(st.sampled_from(sorted(set(factors))))
            velocity = data.draw(st.floats(0.0, edge.speed_limit_mps))
            next_limit = data.draw(st.sampled_from([None, *limits]))
            plan = model.plan(edge, *leg_speeds(velocity, edge, next_limit,
                                                factor), factor)
            assert len(plan.result.trace) <= predicted


@pytest.mark.parametrize("length, limit, params, ramp_bound_s", [
    # the bundled vehicle: 8 % below the bound the cap used to take
    (150.0, 30.0, vehicle(), 16.0),
    # gentle acceleration and hard braking: 4.8 times below it
    (50.0, 30.0, vehicle(max_acceleration_mps2=0.1,
                         max_deceleration_mps2=10.0), 153.16667),
])
def test_the_longest_drive_is_the_planned_one(length, limit, params,
                                              ramp_bound_s):
    edge = Edge("e", "a", "b", length, limit, 0.0)
    drive_s = longest_drive_s(edge, 1.0, params, ENV)
    # the bound length / v + v * (1 / a + 1 / d) / 2 at the cruise speed
    ramp = (1.0 / params.max_acceleration_mps2
            + 1.0 / params.max_deceleration_mps2) / 2.0
    assert length / limit + limit * ramp == pytest.approx(ramp_bound_s)
    assert drive_s < ramp_bound_s / 1.07
    for dt in (1.0, 0.1, 0.001):
        plan = DriveModel(params, ENV, dt).plan(edge, 0.0, 0.0, 1.0)
        assert plan.profile.duration == drive_s
        assert len(plan.result.trace) == step_count(drive_s, dt)


def test_a_cap_that_the_ramp_bound_overstated_admits_the_config(tmp_path):
    # 50 m streets at 30 m/s, 0.1 m/s^2 up and 10 m/s^2 down, at the
    # smallest step: the ramp bound reads 153,167 steps, over the cap, and
    # the plan has 31,781
    ramp = (1.0 / 0.1 + 1.0 / 10.0) / 2.0
    assert (50.0 / 30.0 + 30.0 * ramp) / 0.001 > MAX_DRIVE_STEPS
    raw = line_scenario(tmp_path, [(50.0, 30.0, 0.0)], [1.0] * 24, 0.1, 10.0,
                        0.001)
    config = build_config(raw, tmp_path)
    edge = config.network.edges["a0"]
    model = DriveModel(config.vehicle_params, config.environment, 0.001)
    steps = len(model.plan(edge, 0.0, 0.0, 1.0).result.trace)
    assert steps == predicted_steps(config, edge) == 31_781


def test_braking_within_the_planners_tolerance_admits_the_config(tmp_path):
    # the braking distance from the limit passes the length by 3e-11 m,
    # which the config used to refuse; the planner stops within its
    # tolerance, so a drive entered at the limit plans
    limit, d_max = 30.000000000003, VEHICLE_PRESETS["compact_ev"][
        "max_deceleration_mps2"]
    assert limit * limit / (2.0 * d_max) > 150.0
    raw = line_scenario(tmp_path, [(150.0, limit, 0.0)], [1.0] * 24, 2.5,
                        d_max, 1.0)
    config = build_config(raw, tmp_path)
    edge = config.network.edges["a0"]
    model = DriveModel(config.vehicle_params, config.environment, 1.0)
    assert model.plan(edge, limit, 0.0, 1.0).v_out == 0.0


@pytest.mark.parametrize("street, factor, message", [
    ((20.0, 30.0, 0.0), 1.0, "cannot brake from 30.00 to 0.00 m/s within "
                             "20.0 m"),
    ((250.0, 13.9, 0.0), 1e-305, "its drive at speed factor 1e-305 does "
                                 "not fit the millisecond clock"),
    ((250.0, 13.9, 0.0), 5e-324, "its drive at speed factor 4.94066e-324 "
                                 "does not fit the millisecond clock"),
    ((250.0, 0.3, 0.0), 5e-324, "its drive at speed factor 4.94066e-324 "
                                "does not fit the millisecond clock"),
], ids=["braking", "beyond_the_clock", "duration_overflows",
      "cruise_rounds_to_zero"])
def test_an_edge_the_planner_refuses_is_a_config_error(tmp_path, street,
                                                       factor, message):
    edge = Edge("e", "a", "b", *street)
    with pytest.raises(DynamicsError, match=message):
        longest_drive_s(edge, factor, vehicle(), ENV)
    raw = line_scenario(tmp_path, [street], [1.0] * 23 + [factor], 2.5, 3.0,
                        1.0)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert config_errors(path) == [
        f"network, environment, fleet.vehicle: edge a0: {message}"]
    assert cli.main(["validate", str(path)]) == 1


def test_the_traction_power_at_the_limit_must_be_finite():
    edge = Edge("e", "a", "b", 250.0, 13.9, 0.0)
    with pytest.raises(DynamicsError, match="traction power"):
        longest_drive_s(edge, 1.0, vehicle(), Environment(gravity=1e306))
    assert math.isfinite(longest_drive_s(edge, 1.0, vehicle(), ENV))


@pytest.mark.parametrize("duration_s, dt, steps", [
    (0.0, 1.0, 0), (1e-10, 1.0, 0), (1.0, 1.0, 1), (1.0 + 1e-10, 1.0, 1),
    (1.0 + 2e-9, 1.0, 2), (29.261397396368615, 1.0, 30),
    (29.261397396368615, 0.001, 29_262),
])
def test_step_count(duration_s, dt, steps):
    assert step_count(duration_s, dt) == steps
