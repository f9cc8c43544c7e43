"""Vehicle energy model: longitudinal power flows, recuperation, range extender,
battery state-of-charge integration, and the trapezoidal drive-profile
integrator that turns a route edge into a velocity/power/SOC trace.

Sign conventions
----------------
* wheel (traction) power: positive = propulsion demand, negative = surplus
  braking power available for recuperation;
* battery terminal power: positive = discharge.

All step bookkeeping is exact by construction: the SOC change over a step is
precisely ``-p_net * dt / (capacity * 3600)``, so summed flows and SOC deltas
reconcile to float precision even across clamping at the 0/1 bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

from .engine import ms

S_PER_H = 3600.0
# the gentlest acceleration and braking a vehicle may have, below any road
# vehicle's (a loaded heavy truck manages about 0.3 m/s^2); a gentler one
# stretches a drive over more steps than a plan can hold (1e-300 m/s^2
# asks for about 2e151 on a 150 m edge)
MIN_ACCELERATION_MPS2 = 0.1
# the largest battery a vehicle may have, ten times the infinite_battery
# preset: the energy ledger reads battery energy back from the SOC, so its
# error grows with the capacity; a 2 h five-vehicle run closes it to 7.5e-10
# at 1e10 Wh, but only to 3.1e-6 at 1e13 Wh and to 0.61 at 1e18 Wh, against
# a bound of 1e-6
MAX_BATTERY_CAPACITY_WH = 1e10


class DynamicsError(ValueError):
    pass


class InfeasibleSegmentError(DynamicsError):
    """Entry speed too high to reach the exit target within the edge."""


@dataclass(frozen=True)
class Environment:
    """The physical constants of the drive model: gravity and air
    density."""

    gravity: float = 9.81  # m/s^2
    air_density: float = 1.2  # kg/m^3

    def __post_init__(self):
        if self.gravity <= 0 or self.air_density <= 0:
            raise DynamicsError("environment constants must be positive")


@dataclass(frozen=True)
class RangeExtenderParams:
    """Fuel-powered onboard generator with relay (hysteresis) control."""

    power_w: float
    soc_on: float = 0.20
    soc_off: float = 0.40
    specific_fuel_l_per_kwh: float = 0.28

    def __post_init__(self):
        if not 0 < self.power_w < math.inf:
            raise DynamicsError("range extender power must be finite and positive")
        if not (0.0 <= self.soc_on < self.soc_off <= 1.0):
            raise DynamicsError(
                "range extender thresholds need 0 <= soc_on < soc_off <= 1"
            )
        if not 0 <= self.specific_fuel_l_per_kwh < math.inf:
            raise DynamicsError("specific fuel rate must be finite and non-negative")


@dataclass(frozen=True)
class VehicleParams:
    """A vehicle model: mass, drag, rolling and drivetrain coefficients,
    recuperation, auxiliary and charging powers, battery capacity,
    acceleration limits and the optional range extender."""

    mass_kg: float
    drag_coefficient: float
    frontal_area_m2: float
    rolling_coefficient: float
    drivetrain_efficiency: float
    recuperation_efficiency: float
    max_recuperation_power_w: float
    auxiliary_power_w: float
    battery_capacity_wh: float
    max_charging_power_w: float
    max_acceleration_mps2: float
    max_deceleration_mps2: float
    range_extender: RangeExtenderParams | None = None
    charging_efficiency: float = 1.0

    def __post_init__(self):
        positive = {
            "mass_kg": self.mass_kg,
            "drag_coefficient": self.drag_coefficient,
            "frontal_area_m2": self.frontal_area_m2,
            "rolling_coefficient": self.rolling_coefficient,
            "battery_capacity_wh": self.battery_capacity_wh,
            "max_charging_power_w": self.max_charging_power_w,
        }
        for name, value in positive.items():
            if not 0 < value < math.inf:
                raise DynamicsError(f"{name} must be finite and positive")
        if self.battery_capacity_wh > MAX_BATTERY_CAPACITY_WH:
            raise DynamicsError(f"battery_capacity_wh must be at most "
                                f"{MAX_BATTERY_CAPACITY_WH:g} Wh")
        for name, value in (
            ("max_acceleration_mps2", self.max_acceleration_mps2),
            ("max_deceleration_mps2", self.max_deceleration_mps2),
        ):
            if not MIN_ACCELERATION_MPS2 <= value < math.inf:
                raise DynamicsError(f"{name} must be finite and at least "
                                    f"{MIN_ACCELERATION_MPS2} m/s^2")
        for name, value in (
            ("drivetrain_efficiency", self.drivetrain_efficiency),
            ("recuperation_efficiency", self.recuperation_efficiency),
            ("charging_efficiency", self.charging_efficiency),
        ):
            if not (0.0 < value <= 1.0):
                raise DynamicsError(f"{name} must be in (0, 1]")
        # zero disables the respective flow
        if not 0 <= self.max_recuperation_power_w < math.inf:
            raise DynamicsError("max_recuperation_power_w must be finite and non-negative")
        if not 0 <= self.auxiliary_power_w < math.inf:
            raise DynamicsError("auxiliary_power_w must be finite and non-negative")


@dataclass
class Cumulative:
    """Non-decreasing per-vehicle energy and distance counters."""

    consumed_wh: float = 0.0
    recuperated_wh: float = 0.0
    range_extended_wh: float = 0.0
    fuel_liters: float = 0.0
    distance_m: float = 0.0


@dataclass
class VehicleState:
    """A vehicle's physical state: SOC, speed, whether the range
    extender's relay is on, and its cumulative counters."""

    soc: float
    velocity: float = 0.0
    range_extender_on: bool = False
    cumulative: Cumulative = field(default_factory=Cumulative)


def traction_power(v: float, a: float, gradient: float, params: VehicleParams,
                   env: Environment) -> float:
    """Wheel power (W) for velocity ``v`` (m/s) and acceleration ``a`` (m/s^2)
    on a road with the given gradient (rise/run).

    ``P = (m*a + m*g*sin(theta) + c_rr*m*g*cos(theta)*[v>0]
          + 0.5*rho*c_d*A*v^2) * v`` with ``theta = atan(gradient)``.
    Takes scalars only: a plan calls it once per step.
    """
    theta = math.atan(gradient)
    m = params.mass_kg
    g = env.gravity
    rolling = params.rolling_coefficient * m * g * math.cos(theta) * (v > 0)
    aero = 0.5 * env.air_density * params.drag_coefficient * params.frontal_area_m2 * v * v
    return (m * a + m * g * math.sin(theta) + rolling + aero) * v


def range_extender_step(
    soc: float, on: bool, params: VehicleParams
) -> tuple[float, bool]:
    """One relay-control step of the range extender while driving.

    Turns on below ``soc_on``, off at or above ``soc_off``, keeps its state in
    between. Returns ``(generated power W, new flag)``.
    """
    re = params.range_extender
    if re is None:
        return 0.0, False
    if soc < re.soc_on:
        on = True
    elif soc >= re.soc_off:
        on = False
    if not on:
        return 0.0, False
    return re.power_w, True


def settle_relay(state: VehicleState, params: VehicleParams) -> None:
    """Switch the range extender's relay off if the SOC is at or above
    ``soc_off``, as its next step would. Called wherever a drive ends or a
    charge sets the SOC, so that no vehicle at rest holds the relay on
    there, and its next drive can take the fast path."""
    re = params.range_extender
    if re is not None and state.range_extender_on and state.soc >= re.soc_off:
        state.range_extender_on = False


# ---------------------------------------------------------------------------
# drive profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Profile:
    """Piecewise-constant-acceleration velocity profile over one edge."""

    v_in: float
    v_peak: float
    v_out: float
    t_acc: float
    t_cruise: float
    t_dec: float
    accel: float
    decel: float

    @property
    def duration(self) -> float:
        return self.t_acc + self.t_cruise + self.t_dec

    def velocity(self, t: float) -> float:
        if t <= self.t_acc:
            v = self.v_in + self.accel * t
        elif t <= self.t_acc + self.t_cruise:
            v = self.v_peak
        else:
            v = self.v_peak - self.decel * (t - (self.t_acc + self.t_cruise))
        # a rounding below standstill, and -0.0, read as 0.0
        return 0.0 if v <= 0.0 else v

    def position(self, t: float) -> float:
        t1 = self.t_acc
        if t <= t1:
            return self.v_in * t + 0.5 * self.accel * t * t
        t2 = self.t_acc + self.t_cruise
        s1 = self.v_in * t1 + 0.5 * self.accel * t1 * t1
        if t <= t2:
            return s1 + self.v_peak * (t - t1)
        s2 = s1 + self.v_peak * self.t_cruise
        tau = t - t2
        return s2 + self.v_peak * tau - 0.5 * self.decel * tau * tau


def _plan_profile(
    length: float, v_in: float, v_out_target: float, v_cruise: float,
    a_max: float, d_max: float,
) -> _Profile:
    eps = 1e-9
    v_in = min(v_in, v_cruise)
    v_out = min(v_out_target, v_cruise)

    if v_in > v_out:
        brake_dist = (v_in * v_in - v_out * v_out) / (2.0 * d_max)
        if brake_dist > length * (1.0 + eps) + eps:
            raise InfeasibleSegmentError(
                f"cannot brake from {v_in:.2f} to {v_out:.2f} m/s "
                f"within {length:.1f} m"
            )

    d_acc = max(0.0, (v_cruise * v_cruise - v_in * v_in) / (2.0 * a_max))
    d_dec = max(0.0, (v_cruise * v_cruise - v_out * v_out) / (2.0 * d_max))
    if d_acc + d_dec <= length:
        v_peak = v_cruise
        cruise_len = length - d_acc - d_dec
    else:
        cruise_len = 0.0
        peak_sq = (
            2.0 * a_max * d_max * length + d_max * v_in * v_in + a_max * v_out * v_out
        ) / (a_max + d_max)
        hi = max(v_in, v_out)
        if peak_sq >= hi * hi - eps:
            v_peak = math.sqrt(max(peak_sq, hi * hi))
        elif peak_sq < v_out * v_out:
            # exit target unreachable: accelerate for the whole edge
            v_peak = v_out = math.sqrt(v_in * v_in + 2.0 * a_max * length)
        else:
            raise InfeasibleSegmentError(
                f"no feasible profile on {length:.1f} m "
                f"(v_in={v_in:.2f}, v_out={v_out:.2f})"
            )

    t_acc = max(0.0, (v_peak - v_in) / a_max)
    t_dec = max(0.0, (v_peak - v_out) / d_max)
    t_cruise = cruise_len / v_peak if cruise_len > 0.0 else 0.0
    return _Profile(v_in, v_peak, v_out, t_acc, t_cruise, t_dec, a_max, d_max)


@dataclass(frozen=True, slots=True)
class DriveTrace:
    """Fixed-step samples over one edge; the last step may be shorter.

    Every column is a tuple of floats. ``time_s`` marks the start of each
    step, which the tick sampler bisects; ``v``/``a`` are the exact step
    averages. The state of charge at the end of step ``i`` is ``soc0 -
    soc_drop[i] / soc_scale``, read one element at a time with these IEEE
    operations. The trace a plan shares with every fast-path drive of it
    holds the plan's cumulative battery energy in W*s as ``soc_drop``, the
    capacity in W*s as ``soc_scale``, and ``soc0 = None``: the base is each
    vehicle's entry SOC, which the vehicle keeps (see
    :class:`~evfleetsim.fleet.Vehicle`). A step-loop trace stores its own
    SOCs as ``soc_drop`` with ``soc0 = -0.0`` and ``soc_scale = -1.0``,
    which gives every element back exactly, signed zeros included.

    Tuples cannot be written, so traces can share them. The one mutable
    part is ``row_texts``, one ``None`` per sample when built: the
    ``ticks.csv`` row template of each sample, stored by
    :func:`~evfleetsim.metrics._row_tail` on its first read, so a shared
    plan's samples are formatted once per run.
    """

    time_s: tuple[float, ...]
    dt_s: tuple[float, ...]
    v_mps: tuple[float, ...]
    a_mps2: tuple[float, ...]
    p_traction_w: tuple[float, ...]
    p_battery_w: tuple[float, ...]
    p_recup_w: tuple[float, ...]
    p_re_w: tuple[float, ...]
    soc0: float | None
    soc_drop: tuple[float, ...]
    soc_scale: float
    row_texts: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "row_texts", [None] * len(self.time_s))

    def __len__(self) -> int:
        return len(self.time_s)


@dataclass(frozen=True, slots=True)
class SegmentResult:
    """What :func:`drive_segment` hands back besides what it adds to the
    vehicle state: the trace to sample, how long the drive takes on the
    millisecond clock (:func:`~evfleetsim.engine.ms` of its duration in
    seconds), and whether the vehicle stranded on the edge. Read-only: a
    plan's result is shared by every vehicle that drives the plan."""

    trace: DriveTrace
    duration_ms: int
    stranded: bool


@dataclass(frozen=True)
class _SegmentPlan:
    """The part of :func:`drive_segment` that does not depend on the state
    of charge: the velocity profile, its steps, the power flows with the
    range extender off, and ``result``, shared by every fast-path drive.
    ``cum_min``, ``cum_max`` and ``cum_last`` are the extremes and last
    value of the cumulative battery energy out, ``result.trace.soc_drop``.
    What only the step loop reads, it recomputes from these."""

    profile: _Profile
    v_out: float
    distance_m: float
    cum_min: float
    cum_max: float
    cum_last: float
    result: SegmentResult
    # the energy sums of a drive without range extender and clamping
    consumed_wh: float
    recuperated_wh: float


def _consumed_power(p_trac: float, params: VehicleParams) -> float:
    """The battery power (W) a step of wheel power ``p_trac`` draws for
    propulsion and the auxiliary load, before recuperation."""
    drive = p_trac / params.drivetrain_efficiency if p_trac >= 0.0 else 0.0
    return drive + params.auxiliary_power_w


def _plan_segment(edge, v_entry: float, v_exit_target: float, v_cruise: float,
                  model: DriveModel) -> _SegmentPlan:
    """Plan one drive in one pass over its steps, which appends each step's
    values to the trace columns and keeps nothing else per step. In the
    columns, equal floats are one object, the one ``intern`` stored first:
    a plan's steps repeat few values (the step length, the acceleration,
    cruise), and a float object takes 24 bytes beside its 8-byte slot.
    Zeros stay as they are, since a dict key keeps no sign. The cumulative
    energy is not interned: its values almost never repeat, and would only
    fill the dict while the plan is built."""
    params, dt, env = model.params, model.dt, model.env
    profile = _plan_profile(
        edge.length_m, v_entry, v_exit_target, v_cruise,
        params.max_acceleration_mps2, params.max_deceleration_mps2,
    )
    total = profile.duration

    # the step bounds k * dt, the last one moved or added to end at total;
    # the starts stay a slice of the model's grid
    n_full = int(math.floor(total / dt + 1e-12))
    starts = model.step_starts(n_full + 1)
    if total - starts[-1] <= 1e-9:
        starts = starts[:-1]

    gradient = edge.gradient
    r_eff = params.recuperation_efficiency
    r_max = params.max_recuperation_power_w
    intern = {}.setdefault
    columns = ([], [], [], [], [], [])
    cums = []
    bounds = chain(starts, (total,))
    t0 = next(bounds)
    x0, u0 = profile.position(t0), profile.velocity(t0)
    cum = None  # W*s out, with the range extender off
    for t1 in bounds:
        x1, u1 = profile.position(t1), profile.velocity(t1)
        d = t1 - t0
        v = (x1 - x0) / d
        a = (u1 - u0) / d
        p = traction_power(v, a, gradient, params, env)
        if p < 0.0:
            r = -p * r_eff
            r = r if r < r_max else r_max
        else:
            r = 0.0
        net = _consumed_power(p, params) - r
        cum = net * d if cum is None else cum + net * d
        for column, x in zip(columns, (d, v, a, p, net, r)):
            column.append(intern(x, x) if x else x)
        cums.append(cum)
        t0, x0, u0 = t1, x1, u1
    dt_s, v_mps, a_mps2, p_trac_w, p_battery_w, p_recup_w = (
        tuple(column) for column in columns)
    soc_drop = tuple(cums)
    # a vanishing edge has no step: extremes of -inf and +inf put every SOC
    # outside its bounds, so its drive takes the step loop
    cum_min, cum_max, cum_last = (
        (min(soc_drop), max(soc_drop), cum) if cum is not None
        else (-math.inf, math.inf, 0.0))
    c = params.battery_capacity_wh * S_PER_H  # as drive_segment forms it
    trace = DriveTrace(starts, dt_s, v_mps, a_mps2, p_trac_w, p_battery_w,
                       p_recup_w, (0.0,) * len(dt_s), None, soc_drop, c)
    return _SegmentPlan(
        profile=profile,
        v_out=profile.v_out,
        distance_m=x0,
        cum_min=cum_min,
        cum_max=cum_max,
        cum_last=cum_last,
        result=SegmentResult(trace, ms(total), False),
        consumed_wh=math.fsum(_consumed_power(p, params) * (d / S_PER_H)
                              for p, d in zip(p_trac_w, dt_s)),
        recuperated_wh=math.fsum(r * (d / S_PER_H)
                                 for r, d in zip(p_recup_w, dt_s)),
    )


class DriveModel:
    """The fleet's one vehicle model, environment and drive time step
    ``dt`` (s), with ``plans``, the memo of :meth:`plan` that is valid only
    for these three, and the step grid that its plans slice their step
    starts from. ``dt`` is checked once, here."""

    def __init__(self, params: VehicleParams, env: Environment, dt: float):
        if dt <= 0:
            raise DynamicsError("dt must be positive")
        self.params = params
        self.env = env
        self.dt = dt
        self.plans: dict = {}
        # the step starts k * dt of the longest plan so far: every plan
        # slices its starts from it, so plans share the float objects
        self._grid: tuple[float, ...] = ()

    def step_starts(self, n: int) -> tuple[float, ...]:
        """The first ``n`` step starts ``k * dt``, each one product."""
        if len(self._grid) < n:
            self._grid = tuple(k * self.dt for k in range(n))
        return self._grid[:n]

    def plan(self, edge, v_entry: float, v_exit_target: float,
             speed_factor: float) -> _SegmentPlan:
        """The plan of driving ``edge`` from ``v_entry`` toward
        ``v_exit_target`` at ``speed_factor``: the one memo lookup of both
        driving (:func:`drive_segment`) and budgeting
        (:func:`estimate_route_energy`). ``plans`` is keyed by the edge's
        geometry and the drive, not by edge id, so it grows with the
        network's distinct edges and speeds, not with the fleet or the
        clock; a fresh model plans afresh, to the same bit. The checks of
        ``speed_factor`` and of ``v_entry`` against the effective limit
        depend only on the key, so they run when a plan is built; a key
        that fails them or whose profile is infeasible is never stored."""
        key = (edge.length_m, edge.speed_limit_mps, edge.gradient, v_entry,
               v_exit_target, speed_factor)
        plan = self.plans.get(key)
        if plan is None:
            if not (0.0 < speed_factor <= 1.0):
                raise DynamicsError("speed_factor must be in (0, 1]")
            v_cruise = edge.speed_limit_mps * speed_factor
            if v_entry > v_cruise * (1.0 + 1e-9):
                raise DynamicsError(
                    f"entry speed {v_entry:.2f} exceeds effective limit "
                    f"{v_cruise:.2f}")
            plan = self.plans[key] = _plan_segment(
                edge, v_entry, v_exit_target, v_cruise, self)
        return plan


def leg_speeds(velocity: float, edge, next_limit: float | None,
               speed_factor: float) -> tuple[float, float]:
    """The entry speed and exit target of a route leg entered at
    ``velocity`` (see :class:`~evfleetsim.network.Route`): at most the
    edge's effective limit in, and out toward the lower of it and the next
    edge's, or to standstill after the last leg."""
    limit = edge.speed_limit_mps * speed_factor
    # min() of each pair, without the builtin's call: this runs per leg
    v_entry = limit if limit < velocity else velocity
    if next_limit is None:
        return v_entry, 0.0
    v_exit = next_limit * speed_factor
    return v_entry, (v_exit if v_exit < limit else limit)


def drive_segment(
    state: VehicleState,
    edge,
    v_entry: float,
    v_exit_target: float,
    speed_factor: float,
    model: DriveModel,
) -> SegmentResult:
    """Drive one edge with a trapezoidal velocity profile and integrate the
    power-flow chain into the vehicle state.

    The vehicle accelerates at its limit toward ``speed_limit_mps *
    speed_factor`` of ``edge``, cruises, and decelerates so the exit speed
    does not exceed ``v_exit_target``; an edge too short to reach the target
    ends at whatever speed acceleration achieves. Entering faster than
    braking allows raises :class:`InfeasibleSegmentError`. When the battery
    empties and the range extender cannot carry the demand, the segment is
    truncated and flagged stranded. The work that does not depend on the
    state of charge is the memoised :meth:`DriveModel.plan`.

    A drive that starts with no range extender or with its relay off, and
    whose SOC stays inside its bounds without switching the relay on (the
    fast path), adds the plan's sums to the state and returns the plan's one
    result, with no per-step work and no new object. Its trace holds no
    entry SOC (``soc0`` is ``None``): the caller keeps ``state.soc`` from
    before the call (see :class:`DriveTrace`). The SOC after step ``i`` is
    ``soc0 - cum[i] / c``, ``cum`` the plan's cumulative battery energy and
    ``c`` the capacity in W*s; division by a positive ``c`` and subtraction
    are each correctly rounded and monotone, so ``cum_max`` and ``cum_min``
    give the lowest and highest SOC bit for bit. Every other drive takes a
    step loop that switches the relay and clamps at empty or full, and
    returns a result of its own.
    """
    params = model.params
    plan = model.plan(edge, v_entry, v_exit_target, speed_factor)
    c = params.battery_capacity_wh * S_PER_H
    soc0 = state.soc
    re = params.range_extender
    lowest = soc0 - plan.cum_max / c
    highest = soc0 - plan.cum_min / c
    if re is None:
        fast = lowest > 0.0 and highest <= 1.0
    else:
        fast = (not state.range_extender_on and lowest >= re.soc_on
                and highest <= 1.0 and soc0 >= re.soc_on)
    if fast:
        state.soc = soc0 - plan.cum_last / c
        state.velocity = plan.v_out
        cumulative = state.cumulative
        cumulative.consumed_wh += plan.consumed_wh
        cumulative.recuperated_wh += plan.recuperated_wh
        cumulative.distance_m += plan.distance_m
        return plan.result
    return _drive_steps(state, plan, params)


def _drive_steps(state: VehicleState, plan: _SegmentPlan,
                 params: VehicleParams) -> SegmentResult:
    """The step loop of :func:`drive_segment`: it switches the range
    extender relay, starting from ``state.range_extender_on``, and clamps
    at empty or full, writing into list copies of the plan's shared
    columns. It builds a result of its own, with the vehicle's SOCs in its
    trace."""
    shared = plan.result.trace
    dts = list(shared.dt_s)
    n = len(dts)
    cap = params.battery_capacity_wh
    soc0 = state.soc
    re = params.range_extender
    flag = state.range_extender_on
    stranded = False
    time_s, v_bar, a_bar = shared.time_s, shared.v_mps, shared.a_mps2
    p_trac = shared.p_traction_w
    duration, distance = plan.profile.duration, plan.distance_m
    exit_velocity = plan.v_out
    p_net0 = shared.p_battery_w
    p_consume = [_consumed_power(p, params) for p in p_trac]
    p_recup = list(shared.p_recup_w)
    p_net_eff = list(p_net0)
    re_power_arr = [0.0] * n
    soc_traj = [0.0] * n
    soc = soc0
    for k in range(n):
        dt_k = dts[k]
        re_power, flag = range_extender_step(soc, flag, params)
        p_net = p_net0[k] - re_power
        if p_net > 0.0:
            t_empty = soc * cap * S_PER_H / p_net
            if t_empty < dt_k * (1.0 - 1e-12):
                # battery empties mid-step: truncate and strand
                re_power_arr[k] = re_power
                p_net_eff[k] = p_net
                soc = 0.0
                soc_traj[k] = soc
                n = k + 1
                trunc_dt = max(t_empty, 0.0)
                stranded = True
                break
            soc -= p_net * dt_k / (cap * S_PER_H)
        elif p_net < 0.0:
            t_full = (1.0 - soc) * cap * S_PER_H / (-p_net)
            if t_full < dt_k * (1.0 - 1e-12):
                # battery full mid-step: curtail inflow for the remainder
                frac = t_full / dt_k
                absorbed_re = min(re_power, p_consume[k])
                re_power_arr[k] = re_power * frac + absorbed_re * (1.0 - frac)
                p_recup[k] = p_recup[k] * frac + (
                    p_consume[k] - absorbed_re) * (1.0 - frac)
                p_net_eff[k] = p_consume[k] - p_recup[k] - re_power_arr[k]
                soc = 1.0
                soc_traj[k] = soc
                continue
            soc -= p_net * dt_k / (cap * S_PER_H)
        re_power_arr[k] = re_power
        p_net_eff[k] = p_net
        soc_traj[k] = soc
    if stranded:
        del dts[n:], p_consume[n:], p_recup[n:], re_power_arr[n:]
        del p_net_eff[n:], soc_traj[n:]
        dts[-1] = trunc_dt
        time_s, v_bar, a_bar = time_s[:n], v_bar[:n], a_bar[:n]
        p_trac = p_trac[:n]
        duration = time_s[-1] + dts[-1] if n > 1 else dts[-1]
        distance = (plan.profile.position(time_s[n - 1])
                    + v_bar[n - 1] * dts[-1])
        exit_velocity = 0.0
    hours = [d / S_PER_H for d in dts]
    range_extended_wh = math.fsum(
        r * h for r, h in zip(re_power_arr, hours))
    fuel_l = 0.0
    if re is not None:
        fuel_l = re.specific_fuel_l_per_kwh * range_extended_wh / 1000.0
    trace = DriveTrace(time_s, tuple(dts), v_bar, a_bar, p_trac,
                       tuple(p_net_eff), tuple(p_recup), tuple(re_power_arr),
                       -0.0, tuple(soc_traj), -1.0)

    state.soc = soc_traj[-1] if n > 0 else soc0
    state.velocity = exit_velocity
    state.range_extender_on = flag
    settle_relay(state, params)
    state.cumulative.consumed_wh += math.fsum(
        c * h for c, h in zip(p_consume, hours))
    state.cumulative.recuperated_wh += math.fsum(
        r * h for r, h in zip(p_recup, hours))
    state.cumulative.range_extended_wh += range_extended_wh
    state.cumulative.fuel_liters += fuel_l
    state.cumulative.distance_m += distance

    return SegmentResult(trace=trace, duration_ms=ms(duration),
                         stranded=stranded)


def estimate_route_energy(route, model: DriveModel,
                          speed_factor: float) -> float:
    """The battery energy (Wh) of driving ``route`` from standstill at
    ``speed_factor``: the ``cum_last`` of the plans that driving it would
    use, chained leg by leg with :func:`leg_speeds`, added with
    ``math.fsum``. A drive of the route at this factor whose every leg takes
    the fast path of :func:`drive_segment` (relay off, no clamping) drains
    exactly this energy, up to float rounding."""
    velocity = 0.0
    energies = []
    for edge, next_limit in route.legs:
        v_entry, v_exit = leg_speeds(velocity, edge, next_limit, speed_factor)
        plan = model.plan(edge, v_entry, v_exit, speed_factor)
        energies.append(plan.cum_last)
        velocity = plan.v_out
    return math.fsum(energies) / S_PER_H
