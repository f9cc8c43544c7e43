"""Trip demand sampling and the vehicle lifecycle.

Jobs are depot-based round trips: a destination point is drawn by straight-line
distance and uniform bearing from the depot, snapped to the nearest road edge,
and routed out and back. Dispatch assigns each job to the idle vehicle with the
highest SOC that can cover the round trip plus a reserve; jobs with no feasible
vehicle wait for the next vehicle to become available.

Each run constant is bound once, where its owner is built: the controller's
:class:`~evfleetsim.dynamics.DriveModel` holds the fleet's one vehicle model,
environment and drive time step with the memo of drive plans; the charging
manager holds the vehicle model and the fleet's one target SOC; and each
:class:`~evfleetsim.network.Route` carries its legs, which the vehicles drive.
A :class:`Vehicle` carries only its state. Congestion enters once, where the
controller maps the hour to the network's speed factor; so a fact derived from
a route depends only on the route and the factor. A route's energy is that of
the drive plans that driving it at that factor would use. The controller
memoises the route energies and the divert alternatives: it hands the charging
manager those within the vehicle's SOC budget, and the manager only compares
waits. The dispatch budget is monotone in SOC, so the idle vehicle with the
highest SOC (ties to the first in fleet order) is feasible exactly when any
idle vehicle is, and it is the only one checked: the top of a heap of ``(-soc,
fleet index)``, pushed whenever a vehicle becomes idle and popped when it is
dispatched, the only way out of the idle state; so the heap holds exactly the
idle vehicles. A vehicle's SOC must not change while it is idle: only driving
and completing a charge move it, and neither happens in the idle state.

The controller schedules every event of a charging episode; the charging
manager only grants slots and returns the sessions it starts.

A route is driven with one :class:`~evfleetsim.engine.Event`, made when the
route begins. Each ``SegmentComplete`` handler reschedules the event it was
handed for the next leg, with that leg's edge in its payload; after the last
leg it becomes the ``ArriveDestination``, and a leg that strands makes it the
``Stranded``. Once fired and not rescheduled, it is dropped: no event is
kept per vehicle.

A vehicle's one state is its :class:`Lifecycle`; why it drives follows from
it: an ``EN_ROUTE`` vehicle is on a trip's way out, and a ``RETURNING`` one
is heading to ``divert_station`` if it has one, else to the depot.

Failure policy: ``_ACCEPTS`` lists the states in which each vehicle event can
arrive. An event for a vehicle in any other state, or for an unknown vehicle
or trip, a segment completion after the route has ended, or a slot grant
without its session, raises :class:`ModelError`; the engine wraps it in
:class:`~evfleetsim.engine.SimulationAborted`, which ends the run. No event is
dropped. Stranding is a model outcome, not a failure: it is logged as a
warning, and a stranded vehicle accepts no further event.
"""

from __future__ import annotations

import bisect
import heapq
import logging
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import charging, dynamics, network
from .engine import (Engine, Event, EventKind, ModelError, hour_of, left_sum,
                     ms)

LOG = logging.getLogger(__name__)


class FleetError(ValueError):
    pass


class Lifecycle(Enum):
    __hash__ = object.__hash__  # as EventKind: no Python-level hash per lookup

    IDLE = "idle"
    EN_ROUTE = "en_route"
    DWELLING = "dwelling"
    RETURNING = "returning"
    QUEUED_AT_STATION = "queued"
    CHARGING = "charging"
    STRANDED = "stranded"


_DRIVING = (Lifecycle.EN_ROUTE, Lifecycle.RETURNING)
# the states in which each vehicle event can arrive
_ACCEPTS: dict[EventKind, tuple[Lifecycle, ...]] = {
    EventKind.SEGMENT_COMPLETE: _DRIVING,
    EventKind.STRANDED: _DRIVING,
    EventKind.ARRIVE_DESTINATION: _DRIVING,
    EventKind.DWELL_COMPLETE: (Lifecycle.DWELLING,),
    EventKind.CHARGE_REQUEST: (Lifecycle.RETURNING,),
    EventKind.SLOT_GRANTED: (Lifecycle.RETURNING, Lifecycle.QUEUED_AT_STATION),
    EventKind.CHARGE_COMPLETE: (Lifecycle.CHARGING,),
}


# ---------------------------------------------------------------------------
# demand
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DwellDistribution:
    """Dwell time at the destination, in seconds: ``fixed_s``, or the
    lognormal ``exp(mu_log + sigma_log * z)`` with ``z`` standard normal.

    Every draw must fit the millisecond clock of :func:`~evfleetsim.engine.ms`.
    ``fixed_s`` is converted once to check it. numpy's normal sampler never
    returns ``|z|`` above 14, so the rule for the lognormal is
    ``mu_log + 40 * sigma_log <= ln(1e300)`` (about 690.8): every draw then
    stays below 1e300 s. The configured default 7.5/0.5 gives 27.5.
    """

    family: str  # "lognormal" or "fixed"
    mu_log: float
    sigma_log: float
    fixed_s: float

    def __post_init__(self):
        if self.family not in ("lognormal", "fixed"):
            raise FleetError(f"unknown dwell family {self.family!r}")
        if not (math.isfinite(self.mu_log) and 0 <= self.sigma_log < math.inf
                and 0 <= self.fixed_s < math.inf):
            raise FleetError("dwell needs a finite mu_log and finite, "
                             "non-negative sigma_log and fixed_s")
        if self.mu_log + 40 * self.sigma_log > math.log(1e300):
            raise FleetError("dwell draws can overflow: mu_log + 40 * "
                             "sigma_log must be at most ln(1e300)")
        ms(self.fixed_s)

    def sample(self, rng: np.random.Generator) -> float:
        if self.family == "fixed":
            return self.fixed_s
        return float(rng.lognormal(self.mu_log, self.sigma_log))


# the most trips one vehicle may be given per day (one every 86 s); numpy's
# Poisson sampler fails far above it (a mean of 1e300 raises), and a count
# of 2**63 samples a schedule without end
MAX_TRIPS_PER_DAY = 1000


@dataclass(frozen=True)
class TripsPerDay:
    """The trips a vehicle makes in a day: ``n`` for the ``fixed``
    family, or a Poisson draw of ``mean``."""

    family: str  # "poisson" or "fixed"
    mean: float
    n: int

    def __post_init__(self):
        if self.family not in ("poisson", "fixed"):
            raise FleetError(f"unknown trips-per-day family {self.family!r}")
        if not (0 <= self.mean <= MAX_TRIPS_PER_DAY
                and 0 <= self.n <= MAX_TRIPS_PER_DAY):
            raise FleetError(f"trips per day need a mean and an n in "
                             f"[0, {MAX_TRIPS_PER_DAY}]")

    def sample(self, rng: np.random.Generator) -> int:
        if self.family == "fixed":
            return self.n
        return int(rng.poisson(self.mean))


@dataclass(frozen=True)
class DemandProfile:
    """Empirical-style demand description.

    ``distance_bins`` is a list of ``(upper_m, weight)`` pairs with implicit
    lower edges (0 m for the first bin); distances are drawn uniformly
    within the chosen bin. A single bin with ``upper_m`` 0 is the degenerate
    point distribution at the depot. ``departure_weights`` is one weight per
    hour of day. Each weight list becomes a cumulative distribution once, at
    the first draw (see :func:`draw_index`).
    """

    departure_weights: tuple[float, ...]
    distance_bins: tuple[tuple[float, float], ...]
    dwell: DwellDistribution
    trips_per_day: TripsPerDay

    def __post_init__(self):
        if len(self.departure_weights) != 24:
            raise FleetError("departure_weights needs exactly 24 values")
        if (not all(math.isfinite(w) and w >= 0 for w in self.departure_weights)
                or not 0 < left_sum(self.departure_weights) < math.inf):
            raise FleetError("departure weights must be finite and "
                             "non-negative with a positive, finite sum")
        if not self.distance_bins:
            raise FleetError("distance_bins must not be empty")
        degenerate = (len(self.distance_bins) == 1
                      and self.distance_bins[0][0] == 0.0)
        last = 0.0
        for upper, w in self.distance_bins:
            if not (math.isfinite(upper) and math.isfinite(w)):
                raise FleetError("distance bin edges and weights must be finite")
            if not degenerate and upper <= last:
                raise FleetError("distance bin edges must be strictly increasing")
            if w < 0:
                raise FleetError("distance bin weights must be non-negative")
            last = upper
        if not 0 < left_sum(w for _, w in self.distance_bins) < math.inf:
            raise FleetError(
                "distance bin weights must have a positive, finite sum")

    def bin_edges(self) -> list[float]:
        return [0.0] + [u for u, _ in self.distance_bins]

    @cached_property
    def departure_cdf(self) -> list[float]:
        return cumulative(self.departure_weights)

    @cached_property
    def distance_cdf(self) -> list[float]:
        return cumulative([w for _, w in self.distance_bins])


class DemandStreams:
    """Independent named RNG streams split from one master seed, so sweeps
    with the same seed draw comparable schedules."""

    def __init__(self, master_seed: int):
        children = np.random.SeedSequence(master_seed).spawn(3)
        self.schedule = np.random.default_rng(children[0])
        self.bearing = np.random.default_rng(children[1])
        self.dwell = np.random.default_rng(children[2])


def cumulative(weights) -> list[float]:
    """The cumulative distribution of non-negative ``weights`` with a
    positive sum, formed with the float operations of
    ``numpy.random.Generator.choice``: normalise, ``cumsum``, then divide
    by the last element."""
    w = np.asarray(weights, dtype=float)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def draw_index(rng: np.random.Generator, cdf: list[float]) -> int:
    """Draw an index with the probabilities of ``cdf``: the same index as
    ``rng.choice(len(cdf), p=p)`` for the weights ``p`` of ``cdf``, and the
    same single ``random()`` draw from the stream, without the array work of
    ``choice``. Weights of zero are never drawn."""
    return bisect.bisect_right(cdf, rng.random())


@dataclass
class Trip:
    """One depot-based job: its departure time, sampled airline distance
    and dwell, its destination and routes once resolved, its status,
    and the vehicle and time it was dispatched with."""

    trip_id: str
    depart_ms: int
    sampled_airline_m: float
    dwell_s: float
    destination_point: network.Coord | None = None
    destination_edge: str | None = None
    outbound: network.Route | None = None
    return_route: network.Route | None = None
    status: str = "pending"  # pending -> active -> completed | stranded; or rejected
    vehicle_id: str | None = None
    dispatch_ms: int | None = None

    @property
    def delay_ms(self) -> int:
        if self.dispatch_ms is None:
            return 0
        return self.dispatch_ms - self.depart_ms


def uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """``rng.uniform(low, high)`` for finite float bounds, without its
    argument handling: the same one ``random()`` draw and the same float
    operations, ``low + (high - low) * random()``, so the same value bit
    for bit."""
    return low + (high - low) * rng.random()


def sample_trip(
    streams: DemandStreams,
    profile: DemandProfile,
    depot_point: network.Coord,
    trip_id: str,
) -> Trip:
    """Draw one job: depart time from the hourly histogram, airline distance
    from the binned distribution, bearing uniform from ``depot_point``. The
    trip carries only its destination point; :func:`generate_day_schedule`
    snaps and routes it."""
    rng = streams.schedule
    hour = draw_index(rng, profile.departure_cdf)
    depart_ms = ms(hour * 3600.0 + uniform(rng, 0.0, 3600.0))

    idx = draw_index(rng, profile.distance_cdf)
    lower = profile.distance_bins[idx - 1][0] if idx > 0 else 0.0
    upper = profile.distance_bins[idx][0]
    distance = uniform(rng, lower, upper)

    bearing = uniform(streams.bearing, 0.0, 2.0 * math.pi)
    dwell_s = profile.dwell.sample(streams.dwell)

    dest_point = network.Coord(
        depot_point.x + distance * math.cos(bearing),
        depot_point.y + distance * math.sin(bearing),
    )
    return Trip(
        trip_id=trip_id,
        depart_ms=depart_ms,
        sampled_airline_m=distance,
        dwell_s=dwell_s,
        destination_point=dest_point,
    )


def generate_day_schedule(
    seed: int,
    profile: DemandProfile,
    fleet_size: int,
    net: network.RoadNetwork,
    depot_edge: str,
    routing_weight: str,
) -> list[Trip]:
    """Sample the day's jobs in three passes, then sort them globally by
    departure time. Deterministic for a given seed.

    1. Draw: each vehicle's trip count, then its trips
       (:func:`sample_trip`), all from the seed's streams.
    2. Snap: every destination point to its nearest edge, in one
       :func:`~evfleetsim.network.nearest_edge` call.
    3. Route: every trip out by ``routing_weight``, then every trip back,
       so that no return search replaces the search from the depot while
       it is kept: an outbound destination that it settled reuses it, and
       one beyond it runs a new search from the depot (see
       :func:`~evfleetsim.network.shortest_path`). An unroutable
       destination, out or back, marks the trip rejected; it is not
       resampled, so the output distance distribution stays unbiased.

    Snapping and routing draw no random numbers, so the streams see the
    same calls in the same order as when each trip is drawn, snapped and
    routed in turn."""
    if fleet_size < 1:
        raise FleetError("fleet_size must be >= 1")
    streams = DemandStreams(seed)
    depot_point = net.edge_midpoint(depot_edge)
    trips: list[Trip] = []
    for _ in range(fleet_size):
        n = profile.trips_per_day.sample(streams.schedule)
        for _ in range(n):
            trips.append(sample_trip(streams, profile, depot_point,
                                     f"t{len(trips):06d}"))
    snapped = network.nearest_edge(
        net, [trip.destination_point for trip in trips])
    for trip, edge in zip(trips, snapped):
        trip.destination_edge = edge
        try:
            trip.outbound = network.shortest_path(
                net, depot_edge, edge, routing_weight)
        except network.NoRouteError:
            trip.status = "rejected"
    for trip in trips:
        if trip.status == "rejected":
            continue
        try:
            trip.return_route = network.shortest_path(
                net, trip.destination_edge, depot_edge, routing_weight)
        except network.NoRouteError:
            trip.status = "rejected"
    trips.sort(key=lambda t: (t.depart_ms, t.trip_id))
    return trips


# ---------------------------------------------------------------------------
# vehicles and lifecycle
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Vehicle:
    """One fleet vehicle: its physical state, lifecycle, trip, the legs
    and trace of the route it drives, its charging session and divert
    station, and the trips it has made."""

    vehicle_id: str
    state: dynamics.VehicleState
    lifecycle: Lifecycle = Lifecycle.IDLE
    trip: Trip | None = None
    # the legs of the route being driven (see network.Route), until its
    # last leg completes or the vehicle strands
    legs: tuple[tuple[network.Edge, float | None], ...] | None = None
    segment_index: int = 0
    trace_start_ms: int = 0
    # the SOC the vehicle entered its current edge with, recorded before
    # each drive: a shared trace's SOC is read from it (see
    # dynamics.DriveTrace)
    trace_soc0: float = 0.0
    trace: dynamics.DriveTrace | None = None
    session: charging.ChargeSession | None = None  # grant to ChargeComplete
    divert_station: str | None = None  # from a divert to its slot grant
    n_trips: int = 0

    def dump(self) -> str:
        return (
            f"vehicle={self.vehicle_id} lifecycle={self.lifecycle.value} "
            f"soc={self.state.soc:.4f} trip="
            f"{self.trip.trip_id if self.trip else None} "
            f"segment={self.segment_index}"
        )


@dataclass(frozen=True)
class FleetPolicies:
    """The fleet's operating rules: the routing weight, the SOC reserves
    for dispatch and for diverting, the SOC below which a vehicle
    charges at the depot, and the SOC it charges to."""

    routing_weight: str = "travel_time"
    dispatch_reserve_soc: float = 0.10
    depot_charge_threshold: float = 0.95
    target_soc: float = 1.0
    # SOC kept in reserve when choosing a station to divert to
    safety_margin_soc: float = 0.05


class FleetController:
    """Spawns jobs, assigns them to vehicles, and advances each vehicle's
    state machine in response to engine events."""

    def __init__(
        self,
        engine: Engine,
        net: network.RoadNetwork,
        manager: charging.ChargingManager,
        vehicles: list[Vehicle],
        depot_edge: str,
        model: dynamics.DriveModel,
        policies: FleetPolicies,
        transition_hook,
    ):
        self.engine = engine
        self.net = net
        self.manager = manager
        self.vehicles = {v.vehicle_id: v for v in vehicles}
        self._fleet = vehicles
        self._index = {v.vehicle_id: i for i, v in enumerate(vehicles)}
        self.model = model
        self._hourly_factors = net.hourly_speed_factors
        # (-soc, index in the fleet) of each idle vehicle; pushed on entry
        # into IDLE and popped by _try_dispatch, the one way out of it. The
        # indices are _index's own int objects, so the heap adds none
        self._idle_heap = [(-v.state.soc, self._index[v.vehicle_id])
                           for v in vehicles if v.lifecycle is Lifecycle.IDLE]
        heapq.heapify(self._idle_heap)
        self.depot_edge = depot_edge
        self.policies = policies
        self.transition_hook = transition_hook
        self.trips: dict[str, Trip] = {}
        self.delayed: list[Trip] = []
        # memos valid because the model is the whole fleet's and the network
        # and stations never change: route energies by (route edges, speed
        # factor), and divert alternatives, travel times included, by
        # (station, speed factor); the drive plans are the model's
        self._route_energy: dict[tuple[tuple[str, ...], float], float] = {}
        self._divert: dict[tuple[str, float], list[tuple]] = {}
        depot_stations = sorted(
            sid for sid, st in manager.stations.items() if st.edge_id == depot_edge
        )
        self.depot_station = depot_stations[0] if depot_stations else None

    # -- wiring ---------------------------------------------------------------

    def register_handlers(self) -> None:
        e = self.engine
        e.on(EventKind.VEHICLE_SPAWN, self.on_vehicle_spawn)
        e.on(EventKind.SEGMENT_COMPLETE, self.on_segment_complete)
        e.on(EventKind.ARRIVE_DESTINATION, self.on_arrive_destination)
        e.on(EventKind.DWELL_COMPLETE, self.on_dwell_complete)
        e.on(EventKind.CHARGE_REQUEST, self.on_charge_request)
        e.on(EventKind.SLOT_GRANTED, self.on_slot_granted)
        e.on(EventKind.CHARGE_COMPLETE, self.on_charge_complete)
        e.on(EventKind.STRANDED, self.on_stranded)

    def schedule_trips(self, trips: list[Trip]) -> None:
        for trip in trips:
            self.trips[trip.trip_id] = trip
            if trip.status == "rejected":
                continue
            self.engine.schedule(
                Event(EventKind.VEHICLE_SPAWN, {"trip": trip.trip_id}), trip.depart_ms
            )

    # -- helpers --------------------------------------------------------------

    def _transition(self, vehicle: Vehicle, new: Lifecycle) -> None:
        vehicle.lifecycle = new
        if new is Lifecycle.IDLE:
            heapq.heappush(self._idle_heap, (-vehicle.state.soc,
                                             self._index[vehicle.vehicle_id]))
        self.transition_hook(self.engine.now_ms, vehicle.vehicle_id, new)

    def _alive(self, event: Event) -> Vehicle:
        """The event's vehicle; raises :class:`ModelError` for an unknown
        one, or one in a state the event kind cannot arrive in (see
        ``_ACCEPTS``)."""
        vid = event.payload.get("vehicle")
        vehicle = self.vehicles.get(vid)
        if vehicle is None:
            raise ModelError(f"unknown vehicle {vid!r}")
        if vehicle.lifecycle not in _ACCEPTS[event.kind]:
            raise ModelError(f"illegal {event.kind.value}: {vehicle.dump()}")
        return vehicle

    def _grant(self, vehicle: Vehicle, session: charging.ChargeSession) -> None:
        """Hand ``vehicle`` its session; schedule its grant, then its end,
        so a session that rounds to 0 ms still ends after its grant."""
        vehicle.session = session
        payload = {"vehicle": vehicle.vehicle_id,
                   "station": session.station_id, "slot": session.slot_id}
        self.engine.schedule(Event(EventKind.SLOT_GRANTED, payload),
                             self.engine.now_ms)
        self.engine.schedule(Event(EventKind.CHARGE_COMPLETE, dict(payload)),
                             session.complete_ms)

    def _speed_factor(self, now_ms: int) -> float:
        """The network's speed factor at time ``now_ms``: the one place the
        clock becomes congestion."""
        return self._hourly_factors[hour_of(now_ms)]

    def route_energy_wh(self, route: network.Route, factor: float) -> float:
        """:func:`~evfleetsim.dynamics.estimate_route_energy` of ``route`` at
        speed factor ``factor``, memoised. It plans every leg, so a leg that
        cannot be driven at this factor raises here, at the decision."""
        key = (route.edges, factor)
        energy = self._route_energy.get(key)
        if energy is None:
            energy = self._route_energy[key] = dynamics.estimate_route_energy(
                route, self.model, factor)
        return energy

    def divert_alternatives(self, station_id: str, factor: float
                            ) -> list[tuple[charging.DivertTo, float, float]]:
        """Each station reachable from ``station_id``, in id order, as
        ``(divert, energy_wh, travel_s)`` of its route at speed factor
        ``factor``; memoised, so an unreachable station is searched once per
        key. Divert legs are routed by ``"travel_time"`` whatever
        ``policies.routing_weight`` says: the decision compares travel
        times."""
        key = (station_id, factor)
        alternatives = self._divert.get(key)
        if alternatives is None:
            stations = self.manager.stations
            here = stations[station_id].edge_id
            alternatives = self._divert[key] = []
            for sid in sorted(stations):
                if sid == station_id:
                    continue
                try:
                    route = network.shortest_path(
                        self.net, here, stations[sid].edge_id, "travel_time")
                except network.NoRouteError:
                    continue
                alternatives.append((
                    charging.DivertTo(sid, route),
                    self.route_energy_wh(route, factor),
                    network.route_travel_time(route, factor)))
        return alternatives

    def _select_divert(self, vehicle: Vehicle, station_id: str
                       ) -> charging.DivertTo | None:
        """Wait at ``station_id`` (``None``) or divert to an alternative the
        vehicle reaches with ``policies.safety_margin_soc`` left over."""
        budget = ((vehicle.state.soc - self.policies.safety_margin_soc)
                  * self.model.params.battery_capacity_wh)
        now = self.engine.now_ms
        reachable = [
            (divert, travel) for divert, energy, travel
            in self.divert_alternatives(station_id, self._speed_factor(now))
            if energy <= budget]
        return self.manager.select_station(station_id, now, reachable)

    def _begin_route(self, vehicle: Vehicle, route: network.Route,
                     state: Lifecycle) -> None:
        vehicle.legs = route.legs
        vehicle.segment_index = 0
        vehicle.state.velocity = 0.0
        self._transition(vehicle, state)
        self._drive_current_segment(
            vehicle, Event(EventKind.SEGMENT_COMPLETE,
                           {"vehicle": vehicle.vehicle_id}))

    def _drive_current_segment(self, vehicle: Vehicle, event: Event) -> None:
        """Drive the vehicle's current leg and schedule the route's
        ``event`` at its end, as a ``SegmentComplete`` or, if the vehicle
        strands, a ``Stranded``, with the leg's edge in its payload. The
        event is changed only after the drive, the last call that can raise,
        so a failing leg aborts with the identity of the event that fired."""
        now = self.engine.now_ms
        factor = self._speed_factor(now)
        edge, next_limit = vehicle.legs[vehicle.segment_index]
        state = vehicle.state
        vehicle.trace_soc0 = state.soc
        v_entry, v_exit = dynamics.leg_speeds(state.velocity, edge,
                                              next_limit, factor)
        result = dynamics.drive_segment(state, edge, v_entry, v_exit, factor,
                                        self.model)
        vehicle.trace = result.trace
        vehicle.trace_start_ms = now
        if result.stranded:
            event.kind = EventKind.STRANDED
        event.payload["edge"] = edge.edge_id
        self.engine.schedule(event, now + result.duration_ms)

    def _set_idle(self, vehicle: Vehicle) -> None:
        vehicle.trip = None
        vehicle.state.velocity = 0.0
        self._transition(vehicle, Lifecycle.IDLE)
        self._drain_delayed()

    def _drain_delayed(self) -> None:
        if not self.delayed:
            return
        still_waiting: list[Trip] = []
        for trip in self.delayed:
            if not self._try_dispatch(trip):
                still_waiting.append(trip)
        self.delayed = still_waiting

    def _try_dispatch(self, trip: Trip) -> bool:
        heap = self._idle_heap
        if not heap:
            return False
        best = self._fleet[heap[0][1]]
        now = self.engine.now_ms
        budget = ((best.state.soc - self.policies.dispatch_reserve_soc)
                  * self.model.params.battery_capacity_wh)
        factor = self._speed_factor(now)
        if budget < (self.route_energy_wh(trip.outbound, factor)
                     + self.route_energy_wh(trip.return_route, factor)):
            return False
        heapq.heappop(heap)
        trip.vehicle_id = best.vehicle_id
        trip.dispatch_ms = now
        trip.status = "active"
        best.trip = trip
        best.n_trips += 1
        self._begin_route(best, trip.outbound, Lifecycle.EN_ROUTE)
        return True

    # -- event handlers ---------------------------------------------------------

    def on_vehicle_spawn(self, event: Event) -> None:
        trip_id = event.payload.get("trip")
        trip = self.trips.get(trip_id)
        if trip is None or trip.status != "pending":
            raise ModelError(
                f"spawn for unknown or non-pending trip {trip_id!r}")
        if not self._try_dispatch(trip):
            self.delayed.append(trip)

    def on_segment_complete(self, event: Event) -> None:
        vehicle = self._alive(event)
        legs = vehicle.legs
        if legs is None:
            raise ModelError(
                f"segment completion without a route: {vehicle.dump()}")
        vehicle.segment_index += 1
        if vehicle.segment_index < len(legs):
            self._drive_current_segment(vehicle, event)
        else:
            # the payload already names the vehicle and the last edge
            vehicle.legs = vehicle.trace = None
            event.kind = EventKind.ARRIVE_DESTINATION
            self.engine.schedule(event, self.engine.now_ms)

    def on_arrive_destination(self, event: Event) -> None:
        vehicle = self._alive(event)
        if vehicle.lifecycle is Lifecycle.EN_ROUTE:
            self._transition(vehicle, Lifecycle.DWELLING)
            self.engine.schedule(
                Event(EventKind.DWELL_COMPLETE, {"vehicle": vehicle.vehicle_id}),
                self.engine.now_ms + ms(vehicle.trip.dwell_s),
            )
        elif vehicle.divert_station is not None:
            self.engine.schedule(
                Event(
                    EventKind.CHARGE_REQUEST,
                    {"vehicle": vehicle.vehicle_id,
                     "station": vehicle.divert_station},
                ),
                self.engine.now_ms,
            )
        else:  # home at the depot
            if vehicle.trip is not None and vehicle.trip.status == "active":
                vehicle.trip.status = "completed"
            self._charge_or_idle(vehicle)

    def _charge_or_idle(self, vehicle: Vehicle) -> None:
        needs_charge = (
            vehicle.state.soc < self.policies.depot_charge_threshold
            and self.depot_station is not None
            and vehicle.state.soc < self.policies.target_soc
        )
        if needs_charge:
            self.engine.schedule(
                Event(
                    EventKind.CHARGE_REQUEST,
                    {"vehicle": vehicle.vehicle_id, "station": self.depot_station},
                ),
                self.engine.now_ms,
            )
        else:
            self._set_idle(vehicle)

    def on_dwell_complete(self, event: Event) -> None:
        vehicle = self._alive(event)
        self._begin_route(vehicle, vehicle.trip.return_route,
                          Lifecycle.RETURNING)

    def on_charge_request(self, event: Event) -> None:
        vehicle = self._alive(event)
        station_id = event.payload["station"]
        # a full station: wait or divert, before queueing (at most one
        # divert per charging need, to rule out station ping-pong)
        if (self.manager.would_queue(vehicle, station_id)
                and vehicle.divert_station is None):
            divert = self._select_divert(vehicle, station_id)
            if divert is not None:
                vehicle.divert_station = divert.station_id
                self._begin_route(vehicle, divert.route, Lifecycle.RETURNING)
                return
        result = self.manager.request_charge(vehicle, station_id,
                                             self.engine.now_ms)
        if isinstance(result, charging.ChargeSession):
            self._grant(vehicle, result)
        else:
            self._transition(vehicle, Lifecycle.QUEUED_AT_STATION)

    def on_slot_granted(self, event: Event) -> None:
        vehicle = self._alive(event)
        session = vehicle.session
        if (session is None or session.station_id != event.payload["station"]
                or session.slot_id != event.payload["slot"]):
            raise ModelError(
                f"slot grant without a matching session: {vehicle.dump()}")
        vehicle.divert_station = None
        self._transition(vehicle, Lifecycle.CHARGING)

    def on_charge_complete(self, event: Event) -> None:
        vehicle = self._alive(event)
        station_id = event.payload["station"]
        slot_id = event.payload["slot"]
        vehicle.session = None
        handoff = self.manager.release_slot(station_id, slot_id, self.engine.now_ms)
        if handoff is not None:
            self._grant(self.vehicles[handoff.vehicle_id], handoff)
        station_edge = self.manager.stations[station_id].edge_id
        if station_edge == self.depot_edge:
            self._set_idle(vehicle)
        else:
            route = network.shortest_path(self.net, station_edge, self.depot_edge,
                                          self.policies.routing_weight)
            self._begin_route(vehicle, route, Lifecycle.RETURNING)

    def on_stranded(self, event: Event) -> None:
        vehicle = self._alive(event)
        if vehicle.trip is not None and vehicle.trip.status == "active":
            vehicle.trip.status = "stranded"
        LOG.warning("vehicle %s stranded on edge %s at t=%.1fs",
                    vehicle.vehicle_id, event.payload.get("edge"),
                    self.engine.now_s)
        vehicle.legs = vehicle.trace = None
        self._transition(vehicle, Lifecycle.STRANDED)
