"""Trip demand sampling and the vehicle lifecycle.

Jobs are depot-based round trips: a destination point is drawn by straight-line
distance and uniform bearing from the depot, snapped to the nearest road edge,
and routed out and back. Dispatch assigns each job to the idle vehicle with the
highest SOC that can cover the round trip plus a reserve; jobs with no feasible
vehicle wait for the next vehicle to become available.

A fleet has one vehicle model: the controller and the charging manager each
hold its one :class:`~evfleetsim.dynamics.VehicleParams`, and a
:class:`Vehicle` carries only its state. So the energy estimate of a route
depends only on the route and the hour; the controller memoises it for
dispatch and for the divert decisions of the charging manager. The dispatch
budget is monotone in SOC, so the idle vehicle with the highest SOC (ties to
the smallest id) is feasible exactly when any idle vehicle is, and it is the
only one checked. The controller finds it in a heap of
``(-soc, vehicle_id)`` entries, pushed whenever a vehicle becomes idle; entries
of vehicles that are no longer idle, or whose SOC has changed since, are
skipped and dropped when they reach the top. A vehicle's SOC must therefore not
change while it is idle: only driving and completing a charge move it, and
neither happens in the idle state.

Failure policy: an event the model cannot explain (one for an unknown vehicle
or trip, one for a stranded vehicle other than its ``Stranded`` event, a
segment completion without a route, a slot grant without its session, or an
illegal lifecycle transition) raises :class:`ModelError`; the engine wraps it
in :class:`~evfleetsim.engine.SimulationAborted`, which ends the run. No event
is dropped. Stranding is a model outcome, not a failure: it is logged as a
warning and the vehicle stays stranded.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import charging, dynamics, network
from .engine import Engine, Event, EventKind, ModelError, hour_of, ms

LOG = logging.getLogger(__name__)


class FleetError(ValueError):
    pass


class Lifecycle(Enum):
    IDLE = "idle"
    EN_ROUTE = "en_route"
    DWELLING = "dwelling"
    RETURNING = "returning"
    QUEUED_AT_STATION = "queued"
    CHARGING = "charging"
    STRANDED = "stranded"


BUSY_STATES = (Lifecycle.EN_ROUTE, Lifecycle.DWELLING, Lifecycle.RETURNING)


class Mission(Enum):
    TRIP_OUT = "trip_out"
    TRIP_RETURN = "trip_return"
    DIVERT = "divert"
    RETURN_HOME = "return_home"


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
    stays below 1e300 s. The default 7.5/0.5 gives 27.5.
    """

    family: str = "lognormal"  # or "fixed"
    mu_log: float = 7.5
    sigma_log: float = 0.5
    fixed_s: float = 1800.0

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


@dataclass(frozen=True)
class TripsPerDay:
    family: str = "poisson"  # or "fixed"
    mean: float = 1.0
    fixed_n: int = 1

    def __post_init__(self):
        if self.family not in ("poisson", "fixed"):
            raise FleetError(f"unknown trips-per-day family {self.family!r}")
        if not (0 <= self.mean < math.inf and self.fixed_n >= 0):
            raise FleetError("trips per day need a finite, non-negative mean "
                             "and a non-negative n")

    def sample(self, rng: np.random.Generator) -> int:
        if self.family == "fixed":
            return self.fixed_n
        return int(rng.poisson(self.mean))


@dataclass(frozen=True)
class DemandProfile:
    """Empirical-style demand description.

    ``distance_bins`` is a list of ``(upper_m, weight)`` pairs with implicit
    lower edges (0 m for the first bin); distances are drawn uniformly
    within the chosen bin. A single bin with ``upper_m`` 0 is the degenerate
    point distribution at the depot. ``departure_weights`` is one weight per
    hour of day.
    """

    departure_weights: tuple[float, ...]
    distance_bins: tuple[tuple[float, float], ...]
    dwell: DwellDistribution = DwellDistribution()
    trips_per_day: TripsPerDay = TripsPerDay()

    def __post_init__(self):
        if len(self.departure_weights) != 24:
            raise FleetError("departure_weights needs exactly 24 values")
        if (not all(math.isfinite(w) and w >= 0 for w in self.departure_weights)
                or sum(self.departure_weights) <= 0):
            raise FleetError(
                "departure weights must be finite and non-negative with positive sum")
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
        if sum(w for _, w in self.distance_bins) <= 0:
            raise FleetError("distance bin weights must have positive sum")

    def bin_edges(self) -> list[float]:
        return [0.0] + [u for u, _ in self.distance_bins]


class DemandStreams:
    """Independent named RNG streams split from one master seed, so sweeps
    with the same seed draw comparable schedules."""

    def __init__(self, master_seed: int):
        children = np.random.SeedSequence(master_seed).spawn(3)
        self.schedule = np.random.default_rng(children[0])
        self.bearing = np.random.default_rng(children[1])
        self.dwell = np.random.default_rng(children[2])


def _weighted_index(rng: np.random.Generator, weights) -> int:
    w = np.asarray(weights, dtype=float)
    return int(rng.choice(len(w), p=w / w.sum()))


@dataclass
class Trip:
    trip_id: str
    depart_ms: int
    origin_edge: str
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


def sample_trip(
    streams: DemandStreams,
    profile: DemandProfile,
    depot_edge: str,
    net: network.RoadNetwork,
    trip_id: str,
    routing_weight: str = "travel_time",
) -> Trip:
    """Draw one job: depart time from the hourly histogram, airline distance
    from the binned distribution, bearing uniform, destination snapped to the
    nearest edge. Unroutable destinations mark the trip rejected (not
    resampled, so the output distance distribution stays unbiased)."""
    rng = streams.schedule
    hour = _weighted_index(rng, profile.departure_weights)
    depart_ms = ms(hour * 3600.0 + rng.uniform(0.0, 3600.0))

    idx = _weighted_index(rng, [w for _, w in profile.distance_bins])
    lower = profile.distance_bins[idx - 1][0] if idx > 0 else 0.0
    upper = profile.distance_bins[idx][0]
    distance = rng.uniform(lower, upper)

    bearing = streams.bearing.uniform(0.0, 2.0 * math.pi)
    dwell_s = profile.dwell.sample(streams.dwell)

    depot_point = net.edge_midpoint(depot_edge)
    dest_point = network.Coord(
        depot_point.x + distance * math.cos(bearing),
        depot_point.y + distance * math.sin(bearing),
    )
    trip = Trip(
        trip_id=trip_id,
        depart_ms=depart_ms,
        origin_edge=depot_edge,
        sampled_airline_m=distance,
        dwell_s=dwell_s,
        destination_point=dest_point,
    )
    trip.destination_edge = network.nearest_edge(net, dest_point)
    try:
        trip.outbound = network.shortest_path(
            net, depot_edge, trip.destination_edge, routing_weight, hour
        )
        trip.return_route = network.shortest_path(
            net, trip.destination_edge, depot_edge, routing_weight, hour
        )
    except network.NoRouteError:
        trip.status = "rejected"
    return trip


def generate_day_schedule(
    seed: int,
    profile: DemandProfile,
    fleet_size: int,
    net: network.RoadNetwork,
    depot_edge: str,
    routing_weight: str = "travel_time",
) -> list[Trip]:
    """Sample each vehicle's trip count and its trips, then sort globally by
    departure time. Deterministic for a given seed."""
    if fleet_size < 1:
        raise FleetError("fleet_size must be >= 1")
    streams = DemandStreams(seed)
    trips: list[Trip] = []
    counter = 0
    for _ in range(fleet_size):
        n = profile.trips_per_day.sample(streams.schedule)
        for _ in range(n):
            trips.append(
                sample_trip(
                    streams, profile, depot_edge, net,
                    f"t{counter:06d}", routing_weight,
                )
            )
            counter += 1
    trips.sort(key=lambda t: (t.depart_ms, t.trip_id))
    return trips


# ---------------------------------------------------------------------------
# vehicles and lifecycle
# ---------------------------------------------------------------------------


@dataclass
class Vehicle:
    vehicle_id: str
    state: dynamics.VehicleState
    lifecycle: Lifecycle = Lifecycle.IDLE
    mission: Mission | None = None
    trip: Trip | None = None
    route: network.Route | None = None
    segment_index: int = 0
    trace_start_ms: int = 0
    trace: dynamics.DriveTrace | None = None
    session: charging.ChargeSession | None = None
    divert_station: str | None = None
    diverted_once: bool = False
    n_trips: int = 0

    def dump(self) -> str:
        return (
            f"vehicle={self.vehicle_id} lifecycle={self.lifecycle.value} "
            f"mission={self.mission} soc={self.state.soc:.4f} "
            f"edge={self.state.edge_id} trip="
            f"{self.trip.trip_id if self.trip else None} "
            f"segment={self.segment_index}"
        )


@dataclass(frozen=True)
class FleetPolicies:
    routing_weight: str = "travel_time"
    dispatch_reserve_soc: float = 0.10
    depot_charge_threshold: float = 0.95
    target_soc: float = 1.0


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
        env: dynamics.Environment,
        params: dynamics.VehicleParams,
        policies: FleetPolicies,
        dynamics_dt_s: float,
        transition_hook=None,
    ):
        self.engine = engine
        self.net = net
        self.manager = manager
        self.vehicles = {v.vehicle_id: v for v in vehicles}
        self.params = params
        # (-soc, vehicle_id) per entry into IDLE; stale entries are dropped
        # lazily by _try_dispatch
        self._idle_heap = [(-v.state.soc, v.vehicle_id) for v in vehicles
                           if v.lifecycle is Lifecycle.IDLE]
        heapq.heapify(self._idle_heap)
        self.depot_edge = depot_edge
        self.env = env
        self.policies = policies
        self.dt = dynamics_dt_s
        self.transition_hook = transition_hook
        self.trips: dict[str, Trip] = {}
        self.delayed: list[Trip] = []
        # memos valid because params, env and dt are the same for the whole
        # fleet: drive_segment plans keyed by edge geometry (see there), and
        # route energy estimates keyed by (route edges, hour)
        self.plans: dict = {}
        self._route_energy: dict[tuple[tuple[str, ...], int], float] = {}
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
        old = vehicle.lifecycle
        vehicle.lifecycle = new
        if new is Lifecycle.IDLE:
            heapq.heappush(self._idle_heap,
                           (-vehicle.state.soc, vehicle.vehicle_id))
        if self.transition_hook is not None:
            self.transition_hook(self.engine.now_ms, vehicle.vehicle_id, old, new)

    def _alive(self, event: Event) -> Vehicle:
        """The event's vehicle; raises :class:`ModelError` for an unknown or
        stranded one (its own ``Stranded`` event excepted)."""
        vid = event.payload.get("vehicle")
        vehicle = self.vehicles.get(vid)
        if vehicle is None:
            raise ModelError(f"unknown vehicle {vid!r}")
        if vehicle.lifecycle is Lifecycle.STRANDED and event.kind is not EventKind.STRANDED:
            raise ModelError(f"event for stranded vehicle: {vehicle.dump()}")
        return vehicle

    def route_energy_wh(self, route: network.Route, hour: int) -> float:
        """:func:`~evfleetsim.dynamics.estimate_route_energy` of ``route`` at
        ``hour`` for the fleet's vehicles, memoised."""
        key = (tuple(route.edges), hour)
        energy = self._route_energy.get(key)
        if energy is None:
            energy = self._route_energy[key] = dynamics.estimate_route_energy(
                self.net, route, self.params, self.env, hour)
        return energy

    def _begin_route(self, vehicle: Vehicle, route: network.Route,
                     mission: Mission, state: Lifecycle) -> None:
        vehicle.route = route
        vehicle.segment_index = 0
        vehicle.mission = mission
        vehicle.state.velocity = 0.0
        self._transition(vehicle, state)
        self._drive_current_segment(vehicle)

    def _drive_current_segment(self, vehicle: Vehicle) -> None:
        now = self.engine.now_ms
        hour = hour_of(now)
        factor = self.net.speed_factor(hour)
        route = vehicle.route
        edge = self.net.edges[route.edges[vehicle.segment_index]]
        if vehicle.segment_index + 1 < len(route.edges):
            next_eid = route.edges[vehicle.segment_index + 1]
            v_exit = min(
                edge.speed_limit_mps * factor,
                self.net.edges[next_eid].speed_limit_mps * factor,
            )
        else:
            v_exit = 0.0
        v_entry = min(vehicle.state.velocity, edge.speed_limit_mps * factor)

        result = dynamics.drive_segment(
            vehicle.state, edge, v_entry, v_exit,
            self.params, self.env, self.dt, factor, self.plans,
        )
        vehicle.trace = result.trace
        vehicle.trace_start_ms = now
        kind = EventKind.STRANDED if result.stranded else EventKind.SEGMENT_COMPLETE
        self.engine.schedule(
            Event(kind, {"vehicle": vehicle.vehicle_id, "edge": edge.edge_id}),
            now + ms(result.duration_s),
        )

    def _set_idle(self, vehicle: Vehicle) -> None:
        vehicle.mission = None
        vehicle.route = None
        vehicle.trace = None
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
        while heap:
            neg_soc, vid = heap[0]
            best = self.vehicles[vid]
            if best.lifecycle is Lifecycle.IDLE and best.state.soc == -neg_soc:
                break
            heapq.heappop(heap)  # stale: dispatched, busy, or SOC changed since
        else:
            return False
        now = self.engine.now_ms
        budget = ((best.state.soc - self.policies.dispatch_reserve_soc)
                  * self.params.battery_capacity_wh)
        hour = hour_of(now)
        if budget < (self.route_energy_wh(trip.outbound, hour)
                     + self.route_energy_wh(trip.return_route, hour)):
            return False
        heapq.heappop(heap)
        trip.vehicle_id = best.vehicle_id
        trip.dispatch_ms = now
        trip.status = "active"
        best.trip = trip
        best.n_trips += 1
        self._begin_route(best, trip.outbound, Mission.TRIP_OUT, Lifecycle.EN_ROUTE)
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
        if vehicle.route is None:
            raise ModelError(
                f"segment completion without a route: {vehicle.dump()}")
        vehicle.segment_index += 1
        if vehicle.segment_index < len(vehicle.route.edges):
            self._drive_current_segment(vehicle)
        else:
            vehicle.trace = None
            self.engine.schedule(
                Event(
                    EventKind.ARRIVE_DESTINATION,
                    {"vehicle": vehicle.vehicle_id,
                     "edge": vehicle.route.edges[-1]},
                ),
                self.engine.now_ms,
            )

    def on_arrive_destination(self, event: Event) -> None:
        vehicle = self._alive(event)
        mission = vehicle.mission
        if mission is Mission.TRIP_OUT and vehicle.lifecycle is Lifecycle.EN_ROUTE:
            self._transition(vehicle, Lifecycle.DWELLING)
            self.engine.schedule(
                Event(EventKind.DWELL_COMPLETE, {"vehicle": vehicle.vehicle_id}),
                self.engine.now_ms + ms(vehicle.trip.dwell_s),
            )
            return
        if mission in (Mission.TRIP_RETURN, Mission.RETURN_HOME) and (
            vehicle.lifecycle is Lifecycle.RETURNING
        ):
            if mission is Mission.TRIP_RETURN:
                vehicle.trip.status = "completed"
            self._charge_or_idle(vehicle)
            return
        if mission is Mission.DIVERT and vehicle.lifecycle is Lifecycle.RETURNING:
            self.engine.schedule(
                Event(
                    EventKind.CHARGE_REQUEST,
                    {"vehicle": vehicle.vehicle_id,
                     "station": vehicle.divert_station},
                ),
                self.engine.now_ms,
            )
            return
        raise ModelError(f"illegal arrival: {vehicle.dump()}")

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
        if vehicle.lifecycle is not Lifecycle.DWELLING:
            raise ModelError(f"illegal dwell completion: {vehicle.dump()}")
        self._begin_route(
            vehicle, vehicle.trip.return_route, Mission.TRIP_RETURN,
            Lifecycle.RETURNING,
        )

    def on_charge_request(self, event: Event) -> None:
        vehicle = self._alive(event)
        station_id = event.payload["station"]
        result = self.manager.request_charge(
            vehicle, station_id, self.policies.target_soc, self.engine.now_ms
        )
        if isinstance(result, charging.ChargeSession):
            self.engine.schedule(
                Event(
                    EventKind.SLOT_GRANTED,
                    {"vehicle": vehicle.vehicle_id, "station": station_id,
                     "slot": result.slot_id},
                ),
                self.engine.now_ms,
            )
            return
        # queued: decide between waiting and diverting (at most one divert
        # per charging need, to rule out station ping-pong)
        divert = None
        if not vehicle.diverted_once:
            divert = self.manager.select_station(
                vehicle, station_id, self.net, self.engine.now_ms,
                self.route_energy_wh,
            )
        if divert is None:
            self._transition(vehicle, Lifecycle.QUEUED_AT_STATION)
            return
        self.manager.leave_queue(vehicle.vehicle_id, station_id)
        vehicle.diverted_once = True
        vehicle.divert_station = divert.station_id
        self._begin_route(vehicle, divert.route, Mission.DIVERT, Lifecycle.RETURNING)

    def on_slot_granted(self, event: Event) -> None:
        vehicle = self._alive(event)
        if vehicle.lifecycle not in (
            Lifecycle.RETURNING, Lifecycle.QUEUED_AT_STATION
        ):
            raise ModelError(f"illegal slot grant: {vehicle.dump()}")
        station = self.manager.stations[event.payload["station"]]
        occ = station.occupancy.get(event.payload["slot"])
        if occ is None or occ.vehicle.vehicle_id != vehicle.vehicle_id:
            raise ModelError(
                f"slot grant without a matching session: {vehicle.dump()}")
        vehicle.session = occ.session
        vehicle.diverted_once = False
        vehicle.divert_station = None
        self._transition(vehicle, Lifecycle.CHARGING)

    def on_charge_complete(self, event: Event) -> None:
        vehicle = self._alive(event)
        if vehicle.lifecycle is not Lifecycle.CHARGING:
            raise ModelError(f"illegal charge completion: {vehicle.dump()}")
        station_id = event.payload["station"]
        slot_id = event.payload["slot"]
        vehicle.session = None
        next_grant = self.manager.release_slot(station_id, slot_id, self.engine.now_ms)
        if next_grant is not None:
            self.engine.schedule(
                Event(
                    EventKind.SLOT_GRANTED,
                    {"vehicle": next_grant.vehicle_id,
                     "station": station_id, "slot": next_grant.slot_id},
                ),
                self.engine.now_ms,
            )
        station_edge = self.manager.stations[station_id].edge_id
        if station_edge == self.depot_edge:
            self._set_idle(vehicle)
        else:
            route = network.shortest_path(
                self.net, station_edge, self.depot_edge,
                self.policies.routing_weight, hour_of(self.engine.now_ms),
            )
            self._begin_route(
                vehicle, route, Mission.RETURN_HOME, Lifecycle.RETURNING
            )

    def on_stranded(self, event: Event) -> None:
        vehicle = self._alive(event)
        if vehicle.lifecycle not in BUSY_STATES:
            raise ModelError(f"illegal stranding: {vehicle.dump()}")
        if vehicle.trip is not None and vehicle.trip.status == "active":
            vehicle.trip.status = "stranded"
        vehicle.trace = None
        vehicle.route = None
        LOG.warning("vehicle %s stranded on edge %s at t=%.1fs",
                    vehicle.vehicle_id, event.payload.get("edge"),
                    self.engine.now_s)
        self._transition(vehicle, Lifecycle.STRANDED)
