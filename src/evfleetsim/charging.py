"""Charging infrastructure: stations bound to road edges, slots with
individual power ratings, a simultaneity limit, the FIFO charging manager,
closed-form session scheduling, and the vehicle-side wait-or-divert policy.

Charging is constant-power (no taper), so completion times are exact:
``duration = deficit * 3600 / (min(slot, vehicle) * efficiency)``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from . import network
from .dynamics import VehicleParams
from .engine import MS_PER_S, Engine, Event, EventKind, hour_of, ms


class ChargingError(ValueError):
    pass


# rated power (W) of each plug type
PLUG_PRESETS = {"schuko": 2300.0, "iec_type2": 3600.0}


@dataclass(frozen=True)
class Slot:
    slot_id: str
    power_w: float


@dataclass
class ChargeSession:
    station_id: str
    slot_id: str
    vehicle_id: str
    enqueue_ms: int
    grant_ms: int
    complete_ms: int
    duration_s: float  # exact closed form, not derived from rounded timestamps
    effective_power_w: float
    energy_wh: float  # battery-side energy
    start_soc: float
    target_soc: float
    completed: bool = False
    truncated: bool = False


@dataclass
class _Occupied:
    vehicle: object
    session: ChargeSession


@dataclass
class _QueueEntry:
    vehicle: object
    target_soc: float
    enqueue_ms: int


@dataclass
class ChargingStation:
    station_id: str
    edge_id: str
    slots: list[Slot]
    max_simultaneous: int
    queue: list[_QueueEntry] = field(default_factory=list)
    occupancy: dict[str, _Occupied] = field(default_factory=dict)

    def __post_init__(self):
        if not self.slots:
            raise ChargingError(f"station {self.station_id}: needs at least one slot")
        if not all(s.power_w > 0 for s in self.slots):
            raise ChargingError(
                f"station {self.station_id}: slot powers must be positive")
        if len({s.slot_id for s in self.slots}) != len(self.slots):
            raise ChargingError(f"station {self.station_id}: duplicate slot ids")
        if not (1 <= self.max_simultaneous <= len(self.slots)):
            raise ChargingError(
                f"station {self.station_id}: max_simultaneous must be in "
                f"[1, {len(self.slots)}]"
            )

    def free_slots(self) -> list[Slot]:
        return [s for s in self.slots if s.slot_id not in self.occupancy]

    def has_capacity(self) -> bool:
        return bool(self.free_slots()) and len(self.occupancy) < self.max_simultaneous


@dataclass(frozen=True)
class Queued:
    position: int  # 1-based, in the station's queue


@dataclass(frozen=True)
class DivertTo:
    station_id: str
    route: network.Route


def charge_duration(
    deficit_wh: float,
    slot_power_w: float,
    vehicle_max_w: float,
    charging_efficiency: float = 1.0,
) -> float:
    """Seconds to replace ``deficit_wh`` at constant effective power."""
    if deficit_wh < 0:
        raise ChargingError("deficit must be non-negative")
    if slot_power_w <= 0 or vehicle_max_w <= 0:
        raise ChargingError("powers must be positive")
    if not (0.0 < charging_efficiency <= 1.0):
        raise ChargingError("charging efficiency must be in (0, 1]")
    effective = min(slot_power_w, vehicle_max_w)
    return deficit_wh * 3600.0 / (effective * charging_efficiency)


def session_progress(session: ChargeSession, params,
                     elapsed_s: float) -> tuple[float, float]:
    """Battery-side energy (Wh) and SOC ``elapsed_s`` seconds into a
    session: constant inflow, the SOC capped at the session's target."""
    energy = session.effective_power_w * params.charging_efficiency * elapsed_s / 3600.0
    return energy, min(session.target_soc,
                       session.start_soc + energy / params.battery_capacity_wh)


class ChargingManager:
    """Controls all stations; grants the highest-power free slot, queues FIFO
    when a station is saturated, and schedules completion events.

    All vehicles share ``params``, the fleet's one vehicle model; of a
    vehicle the manager reads only ``vehicle_id`` and ``state``."""

    def __init__(
        self,
        engine: Engine,
        stations: list[ChargingStation],
        params: VehicleParams,
        safety_margin_soc: float = 0.05,
    ):
        self.engine = engine
        self.params = params
        self.stations: dict[str, ChargingStation] = {}
        for st in stations:
            if st.station_id in self.stations:
                raise ChargingError(f"duplicate station id {st.station_id}")
            self.stations[st.station_id] = st
        self.safety_margin_soc = safety_margin_soc
        self.sessions: list[ChargeSession] = []
        self._engaged: set[str] = set()  # vehicles in any queue or slot

    # -- slot lifecycle -----------------------------------------------------

    def _start_session(
        self,
        station: ChargingStation,
        slot: Slot,
        vehicle,
        target_soc: float,
        enqueue_ms: int,
        at_ms: int,
    ) -> ChargeSession:
        params = self.params
        deficit = (target_soc - vehicle.state.soc) * params.battery_capacity_wh
        duration = charge_duration(
            deficit, slot.power_w, params.max_charging_power_w,
            params.charging_efficiency,
        )
        completion = at_ms + ms(duration)
        session = ChargeSession(
            station_id=station.station_id,
            slot_id=slot.slot_id,
            vehicle_id=vehicle.vehicle_id,
            enqueue_ms=enqueue_ms,
            grant_ms=at_ms,
            complete_ms=completion,
            duration_s=duration,
            effective_power_w=min(slot.power_w, params.max_charging_power_w),
            energy_wh=deficit,
            start_soc=vehicle.state.soc,
            target_soc=target_soc,
        )
        self.engine.schedule(
            Event(
                EventKind.CHARGE_COMPLETE,
                {"vehicle": vehicle.vehicle_id,
                 "station": station.station_id,
                 "slot": slot.slot_id},
            ),
            completion,
        )
        station.occupancy[slot.slot_id] = _Occupied(vehicle, session)
        self.sessions.append(session)
        self._engaged.add(vehicle.vehicle_id)
        assert len(station.occupancy) <= station.max_simultaneous
        return session

    def request_charge(
        self, vehicle, station_id: str, target_soc: float, at_ms: int
    ) -> ChargeSession | Queued:
        """Grant the best free slot and return its session, or append to the
        station's FIFO queue."""
        station = self.stations.get(station_id)
        if station is None:
            raise ChargingError(f"unknown station {station_id}")
        if vehicle.vehicle_id in self._engaged:
            raise ChargingError(
                f"vehicle {vehicle.vehicle_id} already charging or queued"
            )
        if target_soc <= vehicle.state.soc:
            raise ChargingError(
                f"target soc {target_soc} not above current {vehicle.state.soc}"
            )
        if station.has_capacity():
            slot = min(station.free_slots(), key=lambda s: (-s.power_w, s.slot_id))
            return self._start_session(
                station, slot, vehicle, target_soc, at_ms, at_ms
            )
        station.queue.append(_QueueEntry(vehicle, target_soc, at_ms))
        self._engaged.add(vehicle.vehicle_id)
        return Queued(len(station.queue))

    def release_slot(
        self, station_id: str, slot_id: str, at_ms: int
    ) -> ChargeSession | None:
        """Complete the session in a slot (the vehicle's SOC becomes its
        target) and free the slot; if vehicles are waiting, grant it to the
        queue head and return the new session."""
        station = self.stations.get(station_id)
        if station is None:
            raise ChargingError(f"unknown station {station_id}")
        occ = station.occupancy.pop(slot_id, None)
        if occ is None:
            raise ChargingError(f"releasing free slot {slot_id} at {station_id}")
        occ.session.completed = True
        occ.vehicle.state.soc = occ.session.target_soc
        self._engaged.discard(occ.vehicle.vehicle_id)
        if not station.queue:
            return None
        entry = station.queue.pop(0)
        self._engaged.discard(entry.vehicle.vehicle_id)
        slot = next(s for s in station.slots if s.slot_id == slot_id)
        return self._start_session(
            station, slot, entry.vehicle, entry.target_soc, entry.enqueue_ms, at_ms
        )

    def leave_queue(self, vehicle_id: str, station_id: str) -> None:
        station = self.stations[station_id]
        before = len(station.queue)
        station.queue = [e for e in station.queue if e.vehicle.vehicle_id != vehicle_id]
        if len(station.queue) == before:
            raise ChargingError(f"{vehicle_id} is not queued at {station_id}")
        self._engaged.discard(vehicle_id)

    def truncate_active_sessions(self, at_ms: int) -> None:
        """At the simulation horizon, convert in-progress sessions into partial
        ones so the energy ledger stays exact."""
        for station in self.stations.values():
            for slot_id in sorted(station.occupancy):
                occ = station.occupancy[slot_id]
                s = occ.session
                elapsed = max(0.0, (at_ms - s.grant_ms) / MS_PER_S)
                elapsed = min(elapsed, s.duration_s)
                s.energy_wh, occ.vehicle.state.soc = session_progress(
                    s, self.params, elapsed)
                s.duration_s = elapsed
                s.complete_ms = at_ms
                s.truncated = True
                s.completed = True

    # -- wait-or-divert policy ------------------------------------------------

    def estimate_wait_s(self, station: ChargingStation, at_ms: int,
                        queued_ahead: int) -> float:
        """Expected wait before a slot frees: remaining occupant time plus the
        estimated demand of the first ``queued_ahead`` queued vehicles,
        shared over the servers."""
        remaining = sum(
            max(0.0, (occ.session.complete_ms - at_ms) / MS_PER_S)
            for occ in station.occupancy.values()
        )
        # queued vehicles are assumed to charge at the mean slot power
        est_power = sum(s.power_w for s in station.slots) / len(station.slots)
        params = self.params
        queued_s = 0.0
        for entry in station.queue[:queued_ahead]:
            deficit = max(
                0.0,
                (entry.target_soc - entry.vehicle.state.soc)
                * params.battery_capacity_wh,
            )
            queued_s += charge_duration(
                deficit, est_power, params.max_charging_power_w,
                params.charging_efficiency,
            )
        return (remaining + queued_s) / station.max_simultaneous

    def select_station(
        self,
        vehicle,
        current_station_id: str,
        net: network.RoadNetwork,
        at_ms: int,
        route_energy_wh: Callable[[network.Route, int], float],
    ) -> DivertTo | None:
        """Decide between waiting at a saturated station (``None``) and
        driving to an alternative, comparing local wait against travel time
        plus the alternative's wait on the current occupancy snapshot. Only
        alternatives reachable with the SOC safety margin are considered,
        by the estimate ``route_energy_wh(route, hour)`` of the vehicle's
        battery energy for a route; ties favor waiting."""
        current = self.stations[current_station_id]
        queued_ahead = max(0, len(current.queue) - 1)  # the decider sits at the tail
        wait_here = self.estimate_wait_s(current, at_ms, queued_ahead)

        hour = hour_of(at_ms)
        budget_wh = ((vehicle.state.soc - self.safety_margin_soc)
                     * self.params.battery_capacity_wh)

        best: tuple[float, str, network.Route] | None = None
        for sid in sorted(self.stations):
            if sid == current_station_id:
                continue
            station = self.stations[sid]
            try:
                route = network.shortest_path(
                    net, current.edge_id, station.edge_id, "travel_time", hour
                )
            except network.NoRouteError:
                continue
            energy = route_energy_wh(route, hour)
            if energy > budget_wh:
                continue
            cost = network.route_travel_time(net, route, hour) + self.estimate_wait_s(
                station, at_ms, len(station.queue))
            if best is None or cost < best[0]:
                best = (cost, sid, route)

        if best is not None and best[0] < wait_here:
            return DivertTo(best[1], best[2])
        return None

    # -- invariants -----------------------------------------------------------

    def assert_consistent(self) -> None:
        """Global scan: simultaneity limits hold and no vehicle appears twice
        across queues and occupancies. Intended for test builds."""
        seen: set[str] = set()
        for station in self.stations.values():
            assert len(station.occupancy) <= station.max_simultaneous, (
                f"{station.station_id}: occupancy over limit"
            )
            for occ in station.occupancy.values():
                vid = occ.vehicle.vehicle_id
                assert vid not in seen, f"{vid} appears twice"
                seen.add(vid)
            for entry in station.queue:
                vid = entry.vehicle.vehicle_id
                assert vid not in seen, f"{vid} appears twice"
                seen.add(vid)
        assert seen == self._engaged
