"""Charging infrastructure: stations bound to road edges, slots with
individual power ratings, a simultaneity limit, the FIFO charging manager,
closed-form session scheduling, and the wait-or-divert comparison.

A :class:`ChargingStation` is a frozen layout; the :class:`ChargingManager`
owns every station's queue and occupied slots, and schedules no event. The
manager is a station model only: it knows no road network, no hour and no
SOC budget. The fleet controller builds, memoises and filters the divert
alternatives (routes, energy estimates, travel times); the manager compares
their travel time plus wait with the wait at the current station.

Charging is constant-power (no taper), so completion times are exact:
``duration = deficit * 3600 / (min(slot, vehicle) * efficiency)``. The wait
estimate counts on the engine's millisecond clock: a queued vehicle's charge
time is rounded to whole ms, as a granted session's completion is, so every
sum it takes is exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import network
from .dynamics import VehicleParams, settle_relay
from .engine import MS_PER_S, left_sum, ms


class ChargingError(ValueError):
    pass


# rated power (W) of each plug type
PLUG_PRESETS = {"schuko": 2300.0, "iec_type2": 3600.0}


@dataclass(frozen=True)
class Slot:
    """One charging point of a station: its id and rated power in W."""

    slot_id: str
    power_w: float


@dataclass
class ChargeSession:
    """One vehicle's charge at a slot: the station, slot and vehicle,
    the enqueue, grant and completion times in ms, the duration, the
    effective power, the battery-side energy and the SOC it starts at
    and aims for; ``truncated`` marks a session the horizon cut short."""

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
    truncated: bool = False


@dataclass
class _Occupied:
    """A slot in use: the vehicle charging there and its session."""

    vehicle: object
    session: ChargeSession


@dataclass
class _QueueEntry:
    """A vehicle waiting in a station's queue, with the time it joined
    and its estimated charge time in ms."""

    vehicle: object
    enqueue_ms: int
    # estimated ms to charge at the station's mean slot power; fixed while
    # queued, since a queued vehicle is at rest
    charge_ms: int


@dataclass(frozen=True)
class ChargingStation:
    """A station's fixed layout; the manager holds its run state."""

    station_id: str
    edge_id: str
    slots: tuple[Slot, ...]
    max_simultaneous: int

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


@dataclass(frozen=True)
class Queued:
    """A charge request that found no free slot: the vehicle's place in
    the station's queue."""

    position: int  # 1-based, in the station's queue


@dataclass(frozen=True)
class DivertTo:
    """A station to divert to instead of waiting, and the route there."""

    station_id: str
    route: network.Route


def charge_duration(
    deficit_wh: float,
    slot_power_w: float,
    vehicle_max_w: float,
    charging_efficiency: float,
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
    """Owns every station's FIFO queue (``queues``) and occupied slots
    (``occupancy``), keyed by station id; grants the highest-power free slot
    or queues. It schedules nothing: the caller schedules the events of each
    session it is returned.

    All vehicles share ``params``, the fleet's one vehicle model, and
    ``target_soc``, the fleet's one charging target: every session charges
    to it, and each session keeps it as its own ``target_soc``. Of a
    vehicle the manager reads only ``vehicle_id`` and ``state``.

    Per station it keeps the queued charge time as an integer total on the
    engine's millisecond clock, which an append adds to and a ``popleft``
    subtracts from exactly, so that an estimate never scans the queue."""

    def __init__(self, stations: list[ChargingStation], params: VehicleParams,
                 target_soc: float):
        self.params = params
        self.target_soc = target_soc
        self.stations: dict[str, ChargingStation] = {}
        for st in stations:
            if st.station_id in self.stations:
                raise ChargingError(f"duplicate station id {st.station_id}")
            self.stations[st.station_id] = st
        self.queues: dict[str, deque[_QueueEntry]] = {
            sid: deque() for sid in self.stations}
        self._queued_ms: dict[str, int] = {sid: 0 for sid in self.stations}
        self.occupancy: dict[str, dict[str, _Occupied]] = {
            sid: {} for sid in self.stations}
        self.sessions: list[ChargeSession] = []
        self._engaged: set[str] = set()  # vehicles in any queue or slot

    # -- slot lifecycle -----------------------------------------------------

    def _start_session(
        self,
        station: ChargingStation,
        slot: Slot,
        vehicle,
        enqueue_ms: int,
        at_ms: int,
    ) -> ChargeSession:
        params = self.params
        deficit = ((self.target_soc - vehicle.state.soc)
                   * params.battery_capacity_wh)
        duration = charge_duration(
            deficit, slot.power_w, params.max_charging_power_w,
            params.charging_efficiency,
        )
        session = ChargeSession(
            station_id=station.station_id,
            slot_id=slot.slot_id,
            vehicle_id=vehicle.vehicle_id,
            enqueue_ms=enqueue_ms,
            grant_ms=at_ms,
            complete_ms=at_ms + ms(duration),
            duration_s=duration,
            effective_power_w=min(slot.power_w, params.max_charging_power_w),
            energy_wh=deficit,
            start_soc=vehicle.state.soc,
            target_soc=self.target_soc,
        )
        occupancy = self.occupancy[station.station_id]
        occupancy[slot.slot_id] = _Occupied(vehicle, session)
        self.sessions.append(session)
        self._engaged.add(vehicle.vehicle_id)
        assert len(occupancy) <= station.max_simultaneous
        return session

    def would_queue(self, vehicle, station_id: str) -> bool:
        """Whether a request of ``vehicle`` to charge at ``station_id``
        would queue: every slot the simultaneity limit allows is taken.
        Raises :class:`ChargingError` for a request that
        :meth:`request_charge` refuses: an unknown station, a vehicle
        already charging or queued, or a target not above its SOC."""
        station = self.stations.get(station_id)
        if station is None:
            raise ChargingError(f"unknown station {station_id}")
        if vehicle.vehicle_id in self._engaged:
            raise ChargingError(
                f"vehicle {vehicle.vehicle_id} already charging or queued"
            )
        if self.target_soc <= vehicle.state.soc:
            raise ChargingError(f"target soc {self.target_soc} not above "
                                f"current {vehicle.state.soc}")
        return len(self.occupancy[station_id]) >= station.max_simultaneous

    def request_charge(
        self, vehicle, station_id: str, at_ms: int
    ) -> ChargeSession | Queued:
        """Grant the best free slot and return its session, or append to the
        station's FIFO queue."""
        full = self.would_queue(vehicle, station_id)
        station = self.stations[station_id]
        if not full:
            # below the limit a slot is free: the limit is at most the slot
            # count
            occupancy = self.occupancy[station_id]
            slot = min((s for s in station.slots if s.slot_id not in occupancy),
                       key=lambda s: (-s.power_w, s.slot_id))
            return self._start_session(station, slot, vehicle, at_ms, at_ms)
        queue = self.queues[station_id]
        charge_ms = self._queued_charge_ms(station, vehicle)
        queue.append(_QueueEntry(vehicle, at_ms, charge_ms))
        self._queued_ms[station_id] += charge_ms
        self._engaged.add(vehicle.vehicle_id)
        return Queued(len(queue))

    def release_slot(
        self, station_id: str, slot_id: str, at_ms: int
    ) -> ChargeSession | None:
        """Complete the session in a slot (the vehicle's SOC becomes its
        target, and the range extender's relay is settled at it) and free
        the slot; if vehicles are waiting, grant it to the queue head and
        return the new session."""
        station = self.stations.get(station_id)
        if station is None:
            raise ChargingError(f"unknown station {station_id}")
        occ = self.occupancy[station_id].pop(slot_id, None)
        if occ is None:
            raise ChargingError(f"releasing free slot {slot_id} at {station_id}")
        occ.vehicle.state.soc = occ.session.target_soc
        settle_relay(occ.vehicle.state, self.params)
        self._engaged.discard(occ.vehicle.vehicle_id)
        queue = self.queues[station_id]
        if not queue:
            return None
        entry = queue.popleft()
        self._queued_ms[station_id] -= entry.charge_ms
        self._engaged.discard(entry.vehicle.vehicle_id)
        slot = next(s for s in station.slots if s.slot_id == slot_id)
        return self._start_session(station, slot, entry.vehicle,
                                   entry.enqueue_ms, at_ms)

    def truncate_active_sessions(self, at_ms: int) -> None:
        """At the simulation horizon, convert in-progress sessions into partial
        ones so the energy ledger stays exact."""
        for occupancy in self.occupancy.values():
            for slot_id in sorted(occupancy):
                occ = occupancy[slot_id]
                s = occ.session
                elapsed = max(0.0, (at_ms - s.grant_ms) / MS_PER_S)
                elapsed = min(elapsed, s.duration_s)
                s.energy_wh, occ.vehicle.state.soc = session_progress(
                    s, self.params, elapsed)
                settle_relay(occ.vehicle.state, self.params)
                s.duration_s = elapsed
                s.complete_ms = at_ms
                s.truncated = True

    # -- wait-or-divert policy ------------------------------------------------

    def _queued_charge_ms(self, station: ChargingStation, vehicle) -> int:
        """Estimated ms a queued ``vehicle`` will charge to the target at
        ``station``, assuming the mean slot power."""
        est_power = (left_sum(s.power_w for s in station.slots)
                     / len(station.slots))
        params = self.params
        deficit = max(0.0, ((self.target_soc - vehicle.state.soc)
                            * params.battery_capacity_wh))
        return ms(charge_duration(deficit, est_power,
                                  params.max_charging_power_w,
                                  params.charging_efficiency))

    def estimate_wait_s(self, station: ChargingStation, at_ms: int) -> float:
        """Expected wait before a slot frees for a vehicle joining the
        queue: remaining occupant time plus the estimated charge time of
        every queued vehicle, shared over the servers; both are summed in
        whole ms, so the sum is exact."""
        sid = station.station_id
        remaining_ms = sum(max(0, occ.session.complete_ms - at_ms)
                           for occ in self.occupancy[sid].values())
        return ((remaining_ms + self._queued_ms[sid])
                / (MS_PER_S * station.max_simultaneous))

    def select_station(
        self,
        current_station_id: str,
        at_ms: int,
        alternatives: list[tuple[DivertTo, float]],
    ) -> DivertTo | None:
        """Decide, for a vehicle that finds a station full and has not yet
        queued there, between joining its queue (``None``) and
        one of ``alternatives``, pairs of a divert and its travel time in
        seconds: the local wait is compared with the travel time plus the
        alternative's wait on the current occupancy snapshot. The first
        cheapest alternative is chosen; ties favor waiting. The caller gives
        only the alternatives the vehicle can reach."""
        wait_here = self.estimate_wait_s(self.stations[current_station_id],
                                         at_ms)
        best: tuple[float, DivertTo] | None = None
        for divert, travel in alternatives:
            sid = divert.station_id
            cost = travel + self.estimate_wait_s(self.stations[sid], at_ms)
            if best is None or cost < best[0]:
                best = (cost, divert)

        if best is not None and best[0] < wait_here:
            return best[1]
        return None

    # -- invariants -----------------------------------------------------------

    def assert_consistent(self) -> None:
        """Global scan: simultaneity limits hold, no vehicle appears twice
        across queues and occupancies, every queued charge time equals a
        fresh estimate, and every queue total is the sum of its entries.
        Intended for test builds."""
        seen: set[str] = set()
        for sid, station in self.stations.items():
            occupancy = self.occupancy[sid]
            assert len(occupancy) <= station.max_simultaneous, (
                f"{sid}: occupancy over limit"
            )
            for occ in occupancy.values():
                vid = occ.vehicle.vehicle_id
                assert vid not in seen, f"{vid} appears twice"
                seen.add(vid)
            for entry in self.queues[sid]:
                vid = entry.vehicle.vehicle_id
                assert vid not in seen, f"{vid} appears twice"
                seen.add(vid)
                assert entry.charge_ms == self._queued_charge_ms(
                    station, entry.vehicle), (
                    f"{vid}: stale queued charge time")
            total = sum(e.charge_ms for e in self.queues[sid])
            assert self._queued_ms[sid] == total, (
                f"{sid}: stored queue total {self._queued_ms[sid]} ms is not "
                f"the sum {total} ms of its entries")
        assert seen == self._engaged
