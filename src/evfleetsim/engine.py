"""Deterministic discrete-event core: simulation clock, event queue, run loop.

Simulation time is kept in integer milliseconds so that events scheduled at
the same nominal instant compare exactly equal on every platform.  Ties are
broken by insertion order, which makes every run with the same inputs
reproduce the same dispatch sequence byte for byte.

Besides the queue, the engine has one periodic event source,
:meth:`Engine.every`: one event that fires at a fixed cadence without a
heap operation or a :meth:`Engine.schedule` call per firing. After each
firing it takes the next time and the next sequence number, exactly as an
event whose handler ends by scheduling itself again would, so a run with
it dispatches and logs the same events with the same stamps.

The engine writes no file. With ``keep_event_log`` it keeps one
``(at_ms, sequence, kind, payload)`` tuple per dispatched event in
``event_log``; the runner writes them out as ``events.csv``.
"""

from __future__ import annotations

import heapq
import time as _wallclock
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from operator import add
from typing import Callable

MS_PER_S = 1000


class ClockRangeError(ValueError):
    """A time in seconds whose millisecond count is not finite."""


def ms(seconds: float) -> int:
    """Convert seconds to integer-millisecond simulation time. Every seconds
    value the model schedules passes through here; raises
    :class:`ClockRangeError` when ``seconds * 1000`` is not finite."""
    try:
        return int(round(seconds * MS_PER_S))
    except (OverflowError, ValueError):
        raise ClockRangeError(
            f"{seconds!r} s does not fit the millisecond clock") from None


def hour_of(time_ms: int) -> int:
    """Hour-of-day (0..23) for a simulation timestamp."""
    return (time_ms // (3600 * MS_PER_S)) % 24


def left_sum(values) -> float:
    """The float sum of ``values``, added left to right from ``0.0``: the
    value builtin ``sum()`` gave before Python 3.12, whose compensated
    summation can give another. Builtin ``sum()`` adds only integers in
    this package, so no float total depends on the Python version."""
    return reduce(add, values, 0.0)


class EventKind(Enum):
    # the identity hash: a dict keyed by kind then looks it up without the
    # Python-level ``Enum.__hash__``; no output depends on hash order
    __hash__ = object.__hash__

    VEHICLE_SPAWN = "VehicleSpawn"
    SEGMENT_COMPLETE = "SegmentComplete"
    ARRIVE_DESTINATION = "ArriveDestination"
    DWELL_COMPLETE = "DwellComplete"
    CHARGE_REQUEST = "ChargeRequest"
    SLOT_GRANTED = "SlotGranted"
    CHARGE_COMPLETE = "ChargeComplete"
    STRANDED = "Stranded"
    METRICS_TICK = "MetricsTick"
    SIMULATION_END = "SimulationEnd"


@dataclass(slots=True)
class Event:
    """A timestamped simulation event.

    ``at`` and ``sequence`` are stamped by the engine when the event is
    scheduled; ``payload`` holds entity ids keyed by role, e.g.
    ``{"vehicle": "v003", "station": "st1"}``.
    """

    kind: EventKind
    payload: dict = field(default_factory=dict)
    at: int = -1
    sequence: int = -1

    def payload_str(self) -> str:
        return ";".join(f"{k}={self.payload[k]}" for k in sorted(self.payload))


class SchedulingInPastError(ValueError):
    """Raised when an event is scheduled before the current clock."""


class ModelError(RuntimeError):
    """An impossible event: an illegal lifecycle transition, an event for an
    unknown entity, or an event kind without a handler."""


class SimulationAborted(RuntimeError):
    """An event could not be handled; carries the event and the cause."""

    def __init__(self, event: Event, cause: BaseException):
        super().__init__(
            f"handler for {event.kind.value} at t={event.at / MS_PER_S:.3f}s "
            f"(seq={event.sequence}, {event.payload_str()}) failed: {cause}"
        )
        self.event = event
        self.cause = cause


@dataclass
class SimulationSummary:
    """What a run of the event loop did: the dispatched events by kind
    and the wall time it took."""

    dispatched: Counter
    wall_clock_s: float

    @property
    def total_dispatched(self) -> int:
        return sum(self.dispatched.values())


class Engine:
    """Single-threaded event loop with a (time, insertion-order) priority queue
    and one periodic event source.

    ``now_ms`` is the clock: a plain attribute, read by every handler and
    written only by :meth:`run_until`, as each event fires and at the end
    of the run.

    The periodic source (:meth:`every`) holds one event beside the queue,
    as ``(at, sequence, event)`` like a queue entry, and :meth:`run_until`
    merges the two by ``(at, sequence)``. Once its handler has returned,
    the event is stamped with the next time and the next sequence number
    of the engine, the stamps that ``schedule(event, at + interval_ms)`` at
    the end of the handler would give it."""

    def __init__(self, *, keep_event_log: bool = False):
        self.now_ms = 0
        self._queue: list[tuple[int, int, Event]] = []
        self._seq = 0
        # the periodic event's next firing, as a queue entry, or None; and
        # its interval and last time in ms
        self._periodic: tuple[int, int, Event] | None = None
        self._period = (0, 0)
        self.handlers: dict[EventKind, Callable[[Event], None]] = {}
        self.keep_event_log = keep_event_log
        self.event_log: list[tuple[int, int, str, str]] = []

    @property
    def now_s(self) -> float:
        return self.now_ms / MS_PER_S

    def on(self, kind: EventKind, handler: Callable[[Event], None]) -> None:
        self.handlers[kind] = handler

    def schedule(self, event: Event, at: int) -> None:
        """Enqueue ``event`` to fire at ``at`` (ms) and stamp ``at`` and
        ``sequence`` on it. Same-time events fire in insertion order;
        scheduling in the past is a logic bug and raises."""
        if at < self.now_ms:
            raise SchedulingInPastError(
                f"cannot schedule {event.kind.value} at t={at} ms: "
                f"clock is already at {self.now_ms} ms"
            )
        event.at = at
        event.sequence = seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (at, seq, event))

    def every(self, event: Event, interval_ms: int, last_ms: int) -> None:
        """Fire ``event`` now, whatever ``last_ms``, and then every
        ``interval_ms`` while the time is at most ``last_ms``, through the
        one periodic source. It is stamped now, as :meth:`schedule` stamps
        an event, and after each firing. The engine has one periodic
        source: a second call while the first still fires raises
        ``ValueError``, as does an ``interval_ms`` below 1."""
        if self._periodic is not None:
            raise ValueError("the engine already has a periodic event")
        if interval_ms < 1:
            raise ValueError(f"periodic interval {interval_ms} ms is not "
                             f"positive")
        event.at = at = self.now_ms
        event.sequence = seq = self._seq
        self._seq = seq + 1
        self._periodic = (at, seq, event)
        self._period = (interval_ms, last_ms)

    def run_until(self, end_ms: int) -> SimulationSummary:
        """Dispatch every event with ``at <= end_ms`` in (at, sequence) order,
        from the queue and the periodic source, then advance the clock to
        ``end_ms``. An event without a handler, or a handler that raises,
        aborts the run with :class:`SimulationAborted`; both checks run on
        every event.

        ``dispatched`` counts the events of each kind that fired; a kind
        that never fired has no entry."""
        started = _wallclock.perf_counter()
        dispatched: Counter = Counter()
        queue = self._queue
        handlers = self.handlers
        log = self.event_log if self.keep_event_log else None
        pop = heapq.heappop
        while True:
            periodic = self._periodic
            # sequence numbers are unique, so the comparison never reaches
            # the events
            if (periodic is not None and periodic[0] <= end_ms
                    and (not queue or periodic < queue[0])):
                at, _, event = periodic
            elif queue and queue[0][0] <= end_ms:
                at, _, event = pop(queue)
                periodic = None
            else:
                break
            self.now_ms = at
            kind = event.kind
            handler = handlers.get(kind)
            if handler is None:
                raise SimulationAborted(
                    event, ModelError("no handler registered"))
            if log is not None:
                log.append((at, event.sequence, kind.value,
                            event.payload_str()))
            try:
                handler(event)
            except Exception as exc:  # abort with the offending event identified
                raise SimulationAborted(event, exc) from exc
            dispatched[kind] += 1
            if periodic is not None:
                interval_ms, last_ms = self._period
                nxt = at + interval_ms
                if nxt <= last_ms:
                    event.at = nxt
                    event.sequence = seq = self._seq
                    self._seq = seq + 1
                    self._periodic = (nxt, seq, event)
                else:
                    self._periodic = None
        if end_ms > self.now_ms:
            self.now_ms = end_ms
        return SimulationSummary(
            dispatched=dispatched,
            wall_clock_s=_wallclock.perf_counter() - started,
        )

