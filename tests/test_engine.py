import random
from collections import Counter

import pytest

from test_config_cli import write_scenario

from evfleetsim.config import load_config
from evfleetsim.engine import (ClockRangeError, Engine, Event, EventKind,
                               ModelError, SchedulingInPastError,
                               SimulationAborted, hour_of, ms)
from evfleetsim.simulation import run_scenario


def make_engine(log):
    engine = Engine()
    for kind in EventKind:
        engine.on(kind, lambda e: log.append((e.at, e.sequence, e.kind)))
    return engine


def test_time_conversion_is_exact_milliseconds():
    assert ms(5.0) == 5000
    assert ms(0.0015) == 2  # rounds, not truncates
    assert hour_of(ms(3600.0)) == 1
    assert hour_of(ms(25 * 3600.0)) == 1


@pytest.mark.parametrize("seconds", [1e306, -1e306, float("inf"),
                                     float("nan")])
def test_time_conversion_rejects_what_the_clock_cannot_hold(seconds):
    with pytest.raises(ClockRangeError, match="millisecond clock"):
        ms(seconds)


def test_schedule_and_fire_at_time():
    log = []
    engine = make_engine(log)
    engine.schedule(Event(EventKind.METRICS_TICK), ms(5))
    engine.run_until(ms(10))
    assert log == [(5000, 0, EventKind.METRICS_TICK)]
    assert engine.now_ms == ms(10)


def test_same_time_events_fire_in_insertion_order():
    log = []
    engine = make_engine(log)
    engine.schedule(Event(EventKind.METRICS_TICK, {"tag": "x"}), ms(5))
    engine.schedule(Event(EventKind.SIMULATION_END, {"tag": "y"}), ms(5))
    engine.run_until(ms(5))
    assert [k for _, _, k in log] == [EventKind.METRICS_TICK, EventKind.SIMULATION_END]


def test_scheduling_in_past_rejected():
    engine = make_engine([])
    engine.schedule(Event(EventKind.METRICS_TICK), ms(4))
    engine.run_until(ms(4))
    with pytest.raises(SchedulingInPastError):
        engine.schedule(Event(EventKind.METRICS_TICK), ms(3))


def test_run_until_with_empty_queue_advances_clock():
    engine = make_engine([])
    summary = engine.run_until(ms(100))
    assert engine.now_ms == ms(100)
    assert summary.total_dispatched == 0


def test_run_until_dispatches_only_due_events():
    log = []
    engine = make_engine(log)
    for t in (1, 2, 3):
        engine.schedule(Event(EventKind.METRICS_TICK), ms(t))
    engine.run_until(ms(2))
    assert len(log) == 2
    engine.run_until(ms(3))
    assert len(log) == 3


def test_dispatch_order_matches_independent_sort_on_random_events():
    # oracle: sort the (time, insertion sequence) pairs independently
    rng = random.Random(20240811)
    log = []
    engine = make_engine(log)
    scheduled = []
    for _ in range(100_000):
        at = rng.randrange(0, 50_000)
        event = Event(EventKind.METRICS_TICK)
        engine.schedule(event, at)
        scheduled.append((at, event.sequence))
    engine.run_until(60_000)
    expected = sorted(scheduled)
    assert [(at, seq) for at, seq, _ in log] == expected


def test_clock_monotone_over_random_dispatch():
    rng = random.Random(7)
    log = []
    engine = make_engine(log)
    for _ in range(5000):
        engine.schedule(Event(EventKind.METRICS_TICK), rng.randrange(0, 10_000))
    engine.run_until(10_000)
    times = [at for at, _, _ in log]
    assert times == sorted(times)


def test_handlers_can_schedule_at_current_time():
    fired = []
    engine = Engine()

    def first(event):
        fired.append("first")
        engine.schedule(Event(EventKind.SIMULATION_END), engine.now_ms)

    engine.on(EventKind.METRICS_TICK, first)
    engine.on(EventKind.SIMULATION_END, lambda e: fired.append("second"))
    engine.schedule(Event(EventKind.METRICS_TICK), ms(1))
    engine.run_until(ms(1))
    assert fired == ["first", "second"]


def test_handler_failure_aborts_with_event_identified():
    engine = Engine()

    def boom(event):
        raise ValueError("broken model")

    engine.on(EventKind.STRANDED, boom)
    engine.schedule(Event(EventKind.STRANDED, {"vehicle": "v1"}), ms(2))
    with pytest.raises(SimulationAborted) as err:
        engine.run_until(ms(5))
    assert err.value.event.kind is EventKind.STRANDED
    assert "vehicle=v1" in str(err.value)


def test_event_without_handler_aborts_the_run():
    engine = Engine()
    engine.on(EventKind.METRICS_TICK, lambda e: None)
    engine.schedule(Event(EventKind.METRICS_TICK), ms(1))
    engine.schedule(Event(EventKind.CHARGE_REQUEST, {"vehicle": "v1"}), ms(2))
    with pytest.raises(SimulationAborted, match="ChargeRequest") as err:
        engine.run_until(ms(5))
    assert err.value.event.kind is EventKind.CHARGE_REQUEST
    assert isinstance(err.value.cause, ModelError)
    assert "vehicle=v1" in str(err.value)


def test_event_log_rows_match_dispatch(tmp_path):
    # the runner writes the engine's event log as events.csv: one row per
    # dispatched event, in dispatch order
    result = run_scenario(load_config(write_scenario(tmp_path)),
                          tmp_path / "out", event_log=True)
    lines = (tmp_path / "out" / "events.csv").read_text().splitlines()
    assert lines[0] == "time_s,sequence,kind,payload"
    # every trip's spawn is scheduled before the first tick, at 0 s
    spawns = [t for t in result.trips if t.status != "rejected"]
    assert min(t.depart_ms for t in spawns) > 0
    assert lines[1] == f"0.000,{len(spawns)},MetricsTick,"
    seq, first = min(enumerate(spawns), key=lambda s: s[1].depart_ms)
    assert (next(line for line in lines if ",VehicleSpawn," in line)
            == f"{first.depart_ms / 1000:.3f},{seq},VehicleSpawn,"
               f"trip={first.trip_id}")
    assert len(lines) - 1 == result.engine_summary.total_dispatched
    kinds = Counter(line.split(",")[2] for line in lines[1:])
    assert kinds == {k.value: n
                     for k, n in result.engine_summary.dispatched.items()}


def test_identical_runs_produce_identical_event_logs():
    def run():
        rng = random.Random(99)
        engine = Engine(keep_event_log=True)
        engine.on(EventKind.METRICS_TICK, lambda e: None)
        for i in range(2000):
            engine.schedule(
                Event(EventKind.METRICS_TICK, {"i": i}), rng.randrange(0, 3000)
            )
        engine.run_until(3000)
        return engine.event_log

    assert run() == run()


def test_dispatched_counts_the_kinds_of_the_event_log():
    # three kinds fire, one of them only from a handler; the others have a
    # handler but never fire and must have no entry, not a zero
    rng = random.Random(5)
    engine = Engine(keep_event_log=True)
    for kind in EventKind:
        engine.on(kind, lambda e: None)
    engine.on(EventKind.CHARGE_REQUEST, lambda e: engine.schedule(
        Event(EventKind.SLOT_GRANTED), e.at + 1))
    for _ in range(500):
        kind = rng.choice([EventKind.SEGMENT_COMPLETE, EventKind.CHARGE_REQUEST])
        engine.schedule(Event(kind), rng.randrange(0, 1000))
    summary = engine.run_until(2000)
    logged = Counter(kind for _, _, kind, _ in engine.event_log)
    assert {k.value: n for k, n in summary.dispatched.items()} == logged
    assert set(summary.dispatched) == {EventKind.SEGMENT_COMPLETE,
                                       EventKind.CHARGE_REQUEST,
                                       EventKind.SLOT_GRANTED}
    assert summary.total_dispatched == len(engine.event_log) > 500
