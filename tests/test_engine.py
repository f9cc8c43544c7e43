import random
from collections import Counter
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_config_cli import write_scenario

from evfleetsim import engine as engine_module
from evfleetsim.config import default_scenario_path, load_config
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


# --- the periodic source ---------------------------------------------------------

TICK = EventKind.METRICS_TICK
SPAWN = EventKind.SEGMENT_COMPLETE
FOLLOW = EventKind.ARRIVE_DESTINATION


def periodic_run(one_shots, position, interval_ms, last_ms, steps,
                 through_every):
    """Run one-shot events and one periodic ``MetricsTick`` through an
    engine, in ``run_until`` steps to each of ``steps``; returns the event
    log, the ``dispatched`` counts and the clock after each step.

    ``one_shots`` are ``(at, spawn)`` pairs scheduled in order, with the
    periodic event registered at 0 ms before the one at ``position``. A one-shot
    schedules ``spawn`` more events at its own millisecond, and every
    third tick schedules one at its own. With ``through_every`` the tick
    fires through ``Engine.every``; otherwise its handler ends by
    scheduling it again, the reference."""
    engine = Engine(keep_event_log=True)
    fired = []

    def on_spawn(event):
        for k in range(event.payload["spawn"]):
            engine.schedule(Event(FOLLOW, {"of": event.sequence, "k": k}),
                            engine.now_ms)

    def on_tick(event):
        fired.append(event.at)
        if len(fired) % 3 == 0:
            engine.schedule(Event(FOLLOW, {"tick": event.at}), engine.now_ms)
        if not through_every and event.at + interval_ms <= last_ms:
            engine.schedule(event, event.at + interval_ms)

    engine.on(SPAWN, on_spawn)
    engine.on(FOLLOW, lambda event: None)
    engine.on(TICK, on_tick)

    def register_tick():
        if through_every:
            engine.every(Event(TICK), interval_ms, last_ms)
        else:
            engine.schedule(Event(TICK), 0)

    for i, (at, spawn) in enumerate(one_shots):
        if i == position:
            register_tick()
        engine.schedule(Event(SPAWN, {"i": i, "spawn": spawn}), at)
    if position >= len(one_shots):
        register_tick()
    summaries = []
    for end_ms in steps:
        summary = engine.run_until(end_ms)
        summaries.append((summary.dispatched, engine.now_ms))
    return engine.event_log, summaries


@st.composite
def periodic_scenarios(draw):
    interval_ms = draw(st.integers(1, 40))
    last_ms = draw(st.integers(0, 400))
    on_grid = st.integers(0, 12).map(lambda k: k * interval_ms)
    times = st.one_of(on_grid, st.integers(0, 500), st.just(last_ms))
    one_shots = draw(st.lists(st.tuples(times, st.integers(0, 2)),
                              max_size=30))
    position = draw(st.integers(0, len(one_shots)))
    steps = sorted(draw(st.lists(st.one_of(on_grid, st.integers(0, 500)),
                                 max_size=4)))
    return one_shots, position, interval_ms, last_ms, [*steps, 600]


@settings(max_examples=300, deadline=timedelta(seconds=5), derandomize=True)
@given(periodic_scenarios())
def test_periodic_source_dispatches_as_a_self_rescheduling_event(scenario):
    log, summaries = periodic_run(*scenario, through_every=True)
    assert (log, summaries) == periodic_run(*scenario, through_every=False)


def test_periodic_source_ties_at_the_horizon_as_the_reference():
    # as in a run: the tick registers, then the end event is scheduled at
    # the horizon; the last tick is stamped after it, so it fires after it
    for through_every in (True, False):
        log, _ = periodic_run([(100, 0)], 0, 25, 100, [100], through_every)
        assert [(at, seq, kind) for at, seq, kind, _ in log[-2:]] == [
            (100, 1, "SegmentComplete"), (100, 6, "MetricsTick")]
    assert (periodic_run([(100, 0)], 0, 25, 100, [40, 100], True)
            == periodic_run([(100, 0)], 0, 25, 100, [40, 100], False))


def test_periodic_handler_failure_names_its_own_time_and_sequence():
    engine = Engine()

    def tick(event):
        if event.at == 30:
            raise ValueError("disk full")

    engine.on(TICK, tick)
    engine.on(SPAWN, lambda event: None)
    engine.schedule(Event(SPAWN), 15)
    engine.every(Event(TICK, {"tag": "t"}), 10, 100)
    with pytest.raises(SimulationAborted) as err:
        engine.run_until(100)
    # sequences: the spawn 0, ticks 1 (0 ms), 2 (10 ms), 3 (20 ms), 4 (30 ms)
    assert err.value.event.at == 30 and err.value.event.sequence == 4
    assert str(err.value) == ("handler for MetricsTick at t=0.030s (seq=4, "
                              "tag=t) failed: disk full")


def test_periodic_event_without_handler_aborts_the_run():
    engine = Engine()
    engine.run_until(5)
    engine.every(Event(TICK), 10, 100)
    with pytest.raises(SimulationAborted, match="MetricsTick at t=0.005s") as err:
        engine.run_until(100)
    assert isinstance(err.value.cause, ModelError)


def test_every_rejects_a_bad_interval_and_a_second_source():
    engine = make_engine([])
    engine.run_until(50)
    for interval_ms in (0, -10):
        with pytest.raises(ValueError, match="not positive"):
            engine.every(Event(TICK), interval_ms, 100)
    engine.every(Event(TICK), 10, 100)
    with pytest.raises(ValueError, match="already has a periodic event"):
        engine.every(Event(TICK), 10, 100)


def test_the_source_is_free_again_after_its_last_firing():
    log = []
    engine = make_engine(log)
    engine.run_until(100)
    engine.every(Event(TICK), 10, 110)
    engine.run_until(200)
    assert log == [(100, 0, TICK), (110, 1, TICK)]
    engine.every(Event(TICK), 10, 200)


def test_no_metrics_tick_goes_through_schedule_or_the_heap(tmp_path,
                                                          monkeypatch):
    scheduled = Counter()
    schedule = Engine.schedule

    def counting(self, event, at):
        scheduled[event.kind] += 1
        schedule(self, event, at)

    pushed = Counter()
    heappush = engine_module.heapq.heappush

    def counting_push(queue, entry):
        # routing pushes onto heaps of its own
        if isinstance(entry[-1], Event):
            pushed[entry[-1].kind] += 1
        heappush(queue, entry)

    monkeypatch.setattr(Engine, "schedule", counting)
    monkeypatch.setattr(engine_module.heapq, "heappush", counting_push)
    result = run_scenario(load_config(default_scenario_path()),
                          tmp_path / "out")
    assert result.engine_summary.dispatched[TICK] == 8641
    assert scheduled[TICK] == pushed[TICK] == 0
    assert scheduled == pushed and pushed.total() > 0
