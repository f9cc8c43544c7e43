"""Span tracing of one ``run_scenario`` call, attached from outside the package.

:func:`traced` patches the module functions and class methods that form the
boundaries between the package's layers, records a span for every call while
the run is in progress, and restores the originals afterwards. Nothing under
``src/`` knows about it.

A span has a name (``<layer>.<function>``), a start, an end and the span that
was open when it began. Every call is aggregated per (name, parent) into a
count, a busy time and a self time (busy time minus the time covered by its
child spans). Individual span records are kept for names called at most
``RECORD_LIMIT`` times in the run; hotter names keep only their aggregates.
:func:`layer_metrics` turns the aggregates into the benchmark's per-layer
metrics.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import time
from collections import defaultdict
from pathlib import Path

RECORD_LIMIT = 100_000

LAYERS = ("network", "dynamics", "fleet", "charging", "engine", "metrics",
          "simulation")

# handler spans are named after the module and function that handle the
# event kind; the tick sampler is a closure inside run_scenario
_HANDLER_SPAN = {"MetricsTick": "simulation.tick_sample",
                 "SimulationEnd": "simulation.end"}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self._stack: list[list] = []  # open spans: [span_id, name, child_s]
        self._next_id = 1
        self.origin = time.perf_counter()
        # (span_id, parent_id, name, start, end), times from perf_counter
        self.records: list[tuple[int, int, str, float, float]] = []
        self._recorded: dict[str, int] = defaultdict(int)
        # (name, parent name) -> [calls, busy seconds, self seconds]
        self.aggregates: dict[tuple[str, str], list] = {}
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped in a span called ``name``; ``on_result``
        sees the return value of every call that returns."""
        stack = self._stack
        clock = time.perf_counter

        def traced_call(*args, **kwargs):
            frame = [self._next_id, name, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, start, end)
            if on_result is not None:
                on_result(result)
            return result

        traced_call.__wrapped__ = fn
        return traced_call

    def _close(self, frame: list, start: float, end: float) -> None:
        span_id, name, child_s = frame
        busy = end - start
        if self._stack:
            parent = self._stack[-1]
            parent[2] += busy
            parent_id, parent_name = parent[0], parent[1]
        else:
            parent_id, parent_name = 0, ""
        agg = self.aggregates.get((name, parent_name))
        if agg is None:
            agg = self.aggregates[(name, parent_name)] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += busy
        agg[2] += busy - child_s
        if self._recorded[name] < RECORD_LIMIT:
            self._recorded[name] += 1
            self.records.append((span_id, parent_id, name, start, end))

    # -- summaries -------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per span name: [calls, busy seconds, self seconds]."""
        out: dict[str, list] = {}
        for (name, _), (n, busy, self_s) in self.aggregates.items():
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += n
            row[1] += busy
            row[2] += self_s
        return out

    def calls_under(self, name: str, parent_prefix: str) -> int:
        return sum(n for (child, parent), (n, _, _) in self.aggregates.items()
                   if child == name and parent.startswith(parent_prefix))

    def write(self, directory: Path, tag: str) -> tuple[Path, Path]:
        """Write span records and aggregates as CSV; returns both paths.
        Names called more than ``RECORD_LIMIT`` times appear only in the
        aggregates."""
        directory.mkdir(parents=True, exist_ok=True)
        totals = self.totals()
        spans_path = directory / f"{tag}.spans.csv"
        with open(spans_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run_id", "span_id", "parent_id", "name",
                             "start_s", "end_s"])
            for span_id, parent_id, name, start, end in self.records:
                if totals[name][0] > RECORD_LIMIT:
                    continue
                writer.writerow([self.run_id, span_id, parent_id, name,
                                 f"{start - self.origin:.9f}",
                                 f"{end - self.origin:.9f}"])
        agg_path = directory / f"{tag}.aggregates.csv"
        with open(agg_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run_id", "name", "parent", "calls", "busy_s",
                             "self_s"])
            for (name, parent), (n, busy, self_s) in sorted(
                    self.aggregates.items()):
                writer.writerow([self.run_id, name, parent, n, f"{busy:.9f}",
                                 f"{self_s:.9f}"])
        return spans_path, agg_path


def _public_methods(cls) -> list[str]:
    return [name for name, value in vars(cls).items()
            if inspect.isfunction(value) and not name.startswith("_")]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Patch the package's layer boundaries to record spans into ``tracer``
    for the duration of the ``with`` block."""
    from evfleetsim import charging, dynamics, engine, fleet, metrics, network

    counters = tracer.counters

    def count_trace_samples(result):
        counters["dynamics.trace_samples"] += len(result.trace)

    def count_queue(result):
        if isinstance(result, charging.Queued):
            counters["charging.peak_queue"] = max(
                counters["charging.peak_queue"], result.position)

    def count_divert(result):
        if isinstance(result, charging.DivertTo):
            counters["charging.diverts"] += 1

    hooks = {
        "dynamics.drive_segment": count_trace_samples,
        "charging.request_charge": count_queue,
        "charging.select_station": count_divert,
    }
    targets = [
        (network, "network", ["shortest_path", "nearest_edge"]),
        (dynamics, "dynamics", ["drive_segment", "estimate_route_energy"]),
        (fleet, "fleet", ["generate_day_schedule"]),
        (charging.ChargingManager, "charging",
         _public_methods(charging.ChargingManager)),
        (metrics.MetricsCollector, "metrics",
         _public_methods(metrics.MetricsCollector)),
        (engine.Engine, "engine", ["run_until", "schedule"]),
    ]

    original_on = engine.Engine.on

    def traced_on(self, kind, handler):
        name = _HANDLER_SPAN.get(kind.value)
        if name is None:
            module = handler.__module__.rsplit(".", 1)[-1]
            name = f"{module}.{handler.__name__}"
        original_on(self, kind, tracer.wrap(name, handler))

    saved = []
    try:
        for owner, layer, names in targets:
            for attr in names:
                fn = vars(owner)[attr]
                saved.append((owner, attr, fn))
                span = f"{layer}.{attr}"
                setattr(owner, attr, tracer.wrap(span, fn, hooks.get(span)))
        saved.append((engine.Engine, "on", original_on))
        engine.Engine.on = traced_on
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(tracer: Tracer, outputs: dict, run_s: float) -> dict:
    """The per-layer metrics of one traced run; ``outputs`` are the run's
    model outputs and ``run_s`` its speed-corrected time."""
    from evfleetsim.engine import EventKind

    totals = tracer.totals()
    counters = tracer.counters

    def n(span):
        return totals.get(span, (0, 0.0, 0.0))[0]

    def busy(span):
        return totals.get(span, (0, 0.0, 0.0))[1]

    def self_s(span):
        return totals.get(span, (0, 0.0, 0.0))[2]

    layer = {"trace.run_s": run_s,
             "trace.spans": sum(row[0] for row in totals.values())}
    for span in ("network.shortest_path", "network.nearest_edge",
                 "dynamics.drive_segment", "dynamics.estimate_route_energy",
                 "charging.request_charge", "charging.select_station",
                 "charging.estimate_wait_s", "charging.release_slot",
                 "charging.leave_queue", "metrics.record_tick",
                 "engine.schedule"):
        layer[f"{span}.n"] = n(span)
        layer[f"{span}.s"] = busy(span)
    for span in ("fleet.generate_day_schedule", "fleet.on_vehicle_spawn",
                 "fleet.on_segment_complete",
                 "fleet.on_charge_request", "metrics.export_all",
                 "metrics.power_flow_summary", "engine.run_until",
                 "simulation.tick_sample", "simulation.run_scenario"):
        layer[f"{span}.s"] = busy(span)
    layer["simulation.tick_sample.self_s"] = self_s("simulation.tick_sample")
    layer["engine.loop_self_s"] = self_s("engine.run_until")
    for name in LAYERS:
        layer[f"{name}.self_s"] = sum(
            row[2] for span, row in totals.items()
            if span.startswith(name + "."))
    dispatched = outputs["trips_dispatched"]
    estimates = tracer.calls_under("dynamics.estimate_route_energy", "fleet.")
    layer["fleet.trips_dispatched"] = dispatched
    layer["fleet.dispatch_estimates"] = estimates
    layer["fleet.estimates_per_trip"] = estimates / dispatched if dispatched else 0.0
    layer["dynamics.trace_samples"] = counters["dynamics.trace_samples"]
    selects = n("charging.select_station")
    layer["charging.diverts"] = counters["charging.diverts"]
    layer["charging.divert_ratio"] = (counters["charging.diverts"] / selects
                                      if selects else 0.0)
    layer["charging.peak_queue"] = counters["charging.peak_queue"]
    layer["metrics.tick_rows"] = outputs["tick_rows"]
    for kind in EventKind:
        layer[f"engine.events.{kind.value}"] = outputs.get(
            f"events.{kind.value}", 0)
    return layer
