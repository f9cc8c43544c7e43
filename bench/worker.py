"""One benchmark repetition in a fresh interpreter; prints one JSON line.

    python3 -I bench/worker.py --workload NAME --seed N --mode setup|run|trace

``setup`` times importing ``evfleetsim`` (nothing of it is loaded yet) and
building the workload's validated configuration. ``run`` does the same, then
times one ``run_scenario`` call writing into ``.bench_out/`` at the checkout
root, checks the outputs, hashes them and deletes them. ``trace`` is ``run``
with every layer boundary wrapped in spans (see ``tracing.py``). Set-up and
run times are corrected for the machine's changing speed (see
``SpeedProbe``); the plain wall times are reported beside them. Span times
are plain wall times.
"""

import argparse
import contextlib
import hashlib
import heapq
import json
import os
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
LEDGER_TOLERANCE = 1e-6
PROBE_INTERVAL_S = 0.05
# warm probe-kernel time on an unloaded core of the 2-vCPU machine the
# baseline was measured on; it only sets the unit of the corrected times
REFERENCE_PROBE_S = 700e-6
ACCEPTED_STATUSES = {"completed", "active", "stranded", "pending"}

sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def _setup(name: str, seed: int):
    """Import the package and build the workload's config; returns the
    config and a record of the set-up times."""
    with SpeedProbe() as probe:
        started = time.perf_counter()
        import evfleetsim
        from evfleetsim import config

        imported = time.perf_counter()
        path = config.default_scenario_path()
        raw = workloads.scenario(name, config.load_raw(path), seed)
        cfg = config.build_config(raw, path.parent)
        loaded = time.perf_counter()
    package = Path(evfleetsim.__file__).resolve()
    if SRC.resolve() not in package.parents:
        raise RuntimeError(f"imported evfleetsim from {package}, not {SRC}")
    return cfg, {"import_s": probe.seconds(started, imported),
                 "load_s": probe.seconds(imported, loaded),
                 "setup_s": probe.seconds(started, loaded),
                 "setup_wall_s": loaded - started}


def _probe_kernel() -> None:
    """A fixed pure-Python workload of heap, dict and float operations,
    about 1 ms long."""
    heap, table, x = [], {}, 0.0
    for i in range(1500):
        heapq.heappush(heap, (i * 7919) % 1_000_003)
        table[i & 1023] = x
        x += (i % 13) * 0.5
    while heap:
        heapq.heappop(heap)


class SpeedProbe:
    """Corrects a timed interval for the machine's changing speed.

    A shared machine can change speed by up to half, for seconds at a time,
    because of load outside the container. While the ``with``
    block runs, a timer signal interrupts it every ``PROBE_INTERVAL_S`` and
    times the probe kernel (run twice, the second, warm run is timed). Each
    stretch of the interval is then rescaled by ``REFERENCE_PROBE_S`` over
    the kernel time measured at its end, and the probe's own time is left
    out: :meth:`seconds` is the interval's length at reference speed.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # start, busy, kernel

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        _probe_kernel()
        warm = time.perf_counter()
        _probe_kernel()
        done = time.perf_counter()
        self.samples.append((started, done - started, done - warm))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def probe_s(self) -> float:
        return sum(busy for _, busy, _ in self.samples)

    def seconds(self, start: float | None = None,
                end: float | None = None) -> float:
        """Length of ``[start, end]`` (default: the whole block) at
        reference speed, without the probe's own time."""
        start = self.start if start is None else start
        end = self.end if end is None else end
        if not self.samples:  # shorter than one interval
            return end - start
        total, resumed = 0.0, self.start
        last = (self.end, 0.0, self.samples[-1][2])
        for sampled, busy, kernel in self.samples + [last]:
            overlap = min(sampled, end) - max(resumed, start)
            if overlap > 0:
                total += overlap * REFERENCE_PROBE_S / kernel
            resumed = sampled + busy
        return total


def _file_digests(out_dir: Path) -> tuple[dict, dict]:
    """sha256 and size of every output file. ``manifest.json`` is hashed
    without its ``wall_clock_s`` entry, the only field that varies between
    identical runs."""
    digests, sizes = {}, {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.json":
            manifest = json.loads(path.read_text())
            manifest.pop("wall_clock_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
            digests[path.name] = hashlib.sha256(data).hexdigest()
        else:
            sha = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    sha.update(block)
            digests[path.name] = sha.hexdigest()
        sizes[path.name] = path.stat().st_size
    return digests, sizes


def _check(name: str, seed: int, result, outputs: dict) -> list[str]:
    """Correctness gate for one repetition; returns the failures found."""
    failures = []
    if sys.flags.optimize:
        failures.append("assertions disabled (-O); consistency unchecked")
    ledger = outputs["ledger_error"]
    if not ledger < LEDGER_TOLERANCE:
        failures.append(f"energy ledger error {ledger!r} >= {LEDGER_TOLERANCE}")
    try:
        result.manager.assert_consistent()
    except AssertionError as exc:
        failures.append(f"charging manager inconsistent: {exc}")
    bad = sorted({t.status for t in result.trips
                  if t.status != "rejected"} - ACCEPTED_STATUSES)
    if bad:
        failures.append(f"accepted trips with status {bad}")
    if seed == workloads.DEFAULT_SEED:
        for key, want in workloads.EXPECTED_AT_DEFAULT_SEED[name].items():
            got = outputs[key]
            if got != want:
                failures.append(f"{key} = {got}, baseline expects {want}")
    return failures


def _model_outputs(result) -> dict:
    dispatched = result.engine_summary.dispatched
    outputs = {
        "min_idle": result.min_idle,
        "mean_wait_s": result.mean_wait_s,
        "n_delayed": result.n_delayed,
        "n_stranded": result.n_stranded,
        "total_grid_wh": result.total_grid_wh,
        "ledger_error": result.collector.energy_ledger_error(),
        "trips": len(result.trips),
        "trips_dispatched": sum(1 for t in result.trips
                                if t.dispatch_ms is not None),
        "events": result.engine_summary.total_dispatched,
        "tick_rows": result.manifest["files"]["ticks.csv"],
    }
    for kind in sorted(dispatched, key=lambda k: k.value):
        outputs[f"events.{kind.value}"] = dispatched[kind]
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.OVERRIDES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "run", "trace"))
    args = parser.parse_args(argv)

    cfg, record = _setup(args.workload, args.seed)
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    from evfleetsim.simulation import run_scenario

    tag = f"{args.workload}-s{args.seed}"
    out_dir = OUT / f"{tag}-p{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    tracer, run, patches = None, run_scenario, contextlib.nullcontext()
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer(run_id=f"{tag}-p{os.getpid()}")
        run = tracer.wrap("simulation.run_scenario", run_scenario)
        patches = tracing.traced(tracer)
    try:
        with patches, SpeedProbe() as probe:
            result = run(cfg, out_dir)
        record.update(run_s=probe.seconds(), run_wall_s=probe.wall_s,
                      probe_s=probe.probe_s)
        record["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        outputs = _model_outputs(result)
        failures = _check(args.workload, args.seed, result, outputs)
        digests, sizes = _file_digests(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    record.update(outputs=outputs, sha256=digests, bytes=sizes,
                  failures=failures)
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer, outputs, record["run_s"])
        spans, aggregates = tracer.write(OUT / "traces", tag)
        record["trace_files"] = [str(p.relative_to(ROOT))
                                 for p in (spans, aggregates)]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
