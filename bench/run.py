"""evfleetsim benchmark: run one workload, check its outputs, print metrics.

    python3 bench/run.py --workload bundled_day --seed 42 --seconds 25 --trace 0

Run from the root of a source checkout. Every measurement runs in a fresh,
single-threaded interpreter (``bench/worker.py``), one at a time:

* ``--trace 0``: after one warm-up process, untraced repetitions of the
  whole run, each preceded by a set-up-only process, until ``--seconds``
  have passed (at least two). Prints the end-to-end metrics: medians of
  ``run_s`` and ``setup_s`` (at least ``SETUP_SAMPLES`` samples), both
  corrected for the machine's speed (``worker.SpeedProbe``), and of
  ``peak_rss_mb``.
* ``--trace 1``: pairs of one untraced and one traced repetition until
  ``--seconds`` have passed (at least one pair). Prints the per-layer
  metrics of the traced runs (medians) and the tracing overhead.

Each repetition checks the energy ledger, the charging manager's
consistency and the trip statuses; at the default seed it also checks the
baseline counts in ``workloads.EXPECTED_AT_DEFAULT_SEED``. All repetitions
of one invocation must produce byte-identical outputs. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with model outputs and output
hashes, goes to ``.bench_out/results/``. The exit code is 0 only when every
process passed; it is 2 when the checkout has no ``src/evfleetsim``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
RESULTS = ROOT / ".bench_out" / "results"
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0  # the whole invocation, including set-up samples
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS")}

sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402


def _worker(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker process to completion and return its record; a
    process that fails or gives no record yields ``{"failures": [...]}``."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return {"failures": [f"{mode} worker not started: time limit reached"]}
    cmd = [sys.executable, "-I", str(WORKER), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **SINGLE_THREAD},
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the worker and waited for it
        return {"failures": [f"{mode} worker killed at the time limit"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return {"failures": [f"{mode} worker exited {proc.returncode}: {tail}"]}
    return json.loads(lines[-1])


def _median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def _repeat(step, seconds: float, minimum: int, deadline: float) -> list:
    """Call ``step`` until ``seconds`` have passed and it ran ``minimum``
    times; a further call is skipped when the last one would overrun the
    deadline."""
    done = []
    started = time.monotonic()
    while len(done) < minimum or time.monotonic() - started < seconds:
        before = time.monotonic()
        done.append(step())
        if len(done) >= minimum and before + 2 * (time.monotonic() - before) > deadline:
            break
    return done


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S

    def worker(mode: str) -> dict:
        return _worker(workload, seed, mode, deadline)

    setups: list[dict] = []
    warmup = worker("setup")  # fills the bytecode caches; not a sample
    if warmup.get("failures"):
        runs = [warmup]
    elif trace:
        pairs = _repeat(lambda: (worker("run"), worker("trace")),
                        seconds, 1, deadline)
        runs = [r for pair in pairs for r in pair]
    else:
        # set-up samples are spread over the run so that they see the same
        # machine load; every run worker also times its own set-up
        def step():
            setups.append(worker("setup"))
            return worker("run")

        runs = _repeat(step, seconds, 2, deadline)
        while len(setups) + len(runs) < SETUP_SAMPLES:
            setups.append(worker("setup"))

    failed = [r for r in runs + setups if r.get("failures")]
    ok = [r for r in runs if not r.get("failures")]
    if len({json.dumps([r["outputs"], r["sha256"]], sort_keys=True)
            for r in ok}) > 1:
        failed = runs
        for r in runs:
            r.setdefault("failures", []).append(
                "outputs differ between repetitions")
    report = {"workload": workload, "seed": seed, "trace": trace,
              "attempted": len(runs) + len(setups), "failed": len(failed),
              "failures": sorted({f for r in failed for f in r["failures"]}),
              "runs": runs, "setups": setups}
    if failed:
        return report

    plain = [r for r in runs if "layers" not in r]
    report["samples"] = {"run": len(plain), "setup": len(setups) + len(runs)}
    report["outputs"] = ok[0]["outputs"]
    report["sha256"] = ok[0]["sha256"]
    report["bytes"] = ok[0]["bytes"]
    if trace:
        traced = [r for r in runs if "layers" in r]
        report["samples"]["traced"] = len(traced)
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["config.import_s"] = _median(traced, "import_s")
        layers["config.load_s"] = _median(traced, "load_s")
        untraced_s = _median(plain, "run_s")
        layers["trace.untraced_run_s"] = untraced_s
        layers["trace.overhead_s"] = layers["trace.run_s"] - untraced_s
        layers["trace.overhead_pct"] = 100.0 * layers["trace.overhead_s"] / untraced_s
        report["layers"] = layers
        report["trace_files"] = traced[-1]["trace_files"]
    else:
        report["end_to_end"] = {
            "run_s": _median(plain, "run_s"),
            "setup_s": _median(setups + runs, "setup_s"),
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
        }
        report["wall"] = {
            "run_s": _median(plain, "run_wall_s"),
            "setup_s": _median(setups + runs, "setup_wall_s"),
        }
    return report


def _metrics(report: dict, benchmark: dict) -> dict:
    key, values = (("per_layer", report["layers"]) if report["trace"]
                   else ("end_to_end", report["end_to_end"]))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in benchmark[key]}


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description="Run one evfleetsim benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.OVERRIDES))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "evfleetsim" / "__init__.py").is_file():
        print(f"error: no evfleetsim sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"  failed_runs = {report['failed'] / report['attempted']:.6g} ratio "
          f"({report['failed']} of {report['attempted']} processes)")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
    correct = not report["failed"]
    metrics = _metrics(report, benchmark) if correct else {}
    if correct:
        print(f"  samples: {report['samples']}")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        for name, value in report.get("wall", {}).items():
            print(f"  uncorrected wall {name} = {value:.6g} s")
        print("  model outputs: " + json.dumps(report["outputs"], sort_keys=True))
    print(f"  full record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
