"""Record a BENCH_<n>.json from the repository's own benchmark.

    python3 scripts/bench_record.py --out BENCH_<n>.json [--parent DIR]

Runs ``bench/run.py --trace 0`` for every workload of ``bench/workloads.py``
at the default and the held-out seed, 10 invocations per side, each as long
as the benchmark's ``run_seconds``. With ``--parent DIR``, a second checkout
(say, the parent commit), it alternates invocations between the two
checkouts, changing which runs first on every pair, and records both sides. Each
invocation's ``.bench_out/results/<workload>-s<seed>-trace0.json`` gives the
medians of ``run_s``, ``setup_s`` and ``peak_rss_mb``; the record keeps them
per invocation, with their median and quartiles over the invocations, and
the ``outputs`` and ``sha256`` of the runs. It times and gates nothing
itself: those numbers are ``bench/run.py``'s.

It adds an ungated scale ladder: ``fleet_1000`` at the default seed with
1,000 to 100,000 vehicles and a quarter as many schedules. Every run of a
point is one fresh interpreter, and the runs of a point alternate between
the checkouts, changing which runs first on every round. A point up to
30,000 vehicles has three timed runs per checkout, and its ``run_s`` and
``wall_s`` are their medians; one more run under ``tracemalloc`` gives the
peak of traced allocations, since tracing slows the run. The 100,000-vehicle
point has one timed run per checkout and no ``tracemalloc`` run: its peak is
recorded as ``null``. ``run_s`` is the time corrected for the machine's
speed by the benchmark's ``SpeedProbe``, as ``bench/run.py`` corrects its
own; ``wall_s`` is the plain wall time. It records the Python, numpy and
BLAS versions and each checkout's git revision. A checkout whose ``src``
or ``bench`` differs from its revision is refused, so that a record names
the code it measured. The file is written to ``--out`` at the root of this
checkout.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (42, 1003)
METRICS = ("run_s", "setup_s", "peak_rss_mb")
LADDER = (1_000, 3_000, 10_000, 30_000, 100_000)
LADDER_RUNS = 3
# from this size on, a point has one timed run per checkout and no
# tracemalloc run
LARGE_POINT = 100_000
PAIRS = 10


def _workloads(checkout: Path):
    sys.path.insert(0, str(checkout / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def _revision(checkout: Path) -> str:
    """The commit of ``checkout``, whose ``src`` and ``bench`` must be
    unchanged from it."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=checkout, check=True,
                              capture_output=True, text=True).stdout.strip()

    if git("status", "--porcelain", "--", "src", "bench"):
        raise RuntimeError(f"{checkout}: src or bench differs from HEAD; "
                           f"commit the change to record it")
    return git("rev-parse", "HEAD")


def invoke(checkout: Path, workload: str, seed: int) -> dict:
    """One ``bench/run.py`` invocation in ``checkout``, as long as the
    benchmark's ``run_seconds``; returns its result record, which must be
    correct."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    path = (checkout / ".bench_out" / "results"
            / f"{workload}-s{seed}-trace0.json")
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} at seed {seed} failed:\n"
                           f"{proc.stdout}{proc.stderr}")
    return json.loads(path.read_text())


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own
    quartiles) and the count of ``values``."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarise(reports: list[dict]) -> dict:
    """A side's record of one workload and seed from its invocations'
    result records, which must agree on every output."""
    first = reports[0]
    if any((r["outputs"], r["sha256"]) != (first["outputs"], first["sha256"])
           for r in reports):
        raise RuntimeError(f"{first['workload']} at seed {first['seed']}: "
                           f"outputs differ between invocations")
    invocations = [{**r["end_to_end"], "samples": r["samples"]}
                   for r in reports]
    record = {name: spread([i[name] for i in invocations]) for name in METRICS}
    record.update(invocations=invocations, outputs=first["outputs"],
                  sha256=first["sha256"])
    return record


def compare(change: dict, parent: dict) -> dict:
    """Per metric, the pairs in which the change reads lower than the
    parent (ties count for neither side) and the relative change of the
    medians."""
    out = {}
    for name in METRICS:
        pairs = list(zip((i[name] for i in change["invocations"]),
                         (i[name] for i in parent["invocations"])))
        out[name] = {
            "change_lower": sum(c < p for c, p in pairs),
            "parent_lower": sum(p < c for c, p in pairs),
            "pairs": len(pairs),
            "median_change_pct": 100.0 * (change[name]["median"]
                                          / parent[name]["median"] - 1.0),
            "parent_iqr": parent[name]["q3"] - parent[name]["q1"],
        }
    return out


def ladder_run(checkout: Path, vehicles: int, traced: bool) -> dict:
    """One run of a ladder point in a fresh interpreter on ``checkout``'s
    sources."""
    proc = subprocess.run(
        [sys.executable, __file__, "--ladder-of", str(checkout),
         str(vehicles), "tracemalloc" if traced else "timed"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: ladder point {vehicles} failed:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout)


def run_ladder_point(checkout: Path, vehicles: int, traced: bool) -> dict:
    """One run of a ladder point in this process, on ``checkout``'s sources:
    its times, by the benchmark's own ``SpeedProbe``, and its event count;
    or, if ``traced``, the ``tracemalloc`` peak."""
    import shutil
    import tracemalloc

    sys.path.insert(0, str(checkout / "bench"))
    import worker  # puts the checkout's sources first on sys.path

    from evfleetsim import config
    from evfleetsim.simulation import run_scenario

    package = Path(config.__file__).resolve()
    if worker.SRC not in package.parents:
        raise RuntimeError(f"imported evfleetsim from {package}, not {checkout}")

    workloads = worker.workloads
    path = config.default_scenario_path()
    raw = workloads.scenario("fleet_1000", config.load_raw(path),
                             workloads.DEFAULT_SEED)
    raw["fleet"]["size"] = vehicles
    raw["demand"]["schedule_size"] = vehicles // 4
    cfg = config.build_config(raw, path.parent)
    out_dir = worker.OUT / "ladder"
    try:
        if traced:
            tracemalloc.start()
            try:
                run_scenario(cfg, out_dir)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return {"tracemalloc_peak_mb": peak / 2**20}
        with worker.SpeedProbe() as probe:
            result = run_scenario(cfg, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {"run_s": probe.seconds(), "wall_s": probe.wall_s,
            "events": result.engine_summary.total_dispatched}


def ladders(sides: dict[str, Path]) -> dict[str, list[dict]]:
    """The scale ladder of every side, each point run alternately on the
    sides (see the module docstring)."""
    points: dict[str, list[dict]] = {side: [] for side in sides}
    for vehicles in LADDER:
        large = vehicles >= LARGE_POINT
        runs: dict[str, list[dict]] = {side: [] for side in sides}
        for k in range(1 if large else LADDER_RUNS):
            order = list(sides) if k % 2 == 0 else list(sides)[::-1]
            for side in order:
                run = ladder_run(sides[side], vehicles, traced=False)
                runs[side].append(run)
                print(f"ladder {vehicles} {side} run {k + 1}: wall_s "
                      f"{run['wall_s']:.2f}", file=sys.stderr, flush=True)
        for side, checkout in sides.items():
            events = {run["events"] for run in runs[side]}
            if len(events) != 1:
                raise RuntimeError(f"{checkout}: ladder point {vehicles} "
                                   f"dispatched {sorted(events)} events")
            peak = (None if large else ladder_run(
                checkout, vehicles, traced=True)["tracemalloc_peak_mb"])
            points[side].append({
                "vehicles": vehicles, "schedule_size": vehicles // 4,
                "run_s": statistics.median(r["run_s"] for r in runs[side]),
                "wall_s": statistics.median(r["wall_s"] for r in runs[side]),
                "samples": [{"run_s": r["run_s"], "wall_s": r["wall_s"]}
                            for r in runs[side]],
                "events": events.pop(), "tracemalloc_peak_mb": peak})
    return points


def versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "machine": platform.machine(), "numpy": np.__version__,
            "blas": {key: blas.get(key)
                     for key in ("name", "version", "openblas configuration")}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="file name of the record, written at "
                        "the root of this checkout")
    parser.add_argument("--parent", type=Path,
                        help="a second checkout to alternate with")
    # one run of a ladder point: checkout, vehicles, "timed" or "tracemalloc"
    parser.add_argument("--ladder-of", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.ladder_of is not None:
        checkout, vehicles, kind = args.ladder_of
        print(json.dumps(run_ladder_point(Path(checkout).resolve(),
                                          int(vehicles), kind == "tracemalloc")))
        return 0
    if not args.out:
        parser.error("--out is required")

    sides = {"change": ROOT}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()
    revisions = {side: _revision(checkout) for side, checkout in sides.items()}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    reports: dict[str, dict[str, list]] = {side: {} for side in sides}
    for workload in _workloads(ROOT).OVERRIDES:
        for seed in SEEDS:
            key = f"{workload}-s{seed}"
            for k in range(PAIRS):
                order = list(sides) if k % 2 == 0 else list(sides)[::-1]
                for side in order:
                    report = invoke(sides[side], workload, seed)
                    reports[side].setdefault(key, []).append(report)
                    print(f"{key} {side} pair {k + 1}: run_s "
                          f"{report['end_to_end']['run_s']:.4f}",
                          file=sys.stderr, flush=True)

    ladder = ladders(sides)
    record = {
        "command": (f"bench/run.py --trace 0 --seconds "
                    f"{benchmark['run_seconds']:g}"),
        "pairs": PAIRS,
        "versions": versions(),
        "sides": {side: {"revision": revisions[side],
                         "workloads": {key: summarise(runs) for key, runs
                                       in reports[side].items()},
                         "ladder": ladder[side]}
                  for side in sides},
    }
    if "parent" in sides:
        change, parent = (record["sides"][s]["workloads"]
                          for s in ("change", "parent"))
        record["comparison"] = {key: compare(change[key], parent[key])
                                for key in change}
    (ROOT / args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
