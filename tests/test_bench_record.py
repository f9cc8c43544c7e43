"""The schema of every checked-in ``BENCH_*.json`` and the summaries of
``scripts/bench_record.py``, which writes them."""

import importlib.util
import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
METRICS = ("run_s", "setup_s", "peak_rss_mb")
OUTPUTS = {"histograms.csv", "manifest.json", "sessions.csv", "summary.csv",
           "ticks.csv", "trips.csv", "utilization.csv"}
# every record has this ladder, except those listed in OLD_LADDERS
LADDER = [1000, 3000, 10000, 30000, 100000]
# the ladder of a record made before the 100,000-vehicle point: one run per
# point and checkout, and a tracemalloc peak at every point
OLD_LADDERS = {"BENCH_26.json": [1000, 3000, 10000, 30000]}


def load_recorder():
    path = ROOT / "scripts" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def is_hex(text, digits):
    return re.fullmatch(f"[0-9a-f]{{{digits}}}", text) is not None


def check_spread(spread, n):
    assert set(spread) == {"median", "q1", "q3", "n"}
    assert spread["n"] == n
    assert 0 < spread["q1"] <= spread["median"] <= spread["q3"]


def check_old_ladder(ladder, sizes):
    assert [p["vehicles"] for p in ladder] == sizes
    for point in ladder:
        assert point["schedule_size"] == point["vehicles"] // 4
        assert point["run_s"] > 0 and point["wall_s"] > 0
        assert point["tracemalloc_peak_mb"] > 0
        assert point["events"] > point["vehicles"]


def check_ladder(ladder):
    """Three timed runs and a tracemalloc peak per point, except at 100,000
    vehicles: one timed run and no peak."""
    assert [p["vehicles"] for p in ladder] == LADDER
    for point in ladder:
        assert set(point) == {"vehicles", "schedule_size", "run_s", "wall_s",
                              "samples", "events", "tracemalloc_peak_mb"}
        assert point["schedule_size"] == point["vehicles"] // 4
        assert point["events"] > point["vehicles"]
        large = point["vehicles"] == 100000
        assert len(point["samples"]) == (1 if large else 3)
        for name in ("run_s", "wall_s"):
            values = [sample[name] for sample in point["samples"]]
            assert all(value > 0 for value in values)
            assert point[name] == statistics.median(values)
        if large:
            assert point["tracemalloc_peak_mb"] is None
        else:
            assert point["tracemalloc_peak_mb"] > 0


def check_side(side, pairs, record_name):
    assert set(side) == {"revision", "workloads", "ladder"}
    assert is_hex(side["revision"], 40)
    assert sorted(side["workloads"]) == sorted(
        f"{w}-s{s}" for w in ("bundled_day", "fleet_1000", "charging_divert")
        for s in (42, 1003))
    for record in side["workloads"].values():
        assert set(record) == {*METRICS, "invocations", "outputs", "sha256"}
        for name in METRICS:
            check_spread(record[name], pairs)
        assert len(record["invocations"]) == pairs
        for invocation in record["invocations"]:
            assert all(invocation[name] > 0 for name in METRICS)
            assert invocation["samples"]["run"] >= 2
        assert record["outputs"]["ledger_error"] < 1e-6
        assert set(record["sha256"]) == OUTPUTS
        assert all(is_hex(h, 64) for h in record["sha256"].values())
    if record_name in OLD_LADDERS:
        check_old_ladder(side["ladder"], OLD_LADDERS[record_name])
    else:
        check_ladder(side["ladder"])


def test_a_bench_record_is_checked_in():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_schema(path):
    record = json.loads(path.read_text())
    assert {"command", "pairs", "versions", "sides"} <= set(record)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert record["command"] == (f"bench/run.py --trace 0 --seconds "
                                 f"{benchmark['run_seconds']:g}")
    for key in ("python", "numpy", "blas", "machine"):
        assert record["versions"][key]
    pairs = record["pairs"]
    assert set(record["sides"]) in ({"change"}, {"change", "parent"})
    for side in record["sides"].values():
        check_side(side, pairs, path.name)
    if "parent" not in record["sides"]:
        assert "comparison" not in record
        return
    for key, metrics in record["comparison"].items():
        for name in METRICS:
            counts = metrics[name]
            assert counts["pairs"] == pairs
            assert counts["change_lower"] + counts["parent_lower"] <= pairs


def test_the_recorder_runs_the_ladder_the_records_must_have():
    recorder = load_recorder()
    assert list(recorder.LADDER) == LADDER
    assert (recorder.LADDER_RUNS, recorder.LARGE_POINT) == (3, 100000)


def test_summaries_take_median_and_quartiles_over_invocations():
    recorder = load_recorder()
    reports = [
        {"workload": "w", "seed": 1, "outputs": {"trips": 3},
         "sha256": {"ticks.csv": "0" * 64}, "samples": {"run": 2},
         "end_to_end": {"run_s": run_s, "setup_s": 0.1, "peak_rss_mb": 40.0}}
        for run_s in (0.4, 0.1, 0.3, 0.2, 0.5)]
    change = recorder.summarise(reports)
    assert change["run_s"] == {"median": 0.3, "q1": 0.2, "q3": 0.4, "n": 5}
    assert change["setup_s"]["median"] == 0.1
    parent = recorder.summarise(
        [{**r, "end_to_end": {**r["end_to_end"], "run_s": 0.35}}
         for r in reports])
    run_s = recorder.compare(change, parent)["run_s"]
    assert (run_s["change_lower"], run_s["parent_lower"]) == (3, 2)
    assert run_s["parent_iqr"] == 0.0
    with pytest.raises(RuntimeError, match="outputs differ"):
        recorder.summarise(reports + [{**reports[0], "outputs": {"trips": 4}}])
