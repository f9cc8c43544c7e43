"""The determinism contract as a check: every output file of the three
benchmark workloads, at the default and the held-out seed, against the
sha256 recorded in ``golden_sha256.json``.

``events.csv`` is included. ``manifest.json`` is hashed as the benchmark
hashes it: without its ``wall_clock_s`` entry, the one field that differs
between identical runs, dumped with sorted keys. A change that moves an
output on purpose records the new table in the same change, and names
each file it changed:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from test_fleet import load_bench_workloads

from evfleetsim.config import build_config, default_scenario_path, load_raw
from evfleetsim.simulation import run_scenario

GOLDEN = Path(__file__).resolve().parent / "golden_sha256.json"
SEEDS = (42, 1003)
WORKLOADS = ("bundled_day", "fleet_1000", "charging_divert")


def file_digest(path: Path) -> str:
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text())
        manifest.pop("wall_clock_s")
        return hashlib.sha256(
            json.dumps(manifest, sort_keys=True).encode()).hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_digests(workload: str, seed: int, out_dir: Path) -> dict[str, str]:
    """Run ``workload`` at ``seed`` into ``out_dir`` with the event log and
    return the sha256 of each output file by name."""
    path = default_scenario_path()
    raw = load_bench_workloads().scenario(workload, load_raw(path), seed)
    run_scenario(build_config(raw, path.parent), out_dir, event_log=True)
    return {p.name: file_digest(p) for p in sorted(out_dir.iterdir())}


def run_key(workload: str, seed: int) -> str:
    return f"{workload}-s{seed}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_match_the_golden_hashes(tmp_path, workload, seed):
    golden = json.loads(GOLDEN.read_text())[run_key(workload, seed)]
    assert run_digests(workload, seed, tmp_path) == golden


if __name__ == "__main__":
    import tempfile

    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for seed in SEEDS:
                key = run_key(workload, seed)
                table[key] = run_digests(workload, seed, Path(tmp) / key)
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
