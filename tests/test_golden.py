"""The determinism contract as a check: every output file of a set of
probes against the sha256 recorded in ``golden_sha256.json``.

The probes are:

- the three benchmark workloads at the default and the held-out seed;
- twelve range-extender probes: ``charging_divert`` and ``bundled_day``
  with a 600, 1000 or 2000 Wh battery, an initial SOC of 0.3 and no
  dispatch reserve, so that the relay switches during drives, at both seeds;
- a stranding probe: ``bundled_day`` under alternating full and quarter
  speed hours, on a 2000 Wh battery with an 8 kW auxiliary load and no
  range extender, at both seeds; it must strand vehicles, so that the table
  keeps covering the ``Stranded`` path;
- ``evfleetsim sweep`` of the bundled scenario over ``fleet.size`` 100, 80
  and 60, which writes no ``events.csv``.

``events.csv`` is included wherever a run writes it. ``manifest.json`` is
hashed as the benchmark hashes it: without its ``wall_clock_s`` entry, the
one field that differs between identical runs, dumped with sorted keys. A
change that moves an output on purpose records the new table in the same
change, and names each file it changed:

    PYTHONPATH=src python tests/test_golden.py

which prints every probe file whose hash changed, was added or was removed
before it writes the table.
"""

import builtins
import hashlib
import importlib
import json
import os
import pkgutil
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_fleet import load_bench_workloads

import evfleetsim
from evfleetsim import cli
from evfleetsim.config import (apply_sweep_override, build_config,
                               default_scenario_path, load_config, load_raw)
from evfleetsim.engine import ms
from evfleetsim.simulation import run_scenario

GOLDEN = Path(__file__).resolve().parent / "golden_sha256.json"
SEEDS = (42, 1003)
WORKLOADS = ("bundled_day", "fleet_1000", "charging_divert")
RANGE_EXTENDER_WORKLOADS = ("charging_divert", "bundled_day")
BATTERIES_WH = (600, 1000, 2000)
STRANDING = {
    "network": {"hourly_speed_factors": [1.0, 0.25] * 12},
    "fleet": {"initial_soc": 0.5,
              "vehicle": {"overrides": {"battery_capacity_wh": 2000,
                                        "auxiliary_power_w": 8000,
                                        "range_extender": None}}},
    "policies": {"dispatch_reserve_soc": 0.0},
}
SWEEP_ARGS = ("--param", "fleet.size", "--values", "100,80,60")
SWEEP_KEY = "sweep-fleet.size-100,80,60"


def range_extender(battery_wh: int) -> dict:
    return {"fleet": {"initial_soc": 0.3,
                      "vehicle": {"overrides": {
                          "battery_capacity_wh": battery_wh}}},
            "policies": {"dispatch_reserve_soc": 0.0}}


def run_key(name: str, seed: int) -> str:
    return f"{name}-s{seed}"


def probes() -> dict[str, tuple[str, dict, int]]:
    """Every single-run probe by key: its workload, the overrides merged
    on top of it, and its seed."""
    table = {}
    for seed in SEEDS:
        for workload in WORKLOADS:
            table[run_key(workload, seed)] = (workload, {}, seed)
        for workload in RANGE_EXTENDER_WORKLOADS:
            for battery in BATTERIES_WH:
                table[run_key(f"{workload}-re{battery}wh", seed)] = (
                    workload, range_extender(battery), seed)
        table[run_key("bundled_day-stranding", seed)] = (
            "bundled_day", STRANDING, seed)
    return table


def file_digest(path: Path) -> str:
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text())
        manifest.pop("wall_clock_s")
        return hashlib.sha256(
            json.dumps(manifest, sort_keys=True).encode()).hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digests(out_dir: Path) -> dict[str, str]:
    """The sha256 of every file under ``out_dir``, by relative path."""
    return {p.relative_to(out_dir).as_posix(): file_digest(p)
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def probe_config(key: str):
    """The scenario of probe ``key``."""
    workloads = load_bench_workloads()
    workload, overrides, seed = probes()[key]
    path = default_scenario_path()
    raw = workloads.merge(
        workloads.scenario(workload, load_raw(path), seed), overrides)
    return build_config(raw, path.parent)


def run_probe(key: str, out_dir: Path):
    """Run probe ``key`` into ``out_dir`` with the event log; returns the
    run's result."""
    return run_scenario(probe_config(key), out_dir, event_log=True)


def run_sweep(out_dir: Path) -> None:
    status = cli.main(["sweep", str(default_scenario_path()), *SWEEP_ARGS,
                       "--out", str(out_dir)])
    assert status == cli.EXIT_OK


def assert_tick_rows_predicted(manifest: dict, config) -> None:
    """``ticks.csv`` has the rows that ``build_config`` caps: a tick at 0 ms
    and every interval up to the horizon, each one row per vehicle."""
    ticks = ms(config.horizon_s) // ms(config.metrics_interval_s) + 1
    assert manifest["files"]["ticks.csv"] == ticks * config.fleet_size


def check_probe(key: str, out_dir: Path):
    """Run probe ``key`` and compare its outputs with the table and its
    ``ticks.csv`` row count with the config's; returns the run's result."""
    result = run_probe(key, out_dir)
    assert tree_digests(out_dir) == json.loads(GOLDEN.read_text())[key]
    assert_tick_rows_predicted(result.manifest, probe_config(key))
    return result


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_match_the_golden_hashes(tmp_path, workload, seed):
    check_probe(run_key(workload, seed), tmp_path)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("battery_wh", BATTERIES_WH)
@pytest.mark.parametrize("workload", RANGE_EXTENDER_WORKLOADS)
def test_range_extender_outputs_match_the_golden_hashes(
        tmp_path, workload, battery_wh, seed):
    check_probe(run_key(f"{workload}-re{battery_wh}wh", seed), tmp_path)


@pytest.mark.parametrize("seed", SEEDS)
def test_stranding_outputs_match_the_golden_hashes(tmp_path, seed):
    result = check_probe(run_key("bundled_day-stranding", seed), tmp_path)
    assert result.n_stranded > 0


def test_sweep_outputs_match_the_golden_hashes(tmp_path):
    run_sweep(tmp_path)
    assert tree_digests(tmp_path) == json.loads(
        GOLDEN.read_text())[SWEEP_KEY]
    path = default_scenario_path()
    effective = load_config(path).effective
    for size in (100, 80, 60):
        config = build_config(
            apply_sweep_override(effective, "fleet.size", size), path.parent)
        manifest = json.loads(
            (tmp_path / f"fleet_size_{size}" / "manifest.json").read_text())
        assert_tick_rows_predicted(manifest, config)


def integer_sum(values, start=0):
    """Builtin ``sum()`` for integers only: a float item raises."""
    values = list(values)
    for x in values:
        if isinstance(x, (float, np.floating)):
            raise AssertionError(f"builtin sum() over the float {x!r}")
    return builtins.sum(values, start)


@pytest.mark.parametrize("workload", ("bundled_day", "charging_divert"))
def test_no_float_total_goes_through_builtin_sum(tmp_path, monkeypatch,
                                                 workload):
    # from Python 3.12 on, builtin sum() adds floats with compensation, so
    # a float total through it would depend on the Python version; the
    # wrapper shadows it in every package module while the scenario is
    # built and run
    for info in pkgutil.iter_modules(evfleetsim.__path__):
        module = importlib.import_module(f"evfleetsim.{info.name}")
        monkeypatch.setattr(module, "sum", integer_sum, raising=False)
    result = run_scenario(probe_config(run_key(workload, SEEDS[0])), tmp_path)
    assert result.total_grid_wh > 0.0


def table_changes(old: dict, new: dict) -> list[str]:
    """One line per probe file whose hash differs between the tables
    ``old`` and ``new``: ``changed``, ``added`` or ``removed``, then
    ``probe/file``, in probe and file order."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        before, after = old.get(key, {}), new.get(key, {})
        for name in sorted(before.keys() | after.keys()):
            if name not in before:
                lines.append(f"added {key}/{name}")
            elif name not in after:
                lines.append(f"removed {key}/{name}")
            elif before[name] != after[name]:
                lines.append(f"changed {key}/{name}")
    return lines


def test_table_changes_name_every_moved_file():
    old = {"a": {"x.csv": "1", "y.csv": "2"}, "b": {"z.csv": "3"}}
    new = {"a": {"x.csv": "1", "y.csv": "9", "w.csv": "4"},
           "c": {"z.csv": "3"}}
    assert table_changes(old, new) == [
        "added a/w.csv", "changed a/y.csv", "removed b/z.csv",
        "added c/z.csv"]
    assert table_changes(new, new) == []


def numpy_blas() -> str:
    """The name of the BLAS numpy was built on, or ``""`` where numpy is
    too old to report it."""
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return ""
    return build.get("blas", {}).get("name", "")


CUMULATIVES = """
import sys
from test_golden import probe_config
from evfleetsim.simulation import run_scenario
for vehicle in run_scenario(probe_config(sys.argv[1]), sys.argv[2]).vehicles:
    print(vehicle.vehicle_id, repr(vehicle.state.cumulative))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or "openblas" not in numpy_blas().lower(),
                    reason="needs numpy on OpenBLAS on x86-64, where a "
                           "kernel can be forced")
def test_energy_sums_do_not_depend_on_the_blas_kernel(tmp_path):
    # OpenBLAS picks its kernel from the CPU; Prescott is its x86-64
    # baseline, which every such CPU runs
    here = Path(__file__).resolve().parent
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
    outputs = []
    for coretype in (None, "Prescott"):
        run_env = env if coretype is None else {
            **env, "OPENBLAS_CORETYPE": coretype}
        outputs.append(subprocess.run(
            [sys.executable, "-c", CUMULATIVES, run_key("bundled_day", 42),
             str(tmp_path / str(coretype))],
            check=True, env=run_env, capture_output=True, text=True).stdout)
    assert outputs[0].count("Cumulative(") == 100
    assert outputs[0] == outputs[1]


if __name__ == "__main__":
    import tempfile

    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key in probes():
            run_probe(key, Path(tmp) / key)
            table[key] = tree_digests(Path(tmp) / key)
        run_sweep(Path(tmp) / SWEEP_KEY)
        table[SWEEP_KEY] = tree_digests(Path(tmp) / SWEEP_KEY)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for line in table_changes(old, table):
        print(line)
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
