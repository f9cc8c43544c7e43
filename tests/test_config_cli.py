import copy
import filecmp
import json
from pathlib import Path

import pytest
import yaml

from evfleetsim import cli
from evfleetsim.config import (ConfigError, apply_sweep_override, build_config,
                               default_scenario_path, load_config,
                               validate_config)
from evfleetsim.simulation import run_scenario, run_scenario_path, sweep

BASE_SCENARIO = {
    "schema_version": 1,
    "seed": 7,
    "horizon_s": 6 * 3600.0,
    "network": {
        "grid": {"rows": 4, "cols": 4, "edge_length_m": 150.0,
                 "speed_limit_mps": 12.0},
    },
    "depot_edge": "e00000",
    "fleet": {"size": 5, "initial_soc": 1.0,
              "vehicle": {"preset": "compact_ev", "overrides": {}}},
    "stations": [
        {"station_id": "st0", "edge_id": "e00000", "max_simultaneous": 2,
         "slots": [{"plug": "schuko"}, {"plug": "iec_type2"}]},
    ],
    "demand": {
        "schedule_size": None,
        "departure_weights": [1.0] * 24,
        "distance_bins": [{"upper_m": 200.0, "weight": 1.0},
                          {"upper_m": 450.0, "weight": 2.0}],
        "dwell": {"family": "fixed", "fixed_s": 120.0},
        "trips_per_vehicle_per_day": {"family": "fixed", "n": 2},
    },
    "policies": {"depot_charge_threshold": 1.0},
    "numerics": {"dynamics_dt_s": 1.0, "metrics_interval_s": 30.0,
                 "utilization_bin_s": 300.0, "tick_buffer_rows": 100000},
}


def write_scenario(tmp_path, name="scenario.yaml", **overrides):
    raw = copy.deepcopy(BASE_SCENARIO)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key].update(value)
        else:
            raw[key] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


# --- validation ----------------------------------------------------------------

def test_bundled_default_scenario_validates():
    report = validate_config(default_scenario_path())
    assert report.ok, report.errors
    assert report.config.fleet_size == 100
    assert report.config.schedule_size == 100


def test_station_on_unknown_edge_named_in_error(tmp_path):
    path = write_scenario(
        tmp_path,
        stations=[{"station_id": "st0", "edge_id": "E999",
                   "max_simultaneous": 1, "slots": [{"plug": "schuko"}]}],
    )
    report = validate_config(path)
    assert not report.ok
    assert any("stations[0].edge_id" in e and "E999" in e for e in report.errors)


def test_range_extender_threshold_error_names_block(tmp_path):
    path = write_scenario(
        tmp_path,
        fleet={"vehicle": {"preset": "compact_ev",
                           "overrides": {"range_extender": {
                               "power_w": 15000.0, "soc_on": 0.6,
                               "soc_off": 0.4}}}},
    )
    report = validate_config(path)
    assert not report.ok
    assert any("range_extender" in e for e in report.errors)


def test_unknown_depot_edge_rejected(tmp_path):
    path = write_scenario(tmp_path, depot_edge="nope")
    report = validate_config(path)
    assert not report.ok
    assert any("depot_edge" in e for e in report.errors)


def test_unparseable_file_reported(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("stations: [unclosed")
    report = validate_config(path)
    assert not report.ok


def test_missing_file_reported(tmp_path):
    report = validate_config(tmp_path / "absent.yaml")
    assert not report.ok


def test_effective_config_round_trips(tmp_path):
    path = write_scenario(tmp_path)
    first = validate_config(path)
    assert first.ok
    echo = tmp_path / "effective.yaml"
    echo.write_text(yaml.safe_dump(first.effective))
    second = validate_config(echo)
    assert second.ok
    assert second.effective == first.effective


@pytest.mark.parametrize("overrides", [
    {"fleet": {"initial_soc": "abc"}},
    {"stations": [{"station_id": "st0", "edge_id": "e00000",
                   "max_simultaneous": 1, "slots": [{"power_w": "x"}]}]},
    {"stations": ["foo"]},
    {"fleet": {"size": True}},
    {"numerics": {"dynamics_dt_s": float("nan")}},
    {"horizon_s": float("inf")},
], ids=["initial_soc_text", "slot_power_text", "station_not_mapping",
        "fleet_size_bool", "dt_nan", "horizon_inf"])
def test_malformed_values_are_config_errors(tmp_path, capsys, overrides):
    path = write_scenario(tmp_path, **overrides)
    assert not validate_config(path).ok
    with pytest.raises(ConfigError):
        load_config(path)
    assert cli.main(["validate", str(path)]) == 1
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_network_from_csv_files(tmp_path):
    (tmp_path / "nodes.csv").write_text(
        "node_id,x_m,y_m\na,0,0\nb,200,0\n")
    (tmp_path / "edges.csv").write_text(
        "edge_id,from_node,to_node,length_m,speed_limit_mps,gradient\n"
        "f,a,b,200,10,0\nr,b,a,200,10,0\n")
    path = write_scenario(
        tmp_path,
        network={"files": {"nodes": "nodes.csv", "edges": "edges.csv"},
                 "grid": None},
        depot_edge="f",
        stations=[{"station_id": "st0", "edge_id": "f",
                   "max_simultaneous": 1, "slots": [{"plug": "schuko"}]}],
        demand={"distance_bins": [{"upper_m": 150.0, "weight": 1.0}]},
        fleet={"size": 1},
    )
    config = load_config(path)
    net = config.build_network()
    assert set(net.edges) == {"f", "r"}


# --- run -------------------------------------------------------------------------

def test_run_scenario_produces_all_outputs(tmp_path):
    path = write_scenario(tmp_path)
    result = run_scenario_path(path, tmp_path / "out")
    assert sorted(result.manifest["files"]) == [
        "histograms.csv", "sessions.csv", "summary.csv", "ticks.csv",
        "trips.csv", "utilization.csv",
    ]
    assert result.manifest["files"]["trips.csv"] == 10  # 5 vehicles x 2 trips
    assert (tmp_path / "out" / "manifest.json").exists()
    assert result.n_stranded == 0


def test_run_zero_horizon_valid_outputs(tmp_path):
    path = write_scenario(tmp_path, horizon_s=0.0)
    result = run_scenario_path(path, tmp_path / "out")
    for name in result.manifest["files"]:
        assert (tmp_path / "out" / name).exists()


def test_run_zero_fleet_headers_only(tmp_path):
    path = write_scenario(tmp_path, fleet={"size": 0})
    result = run_scenario_path(path, tmp_path / "out")
    assert result.manifest["files"]["ticks.csv"] == 0
    assert result.manifest["files"]["trips.csv"] == 0


def test_same_seed_runs_byte_identical(tmp_path):
    path = write_scenario(tmp_path)
    r1 = run_scenario_path(path, tmp_path / "a", event_log=True)
    r2 = run_scenario_path(path, tmp_path / "b", event_log=True)
    for name in sorted(r1.manifest["files"]) + ["events.csv"]:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False), name


def test_seed_override_changes_outputs(tmp_path):
    path = write_scenario(tmp_path)
    r1 = run_scenario_path(path, tmp_path / "a")
    r2 = run_scenario_path(path, tmp_path / "b", seed_override=123)
    assert not filecmp.cmp(tmp_path / "a" / "trips.csv",
                           tmp_path / "b" / "trips.csv", shallow=False)


# --- sweep -----------------------------------------------------------------------

def test_sweep_rejects_unknown_parameter(tmp_path):
    path = write_scenario(tmp_path)
    with pytest.raises(ConfigError, match="not sweepable"):
        sweep(path, "fleet.speed", [1], tmp_path / "s")


def test_sweep_single_value_matches_individual_run(tmp_path):
    path = write_scenario(tmp_path)
    rows = sweep(path, "fleet.size", [5], tmp_path / "s")
    single = run_scenario_path(path, tmp_path / "single")
    assert rows[0]["min_idle"] == single.min_idle
    assert rows[0]["total_grid_wh"] == pytest.approx(single.total_grid_wh)
    assert (tmp_path / "s" / "sweep.csv").exists()


def test_sweep_fleet_size_pins_demand(tmp_path):
    path = write_scenario(tmp_path)
    rows = sweep(path, "fleet.size", [5, 3], tmp_path / "s")
    # same 10-trip schedule for both sizes
    for value in (5, 3):
        trips = (tmp_path / "s" / f"fleet_size_{value}" / "trips.csv").read_text()
        assert trips.count("\n") == 11  # header + 10 rows
    assert rows[0]["min_idle"] >= rows[1]["min_idle"]


def test_sweep_slot_power_duration_ratio(tmp_path):
    # oracle: closed-form charge durations scale as 3600/2300 when the
    # vehicle cap does not bind and deficits are identical (same schedule)
    path = write_scenario(
        tmp_path,
        fleet={"size": 1},
        horizon_s=24 * 3600.0,
        stations=[{"station_id": "st0", "edge_id": "e00000",
                   "max_simultaneous": 1, "slots": [{"plug": "schuko"}]}],
    )
    rows = sweep(path, "stations.slot_power_w", [2300.0, 3600.0], tmp_path / "s")

    def mean_duration(value):
        sessions = (tmp_path / "s" / f"stations_slot_power_w_{value}"
                    / "sessions.csv").read_text().splitlines()[1:]
        durations = []
        for line in sessions:
            parts = line.split(",")
            durations.append(float(parts[5]) - float(parts[4]))
        return sum(durations) / len(durations)

    ratio = mean_duration(2300.0) / mean_duration(3600.0)
    assert ratio == pytest.approx(3600.0 / 2300.0, rel=1e-3)


def test_apply_sweep_override_station_count():
    effective = {
        "stations": [{"station_id": "a", "slots": [{"plug": "schuko"}]},
                     {"station_id": "b", "slots": [{"plug": "schuko"}]}],
    }
    assert len(apply_sweep_override(effective, "stations.count", 1)["stations"]) == 1
    with pytest.raises(ConfigError):
        apply_sweep_override(effective, "stations.count", 3)


# --- cli --------------------------------------------------------------------------

def test_cli_validate_ok_and_invalid(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert cli.main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    bad = write_scenario(tmp_path, name="bad.yaml", depot_edge="nope")
    assert cli.main(["validate", str(bad)]) == 1


def test_cli_run_writes_outputs_and_event_log(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out_dir = tmp_path / "cli_out"
    code = cli.main(["run", str(path), "--out", str(out_dir), "--event-log"])
    assert code == 0
    assert (out_dir / "events.csv").exists()
    assert (out_dir / "manifest.json").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["files"]) == 6


def test_cli_missing_config_returns_config_error(tmp_path):
    assert cli.main(["run", str(tmp_path / "nope.yaml")]) == 1


def test_cli_sweep(tmp_path):
    path = write_scenario(tmp_path)
    out_dir = tmp_path / "sweep_out"
    code = cli.main([
        "sweep", str(path), "--param", "fleet.size", "--values", "5,4",
        "--out", str(out_dir),
    ])
    assert code == 0
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("value,min_idle")
    assert len(lines) == 3
