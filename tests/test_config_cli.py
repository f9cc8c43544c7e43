import copy
import filecmp
import json
from pathlib import Path

import pytest
import yaml

from evfleetsim import cli
from evfleetsim.config import (VEHICLE_PRESETS, ConfigError,
                               apply_sweep_override, build_config,
                               default_scenario_path, load_config, load_raw)
from evfleetsim.simulation import run_scenario, sweep

GRID = {"rows": 4, "cols": 4, "edge_length_m": 150.0, "speed_limit_mps": 12.0}
BASE_SCENARIO = {
    "schema_version": 1,
    "seed": 7,
    "horizon_s": 6 * 3600.0,
    "network": {"grid": GRID},
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
                 "utilization_bin_s": 300.0},
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


def config_errors(path) -> list[str]:
    """The messages of the :class:`ConfigError` that loading ``path``
    raises."""
    with pytest.raises(ConfigError) as err:
        load_config(path)
    return err.value.errors


# --- validation ----------------------------------------------------------------

def test_bundled_default_scenario_validates():
    config = load_config(default_scenario_path())
    assert config.fleet_size == 100
    assert config.schedule_size == 100


def test_station_on_unknown_edge_named_in_error(tmp_path):
    path = write_scenario(
        tmp_path,
        stations=[{"station_id": "st0", "edge_id": "E999",
                   "max_simultaneous": 1, "slots": [{"plug": "schuko"}]}],
    )
    assert any("stations[0].edge_id" in e and "E999" in e
               for e in config_errors(path))


def test_range_extender_threshold_error_names_block(tmp_path):
    path = write_scenario(
        tmp_path,
        fleet={"vehicle": {"preset": "compact_ev",
                           "overrides": {"range_extender": {
                               "power_w": 15000.0, "soc_on": 0.6,
                               "soc_off": 0.4}}}},
    )
    assert any("range_extender" in e for e in config_errors(path))


def test_unknown_depot_edge_rejected(tmp_path):
    path = write_scenario(tmp_path, depot_edge="nope")
    assert any("depot_edge" in e for e in config_errors(path))


def test_unparseable_file_reported(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("stations: [unclosed")
    assert config_errors(path)[0].startswith("cannot parse config")


def test_missing_file_reported(tmp_path):
    assert config_errors(tmp_path / "absent.yaml")[0].startswith(
        "cannot read config")


def test_effective_config_round_trips(tmp_path):
    path = write_scenario(tmp_path)
    first = load_config(path)
    echo = tmp_path / "effective.yaml"
    echo.write_text(yaml.safe_dump(first.effective))
    assert load_config(echo).effective == first.effective


@pytest.mark.parametrize("overrides", [
    {"fleet": {"initial_soc": "abc"}},
    {"stations": [{"station_id": "st0", "edge_id": "e00000",
                   "max_simultaneous": 1, "slots": [{"power_w": "x"}]}]},
    {"stations": ["foo"]},
    {"fleet": {"size": True}},
    {"numerics": {"dynamics_dt_s": float("nan")}},
    {"horizon_s": float("inf")},
    {"demand": {"departure_weights": [float("nan")] + [1.0] * 23}},
    {"demand": {"distance_bins": [{"upper_m": float("nan"), "weight": 1.0}]}},
    {"fleet": 5},
    {"stations": [{"station_id": ["st0"], "edge_id": "e00000",
                   "max_simultaneous": 1, "slots": [{"plug": "schuko"}]}]},
    {"environment": {"gravity_mps2": float("nan")}},
    {"environment": {"air_density_kgpm3": float("inf")}},
    {"demand": {"dwell": {"family": "lognormal", "sigma_log": -1.0}}},
    {"demand": {"trips_per_vehicle_per_day": {"family": "poisson",
                                              "mean": -1.0}}},
    {"fleet": {"vehicle": {"preset": "compact_ev",
                           "overrides": {"auxiliary_power_w": float("nan")}}}},
    {"demand": {"trips_per_vehicle_per_day": {"family": "fixed", "n": -1}}},
    {"demand": {"dwell": {"family": "weibull"}}},
    {"fleeet": {"size": 3}},
    {"policies": {"targt_soc": 1.0}},
    {"numerics": {"metric_interval_s": 3600}},
    {"policies": {"queue_estimate": "mean_power"}},
    {"numerics": {"tick_buffer_rows": 100000}},
    {"demand": {"trips_per_vehicle_per_day": {"family": "fixed", "fixed_n": 2}}},
    {"network": {"grid": {**GRID, "rows": 10.5}}},
    {"demand": {"trips_per_vehicle_per_day": {"family": "fixed", "n": 2.7}}},
    {"policies": {"target_soc": True}},
    {"policies": {"target_soc": "1"}},
    {"demand": {"departure_weights": ["1"] + [1.0] * 23}},
    {"demand": {"distance_bins": [{"upper_m": "400", "weight": 1.0}]}},
    {"demand": {"dwell": {"family": "lognormal", "mu_log": "7"}}},
    {"fleet": {"vehicle": {"preset": "compact_ev",
                           "overrides": {"mass_kg": True}}}},
    {"stations": [{"station_id": "st0", "edge_id": "e00000",
                   "max_simultaneous": 1,
                   "slots": [{"plug": "schuko", "power_w": 3000.0}]}]},
    {"numerics": {"metrics_interval_s": 0.0004}},
    {"demand": {"distance_bins": [{"upper_m": 1e300, "weight": 1.0}]}},
    {"fleet": {"vehicle": {"preset": "compact_ev", "overrides": {
        "max_charging_power_w": 1e-300}}}},
    {"stations": [{"station_id": "st0", "edge_id": "e00000",
                   "slots": [{"power_w": 1e-300}, {"power_w": 1e-300}]}]},
    {"stations": [{"station_id": "st0", "edge_id": "e00000",
                   "slots": [{"power_w": 1e-300}, {"plug": "iec_type2"}]}]},
], ids=["initial_soc_text", "slot_power_text", "station_not_mapping",
        "fleet_size_bool", "dt_nan", "horizon_inf", "departure_weight_nan",
        "bin_upper_nan", "fleet_not_mapping", "station_id_list",
        "gravity_nan", "air_density_inf", "dwell_sigma_negative",
        "trips_mean_negative", "auxiliary_power_nan", "trips_n_negative",
        "dwell_family_unknown", "unknown_top_key", "unknown_policies_key",
        "unknown_numerics_key", "removed_queue_estimate",
        "removed_tick_buffer_rows", "removed_fixed_n", "grid_rows_fraction",
        "trips_n_fraction", "target_soc_bool", "target_soc_text",
        "departure_weight_text", "bin_upper_text", "dwell_mu_text",
        "mass_bool", "slot_plug_and_power", "metrics_interval_below_1ms",
        "distance_bin_beyond_float_range", "vehicle_charge_beyond_clock",
        "slot_charges_beyond_clock", "one_slot_charge_beyond_clock"])
def test_malformed_values_are_config_errors(tmp_path, capsys, overrides):
    path = write_scenario(tmp_path, **overrides)
    with pytest.raises(ConfigError):
        load_config(path)
    assert cli.main(["validate", str(path)]) == 1
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, where", [
    ({"fleeet": {"size": 3}}, "fleeet: unknown key"),
    ({"numerics": {"metric_interval_s": 3600}},
     "numerics.metric_interval_s: unknown key"),
    ({"network": {"grid": {**GRID, "rows": 10.5}}},
     "network.grid.rows: must be an integer"),
    ({"network": {"grid": GRID, "hourly_speed_factors": "fast"}},
     "network.hourly_speed_factors: must be a list"),
    ({"fleet": {"vehicle": {"preset": "compact_ev",
                            "overrides": {"mass_kg": "1500"}}}},
     "fleet.vehicle.overrides.mass_kg: must be a finite number"),
    ({"fleet": {"vehicle": {"preset": "compact_ev", "overrides": {
        "range_extender": {"power_w": 1e4, "soc_onn": 0.3}}}}},
     "fleet.vehicle.overrides.range_extender.soc_onn: unknown key"),
    ({"demand": {"distance_bins": [{"upper_m": 400.0}]}},
     "demand.distance_bins[0].weight: required"),
    ({"stations": [{"station_id": "st0", "edge_id": "e00000",
                    "slots": [{"power_w": 2300.0, "volts": 230}]}]},
     "stations[0].slots[0].volts: unknown key"),
    ({"demand": {"distance_bins": [{"upper_m": 1e300, "weight": 1.0}]}},
     "demand.distance_bins: upper_m 1e+300 reaches too far"),
    ({"stations": [{"station_id": "st0", "edge_id": "e00000",
                    "slots": [{"plug": "iec_type2"}, {"power_w": 1e-300}]}]},
     "stations, fleet.vehicle.max_charging_power_w: full charge at slot s1 "
     "of 'st0'"),
], ids=["top", "numerics", "grid_rows", "speed_factors", "override_text",
        "range_extender_key", "bin_weight", "slot_key", "distance_bin_reach",
        "slot_charge_beyond_clock"])
def test_config_errors_name_the_offending_key(tmp_path, overrides, where):
    errors = config_errors(write_scenario(tmp_path, **overrides))
    assert any(e.startswith(where) for e in errors), errors


def test_far_distance_bin_still_runs(tmp_path, capsys):
    # 1e150 m squared stays finite, so nearest_edge still ranks the edges
    path = write_scenario(tmp_path, demand={
        "distance_bins": [{"upper_m": 1e150, "weight": 1.0}]})
    assert cli.main(["validate", str(path)]) == 0
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0


def test_missing_keys_take_their_defaults(tmp_path):
    path = write_scenario(tmp_path, demand={
        "dwell": {"family": "fixed"},
        "trips_per_vehicle_per_day": {"family": "fixed"}})
    effective = load_config(path).effective
    assert effective["demand"]["dwell"]["fixed_s"] == 1800.0
    assert effective["demand"]["trips_per_vehicle_per_day"]["n"] == 1
    assert effective["network"]["hourly_speed_factors"] is None
    # an int where a float is expected is taken and echoed as a float
    path = write_scenario(tmp_path, horizon_s=3600)
    assert repr(load_config(path).effective["horizon_s"]) == "3600.0"


def test_vehicle_overrides_merge_into_the_preset(tmp_path):
    preset = VEHICLE_PRESETS["compact_ev"]
    path = write_scenario(tmp_path, fleet={"vehicle": {
        "preset": "compact_ev",
        "overrides": {"mass_kg": 1200, "range_extender": {"soc_on": 0.3}}}})
    params = load_config(path).vehicle_params
    assert params.mass_kg == 1200.0
    assert params.drag_coefficient == preset["drag_coefficient"]
    assert params.range_extender.soc_on == 0.3
    assert params.range_extender.power_w == preset["range_extender"]["power_w"]
    path = write_scenario(tmp_path, fleet={"vehicle": {
        "preset": "compact_ev", "overrides": {"range_extender": None}}})
    assert load_config(path).vehicle_params.range_extender is None


def numeric_leaves(node, path=()):
    """Key paths of every number (not bool) in a nested config."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from numeric_leaves(value, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


BUNDLED = load_raw(default_scenario_path())
# every number of the bundled scenario, every vehicle and range-extender
# field (set through the overrides), the fixed dwell time and trip count
NUMERIC_LEAVES = (
    list(numeric_leaves(BUNDLED))
    + [("fleet", "vehicle", "overrides") + path
       for path in numeric_leaves(VEHICLE_PRESETS["compact_ev"])]
    + [("demand", "dwell", "fixed_s"),
       ("demand", "trips_per_vehicle_per_day", "n")]
)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("path", NUMERIC_LEAVES,
                         ids=lambda path: ".".join(map(str, path)))
def test_non_finite_numbers_are_config_errors(path, value):
    raw = copy.deepcopy(BUNDLED)
    node = raw
    for key in path[:-1]:
        node = node[key] if isinstance(node, list) else node.setdefault(key, {})
    node[path[-1]] = value
    with pytest.raises(ConfigError):
        build_config(raw, default_scenario_path().parent)


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
    net = config.network
    assert set(net.edges) == {"f", "r"}


# --- run -------------------------------------------------------------------------

def test_run_scenario_produces_all_outputs(tmp_path):
    path = write_scenario(tmp_path)
    result = run_scenario(load_config(path), tmp_path / "out")
    assert sorted(result.manifest["files"]) == [
        "histograms.csv", "sessions.csv", "summary.csv", "ticks.csv",
        "trips.csv", "utilization.csv",
    ]
    assert result.manifest["files"]["trips.csv"] == 10  # 5 vehicles x 2 trips
    assert (tmp_path / "out" / "manifest.json").exists()
    assert result.n_stranded == 0


def test_run_zero_horizon_valid_outputs(tmp_path):
    path = write_scenario(tmp_path, horizon_s=0.0)
    result = run_scenario(load_config(path), tmp_path / "out")
    for name in result.manifest["files"]:
        assert (tmp_path / "out" / name).exists()


def test_run_zero_fleet_headers_only(tmp_path):
    path = write_scenario(tmp_path, fleet={"size": 0})
    result = run_scenario(load_config(path), tmp_path / "out")
    assert result.manifest["files"]["ticks.csv"] == 0
    assert result.manifest["files"]["trips.csv"] == 0


def test_same_seed_runs_byte_identical(tmp_path):
    path = write_scenario(tmp_path)
    r1 = run_scenario(load_config(path), tmp_path / "a", event_log=True)
    r2 = run_scenario(load_config(path), tmp_path / "b", event_log=True)
    for name in sorted(r1.manifest["files"]) + ["events.csv"]:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False), name


def test_cli_seed_is_the_configured_seed(tmp_path, capsys):
    # --seed 123 runs exactly as a file with seed: 123, config_hash included
    path = write_scenario(tmp_path)
    seeded = write_scenario(tmp_path, name="seeded.yaml", seed=123)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["run", str(path), "--seed", "123",
                     "--out", str(tmp_path / "b")]) == 0
    assert cli.main(["run", str(seeded), "--out", str(tmp_path / "c")]) == 0
    assert not filecmp.cmp(tmp_path / "a" / "trips.csv",
                           tmp_path / "b" / "trips.csv", shallow=False)
    manifests = []
    for run in "bc":
        manifest = json.loads((tmp_path / run / "manifest.json").read_text())
        manifest.pop("wall_clock_s")
        manifests.append(manifest)
        for name in manifest["files"]:
            assert filecmp.cmp(tmp_path / "b" / name, tmp_path / run / name,
                               shallow=False), name
    assert manifests[0] == manifests[1]
    assert manifests[0]["seed"] == 123


# --- sweep -----------------------------------------------------------------------

def test_sweep_rejects_unknown_parameter(tmp_path):
    path = write_scenario(tmp_path)
    with pytest.raises(ConfigError, match="not sweepable"):
        sweep(path, "fleet.speed", [1], tmp_path / "s")


def test_sweep_single_value_matches_individual_run(tmp_path):
    path = write_scenario(tmp_path)
    rows = sweep(path, "fleet.size", [5], tmp_path / "s")
    single = run_scenario(load_config(path), tmp_path / "single")
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
    with pytest.raises(ConfigError, match="^stations.count: must be an integer"):
        apply_sweep_override(effective, "stations.count", 1.5)


def test_apply_sweep_override_assigns_the_value_unchanged():
    effective = load_config(default_scenario_path()).effective
    assert apply_sweep_override(effective, "fleet.size", 5.5)["fleet"]["size"] == 5.5
    stations = apply_sweep_override(effective, "stations.max_simultaneous",
                                    1.5)["stations"]
    assert {s["max_simultaneous"] for s in stations} == {1.5}


# --- cli --------------------------------------------------------------------------

def test_cli_validate_ok_and_invalid(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert cli.main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"OK: {path}\n")
    assert yaml.safe_load(out.split("\n", 1)[1]) == load_config(path).effective
    bad = write_scenario(tmp_path, name="bad.yaml", depot_edge="nope",
                         fleet={"initial_soc": 2.0})
    assert cli.main(["validate", str(bad)]) == 1
    captured = capsys.readouterr()
    errors = config_errors(bad)
    assert len(errors) == 2
    assert captured.out == ""
    assert captured.err == "".join(
        [f"INVALID: {bad}\n"] + [f"  - {e}\n" for e in errors])
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert str(err.value) == "; ".join(errors)


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


@pytest.mark.parametrize("overrides, args", [
    ({"horizon_s": 1e306}, ["run"]),
    ({"numerics": {"metrics_interval_s": 1e306}}, ["run"]),
    ({"demand": {"dwell": {"family": "lognormal", "mu_log": 800.5}}}, ["run"]),
    ({"demand": {"dwell": {"family": "fixed", "fixed_s": 1e306}}}, ["run"]),
    ({}, ["run", "--seed", "-1"]),
    ({}, ["sweep", "--param", "fleet.size", "--values", "5.5"]),
    ({}, ["sweep", "--param", "fleet.size", "--values", "nan"]),
    ({}, ["sweep", "--param", "fleet.size", "--values", "5,5.5"]),
    ({}, ["sweep", "--param", "stations.count", "--values", "1.5"]),
    ({}, ["sweep", "--param", "stations.max_simultaneous", "--values", "1.5"]),
    ({}, ["sweep", "--param", "stations.slot_power_w", "--values", "nan"]),
    ({"network": {"grid": {**GRID, "edge_length_m": 1e300}}}, ["run"]),
    ({"fleet": {"vehicle": {"preset": "compact_ev", "overrides": {
        "max_deceleration_mps2": 1e-300}}}}, ["run"]),
], ids=["horizon_beyond_clock", "metrics_interval_beyond_clock",
        "dwell_mu_overflow", "dwell_fixed_beyond_clock", "negative_seed",
        "fleet_size_fraction", "fleet_size_nan", "fleet_size_fraction_last",
        "station_count_fraction", "max_simultaneous_fraction",
        "slot_power_nan", "grid_extent_overflow", "edges_shorter_than_braking"])
def test_cli_config_probes_exit_1_before_running(tmp_path, capsys, overrides,
                                                 args):
    path = write_scenario(tmp_path, **overrides)
    out = tmp_path / "out"
    argv = [args[0], str(path), *args[1:], "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


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
