import json
import re

import pytest

from tagtrack import cli


def write_config(tmp_path, **overrides):
    cfg = {
        "seed": 5,
        "area": {"x_min": 0.0, "x_max": 300.0, "y_min": 0.0, "y_max": 300.0},
        "num_tags": 2,
        "tag_positions": [[70.0, 220.0], [230.0, 90.0]],
        "uav_start": {"x": 150.0, "y": 150.0, "heading_rad": 0.0},
        "max_flight_time_s": 60.0,
        "tracker": {"num_particles": 500, "sigma_min_m": 35.0},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def strip_timing_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    idx = header.index("planning_time_s")
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[idx] = ""
        out.append(",".join(cells))
    return "\n".join(out)


def strip_timing_json(text):
    payload = json.loads(text)
    payload["summary"].pop("planning_time_stats_s", None)
    if "metrics" in payload["summary"]:
        payload["summary"]["metrics"].pop("planning_time_mean_s", None)
    return json.dumps(payload, sort_keys=True)


def test_simulate_writes_outputs(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    code = cli.main(["simulate", "--config", config, "--out", str(out)])
    assert code == 0
    assert (out / "mission.csv").exists()
    assert (out / "summary.json").exists()
    stdout = capsys.readouterr().out
    assert "mission finished" in stdout


def test_simulate_deterministic_outputs(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", config, "--seed", "9",
                     "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", config, "--seed", "9",
                     "--out", str(out2)]) == 0
    csv1 = strip_timing_csv((out1 / "mission.csv").read_text())
    csv2 = strip_timing_csv((out2 / "mission.csv").read_text())
    assert csv1 == csv2
    js1 = strip_timing_json((out1 / "summary.json").read_text())
    js2 = strip_timing_json((out2 / "summary.json").read_text())
    assert js1 == js2


def test_simulate_planner_and_void_overrides(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    code = cli.main(["simulate", "--config", config, "--planner", "shannon",
                     "--void", "off", "--out", str(out), "--format", "json"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["planner"]["kind"] == "shannon"
    assert summary["config"]["planner"]["void_enabled"] is False
    assert (out / "mission.json").exists()


def test_montecarlo_cli(tmp_path):
    config = write_config(tmp_path, max_flight_time_s=40.0)
    out = tmp_path / "mc"
    code = cli.main(["montecarlo", "--config", config, "--trials", "2",
                     "--parallel", "1", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "mc_summary.json").read_text())
    assert payload["summary"]["trials"] == 2
    assert (out / "heatmap.csv").exists()
    for parallel in ("0", "-1"):
        code = cli.main(["montecarlo", "--config", config, "--trials", "2",
                         "--parallel", parallel, "--out", str(tmp_path / "bad")])
        assert code == 2
    assert not (tmp_path / "bad").exists()


def test_bench_cli(tmp_path, capsys):
    out = tmp_path / "bench"
    code = cli.main(["bench", "--particles", "300", "--tags", "3", "--actions", "6",
                     "--horizon", "5", "--reps", "10", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert re.search(r"lavapilot\s", stdout)
    payload = json.loads((out / "bench.json").read_text())
    assert payload["results"]["lavapilot"]["likelihood_calls"] == 0


@pytest.mark.parametrize("flag, value", [
    ("--particles", "0"), ("--tags", "0"), ("--actions", "2"), ("--horizon", "0"),
    ("--seed", "-1"),
], ids=["zero_particles", "zero_tags", "two_actions", "zero_horizon", "negative_seed"])
def test_bench_bad_size_exit_code(capsys, flag, value):
    sizes = ["--particles", "50", "--tags", "2", "--actions", "4", "--horizon", "2"]
    assert cli.main(["bench", *sizes, flag, value, "--reps", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flag[2:] in err


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"num_tags": 0}))
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    bad.write_text("{not json")
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert cli.main(["bench", "--reps", "3"]) == 2
    for command in ("simulate", "montecarlo"):
        assert cli.main([command, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
        assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("overrides, field", [
    ({"tag_frequencies_mhz": [150.0, 0.0]}, "tag frequencies"),
    ({"tag_frequencies_mhz": [150.0, -150.0]}, "tag frequencies"),
    ({"rf": {"noise_var_db2": float("nan")}}, "noise_var"),
    ({"rf": {"wavelength_m": float("nan")}}, "wavelength"),
    ({"tag_height_m": float("nan")}, "tag_height_m"),
    ({"tag_height_m": -3.0}, "tag_height_m"),
    ({"max_flight_time_s": float("nan")}, "max_flight_time_s"),
    ({"target_dynamics": {"q_diag_m2": [1.0, float("nan"), 0.0]}}, "target_dynamics.q_diag_m2"),
    ({"rf": {"p0_dbm": "-40"}}, "rf.p0_dbm"),
    ({"planner": {"void_enabled": "false"}}, "planner.void_enabled"),
    ({"tag_positions": None, "num_tags": 2.7}, "num_tags"),
    ({"tracker": {"num_particles": True}}, "tracker.num_particles"),
    ({"tracker": {"num_particle": 500}}, "tracker.num_particle"),
    ({"num_tag": 2}, "num_tag"),
    ({"rf": {"antenna_table": [[0.0, float("nan")], [3.0, 0.0]]}}, "rf.antenna_table"),
    ({"tag_frequencies_mhz": ["150", "151"]}, "tag_frequencies_mhz"),
    ({"tag_height_m": 30.0, "num_tags": 1, "tag_positions": [[150.0, 150.0]],
      "target_dynamics": {"q_diag_m2": [0.0, 0.0, 0.0]}}, "kinematics.altitude_m"),
    ({"seed": -1}, "seed"),
], ids=["zero_frequency", "negative_frequency", "nan_noise_var", "nan_wavelength",
        "nan_tag_height", "negative_tag_height", "nan_scalar", "nan_list_entry",
        "string_number", "string_bool", "non_integral_int", "bool_as_int", "unknown_nested_key",
        "unknown_top_level_key", "nan_antenna_table", "string_frequencies",
        "observer_at_tag_height", "negative_seed"])
def test_bad_rf_or_tag_input_exit_code(tmp_path, capsys, overrides, field):
    config = write_config(tmp_path, **overrides)
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert not (tmp_path / "o").exists()


def test_void_audit_exit_code(tmp_path, capsys, monkeypatch):
    from tagtrack import harness

    def failing_audit(record, cfg):
        raise harness.VoidAuditError("forced")

    monkeypatch.setattr(harness, "audit_mission", failing_audit)
    config = write_config(tmp_path, max_flight_time_s=20.0)
    code = cli.main(["simulate", "--config", config, "--out", str(tmp_path / "o")])
    assert code == 4
    capsys.readouterr()


def test_io_error_exit_code(tmp_path, capsys):
    config = write_config(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    code = cli.main(["simulate", "--config", config, "--out", str(blocker / "sub")])
    assert code == 3
    assert cli.main(["simulate", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o")]) == 3
    capsys.readouterr()
