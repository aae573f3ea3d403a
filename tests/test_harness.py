import copy
import json
import math
import pickle
import threading
from pathlib import Path

import numpy as np
import pytest

from tagtrack import harness, planner, rf, tracker, world
from tagtrack.harness import McSummary, ScenarioConfig


def small_config(**kw):
    defaults = dict(
        area=world.Area(0.0, 300.0, 0.0, 300.0),
        num_tags=2,
        tag_positions=[(70.0, 220.0), (230.0, 90.0)],
        uav_start_xy=(150.0, 150.0),
        max_flight_time=120.0,
        tracker=tracker.TrackerConfig(num_particles=600, sigma_min=35.0),
        target_dynamics=world.TargetDynamics(q_diag=np.array([1.0, 1.0, 0.0])),
        seed=42,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def rows_signature(record):
    """Per-step rows with the wall-clock planning time blanked out."""
    out = []
    for s in record.steps:
        out.append((s.k, s.uav_x, s.uav_y, s.uav_z, s.uav_heading,
                    tuple(s.rssi), tuple(s.est), tuple(s.sigma), tuple(s.localized),
                    s.planning_time is None, s.void_prob))
    return out


def summary_signature(summary):
    d = summary.to_dict()
    d.pop("planning_time_stats_s")
    return d


def strip_timing(d):
    d = copy.deepcopy(d)
    d["summary"]["metrics"].pop("planning_time_mean_s", None)
    return d


def test_compute_rms_trivials():
    est = [[0.0, 0.0, 0.0]]
    assert harness.compute_rms(est, est) == 0.0
    assert harness.compute_rms([[3.0, 4.0, 0.0]], [[0.0, 0.0, 0.0]]) == pytest.approx(5.0)
    got = harness.compute_rms([[5.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                              [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert got == pytest.approx(math.sqrt(12.5), abs=1e-12)
    with pytest.raises(ValueError):
        harness.compute_rms([[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])


def json_leaves(d, prefix=""):
    """{dotted key: value} for every leaf of a JSON config."""
    out = {}
    for key, value in d.items():
        if isinstance(value, dict):
            out.update(json_leaves(value, prefix + key + "."))
        else:
            out[prefix + key] = value
    return out


def test_config_round_trip():
    cfg = small_config(tag_frequencies_mhz=[150.2, 151.7],
                       filter_dynamics=world.TargetDynamics(q_diag=np.array([0.5, 0.5, 0.0])))
    again = ScenarioConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()

    every_key = {
        "schema_version": harness.SCHEMA_VERSION,
        "seed": 7,
        "area": {"x_min": -10.0, "x_max": 500.0, "y_min": 5.0, "y_max": 800.0},
        "num_tags": 2,
        "tag_positions": [[10.0, 20.0], [30.0, 40.0]],
        "tag_height_m": 1.5,
        "tag_frequencies_mhz": [150.1, 151.2],
        "uav_start": {"x": 100.0, "y": 200.0, "heading_rad": 0.3},
        "max_flight_time_s": 100.0,
        "step_period_s": 2.0,
        "planner": {"kind": "renyi", "alpha": 0.7, "void_enabled": False},
        "void": {"r_min_m": 40.0, "b_min": 0.7, "horizon_steps": 5, "action_count": 8},
        "tracker": {"num_particles": 300, "resample_threshold": 0.4, "sigma_min_m": 30.0},
        "rf": {"p0_dbm": -41.0, "path_loss_n": 2.5, "wavelength_m": 1.9,
               "reflection_mode": "fresnel", "reflection_gamma": -0.7,
               "rel_permittivity": 12.0, "antenna_gain_max_db": 3.0, "antenna_floor": 0.02,
               "antenna_table": [[0.0, 1.0], [3.0, -2.0]], "noise_var_db2": 20.0},
        "target_dynamics": {"q_diag_m2": [0.5, 0.5, 0.0]},
        "filter_dynamics": {"q_diag_m2": [2.0, 2.0, 0.0]},
        "belief_init": {"mode": "at_truth", "sigma_m": 2.0},
        "kinematics": {"v_max_mps": 4.0, "accel_mps2": 2.0, "altitude_m": 25.0},
    }
    # the defaults, with the optional filter_dynamics section present
    defaults = json_leaves(ScenarioConfig(filter_dynamics=world.TargetDynamics()).to_dict())
    leaves = json_leaves(every_key)
    assert leaves.keys() == defaults.keys()
    assert [k for k in leaves if k != "schema_version" and leaves[k] == defaults[k]] == []
    cfg = ScenarioConfig.from_dict(every_key)
    cfg.validate()
    assert cfg.to_dict() == every_key
    assert ScenarioConfig.from_dict(json.loads(json.dumps(every_key))).to_dict() == every_key


def test_readme_config_block_matches_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config file", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    defaults = ScenarioConfig().to_dict()
    defaults.pop("schema_version")
    assert json.loads(block) == defaults


def test_config_validation_errors():
    with pytest.raises(harness.ConfigError):
        small_config(num_tags=0).validate()
    with pytest.raises(harness.ConfigError):
        small_config(tag_positions=[(1e6, 1e6), (2.0, 2.0)]).validate()
    with pytest.raises(harness.ConfigError):
        small_config(uav_start_xy=(-5.0, 10.0)).validate()
    with pytest.raises(harness.ConfigError):
        small_config(tag_frequencies_mhz=[150.0]).validate()
    with pytest.raises(harness.ConfigError):
        small_config(max_flight_time=-1.0).validate()
    with pytest.raises(harness.ConfigError):
        ScenarioConfig.from_dict({"rf": {"path_loss_n": 9.0}})
    with pytest.raises(harness.ConfigError):
        ScenarioConfig.from_dict({"schema_version": 1})
    with pytest.raises(harness.ConfigError):
        ScenarioConfig.from_dict({"planner": None})


NAN = float("nan")


@pytest.mark.parametrize("build, error", [
    (lambda: planner.VoidConfig(r_min=NAN), ValueError),
    (lambda: planner.VoidConfig(step_period=NAN), ValueError),
    (lambda: planner.PlannerKind(kind="renyi", alpha=NAN), ValueError),
    (lambda: tracker.TrackerConfig(sigma_min=NAN), ValueError),
    (lambda: world.UavKinematics(v_max=NAN), ValueError),
    (lambda: world.UavKinematics(altitude=NAN), ValueError),
    (lambda: world.TargetDynamics(q_diag=[NAN, 1.0, 0.0]), ValueError),
    (lambda: ScenarioConfig(max_flight_time=NAN).validate(), harness.ConfigError),
    (lambda: ScenarioConfig(belief_init_sigma=NAN).validate(), harness.ConfigError),
    (lambda: ScenarioConfig(uav_start_heading=NAN).validate(), harness.ConfigError),
], ids=["void_r_min", "void_step_period", "renyi_alpha", "tracker_sigma_min",
        "kinematics_v_max", "kinematics_altitude", "dynamics_q_diag",
        "scenario_max_flight_time", "scenario_belief_init_sigma", "scenario_start_heading"])
def test_nan_fails_range_checks(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("name, value", [("num_tag", 5), ("step_period", 2.0)])
def test_unknown_config_attribute_raises(name, value):
    cfg = ScenarioConfig(num_tags=2, max_flight_time=10.0, seed=3)
    with pytest.raises(AttributeError):
        setattr(cfg, name, value)
    cfg.num_tags = 3  # a field still takes a new value
    assert pickle.loads(pickle.dumps(cfg)).to_dict() == cfg.to_dict()


def test_step_period_has_one_owner():
    """The JSON key and the library API set the one period both the loop and the planner
    read, so the two configs fly the same mission and echo the same period."""
    lib = small_config(max_flight_time=30.0, void=planner.VoidConfig(step_period=2.0))
    d = small_config(max_flight_time=30.0).to_dict()
    d["step_period_s"] = 2.0
    from_json = ScenarioConfig.from_dict(d)
    assert from_json.void == lib.void
    a, b = harness.run_mission(lib), harness.run_mission(from_json)
    assert rows_signature(a) == rows_signature(b)
    assert summary_signature(a.summary) == summary_signature(b.summary)
    assert len(a.steps) == 15  # 30 s in 2 s steps
    assert lib.to_dict()["step_period_s"] == from_json.to_dict()["step_period_s"] == 2.0


def test_zero_flight_time_gives_empty_record():
    rec = harness.run_mission(small_config(max_flight_time=0.0))
    assert rec.steps == []
    assert rec.summary.flight_time == 0.0
    assert not any(rec.summary.localized)


def test_mission_deterministic_given_seed():
    cfg = small_config()
    a = harness.run_mission(cfg)
    b = harness.run_mission(cfg)
    assert rows_signature(a) == rows_signature(b)
    assert summary_signature(a.summary) == summary_signature(b.summary)


def test_mission_filter_matches_sequential_replay():
    """The mission's filter, fed noise drawn one step ahead on its draw thread, equals
    a replay that draws inside each step from a generator seeded the same way."""
    cfg = small_config(max_flight_time=60.0,
                       filter_dynamics=world.TargetDynamics(q_diag=np.array([4.0, 4.0, 0.0])))
    rec = harness.run_mission(cfg)
    filt_ss = np.random.SeedSequence(cfg.seed).spawn(4)[3]
    n = cfg.tracker.num_particles
    resampled = 0
    for j, ss in enumerate(filt_ss.spawn(cfg.num_tags)):
        rng = np.random.default_rng(ss)
        b = tracker.init_belief(j + 1, cfg.area, cfg.tag_height, cfg.tracker, rng)
        for s in rec.steps:
            uav = world.UavState(position=np.array([s.uav_x, s.uav_y, s.uav_z]),
                                 heading=s.uav_heading)
            b = tracker.predict(b, cfg.filter_dynamics, rng.standard_normal((n, 3)), cfg.area)
            b = tracker.update(b, rf.Measurement(j + 1, s.rssi[j], s.k), uav, cfg.rf)
            out = tracker.resample_if_needed(b, cfg.tracker, rng)
            resampled += out is not b
            b = tracker.mark_localized(out, cfg.tracker)
            assert tuple(map(float, tracker.estimate(b).position)) == s.est[j]
            assert tracker.uncertainty(b) == s.sigma[j]
            assert b.localized == s.localized[j]
    assert resampled > 0  # the resampling offsets share each generator with the noise


def test_mission_seed_changes_outputs():
    a = harness.run_mission(small_config(seed=1))
    b = harness.run_mission(small_config(seed=2))
    assert rows_signature(a) != rows_signature(b)


def test_single_tag_mission_localizes():
    cfg = small_config(num_tags=1, tag_positions=[(220.0, 200.0)],
                       uav_start_xy=(60.0, 60.0), max_flight_time=300.0,
                       target_dynamics=world.TargetDynamics(q_diag=np.zeros(3)),
                       filter_dynamics=world.TargetDynamics(q_diag=np.array([0.25, 0.25, 0.0])),
                       tracker=tracker.TrackerConfig(num_particles=2000, sigma_min=35.0))
    rec = harness.run_mission(cfg)
    assert rec.summary.all_localized
    assert rec.summary.flight_time < 300.0
    assert rec.steps[-1].sigma[0] < 35.0


def test_mission_poses_and_rows_consistent():
    cfg = small_config(max_flight_time=60.0)
    rec = harness.run_mission(cfg)
    ks = [s.k for s in rec.steps]
    assert ks == sorted(ks) and len(set(ks)) == len(ks)
    for s in rec.steps:
        assert cfg.area.contains((s.uav_x, s.uav_y))
        assert s.uav_z == cfg.kinematics.altitude
    # flight time: first step at which every tag is localized, else the budget
    full = [s.k for s in rec.steps if all(s.localized)]
    if full:
        assert rec.summary.flight_time == full[0] * cfg.void.step_period
    else:
        assert rec.summary.flight_time == cfg.max_flight_time


def test_decisions_only_on_horizon_boundaries():
    cfg = small_config(max_flight_time=60.0)
    rec = harness.run_mission(cfg)
    for d in rec.decisions:
        assert d.k % cfg.void.horizon == 0
    step_by_k = {s.k: s for s in rec.steps}
    for d in rec.decisions:
        assert step_by_k[d.k].planning_time is not None
        assert step_by_k[d.k].void_prob == d.void_prob


def test_montecarlo_single_trial_matches_mission():
    cfg = small_config(max_flight_time=60.0)
    mc = harness.run_montecarlo(cfg, trials=1)
    trial_cfg = ScenarioConfig.from_dict(cfg.to_dict())
    trial_cfg.seed = harness.derive_trial_seeds(cfg.seed, 1)[0]
    rec = harness.run_mission(trial_cfg)
    assert mc.trials == 1
    assert mc.metrics["rms_m"]["mean"] == pytest.approx(rec.summary.rms)
    assert mc.metrics["flight_time_s"]["mean"] == pytest.approx(rec.summary.flight_time)
    assert mc.total_poses == len(rec.steps)


def test_montecarlo_parallelism_invariant():
    cfg = small_config(max_flight_time=40.0,
                       tracker=tracker.TrackerConfig(num_particles=300, sigma_min=35.0))
    serial = harness.run_montecarlo(cfg, trials=4, parallelism=1)
    parallel = harness.run_montecarlo(cfg, trials=4, parallelism=2)
    a, b = serial.to_dict(), parallel.to_dict()
    a["metrics"].pop("planning_time_mean_s")
    b["metrics"].pop("planning_time_mean_s")
    assert a == b


def test_montecarlo_pool_size_bounded_by_trials(monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for the process pool: records its size and runs trials in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    cfg = small_config(max_flight_time=10.0,
                       tracker=tracker.TrackerConfig(num_particles=100, sigma_min=35.0))
    for parallelism, trials in ((500, 2), (2, 3), (500, 1)):
        assert harness.run_montecarlo(cfg, trials, parallelism).trials == trials
    assert sizes == [2, 2]  # a single trial runs without a pool
    for parallelism in (0, -3):
        with pytest.raises(harness.ConfigError, match="parallelism"):
            harness.run_montecarlo(cfg, trials=2, parallelism=parallelism)
    assert sizes == [2, 2]


def test_no_thread_outlives_mission(monkeypatch):
    cfg = small_config(max_flight_time=30.0)
    before = threading.active_count()
    harness.run_mission(cfg)
    assert threading.active_count() == before

    seen = []

    def failing_select(*args, **kwargs):
        seen.append(threading.active_count())
        raise RuntimeError("planner failed")

    monkeypatch.setattr(planner, "select_action", failing_select)
    with pytest.raises(RuntimeError, match="planner failed"):
        harness.run_mission(cfg)
    assert seen == [before + 1]  # the draw thread was alive at the first decision
    assert threading.active_count() == before


@pytest.mark.parametrize("ending", ["cap", "all_localized"])
def test_no_noise_block_outlives_its_mission(monkeypatch, ending):
    """Each predict-noise block a mission queues is either read by a predict or
    cancelled when the step loop ends, whether by the cap or by localizing every tag."""
    if ending == "cap":
        cfg = small_config(max_flight_time=20.0)
    else:
        cfg = small_config(belief_init_mode="at_truth", belief_init_sigma=1.0)
    real = harness.run_mission(cfg)
    blocks = []

    class Block:
        def __init__(self, value):
            self.value, self.read, self.cancelled = value, False, False

        def result(self):
            assert not self.cancelled
            self.read = True
            return self.value

    class RecordingPool:
        """Stands in for the draw thread: draws each block at submit, on the caller's
        thread, which uses every generator in the same order."""

        def __init__(self, max_workers):
            pass

        def submit(self, fn, *args, **kwargs):
            blocks.append(Block(fn(*args, **kwargs)))
            return blocks[-1]

        def shutdown(self, wait=True, cancel_futures=False):
            if cancel_futures:
                for b in blocks:
                    b.cancelled = not b.read

    monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
    rec = harness.run_mission(cfg)
    assert rows_signature(rec) == rows_signature(real)
    assert rec.summary.all_localized == (ending == "all_localized")
    assert all(b.read != b.cancelled for b in blocks)
    assert sum(b.cancelled for b in blocks) == cfg.num_tags  # one queued block per tag


def test_heatmap_counts_cover_all_poses():
    cfg = small_config(max_flight_time=50.0)
    mc = harness.run_montecarlo(cfg, trials=3)
    total = sum(sum(row) for row in mc.heatmap_counts)
    assert total == mc.total_poses > 0


def test_mc_summary_round_trip():
    cfg = small_config(max_flight_time=40.0,
                       tracker=tracker.TrackerConfig(num_particles=300, sigma_min=35.0))
    mc = harness.run_montecarlo(cfg, trials=2)
    assert McSummary.from_dict(json.loads(json.dumps(mc.to_dict()))) == mc


def test_export_mission_csv(tmp_path):
    cfg = small_config(max_flight_time=40.0)
    rec = harness.run_mission(cfg)
    paths = harness.export_mission(rec, cfg, str(tmp_path), "csv")
    rows = (tmp_path / "mission.csv").read_text().strip().split("\n")
    header = rows[0].split(",")
    assert header == harness.mission_csv_header(cfg.num_tags)
    assert len(rows) - 1 == len(rec.steps)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["schema_version"] == harness.SCHEMA_VERSION
    assert summary["config"] == cfg.to_dict()
    assert summary["summary"] == rec.summary.to_dict()
    assert [str(p) for p in paths] == [str(tmp_path / "mission.csv"), str(tmp_path / "summary.json")]


def test_export_mission_json_rows(tmp_path):
    cfg = small_config(max_flight_time=30.0)
    rec = harness.run_mission(cfg)
    harness.export_mission(rec, cfg, str(tmp_path), "json")
    payload = json.loads((tmp_path / "mission.json").read_text())
    assert payload["kind"] == "mission_rows"
    assert len(payload["rows"]) == len(rec.steps)
    assert list(payload["rows"][0].keys()) == sorted(harness.mission_csv_header(cfg.num_tags))


def test_export_empty_mission_has_header_only(tmp_path):
    cfg = small_config(max_flight_time=0.0)
    rec = harness.run_mission(cfg)
    harness.export_mission(rec, cfg, str(tmp_path), "csv")
    rows = (tmp_path / "mission.csv").read_text().strip().split("\n")
    assert len(rows) == 1


def test_export_mc_and_heatmap(tmp_path):
    cfg = small_config(max_flight_time=30.0)
    mc = harness.run_montecarlo(cfg, trials=2)
    harness.export_mc(mc, cfg, str(tmp_path))
    payload = json.loads((tmp_path / "mc_summary.json").read_text())
    assert payload["kind"] == "mc_summary"
    assert McSummary.from_dict(payload["summary"]) == mc
    grid = [[int(v) for v in line.split(",")]
            for line in (tmp_path / "heatmap.csv").read_text().strip().split("\n")]
    assert grid == mc.heatmap_counts


def test_audit_functions():
    cfg = small_config()
    good = harness.DecisionRecord(k=11, label="A", fallback=False, void_prob=0.95,
                                  planning_time=0.01, bound_ok=True)
    bad = harness.DecisionRecord(k=22, label="discrete_03", fallback=False, void_prob=0.5,
                                 planning_time=0.01, bound_ok=False)
    fallback = harness.DecisionRecord(k=33, label="stay", fallback=True, void_prob=0.0,
                                      planning_time=0.01, bound_ok=False)
    rec = harness.run_mission(small_config(max_flight_time=0.0))
    rec.decisions = [good, fallback]
    harness.audit_mission(rec, cfg)  # fallback decisions are exempt
    rec.decisions = [good, bad]
    with pytest.raises(harness.VoidAuditError):
        harness.audit_mission(rec, cfg)
    # void disabled: never raises
    cfg_off = small_config(planner=planner.PlannerKind(void_enabled=False))
    harness.audit_mission(rec, cfg_off)


def test_void_disabled_uses_tiny_radius():
    cfg = small_config(num_tags=1, tag_positions=[(160.0, 150.0)],
                       uav_start_xy=(40.0, 150.0), max_flight_time=44.0,
                       belief_init_mode="at_truth", belief_init_sigma=0.5,
                       tracker=tracker.TrackerConfig(num_particles=400, sigma_min=1e-9),
                       target_dynamics=world.TargetDynamics(q_diag=np.zeros(3)),
                       filter_dynamics=world.TargetDynamics(q_diag=np.array([0.01, 0.01, 0.0])),
                       planner=planner.PlannerKind(kind="lavapilot", void_enabled=False))
    rec = harness.run_mission(cfg)
    dists = [math.hypot(s.uav_x - 160.0, s.uav_y - 150.0) for s in rec.steps]
    assert min(dists) < 30.0  # approaches well inside the default 50 m radius

    cfg_on = ScenarioConfig.from_dict(cfg.to_dict())
    cfg_on.planner = planner.PlannerKind(kind="lavapilot", void_enabled=True)
    rec_on = harness.run_mission(cfg_on)
    dists_on = [math.hypot(s.uav_x - 160.0, s.uav_y - 150.0) for s in rec_on.steps]
    assert min(dists_on) >= 45.0


def test_bench_requires_ten_reps():
    with pytest.raises(harness.ConfigError):
        harness.bench_planners(5)


def test_bench_output_shape():
    results = harness.bench_planners(10, particles=300, tags=3, actions=6, horizon=5, seed=1)
    for kind in ("lavapilot", "renyi", "shannon"):
        stats = results[kind]
        for key in ("mean_s", "min_s", "max_s", "median_s"):
            assert stats[key] >= 0.0
        assert stats["min_s"] <= stats["median_s"] <= stats["max_s"]
    assert results["lavapilot"]["likelihood_calls"] == 0
    assert results["renyi"]["likelihood_calls"] > 0
    assert results["shannon"]["likelihood_calls"] > 0
