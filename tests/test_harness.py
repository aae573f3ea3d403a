import concurrent.futures
import copy
import functools
import json
import math
import os
import pickle
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tagtrack import harness, planner, rf, tracker, world
from tagtrack.harness import ScenarioConfig


TAG_SITES = [(70.0, 220.0), (230.0, 90.0), (150.0, 40.0)]


def small_config(**kw):
    defaults = dict(
        area=world.Area(0.0, 300.0, 0.0, 300.0),
        num_tags=2,
        tag_positions=TAG_SITES[:2],
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


def test_mission_rms_is_root_mean_square_of_tag_errors():
    s = harness.run_mission(small_config(max_flight_time=60.0)).summary
    errors = np.asarray(s.per_tag_error)
    assert errors.shape == (2,) and np.all(errors > 0.0) and errors[0] != errors[1]
    assert s.rms == math.sqrt(np.mean(errors ** 2))


def test_every_public_name_resolves():
    # `from tagtrack import *` imports every name in __all__
    import tagtrack

    assert all(hasattr(tagtrack, name) for name in tagtrack.__all__)
    namespace = {}
    exec("from tagtrack import *", namespace)
    assert set(tagtrack.__all__) <= set(namespace)


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
    # the per-tag lists are held as tuples, so no in-place edit skips the checks
    assert cfg.tag_positions == ((70.0, 220.0), (230.0, 90.0))
    assert cfg.tag_frequencies_mhz == (150.2, 151.7)
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
    # a config is checked where it is made: constructing a bad one raises
    with pytest.raises(harness.ConfigError):
        small_config(num_tags=0)
    with pytest.raises(harness.ConfigError):
        small_config(tag_positions=[(1e6, 1e6), (2.0, 2.0)])
    with pytest.raises(harness.ConfigError):
        small_config(uav_start_xy=(-5.0, 10.0))
    with pytest.raises(harness.ConfigError):
        small_config(tag_frequencies_mhz=[150.0])
    with pytest.raises(harness.ConfigError):
        small_config(max_flight_time=-1.0)
    with pytest.raises(harness.ConfigError, match="seed"):
        replace(small_config(), seed=-1)
    for count in ({"num_tags": 2.5}, {"num_tags": True}, {"seed": 1.5}):  # counts are integers
        with pytest.raises(harness.ConfigError, match=next(iter(count))):
            ScenarioConfig(**count)
    assert ScenarioConfig(num_tags=np.int64(3), seed=np.uint8(7)).num_tags == 3
    with pytest.raises(harness.ConfigError):
        ScenarioConfig.from_dict({"rf": {"path_loss_n": 9.0}})
    with pytest.raises(harness.ConfigError):
        ScenarioConfig.from_dict({"schema_version": 1})
    with pytest.raises(harness.ConfigError):
        ScenarioConfig.from_dict({"planner": None})


@pytest.mark.parametrize("d, key", [
    ({"step_period_s": 0.0}, "step_period_s"),
    ({"void": {"r_min_m": 0.0}}, "void.r_min_m"),
    ({"target_dynamics": {"q_diag_m2": [1.0, 1.0, 0.5]}}, "target_dynamics.q_diag_m2"),
])
def test_range_error_names_the_json_key(d, key):
    with pytest.raises(harness.ConfigError, match=f"^invalid configuration: {key}: "):
        ScenarioConfig.from_dict(d)


@pytest.mark.parametrize("d, message", [
    ({"max_flight_time_s": -1.0}, "max_flight_time_s must be non-negative"),
    ({"belief_init": {"sigma_m": -1.0}}, "belief_init.sigma_m must be non-negative"),
    ({"belief_init": {"mode": "x"}}, "unknown belief_init.mode: x"),
], ids=["max_flight_time", "belief_init_sigma", "belief_init_mode"])
def test_validate_error_names_the_json_key(d, message):
    with pytest.raises(harness.ConfigError) as exc:
        ScenarioConfig.from_dict(d).validate()
    assert str(exc.value) == message


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


@pytest.mark.parametrize("name, value", [("num_tag", 5), ("step_period", 2.0), ("num_tags", 3)])
def test_unknown_config_attribute_raises(name, value):
    # a misspelt name raises, and so does a field: a config is immutable
    cfg = ScenarioConfig(num_tags=2, max_flight_time=10.0, seed=3)
    with pytest.raises(AttributeError):
        setattr(cfg, name, value)
    assert cfg.num_tags == 2
    assert pickle.loads(pickle.dumps(cfg)).to_dict() == cfg.to_dict()


def test_configs_compare_as_values():
    # both dynamics hold their variances as values, so a config and its pickled copy
    # (each Monte-Carlo worker receives one) compare equal, field by field
    cfg = small_config(filter_dynamics=world.TargetDynamics(q_diag=np.array([2.0, 2.0, 0.0])))
    assert ScenarioConfig() == ScenarioConfig()
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    assert cfg != replace(cfg, filter_dynamics=world.TargetDynamics(q_diag=(2.0, 3.0, 0.0)))


def test_start_given_as_a_list_is_the_same_value_as_the_default():
    cfg = ScenarioConfig(uav_start_xy=[500.0, 500.0])
    assert cfg == ScenarioConfig() and hash(cfg) == hash(ScenarioConfig())
    assert type(cfg.uav_start_xy) is tuple and all(type(v) is float for v in cfg.uav_start_xy)


def test_start_cannot_be_edited_after_the_check():
    cfg = ScenarioConfig(uav_start_xy=[500.0, 500.0])
    with pytest.raises(TypeError):
        cfg.uav_start_xy[0] = -5.0  # would start the mission outside the area
    assert cfg.uav_start_xy == (500.0, 500.0)


def test_start_given_as_an_array_compares_as_a_value():
    cfg = ScenarioConfig(uav_start_xy=np.array([100.0, 200.0]))
    assert cfg == ScenarioConfig(uav_start_xy=(100, 200)) != ScenarioConfig()


@pytest.mark.parametrize("kw, key", [
    ({"uav_start_xy": (1.0,)}, "uav_start"),
    ({"uav_start_xy": (1.0, 2.0, 3.0)}, "uav_start"),
    ({"num_tags": 1, "tag_positions": [(1.0, 2.0, 3.0)]}, r"tag_positions\[0\]"),
    ({"num_tags": 2, "tag_positions": [(1.0, 2.0), 5.0]}, r"tag_positions\[1\]"),
], ids=["start_one_entry", "start_three_entries", "tag_three_entries", "tag_scalar"])
def test_a_point_that_is_not_an_xy_pair_is_a_config_error(kw, key):
    with pytest.raises(harness.ConfigError, match=f"^{key} must be an \\(x, y\\) pair"):
        ScenarioConfig(**kw)


@pytest.mark.parametrize("kw, key, what", [
    ({"tag_positions": 5}, "tag_positions", "a list"),
    ({"tag_frequencies_mhz": 433.0}, "tag_frequencies_mhz", "a list"),
    ({"tag_frequencies_mhz": ["a"]}, r"tag_frequencies_mhz\[0\]", "a finite number"),
    ({"uav_start_xy": ("500", "500")}, r"uav_start\[0\]", "a finite number"),
    ({"uav_start_xy": (500.0, NAN)}, r"uav_start\[1\]", "a finite number"),
    ({"tag_positions": [(1.0, True)]}, r"tag_positions\[0\]\[1\]", "a finite number"),
], ids=["positions_number", "frequencies_number", "frequency_string", "start_strings",
        "start_nan", "position_bool"])
def test_a_value_given_in_code_is_checked_as_in_json(kw, key, what):
    with pytest.raises(harness.ConfigError, match=f"^{key} must be {what}, got "):
        ScenarioConfig(num_tags=1, **kw)


@pytest.mark.parametrize("build, key", [
    (lambda: planner.PlannerKind(void_enabled="false"), "void_enabled"),
    (lambda: planner.VoidConfig(r_min="a"), "r_min"),
    (lambda: ScenarioConfig(tag_height="1"), "tag_height_m"),
    (lambda: ScenarioConfig(tag_height=10**401), "tag_height_m"),
    (lambda: ScenarioConfig(planner="renyi"), "planner"),
    (lambda: ScenarioConfig(filter_dynamics=(1, 1, 0)), "filter_dynamics"),
    (lambda: world.TargetDynamics(q_diag=("1", "1", "0")), r"q_diag\[0\]"),
], ids=["string_bool", "string_radius", "string_height", "huge_integer_height",
        "planner_kind_name", "dynamics_tuple", "string_variances"])
def test_a_field_given_in_code_is_checked_as_its_json_key(build, key):
    with pytest.raises(harness.ConfigError, match=f"^{key} must be "):
        build()


def test_a_config_with_an_antenna_table_hashes_as_a_value():
    cfg = ScenarioConfig(rf=rf.PropagationConfig(antenna_table=[[0, 1]]))
    assert hash(cfg) == hash(ScenarioConfig(rf=rf.PropagationConfig(antenna_table=((0.0, 1.0),))))
    assert cfg.rf.antenna_table == ((0.0, 1.0),)


def test_frequencies_given_as_an_array_are_stored_as_floats():
    cfg = ScenarioConfig(num_tags=2, tag_frequencies_mhz=np.array([433, 434]))
    assert cfg.tag_frequencies_mhz == (433.0, 434.0)
    assert all(type(f) is float for f in cfg.tag_frequencies_mhz)


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


@pytest.mark.parametrize("kind,seeds", [("lavapilot", (3, 4)), ("renyi", (1, 2))])
def test_rollout_cache_keeps_every_profile_a_mission_reuses(monkeypatch, kind, seeds):
    # the bounded cache against an unbounded one over the same function, both emptied
    # before each mission; lavapilot seed 4 flies 81 distinct profiles, more than fit
    bounded = world._trapezoid_samples
    unbounded = functools.lru_cache(maxsize=None)(bounded.__wrapped__)

    def both(*args):
        unbounded(*args)
        return bounded(*args)

    monkeypatch.setattr(world, "_trapezoid_samples", both)
    distinct = []
    for seed in seeds:
        bounded.cache_clear()
        unbounded.cache_clear()
        harness.run_mission(ScenarioConfig(seed=seed, max_flight_time=300.0,
                                           planner=planner.PlannerKind(kind=kind),
                                           tracker=tracker.TrackerConfig(num_particles=1000)))
        got, want = bounded.cache_info(), unbounded.cache_info()
        assert want.hits > 0 and (got.hits, got.misses) == (want.hits, want.misses)
        distinct.append(want.currsize)
    if kind == "lavapilot":
        assert max(distinct) > bounded.cache_info().maxsize


def test_zero_flight_time_gives_empty_record():
    rec = harness.run_mission(small_config(max_flight_time=0.0))
    assert rec.steps == []
    assert rec.summary.flight_time == 0.0
    assert not any(rec.summary.localized)


@pytest.mark.parametrize("cap, n_steps", [(10.6, 11), (0.4, 0), (2.5, 2)])
def test_capped_flight_time_is_the_steps_flown(cap, n_steps):
    # a cap that is not a whole number of steps flies round(cap / step_period) steps
    cfg = ScenarioConfig(num_tags=2, tracker=tracker.TrackerConfig(num_particles=200),
                         max_flight_time=cap, seed=3)
    s = harness.run_mission(cfg).summary
    assert not s.all_localized and s.n_steps == n_steps
    assert s.flight_time == n_steps * cfg.void.step_period


def test_mission_deterministic_given_seed():
    cfg = small_config()
    a = harness.run_mission(cfg)
    b = harness.run_mission(cfg)
    assert rows_signature(a) == rows_signature(b)
    assert summary_signature(a.summary) == summary_signature(b.summary)


def test_mission_filter_matches_sequential_replay():
    """The mission's filter, fed noise drawn a tag's turn ahead on its draw thread
    (with one tag, after that tag's resample), equals a replay that draws inside each
    step from a generator seeded the same way, for 1, 2 and 3 tags."""
    for n_tags in (1, 2, 3):
        cfg = small_config(num_tags=n_tags, tag_positions=TAG_SITES[:n_tags],
                           max_flight_time=60.0,
                           filter_dynamics=world.TargetDynamics(q_diag=(4.0, 4.0, 0.0)))
        rec = harness.run_mission(cfg)
        filt_ss = np.random.SeedSequence(cfg.seed).spawn(4)[3]
        n = cfg.tracker.num_particles
        resampled = 0
        for j, ss in enumerate(filt_ss.spawn(cfg.num_tags)):
            rng = np.random.default_rng(ss)
            b = tracker.init_belief(cfg.area, cfg.tag_height, cfg.rf.wavelength, cfg.tracker,
                                    rng)
            for s in rec.steps:
                uav = world.UavState(xy=(s.uav_x, s.uav_y), altitude=s.uav_z,
                                     heading=s.uav_heading)
                b = tracker.predict(b, cfg.filter_dynamics, rng.standard_normal((n, 3)),
                                    cfg.area)
                b = tracker.update(b, s.rssi[j], uav, cfg.rf)
                out = tracker.resample_if_needed(b, cfg.tracker, rng)
                resampled += out is not b
                b = tracker.mark_localized(out, cfg.tracker)
                assert (*map(float, tracker.estimate(b)), b.height) == s.est[j]
                assert tracker.uncertainty(b) == s.sigma[j]
                assert b.localized == s.localized[j]
        assert resampled > 0  # the resampling offsets share each generator with the noise


def test_mission_keeps_every_position_inside_the_area(monkeypatch):
    # tags start on the edges and walk fast, the filter's jitter is wide and the
    # observer starts by a corner, so every clamp has work to do: particles, true tags
    # and the waypoints the observer flies to each land on an edge at least once
    walk = world.TargetDynamics(q_diag=np.array([25.0, 25.0, 0.0]))
    cfg = small_config(tag_positions=[(0.0, 300.0), (300.0, 5.0)], uav_start_xy=(10.0, 20.0),
                       tracker=tracker.TrackerConfig(num_particles=300, sigma_min=35.0),
                       target_dynamics=walk, filter_dynamics=walk, max_flight_time=90.0,
                       planner=planner.PlannerKind(kind="shannon"))
    area = cfg.area
    on_edge = {"particles": 0, "tags": 0, "waypoints": 0}

    def inside(pts, kind):
        pts = np.asarray(pts)
        assert np.array_equal(area.clamp(pts), pts)
        on_edge[kind] += int(np.sum((pts == [area.x_min, area.y_min])
                                    | (pts == [area.x_max, area.y_max])))

    def traced(module, name, check):
        real = getattr(module, name)

        def wrapper(*args):
            out = real(*args)
            check(out)
            return out
        monkeypatch.setattr(module, name, wrapper)

    traced(tracker, "predict", lambda b: inside(b.particles, "particles"))
    traced(harness, "target_step", lambda xy: inside(xy, "tags"))
    traced(planner, "select_action", lambda a: inside(a.waypoint, "waypoints"))
    rec = harness.run_mission(cfg)
    for s in rec.steps:
        assert area.contains((s.uav_x, s.uav_y))
    assert all(on_edge.values())


def test_one_carrier_for_all_tags_equals_no_tag_frequencies():
    # each belief carries its tag's wavelength; when every tag sits on the configured
    # carrier, listing the frequencies must not change a single non-timing output
    rf_cfg = rf.PropagationConfig(wavelength=rf.wavelength_from_mhz(150.0))
    cfg = small_config(planner=planner.PlannerKind(kind="renyi"), rf=rf_cfg)
    shared = harness.run_mission(cfg)
    per_tag = harness.run_mission(small_config(planner=cfg.planner, rf=rf_cfg,
                                               tag_frequencies_mhz=[150.0, 150.0]))
    assert shared.decisions
    assert rows_signature(per_tag) == rows_signature(shared)
    assert summary_signature(per_tag.summary) == summary_signature(shared.summary)

    def decisions(record):
        return [(d.k, d.label, d.fallback, d.void_prob, d.bound_ok) for d in record.decisions]
    assert decisions(per_tag) == decisions(shared)


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
    # flight time: first step at which every tag is localized, else the capped steps
    full = [s.k for s in rec.steps if all(s.localized)]
    if full:
        assert rec.summary.flight_time == full[0] * cfg.void.step_period
    else:
        assert rec.summary.flight_time == len(rec.steps) * cfg.void.step_period
        assert len(rec.steps) == round(cfg.max_flight_time / cfg.void.step_period)


def test_decisions_only_on_horizon_boundaries():
    cfg = small_config(max_flight_time=60.0)
    rec = harness.run_mission(cfg)
    for d in rec.decisions:
        assert d.k % cfg.void.horizon == 0
    step_by_k = {s.k: s for s in rec.steps}
    for d in rec.decisions:
        assert step_by_k[d.k].planning_time is not None
        assert step_by_k[d.k].void_prob == d.void_prob


@pytest.mark.parametrize("values", [
    [3.0], [2.0, 1.0], [5.0, 1.5, 4.0], [0.1, 0.7, 0.2, 1e-9],
    [4, 1, 3, 3, 2], [7, 2, 9, 4],
    [0.0, -0.0], [-0.0, 0.0, -0.0], [-0.0, 0.0, 0.0, -0.0, -0.0], [-0.0],
    [1.0, float("nan"), 2.0], [float("nan"), 0.5], [float("nan")],
    list(np.random.default_rng(8).normal(size=59)),
    list(np.random.default_rng(9).normal(size=60)),
], ids=["one", "two", "three", "four", "int_odd", "int_even", "zeros_2", "zeros_3",
        "zeros_5", "negative_zero", "nan_inside", "nan_first", "nan_alone", "normal_59",
        "normal_60"])
def test_stats_median_is_numpy_median_bit_for_bit(values):
    got = harness._stats(values)["median"]
    want = float(np.median(np.asarray(values, dtype=float)))
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_montecarlo_single_trial_matches_mission():
    """Every non-timing metric of a batch is _stats over its trials' own missions, in
    trial order, and so are the lowest gated void probability and the pose count."""
    cfg = small_config(max_flight_time=60.0)
    mc = harness.run_montecarlo(cfg, trials=3)
    records = []
    for seed in harness.derive_trial_seeds(cfg.seed, 3):
        trial_cfg = replace(ScenarioConfig.from_dict(cfg.to_dict()), seed=seed)
        records.append(harness.run_mission(trial_cfg))
    summaries = [r.summary for r in records]
    assert mc.trials == 3
    assert mc.metrics["rms_m"] == harness._stats([s.rms for s in summaries])
    assert mc.metrics["flight_time_s"] == harness._stats([s.flight_time for s in summaries])
    assert mc.metrics["localized_count"] == harness._stats(
        [len([x for x in s.localized if x]) for s in summaries])
    assert mc.metrics["violation_events"] == harness._stats(
        [len(s.violation_events) for s in summaries])
    assert mc.metrics["divergence_events"] == harness._stats(
        [len(s.divergence_events) for s in summaries])
    assert mc.metrics["n_decisions"] == harness._stats([len(r.decisions) for r in records])
    gated = [d.void_prob for r in records for d in r.decisions if not d.fallback]
    assert gated and mc.min_nonfallback_void_prob == min(gated)
    assert mc.total_poses == sum(len(r.steps) for r in records)


def test_zero_step_montecarlo_has_an_empty_heatmap():
    area = world.Area(0.0, 305.0, 0.0, 150.0)
    cfg = small_config(area=area, tag_positions=[(70.0, 120.0), (230.0, 90.0)],
                       uav_start_xy=(150.0, 75.0), max_flight_time=0.0)
    mc = harness.run_montecarlo(cfg, trials=2)
    assert mc.heatmap_counts == [[0] * math.ceil(305.0 / 10)] * math.ceil(150.0 / 10)
    assert mc.total_poses == 0
    assert mc.min_nonfallback_void_prob is None


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = small_config(max_flight_time=10.0,
                       tracker=tracker.TrackerConfig(num_particles=100, sigma_min=35.0))
    for parallelism, trials in ((500, 2), (2, 3), (500, 1)):
        assert harness.run_montecarlo(cfg, trials, parallelism).trials == trials
    assert sizes == [2, 2]  # a single trial runs without a pool
    for parallelism in (0, -3):
        with pytest.raises(harness.ConfigError, match="parallelism"):
            harness.run_montecarlo(cfg, trials=2, parallelism=parallelism)
    assert sizes == [2, 2]


@pytest.mark.parametrize("kw, name", [
    ({"trials": 2.5}, "trials"), ({"trials": True}, "trials"),
    ({"trials": 2, "parallelism": 1.5}, "parallelism"),
    ({"trials": 2, "parallelism": False}, "parallelism"),
], ids=["fractional_trials", "bool_trials", "fractional_parallelism", "bool_parallelism"])
def test_montecarlo_counts_must_be_integers(kw, name):
    with pytest.raises(harness.ConfigError, match=f"^{name} must be an integer >= 1"):
        harness.run_montecarlo(small_config(max_flight_time=10.0), **kw)


def test_montecarlo_stores_numpy_integer_counts_as_ints(tmp_path):
    cfg = small_config(max_flight_time=10.0,
                       tracker=tracker.TrackerConfig(num_particles=100, sigma_min=35.0))
    mc = harness.run_montecarlo(cfg, trials=np.int64(1), parallelism=np.int64(1))
    assert type(mc.trials) is int
    harness.export_mc(mc, cfg, str(tmp_path))  # JSON takes no numpy integer


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


class RecordingDraws:
    """Stands in for the draw thread: draws each block at submit, on the caller's
    thread, and keeps every block and every `out` buffer it was given. Drawing at
    submit makes a draw that overwrites a block still being read change the rows."""

    def __init__(self, max_workers):
        self.blocks, self.buffers = [], []
        RecordingDraws.last = self

    def submit(self, fn, *args, **kwargs):
        self.buffers.append(kwargs["out"])
        self.blocks.append(RecordingDraws.Block(fn(*args, **kwargs)))
        return self.blocks[-1]

    def shutdown(self, wait=True, cancel_futures=False):
        if cancel_futures:
            for b in self.blocks:
                b.cancelled = not b.read

    class Block:
        def __init__(self, value):
            self.value, self.read, self.cancelled = value, False, False

        def result(self):
            assert not self.cancelled and not self.read
            self.read = True
            return self.value


class FreshDraws(RecordingDraws):
    """Draws each block into a new array: no draw can reach a block being read."""

    def submit(self, fn, *args, out):
        return super().submit(fn, *args, out=np.empty_like(out))


@pytest.mark.parametrize("ending", ["cap", "all_localized"])
def test_no_noise_block_outlives_its_mission(monkeypatch, ending):
    """Each predict-noise block a mission queues is either read by one predict or
    cancelled when the step loop ends, whether by the cap or by localizing every tag,
    and exactly one draw is queued when it ends. The rows match those of fresh blocks:
    with 3 tags, a buffer picked by tag parity would hand tag 0's next draw the buffer
    tag 2's predict is reading (the real thread can lose that race too)."""
    for n_tags in (1, 2, 3):
        sites = TAG_SITES[:n_tags]
        if ending == "cap":
            cfg = small_config(num_tags=n_tags, tag_positions=sites, max_flight_time=20.0)
        else:
            cfg = small_config(num_tags=n_tags, tag_positions=sites,
                               belief_init_mode="at_truth", belief_init_sigma=1.0)
        real = harness.run_mission(cfg)
        with monkeypatch.context() as m:
            m.setattr(harness, "ThreadPoolExecutor", FreshDraws)
            fresh = harness.run_mission(cfg)
            m.setattr(harness, "ThreadPoolExecutor", RecordingDraws)
            rec = harness.run_mission(cfg)
        blocks = RecordingDraws.last.blocks
        assert rows_signature(rec) == rows_signature(fresh) == rows_signature(real)
        assert rec.summary.all_localized == (ending == "all_localized")
        assert all(b.read != b.cancelled for b in blocks)
        assert sum(b.read for b in blocks) == n_tags * rec.summary.n_steps
        assert sum(b.cancelled for b in blocks) == 1  # the one draw in flight


@pytest.mark.parametrize("n_tags", [1, 2, 3, 5])
def test_mission_draws_into_two_noise_buffers(monkeypatch, n_tags):
    """A mission hands the draw thread the same two (N, 3) buffers, whatever its tag
    count and step count: none is allocated inside the step loop."""
    monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingDraws)
    sites = [(30.0 + 50.0 * j, 250.0 - 40.0 * j) for j in range(n_tags)]
    for seconds in (0.0, 1.0, 5.0, 20.0):
        cfg = small_config(num_tags=n_tags, tag_positions=sites, max_flight_time=seconds)
        rec = harness.run_mission(cfg)
        buffers = RecordingDraws.last.buffers
        assert len(buffers) == n_tags * rec.summary.n_steps + 1
        distinct = {id(out) for out in buffers}  # the recorder keeps them all alive
        assert len(distinct) == min(2, len(buffers))
        assert all(out.shape == (cfg.tracker.num_particles, 3) for out in buffers)


def test_heatmap_counts_cover_all_poses():
    cfg = small_config(max_flight_time=50.0)
    mc = harness.run_montecarlo(cfg, trials=3)
    total = sum(sum(row) for row in mc.heatmap_counts)
    assert total == mc.total_poses > 0


def test_mc_summary_round_trip():
    cfg = small_config(max_flight_time=40.0,
                       tracker=tracker.TrackerConfig(num_particles=300, sigma_min=35.0))
    mc = harness.run_montecarlo(cfg, trials=2)
    assert json.loads(json.dumps(mc.to_dict())) == mc.to_dict()


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


def untimed_export(cfg, out_dir):
    """The JSON export of cfg's mission with its wall-clock planning times left out."""
    harness.export_mission(harness.run_mission(cfg), cfg, str(out_dir), "json")
    rows = json.loads((out_dir / "mission.json").read_text())["rows"]
    for row in rows:
        row.pop("planning_time_s")
    summary = json.loads((out_dir / "summary.json").read_text())
    summary["summary"].pop("planning_time_stats_s")
    return rows, summary


def test_numpy_integer_counts_export_as_plain_ints(tmp_path):
    built = {}
    for name, count in (("plain", int), ("numpy", np.int64)):
        cfg = small_config(
            num_tags=count(2), seed=count(3), max_flight_time=25.0,
            tracker=tracker.TrackerConfig(num_particles=count(200), sigma_min=35.0),
            void=planner.VoidConfig(horizon=count(11), action_count=count(12)))
        assert all(type(v) is int for v in (cfg.num_tags, cfg.seed, cfg.tracker.num_particles,
                                             cfg.void.horizon, cfg.void.action_count))
        (tmp_path / name).mkdir()
        built[name] = untimed_export(cfg, tmp_path / name)
    assert built["numpy"] == built["plain"]


def test_a_mission_loads_no_module_it_does_not_use(tmp_path):
    # np.median imports numpy.ma (+1.3 MB resident) and the process pool module pulls in
    # multiprocessing (+1.3 MB): a lone mission and its export use neither
    script = f"""
import json, sys
import tagtrack.cli
from tagtrack import harness, tracker
cfg = harness.ScenarioConfig(num_tags=2, max_flight_time=25.0, seed=3,
                             tracker=tracker.TrackerConfig(num_particles=200))
record = harness.run_mission(cfg)
assert record.summary.n_decisions > 0
harness.export_mission(record, cfg, {str(tmp_path)!r})
print(json.dumps(sorted(set(sys.modules) & {{"numpy.ma", "concurrent.futures.process",
                                           "multiprocessing"}})))
"""
    src = str(Path(harness.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert json.loads(out.stdout) == []


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
    assert payload["summary"] == mc.to_dict()
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

    cfg_on = replace(ScenarioConfig.from_dict(cfg.to_dict()),
                     planner=planner.PlannerKind(kind="lavapilot", void_enabled=True))
    rec_on = harness.run_mission(cfg_on)
    dists_on = [math.hypot(s.uav_x - 160.0, s.uav_y - 150.0) for s in rec_on.steps]
    assert min(dists_on) >= 45.0


def test_bench_requires_ten_reps():
    with pytest.raises(harness.ConfigError):
        harness.bench_planners(5)


@pytest.mark.parametrize("args, kw, name", [
    ((10.5,), {}, "repetitions"), ((True,), {}, "repetitions"),
    ((10,), {"particles": 25.5}, "particles"), ((10,), {"tags": 2.5}, "tags"),
    ((10,), {"actions": 3.5}, "actions"), ((10,), {"horizon": 2.0}, "horizon"),
    ((10,), {"seed": 1.5}, "seed"),
], ids=["fractional_repetitions", "bool_repetitions", "particles", "tags", "actions",
        "horizon", "seed"])
def test_bench_sizes_must_be_integers(args, kw, name):
    with pytest.raises(harness.ConfigError, match=f"^{name} must be an integer >= "):
        harness.bench_planners(*args, **kw)


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
