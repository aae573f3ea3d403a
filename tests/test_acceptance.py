"""Acceptance suite: one test per release criterion, printing a PASS/FAIL line each.

The comparative batches pin their master seed and scenario constants; the RF
constants used here are scenario configuration, not library defaults.
"""

import json
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from tagtrack import cli, harness, planner, rf, tracker, world

from oracles import (
    dyadic_weights,
    trajectory_void_brute,
    two_ray_power_oracle,
    weighted_sigma_mpmath,
)

MASTER_SEED = 20260811
MC_WORKERS = 2


def report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared batches

C1_TRUTHS = [(150.0, 150.0), (350.0, 160.0), (170.0, 360.0), (330.0, 340.0)]


def _void_soundness_config(seed, void_on):
    """Four stationary tags with converged (point-mass) beliefs; the mission runs a
    fixed duration with every tag kept active so each decision is avoidance-gated."""
    return harness.ScenarioConfig(
        area=world.Area(0.0, 500.0, 0.0, 500.0),
        num_tags=4, tag_positions=list(C1_TRUTHS),
        uav_start_xy=(30.0, 30.0),
        max_flight_time=300.0,
        void=planner.VoidConfig(r_min=50.0, b_min=0.8, horizon=11, action_count=12),
        tracker=tracker.TrackerConfig(num_particles=10_000, sigma_min=1e-9),
        rf=rf.PropagationConfig(noise_var=9.0),
        target_dynamics=world.TargetDynamics(q_diag=np.zeros(3)),
        filter_dynamics=world.TargetDynamics(q_diag=np.array([0.01, 0.01, 0.0])),
        belief_init_mode="at_truth", belief_init_sigma=0.5,
        planner=planner.PlannerKind(kind="lavapilot", void_enabled=void_on),
        seed=seed)


def _run_void_batch(void_on):
    """The 20 missions in seed order, run in MC_WORKERS processes."""
    configs = [_void_soundness_config(seed, void_on)
               for seed in harness.derive_trial_seeds(MASTER_SEED, 20)]
    with ProcessPoolExecutor(MC_WORKERS, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(harness.run_mission, configs))


@pytest.fixture(scope="module")
def void_on_batch():
    t0 = time.time()
    records = _run_void_batch(True)
    return records, time.time() - t0


@pytest.fixture(scope="module")
def void_off_batch():
    return _run_void_batch(False)


def _comparative_config(kind):
    return harness.ScenarioConfig(
        area=world.Area(0.0, 1000.0, 0.0, 1000.0),
        num_tags=10,  # mobile, random walk
        uav_start_xy=(500.0, 500.0),
        max_flight_time=1200.0,
        void=planner.VoidConfig(r_min=50.0, b_min=0.8, horizon=11, action_count=12),
        tracker=tracker.TrackerConfig(num_particles=4000, sigma_min=35.0),
        rf=rf.PropagationConfig(antenna_floor=0.25, noise_var=64.0),
        target_dynamics=world.TargetDynamics(q_diag=np.array([1.0, 1.0, 0.0])),
        filter_dynamics=world.TargetDynamics(q_diag=np.array([2.0, 2.0, 0.0])),
        planner=planner.PlannerKind(kind=kind, void_enabled=True),
        seed=MASTER_SEED)


@pytest.fixture(scope="module")
def comparative_batches():
    """20-trial batches on identical seeds for each planner (desk scale)."""
    out = {}
    for kind in ("lavapilot", "renyi", "shannon"):
        out[kind] = harness.run_montecarlo(_comparative_config(kind), trials=20,
                                           parallelism=MC_WORKERS)
    return out


# ---------------------------------------------------------------------------
# criteria


def test_c1_void_constraint_soundness(void_on_batch):
    records, elapsed = void_on_batch
    min_gated_vp = 1.0
    n_gated = 0
    min_truth_dist = math.inf
    for rec in records:
        for d in rec.decisions:
            if not d.fallback:
                n_gated += 1
                min_gated_vp = min(min_gated_vp, d.void_prob)
        for s in rec.steps:
            for tx, ty in C1_TRUTHS:
                min_truth_dist = min(min_truth_dist, math.hypot(s.uav_x - tx, s.uav_y - ty))
    ok = n_gated > 0 and min_gated_vp >= 0.8 and min_truth_dist >= 45.0 and elapsed < 300.0
    report("C1 void-constraint soundness", ok,
           f"{n_gated} gated decisions, min void prob {min_gated_vp:.4f} >= 0.8, "
           f"min pose-to-truth {min_truth_dist:.2f} m >= 45, runtime {elapsed:.0f}s < 300s")


def test_c2_planning_cost_separation():
    results = harness.bench_planners(12, particles=10_000, tags=10, actions=12,
                                     horizon=11, seed=0)
    lava = results["lavapilot"]["median_s"]
    renyi = results["renyi"]["median_s"]
    shannon = results["shannon"]["median_s"]
    calls = results["lavapilot"]["likelihood_calls"]
    ok = renyi >= 20.0 * lava and shannon >= 20.0 * lava and calls == 0
    # the paper reports the planning-cost reduction 1 - lavapilot / renyi (98.5%)
    report("C2 planning-cost separation", ok,
           f"median {lava * 1e3:.1f} ms vs renyi {renyi * 1e3:.0f} ms ({renyi / lava:.0f}x, "
           f"{100 * (1 - lava / renyi):.1f}% less) and shannon {shannon * 1e3:.0f} ms "
           f"({shannon / lava:.0f}x, {100 * (1 - lava / shannon):.1f}% less), "
           f"likelihood calls {calls}")


def test_c3_localization_parity(comparative_batches):
    rms = {k: mc.metrics["rms_m"]["mean"] for k, mc in comparative_batches.items()}
    lava = rms["lavapilot"]
    ok = all(abs(lava - rms[k]) <= 0.30 * rms[k] for k in ("renyi", "shannon"))
    report("C3 localization parity", ok,
           f"mean RMS lavapilot {lava:.1f} m vs renyi {rms['renyi']:.1f} m "
           f"and shannon {rms['shannon']:.1f} m (+-30% band)")


def test_c4_flight_time_ordering(comparative_batches):
    ft = {k: mc.metrics["flight_time_s"]["mean"] for k, mc in comparative_batches.items()}
    lava = ft["lavapilot"]
    fastest = min(ft["renyi"], ft["shannon"])
    ok = lava >= ft["renyi"] and lava >= ft["shannon"] and lava <= 1.6 * fastest
    report("C4 flight-time ordering", ok,
           f"mean flight lavapilot {lava:.0f} s >= renyi {ft['renyi']:.0f} s and "
           f"shannon {ft['shannon']:.0f} s, ratio {lava / fastest:.2f} <= 1.6")


def test_c5_oracle_equivalence_suite():
    # void probability functionals vs brute-force double loops, exact
    rng = np.random.default_rng(501)
    exact = 0
    for _ in range(1000):
        n_beliefs = int(rng.integers(1, 4))
        beliefs, arrays = [], []
        for j in range(n_beliefs):
            n = int(rng.integers(1, 17))
            pts = np.column_stack([rng.uniform(-100, 100, n), rng.uniform(-100, 100, n),
                                   np.full(n, 1.0)])
            w = dyadic_weights(rng, n) if n > 1 else np.array([1.0])
            beliefs.append(tracker.ObjectBelief(pts, w, 1.0, 2.0))
            arrays.append((pts, w))
        # drawn as the pose count, then x and y per pose: this order fixes the 1000 cases
        xy = np.array([[rng.uniform(-100, 100), rng.uniform(-100, 100)]
                       for _ in range(int(rng.integers(1, 12)))])
        r_min = float(rng.uniform(5, 80))
        got = planner.trajectory_void_probability(beliefs, xy, r_min)
        want = trajectory_void_brute(arrays, xy, r_min)
        if got == want:
            exact += 1
    void_ok = exact == 1000

    # two-ray model vs direct complex arithmetic, 1e-9 dB
    rng = np.random.default_rng(502)
    max_rf_err = 0.0
    for _ in range(1000):
        cfg = rf.PropagationConfig(
            p0_dbm=float(rng.uniform(-60, -20)),
            path_loss_n=float(rng.uniform(2.0, 4.0)),
            wavelength=float(rng.uniform(1.9, 2.1)),
            reflection_mode="constant" if rng.random() < 0.5 else "fresnel",
            reflection_gamma=float(rng.uniform(-0.95, 0.95)),
            rel_permittivity=float(rng.uniform(2.0, 30.0)))
        uav = world.UavState(xy=(rng.uniform(-200, 200), rng.uniform(-200, 200)),
                             altitude=rng.uniform(10, 80),
                             heading=float(rng.uniform(0, 2 * math.pi)))
        obj = np.array([rng.uniform(-500, 500), rng.uniform(-500, 500), rng.uniform(0.5, 2.0)])
        got = float(rf.received_power_array(obj[:2], uav, cfg, obj[2], cfg.wavelength))
        want = two_ray_power_oracle(obj, (*uav.xy, uav.altitude), uav.heading, cfg)
        max_rf_err = max(max_rf_err, abs(got - want))
    rf_ok = max_rf_err < 1e-9

    # belief spread vs high-precision weighted-variance oracle, 1e-10 relative
    rng = np.random.default_rng(503)
    max_rel = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 40))
        pts = rng.uniform(-500, 500, size=(n, 3))
        w = dyadic_weights(rng, n)
        want = weighted_sigma_mpmath(pts, w)
        got = tracker.uncertainty(tracker.ObjectBelief(pts, w, 0.0, 2.0))
        max_rel = max(max_rel, abs(got - want) / want)
    sigma_ok = max_rel < 1e-10

    # candidate-point geometry: circle membership and tangency
    rng = np.random.default_rng(504)
    max_circle = 0.0
    max_tan = 0.0
    for _ in range(500):
        est = rng.uniform(-200, 200, 2)
        r_min = float(rng.uniform(5, 80))
        ang = float(rng.uniform(0, 2 * math.pi))
        dist = r_min + float(rng.uniform(1.0, 300.0))
        uav = world.UavState(xy=(est[0] + dist * math.cos(ang), est[1] + dist * math.sin(ang)),
                             altitude=30.0)
        pts = planner.candidate_points_abc(uav, est, r_min)
        for _, p in pts:
            max_circle = max(max_circle, abs(math.hypot(*(p - est)) - r_min))
        for _, p in pts[1:]:
            u = p - uav.xy
            v = p - est
            cosang = abs(float(np.dot(u, v))) / (np.linalg.norm(u) * np.linalg.norm(v))
            max_tan = max(max_tan, cosang)
    geom_ok = max_circle < 1e-9 and max_tan < 1e-9

    ok = void_ok and rf_ok and sigma_ok and geom_ok
    report("C5 oracle equivalence suite", ok,
           f"void exact {exact}/1000, two-ray max err {max_rf_err:.2e} dB, "
           f"spread max rel err {max_rel:.2e}, geometry max {max_circle:.2e} m / "
           f"tangency {max_tan:.2e}")


def test_c6_heatmap_contrast(void_on_batch, void_off_batch):
    def visits_inside(records, r_min=50.0):
        inside = 0
        for rec in records:
            for s in rec.steps:
                if any(math.hypot(s.uav_x - tx, s.uav_y - ty) < r_min
                       for tx, ty in C1_TRUTHS):
                    inside += 1
        return inside

    on_records, _ = void_on_batch
    inside_on = visits_inside(on_records)
    inside_off = visits_inside(void_off_batch)
    ok = inside_on == 0 and inside_off >= 1
    report("C6 heat-map contrast", ok,
           f"visits inside r_min: {inside_on} with void (want 0), "
           f"{inside_off} without void (want >= 1)")


def test_c7_determinism(tmp_path):
    config = {
        "seed": 31,
        "area": {"x_min": 0.0, "x_max": 300.0, "y_min": 0.0, "y_max": 300.0},
        "num_tags": 2,
        "tag_positions": [[70.0, 220.0], [230.0, 90.0]],
        "uav_start": {"x": 150.0, "y": 150.0, "heading_rad": 0.0},
        "max_flight_time_s": 60.0,
        "tracker": {"num_particles": 500, "sigma_min_m": 35.0},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    def strip_csv(path):
        lines = path.read_text().strip().split("\n")
        idx = lines[0].split(",").index("planning_time_s")
        out = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            cells[idx] = ""
            out.append(",".join(cells))
        return "\n".join(out)

    def strip_json(path):
        payload = json.loads(path.read_text())
        payload["summary"].pop("planning_time_stats_s", None)
        if "metrics" in payload.get("summary", {}):
            payload["summary"]["metrics"].pop("planning_time_mean_s", None)
        return json.dumps(payload, sort_keys=True)

    sim_outputs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        sim_outputs.append((strip_csv(out / "mission.csv"), strip_json(out / "summary.json")))
    sim_ok = sim_outputs[0] == sim_outputs[1]

    mc_outputs = []
    for name, par in (("m1", "1"), ("m2", "2")):
        out = tmp_path / name
        assert cli.main(["montecarlo", "--config", str(cfg_path), "--trials", "4",
                         "--parallel", par, "--out", str(out)]) == 0
        mc_outputs.append((strip_json(out / "mc_summary.json"),
                           (out / "heatmap.csv").read_text()))
    mc_ok = mc_outputs[0] == mc_outputs[1]

    ok = sim_ok and mc_ok
    report("C7 determinism", ok,
           f"simulate byte-identical (timing stripped): {sim_ok}; "
           f"montecarlo parallel 1 vs 2 identical: {mc_ok}")


def test_c8_filter_sanity():
    t0 = time.time()
    area = world.Area(0.0, 200.0, 0.0, 200.0)
    rfc = rf.PropagationConfig()
    tcfg = tracker.TrackerConfig(num_particles=10_000)
    jitter = world.TargetDynamics(q_diag=np.array([0.25, 0.25, 0.0]))
    uav = world.UavState(xy=(70.0, 100.0), altitude=30.0, heading=0.0)
    truth = np.array([130.0, 100.0, 1.0])

    sigmas, errors = [], []
    for seed in range(50):
        streams = np.random.SeedSequence((MASTER_SEED, seed)).spawn(2)
        meas_rng, filt_rng = (np.random.default_rng(s) for s in streams)
        b = tracker.init_belief(area, 1.0, rfc.wavelength, tcfg, filt_rng)
        for k in range(200):
            z, = rf.sample_measurement(truth[None, :2], truth[2], uav, rfc, [meas_rng],
                                       [rfc.wavelength])
            b = tracker.predict(b, jitter, filt_rng.standard_normal((tcfg.num_particles, 3)), area)
            b = tracker.update(b, z, uav, rfc)
            b = tracker.resample_if_needed(b, tcfg, filt_rng)
        sigmas.append(tracker.uncertainty(b))
        errors.append(float(np.linalg.norm(tracker.estimate(b) - truth[:2])))
    elapsed = time.time() - t0
    mean_sigma = float(np.mean(sigmas))
    mean_err = float(np.mean(errors))
    ok = mean_sigma < 35.0 and mean_err < 35.0 and elapsed < 120.0
    report("C8 filter sanity", ok,
           f"mean final spread {mean_sigma:.1f} m < 35, mean final error {mean_err:.1f} m "
           f"< 35 over 50 seeds, runtime {elapsed:.0f}s < 120s")
