import math
from dataclasses import replace

import numpy as np
import pytest

from tagtrack import planner, rf, tracker
from tagtrack.world import Area, ObjectState, UavKinematics, UavState, uav_rollout

from oracles import dyadic_weights, trajectory_void_brute, void_probability_brute

KIN = UavKinematics()
RF = rf.PropagationConfig()


def make_uav(x, y, z=30.0, heading=0.0, speed=0.0):
    return UavState(position=np.array([x, y, z]), heading=heading, speed=speed)


def point_mass(x, y, tag_id=1, n=4):
    pts = np.tile(np.array([x, y]), (n, 1))
    return tracker.ObjectBelief(tag_id=tag_id, particles=pts, weights=np.full(n, 1.0 / n),
                                height=1.0)


def blob(rng, x, y, sigma, tag_id=1, n=200):
    pts = np.column_stack([rng.normal(x, sigma, n), rng.normal(y, sigma, n)])
    return tracker.ObjectBelief(tag_id=tag_id, particles=pts, weights=np.full(n, 1.0 / n),
                                height=1.0)


def test_in_void_trivials():
    r_min = 50.0
    pose = make_uav(49.0, 0.0)
    assert planner.in_void(ObjectState(np.array([0.0, 0.0, 1.0])), pose, r_min)
    # exactly r_min: strict inequality, not in the void
    pose = make_uav(50.0, 0.0)
    assert not planner.in_void(ObjectState(np.array([0.0, 0.0, 1.0])), pose, r_min)
    # directly under the observer
    pose = make_uav(0.0, 0.0)
    assert planner.in_void(ObjectState(np.array([0.0, 0.0, 1.0])), pose, 1e-6)


def test_void_probability_trivials():
    pose = make_uav(0.0, 0.0)
    far = point_mass(200.0, 0.0)
    assert planner.void_probability(far, pose, 50.0) == 1.0
    near = point_mass(10.0, 0.0)
    assert planner.void_probability(near, pose, 50.0) == 0.0
    # 0.3 of the mass inside -> 0.7
    pts = np.array([[10.0, 0.0], [200.0, 0.0]])
    b = tracker.ObjectBelief(tag_id=1, particles=pts, weights=np.array([0.3, 0.7]), height=1.0)
    assert planner.void_probability(b, pose, 50.0) == pytest.approx(0.7, abs=1e-15)


def test_void_probability_permutation_invariant():
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(-100, 100, 16), rng.uniform(-100, 100, 16)])
    w = dyadic_weights(rng, 16)
    pose = make_uav(5.0, -3.0)
    base = planner.void_probability(
        tracker.ObjectBelief(1, pts, w, 1.0), pose, 60.0)
    for _ in range(10):
        perm = rng.permutation(16)
        shuffled = planner.void_probability(
            tracker.ObjectBelief(1, pts[perm], w[perm], 1.0), pose, 60.0)
        assert shuffled == base


def test_trajectory_void_singleton_reduction():
    rng = np.random.default_rng(1)
    b = blob(rng, 80.0, 20.0, 30.0)
    pose = make_uav(10.0, 10.0)
    single = planner.void_probability(b, pose, 50.0)
    assert planner.trajectory_void_probability([b], [pose], 50.0) == single


def dyadic_blob(rng, x, y, sigma, tag_id=1, n=200):
    b = blob(rng, x, y, sigma, tag_id, n)
    # exact binary fractions: order-independent sums
    return replace(b, weights=dyadic_weights(rng, n))


def test_trajectory_void_monotone_under_extension():
    rng = np.random.default_rng(2)
    beliefs = [dyadic_blob(rng, 50.0, 50.0, 20.0, 1), dyadic_blob(rng, 150.0, 80.0, 25.0, 2)]
    poses = [make_uav(40.0 + 10 * i, 30.0) for i in range(6)]
    base = planner.trajectory_void_probability(beliefs, poses[:3], 50.0)
    more_poses = planner.trajectory_void_probability(beliefs, poses, 50.0)
    assert more_poses <= base
    more_beliefs = planner.trajectory_void_probability(
        beliefs + [dyadic_blob(rng, 60.0, 40.0, 15.0, 3)], poses[:3], 50.0)
    assert more_beliefs <= base


def test_trajectory_void_equals_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n_beliefs = int(rng.integers(1, 4))
        beliefs = []
        arrays = []
        for j in range(n_beliefs):
            n = int(rng.integers(1, 17))
            pts = np.column_stack([rng.uniform(-100, 100, n), rng.uniform(-100, 100, n)])
            w = dyadic_weights(rng, n) if n > 1 else np.array([1.0])
            beliefs.append(tracker.ObjectBelief(j + 1, pts, w, 1.0))
            arrays.append((pts, w))
        n_poses = int(rng.integers(1, 12))
        poses = [make_uav(float(rng.uniform(-100, 100)), float(rng.uniform(-100, 100)))
                 for _ in range(n_poses)]
        r_min = float(rng.uniform(5.0, 80.0))
        got = planner.trajectory_void_probability(beliefs, poses, r_min)
        want = trajectory_void_brute(arrays, [p.xy for p in poses], r_min)
        assert got == want  # exact: dyadic weights, 0/1 indicators


def test_candidate_points_reference_geometry():
    uav = make_uav(100.0, 0.0)
    pts = planner.candidate_points_abc(uav, (0.0, 0.0), 50.0)
    labels = [lab for lab, _ in pts]
    assert labels == ["A", "B", "C"]
    a, b, c = (p for _, p in pts)
    np.testing.assert_allclose(a, [50.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(b, [25.0, 43.30127018922193], atol=1e-9)
    np.testing.assert_allclose(c, [25.0, -43.30127018922193], atol=1e-9)


def test_candidate_points_circle_and_tangency():
    rng = np.random.default_rng(5)
    for _ in range(200):
        est = rng.uniform(-200, 200, 2)
        r_min = float(rng.uniform(5, 80))
        # observer strictly outside the circle
        ang = float(rng.uniform(0, 2 * math.pi))
        dist = r_min + float(rng.uniform(1.0, 300.0))
        uav = make_uav(est[0] + dist * math.cos(ang), est[1] + dist * math.sin(ang))
        pts = planner.candidate_points_abc(uav, est, r_min)
        assert len(pts) == 3
        for label, p in pts:
            assert abs(math.hypot(*(p - est)) - r_min) < 1e-9
        for label, p in pts[1:]:  # B and C: tangency orthogonality
            assert abs(float(np.dot(p - uav.xy, p - est))) < 1e-6


def test_candidate_points_boundary_cases():
    # exactly on the circle: only the radial point, equal to the observer position
    uav = make_uav(50.0, 0.0)
    pts = planner.candidate_points_abc(uav, (0.0, 0.0), 50.0)
    assert len(pts) == 1
    np.testing.assert_allclose(pts[0][1], [50.0, 0.0], atol=1e-12)
    # inside the circle: radially outward escape
    uav = make_uav(10.0, 0.0)
    pts = planner.candidate_points_abc(uav, (0.0, 0.0), 50.0)
    assert len(pts) == 1
    np.testing.assert_allclose(pts[0][1], [50.0, 0.0], atol=1e-12)
    # degenerate circle: A tends to the estimate
    uav = make_uav(100.0, 0.0)
    pts = planner.candidate_points_abc(uav, (0.0, 0.0), 1e-9)
    np.testing.assert_allclose(pts[0][1], [0.0, 0.0], atol=1e-6)
    # zero range: escape along the current heading
    uav = make_uav(0.0, 0.0, heading=math.pi / 2)
    pts = planner.candidate_points_abc(uav, (0.0, 0.0), 50.0)
    np.testing.assert_allclose(pts[0][1], [0.0, 50.0], atol=1e-9)


def test_lavapilot_all_localized_returns_none():
    b = replace(point_mass(0.0, 0.0), localized=True)
    cfg = planner.VoidConfig()
    assert planner.lavapilot_select([b], make_uav(100.0, 0.0), KIN, cfg) is None


def test_lavapilot_point_mass_selects_a():
    cfg = planner.VoidConfig(r_min=50.0, b_min=0.8, horizon=11, step_period=1.0)
    action = planner.lavapilot_select([point_mass(0.0, 0.0)], make_uav(100.0, 0.0), KIN, cfg)
    assert action.label == "A"
    assert not action.fallback
    np.testing.assert_allclose(action.waypoint, [50.0, 0.0], atol=1e-12)
    assert action.void_prob == 1.0
    assert len(action.rollout) == 11
    for pose in action.rollout:
        assert math.hypot(pose.position[0], pose.position[1]) >= 50.0


def test_lavapilot_blocked_falls_through_to_discrete():
    # a second object's belief sits on the LOS corridor; A, B, C all violate the
    # bound and the planner must pick the qualifying heading nearest the target
    cfg = planner.VoidConfig(r_min=50.0, b_min=0.8, horizon=11, step_period=1.0)
    target = point_mass(0.0, 0.0, tag_id=1)
    # localized objects still constrain the trajectory
    blocker = replace(point_mass(120.0, 0.0, tag_id=2), localized=True)
    uav = make_uav(200.0, 0.0)
    beliefs = [target, blocker]

    action = planner.lavapilot_select(beliefs, uav, KIN, cfg)
    assert action.label.startswith("discrete_")
    assert action.void_prob >= cfg.b_min

    # brute-force oracle over the 12 headings
    reach = KIN.v_max * cfg.horizon * cfg.step_period
    arrays = [(b.particles, b.weights) for b in beliefs]
    best = None
    for i in range(cfg.action_count):
        theta = 2.0 * math.pi * i / cfg.action_count
        wp = uav.xy + reach * np.array([math.cos(theta), math.sin(theta)])
        rollout = uav_rollout(uav, wp, KIN, cfg.horizon, cfg.step_period)
        vp = trajectory_void_brute(arrays, [p.xy for p in rollout], cfg.r_min)
        if vp < cfg.b_min:
            continue
        d = math.hypot(*wp)
        if best is None or (d, i) < best[:2]:
            best = (d, i, wp)
    assert best is not None
    assert action.label == f"discrete_{best[1]:02d}"
    np.testing.assert_allclose(action.waypoint, best[2], atol=1e-9)


def test_lavapilot_infeasible_start_returns_stay_fallback():
    # blocker belief already within r_min of the start pose: nothing can satisfy
    # the bound, so the planner reports the stay-in-place fallback
    cfg = planner.VoidConfig(r_min=50.0, b_min=0.8, horizon=11, step_period=1.0)
    beliefs = [point_mass(0.0, 0.0, 1), point_mass(75.0, 0.0, 2)]
    action = planner.lavapilot_select(beliefs, make_uav(100.0, 0.0), KIN, cfg)
    assert action.label == "stay"
    assert action.fallback
    assert action.void_prob < cfg.b_min
    assert not planner.verify_void_bound(action, cfg)


def test_lavapilot_escape_when_inside_void_disc():
    cfg = planner.VoidConfig(r_min=50.0, b_min=0.8, horizon=11, step_period=1.0)
    action = planner.lavapilot_select([point_mass(0.0, 0.0)], make_uav(30.0, 0.0), KIN, cfg)
    assert action.label == "escape"
    assert action.fallback
    np.testing.assert_allclose(action.waypoint, [50.0, 0.0], atol=1e-12)


def test_lavapilot_never_evaluates_likelihoods():
    rng = np.random.default_rng(8)
    beliefs = [blob(rng, 100.0, 400.0, 40.0, 1), blob(rng, 400.0, 100.0, 60.0, 2)]
    cfg = planner.VoidConfig()
    rf.reset_likelihood_calls()
    planner.lavapilot_select(beliefs, make_uav(250.0, 250.0), KIN, cfg, Area(0, 500, 0, 500))
    assert rf.likelihood_call_count() == 0


def test_info_gain_evaluates_likelihoods():
    rng = np.random.default_rng(8)
    beliefs = [blob(rng, 100.0, 400.0, 40.0, 1)]
    cfg = planner.VoidConfig()
    rf.reset_likelihood_calls()
    action = planner.info_gain_select(beliefs, make_uav(250.0, 250.0), KIN, cfg,
                                      planner.PlannerKind(kind="shannon"), [RF],
                                      Area(0, 500, 0, 500))
    assert action is not None
    assert rf.likelihood_call_count() > 0


def test_shannon_reward_hand_case():
    # prior (0.5, 0.5), pseudo-posterior (0.8, 0.2)
    w = np.array([0.5, 0.5])
    log_g = np.log(np.array([0.8, 0.2]))
    want = math.log(2.0) - (-0.8 * math.log(0.8) - 0.2 * math.log(0.2))
    got = planner.shannon_reward(w, log_g)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.19274, abs=1e-5)


def test_renyi_reward_hand_case():
    w = np.array([0.5, 0.5])
    log_g = np.log(np.array([0.8, 0.2]))
    want = -2.0 * math.log((0.5 * math.sqrt(0.8) + 0.5 * math.sqrt(0.2)) / math.sqrt(0.5))
    got = planner.renyi_reward(w, log_g, alpha=0.5)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.10536, abs=1e-5)


def test_info_gain_uniform_likelihood_breaks_ties_to_first_candidate():
    # identical particles give bitwise-equal pseudo-likelihoods: zero reward for
    # every candidate, so the lowest candidate index must win
    beliefs = [point_mass(400.0, 700.0)]
    cfg = planner.VoidConfig()
    for kind_name in ("shannon", "renyi"):
        action = planner.info_gain_select(beliefs, make_uav(400.0, 100.0), KIN, cfg,
                                          planner.PlannerKind(kind=kind_name), [RF])
        assert action.label == "discrete_00"


def test_info_gain_respects_void_gate():
    cfg = planner.VoidConfig(r_min=50.0, b_min=0.8)
    beliefs = [point_mass(180.0, 100.0, 1)]  # due east of the observer, 80 m away
    uav = make_uav(100.0, 100.0)
    action = planner.info_gain_select(beliefs, uav, KIN, cfg,
                                      planner.PlannerKind(kind="renyi"), [RF])
    assert action is not None and not action.fallback
    assert action.void_prob >= cfg.b_min
    # heading 0 points straight at the point mass and must have been discarded
    assert action.label != "discrete_00"


def test_info_gain_all_localized_returns_none():
    b = replace(point_mass(0.0, 0.0), localized=True)
    action = planner.info_gain_select([b], make_uav(100.0, 0.0), KIN, planner.VoidConfig(),
                                      planner.PlannerKind(kind="renyi"), [RF])
    assert action is None
    with pytest.raises(ValueError):  # one propagation config per belief
        planner.info_gain_select([b], make_uav(100.0, 0.0), KIN, planner.VoidConfig(),
                                 planner.PlannerKind(kind="renyi"), [RF, RF])


def test_info_gain_infeasible_start_returns_stay_fallback():
    # the belief lies 25 m from the start pose: every candidate, staying included,
    # violates the bound, so the planner reports the stay-in-place fallback
    cfg = planner.VoidConfig(r_min=50.0, b_min=0.8)
    action = planner.info_gain_select([point_mass(75.0, 0.0)], make_uav(100.0, 0.0), KIN, cfg,
                                      planner.PlannerKind(kind="shannon"), [RF])
    assert action.label == "stay"
    assert action.fallback
    assert action.void_prob < cfg.b_min


def test_info_gain_gated_stay_when_only_staying_passes():
    # a point mass 90 m out along each heading blocks every heading's trajectory,
    # while the start pose stays clear of all void discs
    cfg = planner.VoidConfig(r_min=50.0, b_min=0.8)
    beliefs = [point_mass(500.0 + 90.0 * math.cos(2.0 * math.pi * i / cfg.action_count),
                          500.0 + 90.0 * math.sin(2.0 * math.pi * i / cfg.action_count), i + 1)
               for i in range(cfg.action_count)]
    action = planner.info_gain_select(beliefs, make_uav(500.0, 500.0), KIN, cfg,
                                      planner.PlannerKind(kind="renyi"), [RF] * len(beliefs))
    assert action.label == "stay"
    assert not action.fallback
    assert action.void_prob == 1.0


def test_verify_void_bound():
    cfg = planner.VoidConfig(r_min=50.0, b_min=0.8)
    beliefs = [point_mass(0.0, 0.0)]
    good = planner.lavapilot_select(beliefs, make_uav(200.0, 0.0), KIN, cfg)
    assert planner.verify_void_bound(good, cfg)
    assert planner.verify_void_bound(good, cfg, beliefs)
    bad_rollout = uav_rollout(make_uav(60.0, 0.0), (0.0, 0.0), KIN, cfg.horizon, 1.0)
    bad = planner.CandidateAction(waypoint=np.zeros(2), rollout=bad_rollout,
                                  void_prob=planner.trajectory_void_probability(
                                      beliefs, bad_rollout, cfg.r_min),
                                  label="discrete_06")
    assert not planner.verify_void_bound(bad, cfg)
    assert not planner.verify_void_bound(bad, cfg, beliefs)


def test_argmin_target_invariant_under_common_sigma_scaling():
    rng = np.random.default_rng(12)
    beliefs = [blob(rng, 100.0, 100.0, 10.0 + 7.0 * j, tag_id=j + 1) for j in range(4)]
    order = np.argsort([tracker.uncertainty(b) for b in beliefs])
    scaled = []
    for b in beliefs:
        mean = b.weights @ b.particles
        pts = mean + 3.0 * (b.particles - mean)
        scaled.append(replace(b, particles=pts))
    order_scaled = np.argsort([tracker.uncertainty(b) for b in scaled])
    assert order[0] == order_scaled[0]


def test_planner_kind_validation():
    with pytest.raises(ValueError):
        planner.PlannerKind(kind="greedy")
    with pytest.raises(ValueError):
        planner.PlannerKind(kind="renyi", alpha=1.0)
    with pytest.raises(ValueError):
        planner.VoidConfig(r_min=0.0)
    with pytest.raises(ValueError):
        planner.VoidConfig(b_min=1.5)
    with pytest.raises(ValueError):
        planner.VoidConfig(action_count=2)
