import math

import numpy as np
import pytest

from tagtrack.world import (
    Area,
    ObjectState,
    TargetDynamics,
    UavKinematics,
    UavState,
    random_walk_displacements,
    target_step,
    uav_rollout,
    wrap_heading,
)

from oracles import rollout_positions_oracle

KIN = UavKinematics(v_max=5.0, accel=2.5, altitude=30.0)


def make_uav(x=0.0, y=0.0, heading=0.0, speed=0.0):
    return UavState(position=np.array([x, y, 30.0]), heading=heading, speed=speed)


def test_rollout_zero_displacement_is_identity():
    uav = make_uav(12.0, -3.0, heading=1.0)
    poses = uav_rollout(uav, (12.0, -3.0), KIN, 11, 1.0)
    assert len(poses) == 11
    for p in poses:
        assert np.array_equal(p.position, uav.position)
        assert p.speed == 0.0
        assert p.heading == uav.heading


def test_rollout_constant_velocity_with_instant_accel():
    kin = UavKinematics(v_max=5.0, accel=1e9, altitude=30.0)
    uav = make_uav()
    poses = uav_rollout(uav, (100.0, 0.0), kin, 11, 1.0)
    for k, p in enumerate(poses, start=1):
        assert abs(p.position[0] - 5.0 * k) < 1e-9
        assert p.position[1] == 0.0
        assert p.heading == 0.0


def test_rollout_matches_fine_step_oracle():
    kin = UavKinematics(v_max=5.0, accel=2.0, altitude=30.0)
    uav = make_uav()
    poses = uav_rollout(uav, (20.0, 0.0), kin, 11, 1.0)
    ref = rollout_positions_oracle((0.0, 0.0), 0.0, (20.0, 0.0),
                                   v_max=5.0, accel=2.0, dt=1e-4, horizon=11, t0=1.0)
    for p, r in zip(poses, ref):
        assert math.hypot(p.position[0] - r[0], p.position[1] - r[1]) < 0.05


def test_rollout_matches_oracle_random_cases():
    rng = np.random.default_rng(3)
    for _ in range(10):
        start = rng.uniform(-50, 50, size=2)
        wp = rng.uniform(-80, 80, size=2)
        v0 = float(rng.uniform(0, 5))
        uav = UavState(position=np.array([start[0], start[1], 30.0]), heading=0.0, speed=v0)
        poses = uav_rollout(uav, wp, KIN, 8, 1.0)
        ref = rollout_positions_oracle(start, v0, wp, v_max=KIN.v_max, accel=KIN.accel,
                                       dt=1e-4, horizon=8, t0=1.0)
        for p, r in zip(poses, ref):
            assert math.hypot(p.position[0] - r[0], p.position[1] - r[1]) < 0.05


def test_rollout_path_length_bound():
    rng = np.random.default_rng(11)
    horizon, t0 = 11, 1.0
    bound = KIN.v_max * horizon * t0 + 0.5 * KIN.v_max ** 2 / KIN.accel
    for _ in range(20):
        wp = rng.uniform(-400, 400, size=2)
        uav = make_uav(speed=float(rng.uniform(0, KIN.v_max)))
        poses = uav_rollout(uav, wp, KIN, horizon, t0)
        pts = np.vstack([uav.position[:2]] + [p.position[:2] for p in poses])
        length = float(np.sum(np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))))
        assert length <= bound + 1e-9


def test_rollout_never_overshoots_waypoint():
    uav = make_uav()
    wp = np.array([17.3, -4.1])
    poses = uav_rollout(uav, wp, KIN, 30, 1.0)
    d_start = math.hypot(*wp)
    for p in poses:
        # progress along the segment never exceeds the waypoint
        assert math.hypot(p.position[0] - wp[0], p.position[1] - wp[1]) <= d_start + 1e-9
    assert math.hypot(poses[-1].position[0] - wp[0], poses[-1].position[1] - wp[1]) < 1e-9


def test_rollout_deterministic():
    uav = make_uav(speed=1.25)
    a = uav_rollout(uav, (40.0, 25.0), KIN, 11, 1.0)
    b = uav_rollout(uav, (40.0, 25.0), KIN, 11, 1.0)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.position, pb.position)
        assert pa.speed == pb.speed and pa.heading == pb.heading


def test_rollout_heading_points_along_travel():
    uav = make_uav()
    poses = uav_rollout(uav, (10.0, 10.0), KIN, 5, 1.0)
    for p in poses:
        assert abs(p.heading - math.pi / 4) < 1e-12


def test_rollout_clamps_waypoint_to_area():
    area = Area(0.0, 100.0, 0.0, 100.0)
    uav = make_uav(50.0, 50.0)
    poses = uav_rollout(uav, (1000.0, 50.0), KIN, 30, 1.0, area=area)
    assert all(p.position[0] <= 100.0 + 1e-12 for p in poses)
    assert abs(poses[-1].position[0] - 100.0) < 1e-9


def test_target_step_zero_noise_identity():
    dyn = TargetDynamics(q_diag=np.zeros(3))
    state = ObjectState(np.array([10.0, 20.0, 1.0]), tag_id=1)
    out = target_step(state, dyn, np.random.default_rng(0))
    assert np.array_equal(out.position, state.position)


def test_target_step_deterministic():
    dyn = TargetDynamics(q_diag=np.array([1.0, 1.0, 0.0]))
    state = ObjectState(np.array([10.0, 20.0, 1.0]), tag_id=1)
    a = target_step(state, dyn, np.random.default_rng(42))
    b = target_step(state, dyn, np.random.default_rng(42))
    assert np.array_equal(a.position, b.position)


def test_target_step_statistics():
    dyn = TargetDynamics(q_diag=np.array([1.0, 1.0, 0.0]))
    rng = np.random.default_rng(7)
    disp = random_walk_displacements(100_000, dyn, rng)
    for axis in (0, 1):
        assert abs(float(np.mean(disp[:, axis]))) < 0.02
        assert abs(float(np.var(disp[:, axis])) - 1.0) < 0.03
    assert np.all(disp[:, 2] == 0.0)


def test_target_z_constant_over_many_steps():
    dyn = TargetDynamics(q_diag=np.array([4.0, 4.0, 0.0]))
    rng = np.random.default_rng(1)
    state = ObjectState(np.array([50.0, 50.0, 1.0]), tag_id=2)
    for _ in range(200):
        state = target_step(state, dyn, rng)
        assert state.position[2] == 1.0


def test_target_clamped_to_area():
    area = Area(0.0, 10.0, 0.0, 10.0)
    dyn = TargetDynamics(q_diag=np.array([25.0, 25.0, 0.0]))
    rng = np.random.default_rng(5)
    state = ObjectState(np.array([9.5, 9.5, 1.0]), tag_id=1)
    for _ in range(100):
        state = target_step(state, dyn, rng, area=area)
        assert area.contains(state.position[:2])


def test_heading_normalization():
    assert wrap_heading(2.0 * math.pi) == 0.0
    assert abs(wrap_heading(-math.pi / 2) - 1.5 * math.pi) < 1e-12
    uav = UavState(position=np.zeros(3), heading=7.0)
    assert 0.0 <= uav.heading < 2.0 * math.pi


def test_dynamics_validation():
    with pytest.raises(ValueError):
        TargetDynamics(q_diag=np.array([1.0, 1.0, 0.5]))  # z noise must be zero
    with pytest.raises(ValueError):
        TargetDynamics(q_diag=np.array([-1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        UavKinematics(v_max=0.0)
    with pytest.raises(ValueError):
        Area(1.0, 1.0, 0.0, 2.0)
