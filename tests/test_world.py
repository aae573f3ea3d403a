import math
import pickle

import numpy as np
import pytest

from tagtrack.world import (
    Area,
    TargetDynamics,
    UavKinematics,
    UavState,
    random_walk,
    target_step,
    uav_rollout,
    wrap_heading,
)

from oracles import clamp, random_walk_displacements, rollout_positions_oracle

KIN = UavKinematics(v_max=5.0, accel=2.5, altitude=30.0)
WIDE = Area(-1e4, 1e4, -1e4, 1e4)  # contains every point these tests use


def make_uav(x=0.0, y=0.0, heading=0.0, speed=0.0):
    return UavState(xy=(x, y), altitude=30.0, heading=heading, speed=speed)


def test_rollout_zero_displacement_is_identity():
    uav = make_uav(12.0, -3.0, heading=1.0)
    poses = uav_rollout(uav, (12.0, -3.0), KIN, 11, 1.0)
    assert len(poses) == 11
    for p in poses:
        assert np.array_equal(p.xy, uav.xy) and p.altitude == uav.altitude
        assert p.speed == 0.0
        assert p.heading == uav.heading


def test_rollout_constant_velocity_with_instant_accel():
    kin = UavKinematics(v_max=5.0, accel=1e9, altitude=30.0)
    uav = make_uav()
    poses = uav_rollout(uav, (100.0, 0.0), kin, 11, 1.0)
    for k, p in enumerate(poses, start=1):
        assert abs(p.xy[0] - 5.0 * k) < 1e-9
        assert p.xy[1] == 0.0
        assert p.heading == 0.0


# step periods: the default, and two that are not a whole number of 1 ms Euler steps
STEP_PERIODS = (1.0, 1e-4, 1.5e-3)


def test_rollout_matches_fine_step_oracle():
    kin = UavKinematics(v_max=5.0, accel=2.0, altitude=30.0)
    uav = make_uav()
    for t0 in STEP_PERIODS:
        poses = uav_rollout(uav, (20.0, 0.0), kin, 11, t0)
        ref = rollout_positions_oracle((0.0, 0.0), 0.0, (20.0, 0.0),
                                       v_max=5.0, accel=2.0, dt=1e-4, horizon=11, t0=t0)
        tol = 0.01 * kin.v_max * t0  # 1% of one step's flight at full speed
        for p, r in zip(poses, ref):
            assert math.hypot(p.xy[0] - r[0], p.xy[1] - r[1]) < tol


def test_rollout_matches_oracle_random_cases():
    for t0 in STEP_PERIODS:
        rng = np.random.default_rng(3)
        for _ in range(10):
            start = rng.uniform(-50, 50, size=2)
            wp = rng.uniform(-80, 80, size=2)
            v0 = float(rng.uniform(0, 5))
            uav = UavState(xy=start, altitude=30.0, heading=0.0, speed=v0)
            poses = uav_rollout(uav, wp, KIN, 8, t0)
            ref = rollout_positions_oracle(start, v0, wp, v_max=KIN.v_max, accel=KIN.accel,
                                           dt=1e-4, horizon=8, t0=t0)
            tol = 0.01 * KIN.v_max * t0  # 1% of one step's flight at full speed
            for p, r in zip(poses, ref):
                assert math.hypot(p.xy[0] - r[0], p.xy[1] - r[1]) < tol


def test_rollout_path_length_bound():
    horizon = 11
    for t0 in STEP_PERIODS:
        rng = np.random.default_rng(11)
        bound = KIN.v_max * horizon * t0 + 0.5 * KIN.v_max ** 2 / KIN.accel
        for _ in range(20):
            wp = rng.uniform(-400, 400, size=2)
            uav = make_uav(speed=float(rng.uniform(0, KIN.v_max)))
            poses = uav_rollout(uav, wp, KIN, horizon, t0)
            pts = np.vstack([uav.xy] + [p.xy for p in poses])
            length = float(np.sum(np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))))
            assert length <= bound + 1e-9
            # the speed never exceeds v_max, so the path is no longer than v_max * time
            assert length <= KIN.v_max * horizon * t0 * (1.0 + 1e-12)


def test_rollout_never_overshoots_waypoint():
    uav = make_uav()
    wp = np.array([17.3, -4.1])
    poses = uav_rollout(uav, wp, KIN, 30, 1.0)
    d_start = math.hypot(*wp)
    for p in poses:
        # progress along the segment never exceeds the waypoint
        assert math.hypot(p.xy[0] - wp[0], p.xy[1] - wp[1]) <= d_start + 1e-9
    assert math.hypot(poses[-1].xy[0] - wp[0], poses[-1].xy[1] - wp[1]) < 1e-9


def test_rollout_deterministic():
    uav = make_uav(speed=1.25)
    a = uav_rollout(uav, (40.0, 25.0), KIN, 11, 1.0)
    b = uav_rollout(uav, (40.0, 25.0), KIN, 11, 1.0)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.xy, pb.xy) and pa.altitude == pb.altitude
        assert pa.speed == pb.speed and pa.heading == pb.heading


def test_rollout_takes_an_xy_waypoint():
    # a waypoint is (x, y); a 3-component point is an error, not silently cut
    with pytest.raises(ValueError):
        uav_rollout(make_uav(), (10.0, 10.0, 30.0), KIN, 5, 1.0)


def test_rollout_heading_points_along_travel():
    uav = make_uav()
    poses = uav_rollout(uav, (10.0, 10.0), KIN, 5, 1.0)
    for p in poses:
        assert abs(p.heading - math.pi / 4) < 1e-12


def test_rollout_poses_read_its_arrays():
    rollout = uav_rollout(make_uav(3.0, -2.0, speed=1.25), (40.0, 25.0), KIN, 11, 1.0)
    assert rollout.xy.shape == (11, 2) and rollout.speed.shape == (11,)
    assert rollout.altitude == 30.0
    poses = list(rollout)
    assert len(poses) == len(rollout) == 11
    for i, pose in enumerate(poses):  # each field equals the rollout's row, bit for bit
        assert pose.xy.tobytes() == rollout.xy[i].tobytes()
        got = (pose.altitude, pose.heading, pose.speed)
        want = (rollout.altitude, rollout.heading, rollout.speed[i])
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert all(type(v) is float for v in got)
    terminal = rollout[-1]
    assert terminal.xy.tobytes() == poses[-1].xy.tobytes()
    assert terminal.speed == poses[-1].speed


def test_rollout_shares_no_mutable_state():
    # the speed profile comes from a cache: a caller's write must not reach the next call
    uav = make_uav(speed=0.5)
    first = uav_rollout(uav, (60.0, -10.0), KIN, 11, 1.0)
    want_xy, want_speed = first.xy.copy(), first.speed.copy()
    for arr in (first.xy, first.speed):
        try:
            arr[...] = -1.0
        except ValueError:  # a read-only array refuses the write
            pass
    second = uav_rollout(uav, (60.0, -10.0), KIN, 11, 1.0)
    assert np.array_equal(second.xy, want_xy) and np.array_equal(second.speed, want_speed)


def test_target_step_zero_noise_identity():
    dyn = TargetDynamics(q_diag=np.zeros(3))
    xy = np.array([[10.0, 20.0], [-5.0, 7.5]])
    out = target_step(xy, dyn, [np.random.default_rng(0), np.random.default_rng(1)], WIDE)
    assert np.array_equal(out, xy)
    assert out is not xy


def test_target_step_deterministic():
    dyn = TargetDynamics(q_diag=np.array([1.0, 1.0, 0.0]))
    xy = np.array([[10.0, 20.0]])
    a = target_step(xy, dyn, [np.random.default_rng(42)], WIDE)
    b = target_step(xy, dyn, [np.random.default_rng(42)], WIDE)
    assert np.array_equal(a, b)


def test_target_step_draws_each_target_from_its_own_generator():
    # all targets in one call equal one call per target: target j draws its
    # (1, len(q_diag)) row from rngs[j], in target order, and moves by its x and y entries
    dyn = TargetDynamics(q_diag=np.array([4.0, 9.0, 0.0]))
    area = Area(0.0, 100.0, 0.0, 100.0)
    xy = np.array([[10.0, 20.0], [99.0, 1.0], [50.0, 50.0]])
    batched = [np.random.default_rng(7 + j) for j in range(3)]
    single = [np.random.default_rng(7 + j) for j in range(3)]
    out = target_step(xy, dyn, batched, area)
    assert out.shape == (3, 2)
    for j in range(3):
        want = clamp(xy[j] + random_walk_displacements(1, dyn, single[j])[0, :2], area)
        assert np.array_equal(out[j], want)
        assert batched[j].bit_generator.state == single[j].bit_generator.state


def test_random_walk_matches_the_displacement_oracle_at_and_beyond_the_edges():
    # the one transition of the true tags and the particles: the oracle scales the whole
    # drawn block at once, random_walk one column at a time, and both clamp to the area
    area = Area(0.0, 100.0, -50.0, 50.0)
    rng = np.random.default_rng(12)
    xy = np.column_stack([rng.uniform(-20.0, 120.0, 400), rng.uniform(-70.0, 70.0, 400)])
    xy[:40, 0] = 0.0  # on the edges
    xy[40:80, 1] = 50.0
    xy[80:90, 0] = -0.0  # a signed zero on the x_min = 0.0 edge
    xy[90:100] = (130.0, -90.0)  # beyond two edges at once
    before = xy.copy()
    for q_diag in ((4.0, 0.25, 0.0), (9.0, 0.0, 0.0), (0.0, 0.0, 0.0)):
        dyn = TargetDynamics(q_diag=q_diag)
        noise = np.random.default_rng(3).normal(size=(400, len(q_diag)))
        drawn = noise.copy()
        out = random_walk(xy, dyn, noise, area)
        step = random_walk_displacements(400, dyn, np.random.default_rng(3))
        want = clamp(xy + step[:, :2], area)
        assert out.shape == (400, 2) and out.flags.c_contiguous
        assert all(area.contains(p) for p in out)
        # bit for bit, signs included: with a zero x variance, -0.0 plus a negative
        # normal's -0.0 stays on the x_min = 0.0 edge as -0.0
        assert out.tobytes() == want.tobytes()
        if q_diag[0] == 0.0:
            assert np.signbit(out[80:90, 0]).any()
        assert np.array_equal(xy, before) and np.array_equal(noise, drawn)  # inputs unwritten


def test_area_clamp_clips_each_axis_and_keeps_a_zero_on_a_zero_bound():
    # one rule for every position the simulator keeps in the area: a point, a stack of
    # points and a column view clip like the IEEE-comparison reference, sign of zero included
    area = Area(0.0, 100.0, -50.0, -0.0)
    point = np.array([-0.0, 0.0])  # -0.0 on the 0.0 x_min, +0.0 on the -0.0 y_max
    pts = np.array([[-0.0, 0.0], [0.0, -0.0], [-3.0, 7.0], [150.0, -80.0], [42.0, -10.0]])
    before = pts.tobytes()
    for xy in (point, tuple(point), pts, np.asfortranarray(pts), pts[::2]):
        out = area.clamp(xy)
        assert out.shape == np.shape(xy) and out.tobytes() == clamp(xy, area).tobytes()
    assert np.signbit(area.clamp(point)).tolist() == [True, False]  # both zeros kept
    assert np.array_equal(area.clamp(pts[2:4]), [[0.0, -0.0], [100.0, -50.0]])
    assert pts.tobytes() == before  # the input is unwritten
    with pytest.raises(ValueError):
        area.clamp(np.zeros((4, 3)))  # no third axis is left unwritten


@pytest.mark.parametrize("shape", [(9, 3), (10, 2), (10, 4), (30,)],
                         ids=["short", "two_columns", "four_columns", "flat"])
def test_random_walk_rejects_a_block_that_is_not_one_row_per_point(shape):
    with pytest.raises(ValueError, match=r"noise block has shape .* expected \(10, 3\)"):
        random_walk(np.zeros((10, 2)), TargetDynamics(), np.zeros(shape), WIDE)


def test_target_step_statistics():
    dyn = TargetDynamics(q_diag=np.array([1.0, 1.0, 0.0]))
    rng = np.random.default_rng(7)
    disp = random_walk_displacements(100_000, dyn, rng)
    for axis in (0, 1):
        assert abs(float(np.mean(disp[:, axis]))) < 0.02
        assert abs(float(np.var(disp[:, axis])) - 1.0) < 0.03
    assert np.all(disp[:, 2] == 0.0)


def test_target_z_constant_over_many_steps():
    # targets are held as horizontal positions only: a step keeps that shape, and the
    # z column of every draw, which the walk drops, is zero
    dyn = TargetDynamics(q_diag=np.array([4.0, 4.0, 0.0]))
    rng = np.random.default_rng(1)
    xy = np.array([[50.0, 50.0]])
    for _ in range(200):
        xy = target_step(xy, dyn, [rng], WIDE)
        assert xy.shape == (1, 2)
    assert np.all(random_walk_displacements(200, dyn, rng)[:, 2] == 0.0)


def test_target_clamped_to_area():
    area = Area(0.0, 10.0, 0.0, 10.0)
    dyn = TargetDynamics(q_diag=np.array([25.0, 25.0, 0.0]))
    rng = np.random.default_rng(5)
    xy = np.array([[9.5, 9.5]])
    for _ in range(100):
        xy = target_step(xy, dyn, [rng], area=area)
        assert area.contains(xy[0])


def test_pose_is_an_immutable_value():
    xy = np.array([3.0, -2.0])
    uav = UavState(xy=xy, altitude=30.0, heading=1.0, speed=2.0)
    for name in ("xy", "altitude", "heading", "speed"):
        with pytest.raises(AttributeError):
            setattr(uav, name, getattr(uav, name))
    with pytest.raises(ValueError):
        uav.xy[0] = 0.0
    xy[0] = 99.0  # the caller's array is not the pose's
    assert uav.xy.tolist() == [3.0, -2.0] and not np.shares_memory(uav.xy, xy)
    assert (uav.altitude, uav.heading, uav.speed) == (30.0, 1.0, 2.0)


def test_heading_normalization():
    assert wrap_heading(2.0 * math.pi) == 0.0
    assert abs(wrap_heading(-math.pi / 2) - 1.5 * math.pi) < 1e-12
    uav = UavState(xy=(0.0, 0.0), altitude=30.0, heading=7.0)
    assert 0.0 <= uav.heading < 2.0 * math.pi


def test_dynamics_keep_their_own_read_only_variances():
    q = np.array([1.0, 1.0, 0.0])
    dyn = TargetDynamics(q_diag=q)
    q[0] = -4.0  # the caller's array: no check would see this reach the dynamics
    assert dyn.q_diag == (1.0, 1.0, 0.0)
    assert type(dyn.q_diag) is tuple and all(type(v) is float for v in dyn.q_diag)
    with pytest.raises(TypeError):
        dyn.q_diag[0] = -4.0
    with pytest.raises(AttributeError):
        dyn.q_diag = q


def test_dynamics_compare_and_pickle_as_values():
    dyn = TargetDynamics(q_diag=np.array([4.0, 9.0, 0.0]))
    assert dyn == TargetDynamics(q_diag=[4.0, 9.0, 0.0]) != TargetDynamics()
    assert hash(dyn) == hash(TargetDynamics(q_diag=(4, 9, 0)))
    back = pickle.loads(pickle.dumps(dyn))  # how run_montecarlo's workers receive it
    assert back == dyn and type(back.q_diag) is tuple
    with pytest.raises(TypeError):
        back.q_diag[0] = -4.0


def test_dynamics_validation():
    with pytest.raises(ValueError):
        TargetDynamics(q_diag=np.array([1.0, 1.0, 0.5]))  # z noise must be zero
    with pytest.raises(ValueError):
        TargetDynamics(q_diag=np.array([-1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        UavKinematics(v_max=0.0)
    with pytest.raises(ValueError):
        Area(1.0, 1.0, 0.0, 2.0)
    for bounds in ((0.0, math.inf, 0.0, 300.0), (-math.inf, 0.0, 0.0, 300.0),
                   (0.0, 300.0, 0.0, math.inf)):
        with pytest.raises(ValueError):
            Area(*bounds)
    for bad in ({"speed": math.nan}, {"speed": math.inf},
                {"heading": math.inf}, {"heading": math.nan}, {"altitude": math.nan},
                {"xy": (math.nan, 0.0)}, {"xy": (0.0, -math.inf)}):
        with pytest.raises(ValueError):
            UavState(**{"xy": (0.0, 0.0), "altitude": 30.0, **bad})
