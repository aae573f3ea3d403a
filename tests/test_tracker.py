import copy
import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from tagtrack import planner, rf, tracker
from tagtrack.world import Area, TargetDynamics, UavKinematics, UavState

from oracles import (clamp, dyadic_weights, posterior_weights_mpmath, random_walk_displacements,
                     weighted_sigma_mpmath)


WIDE = Area(-1e4, 1e4, -1e4, 1e4)  # contains every point these tests use


def make_uav(x=0.0, y=0.0, z=30.0, heading=0.0):
    return UavState(xy=(x, y), altitude=z, heading=heading)


def belief_from(particles, weights, height=1.0):
    return tracker.ObjectBelief(particles=np.asarray(particles, dtype=float),
                                weights=np.asarray(weights, dtype=float), height=height,
                                wavelength=2.0)


def test_init_belief_uniform():
    area = Area(0.0, 10.0, 0.0, 10.0)
    cfg = tracker.TrackerConfig(num_particles=4)
    b = tracker.init_belief(area, 1.0, 2.0, cfg, np.random.default_rng(0))
    assert b.particles.shape == (4, 2) and b.particles.flags.c_contiguous
    assert np.all(b.weights == 0.25)
    assert b.height == 1.0
    for p in b.particles:
        assert area.contains(p[:2])


def test_init_belief_mean_near_center():
    area = Area(0.0, 1000.0, 0.0, 1000.0)
    cfg = tracker.TrackerConfig(num_particles=10_000)
    b = tracker.init_belief(area, 1.0, 2.0, cfg, np.random.default_rng(1))
    est = tracker.estimate(b)
    assert abs(est[0] - 500.0) < 20.0
    assert abs(est[1] - 500.0) < 20.0


def test_init_belief_deterministic():
    area = Area(0.0, 100.0, 0.0, 100.0)
    cfg = tracker.TrackerConfig(num_particles=256)
    a = tracker.init_belief(area, 1.0, 2.0, cfg, np.random.default_rng(5))
    b = tracker.init_belief(area, 1.0, 2.0, cfg, np.random.default_rng(5))
    assert np.array_equal(a.particles, b.particles)


def test_init_belief_at_draws_a_clamped_blob_around_xy():
    area = Area(0.0, 100.0, 0.0, 100.0)
    cfg = tracker.TrackerConfig(num_particles=64)
    b = tracker.init_belief_at((98.0, 40.0), 1.5, 3.0, 2.0, cfg, np.random.default_rng(9), area)
    noise = np.random.default_rng(9).normal(scale=3.0, size=(64, 2))
    assert np.array_equal(b.particles, clamp(np.array([98.0, 40.0]) + noise, area))
    assert (b.particles[:, 0] == 100.0).any()  # the clamp was needed
    assert (b.height, b.wavelength) == (1.5, 2.0)
    assert np.array_equal(b.weights, np.full(64, 1.0 / 64))


def test_predict_zero_noise_identity():
    b = belief_from([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5])
    dyn = TargetDynamics(q_diag=np.zeros(3))
    out = tracker.predict(b, dyn, np.random.default_rng(0).standard_normal((2, 3)), WIDE)
    assert np.array_equal(out.particles, b.particles)
    assert np.array_equal(out.weights, b.weights)


def test_predict_keeps_weights():
    rng = np.random.default_rng(2)
    b = belief_from(rng.uniform(0, 100, size=(64, 2)), dyadic_weights(rng, 64))
    dyn = TargetDynamics(q_diag=np.array([1.0, 1.0, 0.0]))
    out = tracker.predict(b, dyn, rng.standard_normal((64, 3)), WIDE)
    assert np.array_equal(out.weights, b.weights)
    assert not np.array_equal(out.particles, b.particles)


def test_predict_spread_grows_in_expectation():
    dyn = TargetDynamics(q_diag=np.array([1.0, 1.0, 0.0]))
    base = belief_from(np.random.default_rng(0).normal(50.0, 5.0, size=(200, 2)),
                       np.full(200, 1.0 / 200))
    grew = 0
    for seed in range(100):
        out = tracker.predict(base, dyn, np.random.default_rng(seed).standard_normal((200, 3)),
                              WIDE)
        if tracker.uncertainty(out) > tracker.uncertainty(base):
            grew += 1
    assert grew > 80  # adding independent jitter almost always widens the spread


def test_predict_matches_clamped_random_walk_bit_for_bit():
    rng = np.random.default_rng(31)
    n = 500
    pts = np.column_stack([rng.uniform(0, 100, n), rng.uniform(0, 50, n)])
    pts[:20, 0] = 0.0  # on the edges, so the clamp bites
    pts[20:40, 1] = 50.0
    b = belief_from(pts, np.full(n, 1.0 / n), height=1.5)
    dyn = TargetDynamics(q_diag=np.array([4.0, 0.25, 0.0]))
    area = Area(0.0, 100.0, 0.0, 50.0)
    rng_a = np.random.default_rng(8)
    rng_b = copy.deepcopy(rng_a)
    out = tracker.predict(b, dyn, rng_a.standard_normal((n, 3)), area)
    want = clamp(pts + random_walk_displacements(n, dyn, rng_b)[:, :2], area)
    assert out.particles.shape == (n, 2) and out.particles.flags.c_contiguous
    assert out.particles.tobytes() == want.tobytes()
    assert out.height == 1.5
    assert rng_a.bit_generator.state == rng_b.bit_generator.state  # same draws consumed
    assert np.array_equal(b.particles, pts)  # the input belief is untouched


@pytest.mark.parametrize("shape", [(499, 3), (500, 2), (1500,)],
                         ids=["short", "two_columns", "flat"])
def test_predict_rejects_wrong_noise_shape(shape):
    b = belief_from(np.zeros((500, 2)), np.full(500, 1.0 / 500))
    with pytest.raises(ValueError, match="noise block"):
        tracker.predict(b, TargetDynamics(), np.zeros(shape), WIDE)


def fresh_summary(b):
    """Weighted mean and two-pass spread, computed from scratch."""
    mean = b.weights @ b.particles
    dev = b.particles - mean
    var = b.weights @ (dev * dev)
    return mean, float(np.sqrt(np.max(var)))


def test_summaries_follow_every_belief_change():
    rng = np.random.default_rng(12)
    area = Area(0.0, 500.0, 0.0, 500.0)
    cfg = tracker.TrackerConfig(num_particles=400, sigma_min=60.0)
    dyn = TargetDynamics()
    uav = make_uav(250.0, 250.0)
    rf_cfg = rf.PropagationConfig()

    def check(b):
        mean, sigma = fresh_summary(b)
        for _ in range(2):  # the second round reads the kept values
            np.testing.assert_allclose(tracker.estimate(b), mean, rtol=1e-12)
            assert tracker.estimate(b).shape == (2,) and b.height == 1.0
            assert tracker.uncertainty(b) == pytest.approx(sigma, rel=1e-12)

    b = tracker.init_belief(area, 1.0, 2.0, cfg, rng)
    check(b)
    resampled = 0
    for _ in range(40):
        b = tracker.predict(b, dyn, rng.standard_normal((cfg.num_particles, 3)), area)
        check(b)
        b = tracker.update(b, float(rng.uniform(-110.0, -70.0)), uav, rf_cfg)
        check(b)
        out = tracker.resample_if_needed(b, cfg, rng)
        resampled += out is not b
        b = out
        check(b)
        b = tracker.mark_localized(b, cfg)
        check(b)
    assert resampled > 0 and b.localized

    tracker.estimate(b)[:] = 0.0  # a caller's copy, not the kept mean
    check(b)
    b = replace(b, weights=dyadic_weights(rng, 400))
    check(b)
    b = replace(b, particles=b.particles + np.array([10.0, -20.0]))
    check(b)
    b = replace(b, particles=b.particles[::-1].copy())
    check(b)


def test_integer_particles_summarize_like_their_float_copy():
    """A belief built from integer positions gives the same estimate, spread and
    decision, bit for bit, as the same positions in float64."""
    pts = np.random.default_rng(3).integers(200, 400, size=(50, 2))
    weights = np.random.default_rng(4).dirichlet(np.ones(50))
    as_int = tracker.ObjectBelief(particles=pts, weights=weights, height=1.0, wavelength=2.0)
    as_float = replace(as_int, particles=pts.astype(float))
    assert np.array_equal(tracker.estimate(as_int), tracker.estimate(as_float))
    assert tracker.uncertainty(as_int) == tracker.uncertainty(as_float) > 0.0
    uav, kin, cfg = make_uav(0.0, 0.0), UavKinematics(), planner.VoidConfig()
    a = planner.lavapilot_select([as_int], uav, kin, cfg, WIDE)
    b = planner.lavapilot_select([as_float], uav, kin, cfg, WIDE)
    assert (a.label, a.void_prob, a.fallback) == (b.label, b.void_prob, b.fallback)
    assert np.array_equal(a.waypoint, b.waypoint)


@pytest.mark.parametrize("name", [f.name for f in fields(tracker.ObjectBelief)])
def test_belief_is_frozen(name):
    b = belief_from(np.zeros((4, 2)), np.full(4, 0.25))
    with pytest.raises(FrozenInstanceError):
        setattr(b, name, getattr(b, name))


def test_update_constant_likelihood_keeps_weights():
    # identical particles give bitwise-identical likelihoods
    pts = np.tile(np.array([100.0, 0.0]), (4, 1))
    b = belief_from(pts, [0.25, 0.25, 0.25, 0.25])
    cfg = rf.PropagationConfig()
    out = tracker.update(b, -80.0, make_uav(), cfg)
    assert np.array_equal(out.weights, b.weights)
    assert not out.diverged


def test_update_three_to_one_ratio():
    cfg = rf.PropagationConfig(noise_var=25.0, reflection_gamma=0.0,
                               antenna_table=((0.0, 0.0),), path_loss_n=2.0)
    uav = make_uav(z=1.0)
    p1 = np.array([10.0, 0.0, 1.0])
    p2 = np.array([20.0, 0.0, 1.0])
    h1, h2 = rf.received_power_array(np.array([p1[:2], p2[:2]]), uav, cfg, 1.0, cfg.wavelength)
    # choose z so that g1/g2 = 3: (z-h2)^2 - (z-h1)^2 = 2*Q*ln 3
    z = (2.0 * 25.0 * math.log(3.0) + h1 * h1 - h2 * h2) / (2.0 * (h1 - h2))
    b = belief_from([p1[:2], p2[:2]], [0.5, 0.5], height=1.0)
    out = tracker.update(b, z, uav, cfg)
    assert out.weights[0] == pytest.approx(0.75, abs=1e-12)
    assert out.weights[1] == pytest.approx(0.25, abs=1e-12)


def test_update_matches_high_precision_oracle():
    rng = np.random.default_rng(3)
    cfg = rf.PropagationConfig()
    uav = make_uav(heading=0.7)
    for _ in range(20):
        pts = np.column_stack([rng.uniform(-200, 200, 5), rng.uniform(-200, 200, 5)])
        w = dyadic_weights(rng, 5)
        z = float(rng.uniform(-120, -60))
        ll = rf.log_likelihood_array(z, pts, uav, cfg, 1.0)
        want = posterior_weights_mpmath(w, ll)
        out = tracker.update(belief_from(pts, w), z, uav, cfg)
        np.testing.assert_allclose(out.weights, want, rtol=1e-12)


def test_update_underflow_resets_uniform_and_flags():
    uav = make_uav(10.0, 10.0, 30.0)
    pts = np.tile(uav.xy, (8, 1))  # all particles coincide with the observer
    b = belief_from(pts, np.full(8, 1.0 / 8), height=uav.altitude)
    out = tracker.update(b, -80.0, uav, rf.PropagationConfig())
    assert out.diverged
    assert np.all(out.weights == 1.0 / 8)


def test_resample_uniform_weights_identity():
    rng = np.random.default_rng(0)
    b = belief_from(rng.uniform(0, 10, size=(16, 2)), np.full(16, 1.0 / 16))
    out = tracker.resample_if_needed(b, tracker.TrackerConfig(num_particles=16), rng)
    assert out is b  # ESS == N, no resampling


def test_resample_degenerate_weight():
    rng = np.random.default_rng(0)
    pts = np.array([[1.0, 0], [2.0, 0], [3.0, 0], [4.0, 0]])
    b = belief_from(pts, [1.0, 0.0, 0.0, 0.0])
    cfg = tracker.TrackerConfig(num_particles=4, resample_threshold=0.5)
    out = tracker.resample_if_needed(b, cfg, rng)
    assert np.all(out.particles == pts[0])
    assert np.all(out.weights == 0.25)


def test_systematic_resample_copy_counts():
    w = np.array([0.5, 0.3, 0.2])
    rng = np.random.default_rng(11)
    reps = 100_000
    counts = np.zeros(3)
    for _ in range(reps):
        idx = tracker.systematic_resample_indices(w, rng)
        counts += np.bincount(idx, minlength=3)
    fractions = counts / (3 * reps)
    np.testing.assert_allclose(fractions, w, atol=0.01)


def test_estimate_trivials():
    b = belief_from([[5.0, 6.0]], [1.0])
    est = tracker.estimate(b)
    assert est.shape == (2,)
    assert np.array_equal(est, np.array([5.0, 6.0])) and b.height == 1.0

    b = belief_from([[0.0, 0.0], [2.0, 0.0]], [0.5, 0.5], height=0.0)
    assert np.array_equal(tracker.estimate(b), np.array([1.0, 0.0])) and b.height == 0.0

    b = belief_from([[0.0, 0], [4.0, 0]], [0.25, 0.75])
    assert tracker.estimate(b)[0] == pytest.approx(3.0, abs=1e-15)


def test_uncertainty_trivials():
    pts = np.tile(np.array([7.0, 8.0]), (4, 1))
    assert tracker.uncertainty(belief_from(pts, np.full(4, 0.25))) == 0.0
    pts5 = np.tile(np.array([7.0, 8.0]), (5, 1))
    assert tracker.uncertainty(belief_from(pts5, np.full(5, 0.2))) < 1e-12

    b = belief_from([[0.0, 5.0], [2.0, 5.0]], [0.5, 0.5])
    assert tracker.uncertainty(b) == pytest.approx(1.0, abs=1e-15)

    b = belief_from([[0.0, 0], [4.0, 0]], [0.25, 0.75])
    assert tracker.uncertainty(b) == pytest.approx(math.sqrt(3.0), abs=1e-9)


def test_uncertainty_matches_mpmath_oracle():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        pts = rng.uniform(-500, 500, size=(n, 3))
        w = dyadic_weights(rng, n)
        want = weighted_sigma_mpmath(pts, w)
        got = tracker.uncertainty(belief_from(pts, w))
        assert got == pytest.approx(want, rel=1e-10)


def test_uncertainty_equals_max_axis_std_uniform():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 100, size=(500, 3))
    b = belief_from(pts, np.full(500, 1.0 / 500))
    want = max(float(np.std(pts[:, a])) for a in range(3))
    assert tracker.uncertainty(b) == pytest.approx(want, rel=1e-12)


def test_weights_normalized_after_update_and_resample():
    rng = np.random.default_rng(21)
    cfg = rf.PropagationConfig()
    tcfg = tracker.TrackerConfig(num_particles=300)
    area = Area(0.0, 500.0, 0.0, 500.0)
    b = tracker.init_belief(area, 1.0, 2.0, tcfg, rng)
    uav = make_uav(250.0, 250.0)
    for _ in range(30):
        z = float(rng.uniform(-130, -60))
        b = tracker.update(b, z, uav, cfg)
        assert np.all(b.weights >= 0.0)
        assert abs(float(np.sum(b.weights)) - 1.0) <= 1e-9
        b = tracker.resample_if_needed(b, tcfg, rng)
        assert abs(float(np.sum(b.weights)) - 1.0) <= 1e-9


def test_mark_localized_is_monotone():
    cfg = tracker.TrackerConfig(num_particles=2, sigma_min=35.0)
    tight = belief_from([[0.0, 0], [1.0, 0]], [0.5, 0.5])
    out = tracker.mark_localized(tight, cfg)
    assert out.localized
    # spread the particles far apart: the flag must not revert
    wide = tracker.ObjectBelief(particles=np.array([[0.0, 0], [500.0, 0]]),
                                weights=np.array([0.5, 0.5]), height=1.0, wavelength=2.0,
                                localized=True)
    assert tracker.mark_localized(wide, cfg) is wide
    # a belief whose flag does not change comes back as the same value
    assert tracker.mark_localized(out, cfg) is out
    unlocalized = replace(wide, localized=False)
    assert tracker.mark_localized(unlocalized, cfg) is unlocalized


def test_tracker_config_validation():
    with pytest.raises(ValueError):
        tracker.TrackerConfig(num_particles=0)
    for count in (200.0, True):  # a particle count is an integer
        with pytest.raises(ValueError):
            tracker.TrackerConfig(num_particles=count)
    with pytest.raises(ValueError):
        tracker.TrackerConfig(resample_threshold=0.0)
    with pytest.raises(ValueError):
        tracker.TrackerConfig(sigma_min=0.0)
