import math

import numpy as np
import pytest
from scipy.stats import norm

from tagtrack import rf
from tagtrack.world import ObjectState, UavState

from oracles import two_ray_power_oracle

# free-space reference: no ground reflection, flat antenna
FREE_SPACE = rf.PropagationConfig(
    p0_dbm=-40.0, path_loss_n=2.0, reflection_gamma=0.0,
    antenna_table=((0.0, 0.0),))


def make_uav(x=0.0, y=0.0, z=30.0, heading=0.0):
    return UavState(position=np.array([x, y, z]), heading=heading)


def tag(x, y, z=1.0, tag_id=1):
    return ObjectState(position=np.array([x, y, z]), tag_id=tag_id)


def test_free_space_unit_distance():
    uav = make_uav(z=1.0)
    obj = tag(1.0, 0.0, 1.0)
    assert rf.received_power(obj, uav, FREE_SPACE) == pytest.approx(-40.0, abs=1e-12)


def test_free_space_ten_meters():
    uav = make_uav(z=1.0)
    obj = tag(10.0, 0.0, 1.0)
    assert rf.received_power(obj, uav, FREE_SPACE) == pytest.approx(-60.0, abs=1e-12)


def test_two_ray_matches_complex_oracle_reference_geometry():
    cfg = rf.PropagationConfig(p0_dbm=-40.0, path_loss_n=3.0, wavelength=2.0,
                               reflection_gamma=-0.8)
    uav = make_uav(0.0, 0.0, 30.0, heading=0.3)
    obj = tag(100.0, 0.0, 1.0)
    got = rf.received_power(obj, uav, cfg)
    want = two_ray_power_oracle(obj.position, uav.position, uav.heading, cfg)
    assert got == pytest.approx(want, abs=1e-9)


def test_two_ray_matches_complex_oracle_random_geometries():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        mode = "constant" if rng.random() < 0.5 else "fresnel"
        cfg = rf.PropagationConfig(
            p0_dbm=float(rng.uniform(-60, -20)),
            path_loss_n=float(rng.uniform(2.0, 4.0)),
            wavelength=float(rng.uniform(1.9, 2.1)),
            reflection_mode=mode,
            reflection_gamma=float(rng.uniform(-0.95, 0.95)),
            rel_permittivity=float(rng.uniform(2.0, 30.0)),
        )
        uav = make_uav(float(rng.uniform(-200, 200)), float(rng.uniform(-200, 200)),
                       float(rng.uniform(10, 80)), heading=float(rng.uniform(0, 2 * math.pi)))
        obj = tag(float(rng.uniform(-500, 500)), float(rng.uniform(-500, 500)),
                  float(rng.uniform(0.5, 2.0)))
        got = rf.received_power(obj, uav, cfg)
        want = two_ray_power_oracle(obj.position, uav.position, uav.heading, cfg)
        assert got == pytest.approx(want, abs=1e-9)

    # whole batches in one kernel call, element by element against the oracle:
    # both reflection modes, with and without an antenna table, several carriers,
    # headings at and near 0 and 2*pi, and tags straight below the observer (rh = 0)
    table = ((0.0, 4.0), (math.pi / 2, 0.0), (math.pi, -10.0), (3 * math.pi / 2, 0.0))
    for mode in ("constant", "fresnel"):
        for antenna_table in (None, table):
            for wavelength in (0.33, 2.0, 6.0, float(rng.uniform(0.5, 5.0))):
                cfg = rf.PropagationConfig(
                    wavelength=wavelength, reflection_mode=mode,
                    reflection_gamma=float(rng.uniform(-0.95, 0.95)),
                    rel_permittivity=float(rng.uniform(2.0, 30.0)),
                    antenna_table=antenna_table, noise_var=16.0)
                for heading in (0.0, 1e-12, 2.0 * math.pi - 1e-12, float(rng.uniform(0, 2 * math.pi))):
                    uav = make_uav(float(rng.uniform(-200, 200)), float(rng.uniform(-200, 200)),
                                   float(rng.uniform(10, 80)), heading=heading)
                    pts = np.column_stack([rng.uniform(-500, 500, 200), rng.uniform(-500, 500, 200),
                                           rng.uniform(0.5, 2.0, 200)])
                    pts[:3, :2] = uav.position[:2]  # straight below
                    got = rf.received_power_array(pts[:, :2], uav, cfg, pts[:, 2])
                    want = [two_ray_power_oracle(p, uav.position, uav.heading, cfg) for p in pts]
                    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

                    # coincident positions still give -inf inside a batch
                    with_coincident = np.vstack([pts, uav.position])
                    ll = rf.log_likelihood_array(-70.0, with_coincident[:, :2], uav, cfg,
                                                 with_coincident[:, 2])
                    assert ll[-1] == -math.inf
                    np.testing.assert_allclose(
                        ll[:-1], norm.logpdf(-70.0, loc=got, scale=4.0), rtol=1e-12)


TABLE = ((0.0, 4.0), (math.pi / 2, 0.0), (math.pi, -10.0), (3 * math.pi / 2, 0.0))
KERNEL_CASES = [(mode, table) for mode in ("constant", "fresnel") for table in (None, TABLE)]
KERNEL_IDS = [f"{mode}-{'table' if table else 'pattern'}" for mode, table in KERNEL_CASES]


@pytest.mark.parametrize("mode, table", KERNEL_CASES, ids=KERNEL_IDS)
def test_scalar_height_equals_per_row_heights_bit_for_bit(mode, table):
    rng = np.random.default_rng(41)
    cfg = rf.PropagationConfig(wavelength=1.7, reflection_mode=mode, antenna_table=table)
    uav = make_uav(20.0, -30.0, 30.0, heading=2.1)
    xy = rng.uniform(-400, 400, size=(500, 2))
    xy[:4] = uav.position[:2]  # straight below the observer: rh = 0
    for z in (1.0, 0.0):
        rows = np.full(len(xy), z)
        one = rf.log_likelihood_array(-75.0, xy, uav, cfg, z)
        per_row = rf.log_likelihood_array(-75.0, xy, uav, cfg, rows)
        assert one.tobytes() == per_row.tobytes()
        one = rf.received_power_array(xy, uav, cfg, z)
        per_row = rf.received_power_array(xy, uav, cfg, rows, np.full(len(xy), cfg.wavelength))
        assert one.tobytes() == per_row.tobytes()
    # at the observer's altitude the particles straight below it coincide with it
    z = float(uav.position[2])
    one = rf.log_likelihood_array(-75.0, xy, uav, cfg, z)
    per_row = rf.log_likelihood_array(-75.0, xy, uav, cfg, np.full(len(xy), z))
    assert np.all(one[:4] == -math.inf) and np.all(np.isfinite(one[4:]))
    assert one.tobytes() == per_row.tobytes()


@pytest.mark.parametrize("mode, table", KERNEL_CASES, ids=KERNEL_IDS)
def test_batched_measurement_equals_one_target_calls(mode, table):
    rng = np.random.default_rng(42)
    cfg = rf.PropagationConfig(reflection_mode=mode, antenna_table=table)
    uav = make_uav(5.0, 7.0, 30.0, heading=0.4)
    targets = [tag(float(x), float(y), float(z), tag_id=j + 1) for j, (x, y, z) in
               enumerate(zip(rng.uniform(-300, 300, 7), rng.uniform(-300, 300, 7),
                             rng.uniform(0.0, 3.0, 7)))]
    targets[0] = tag(5.0, 7.0, 1.0, tag_id=1)  # straight below the observer
    wavelengths = rng.uniform(0.5, 3.0, len(targets))
    batched_rngs = [np.random.default_rng(100 + j) for j in range(len(targets))]
    single_rngs = [np.random.default_rng(100 + j) for j in range(len(targets))]
    batched = rf.sample_measurement(targets, uav, cfg, batched_rngs, wavelengths, time_step=4)
    for t, lam, z, r_single, r_batched in zip(targets, wavelengths, batched, single_rngs,
                                              batched_rngs):
        single, = rf.sample_measurement([t], uav, cfg, [r_single], [lam], time_step=4)
        assert (z.tag_id, z.time_step) == (t.tag_id, 4)
        assert z.rssi == single.rssi
        assert r_batched.bit_generator.state == r_single.bit_generator.state
    with pytest.raises(ValueError):  # one generator per target
        rf.sample_measurement(targets, uav, cfg, batched_rngs[:-1], wavelengths)


def test_multipath_term_bounds():
    gamma = -0.8
    n = 3.0
    cfg = rf.PropagationConfig(path_loss_n=n, reflection_gamma=gamma,
                               antenna_table=((0.0, 0.0),), p0_dbm=0.0)
    lo = 10.0 * n * math.log10(1.0 - abs(gamma))
    hi = 10.0 * n * math.log10(1.0 + abs(gamma))
    rng = np.random.default_rng(2)
    uav = make_uav(0.0, 0.0, 30.0)
    for _ in range(300):
        obj = tag(float(rng.uniform(1, 800)), float(rng.uniform(-800, 800)))
        d = float(np.linalg.norm(obj.position - uav.position))
        multipath = rf.received_power(obj, uav, cfg) + 10.0 * n * math.log10(d)
        assert lo - 1e-9 <= multipath <= hi + 1e-9


def test_free_space_monotonic_in_distance():
    uav = make_uav(z=1.0)
    distances = np.linspace(1.0, 1000.0, 200)
    powers = [rf.received_power(tag(d, 0.0, 1.0), uav, FREE_SPACE) for d in distances]
    assert all(a > b for a, b in zip(powers, powers[1:]))


def test_antenna_pattern_periodicity():
    cfg = rf.PropagationConfig()
    phi = np.linspace(0.0, 2.0 * math.pi, 50)
    a = rf.antenna_gain_db(cfg, phi)
    b = rf.antenna_gain_db(cfg, phi + 2.0 * math.pi)
    assert np.allclose(a, b, atol=1e-12)
    table_cfg = rf.PropagationConfig(antenna_table=((0.0, 4.0), (math.pi / 2, 0.0),
                                                    (math.pi, -10.0), (3 * math.pi / 2, 0.0)))
    a = rf.antenna_gain_db(table_cfg, phi)
    b = rf.antenna_gain_db(table_cfg, phi - 2.0 * math.pi)
    assert np.allclose(a, b, atol=1e-12)


def test_fresnel_reflection_limits():
    cfg = rf.PropagationConfig(reflection_mode="fresnel", rel_permittivity=15.0)
    psi = np.linspace(1e-3, math.pi / 2, 100)
    gamma = rf.reflection_coefficient(cfg, psi)
    assert np.all(np.abs(gamma) <= 1.0)
    # normal incidence: (1 - sqrt(eps)) / (1 + sqrt(eps))
    want = (1.0 - math.sqrt(15.0)) / (1.0 + math.sqrt(15.0))
    assert rf.reflection_coefficient(cfg, math.pi / 2) == pytest.approx(want, abs=1e-12)


def test_sample_measurement_noiseless_limit():
    cfg = rf.PropagationConfig(noise_var=1e-300)
    uav = make_uav()
    obj = tag(100.0, 50.0)
    z, = rf.sample_measurement([obj], uav, cfg, [np.random.default_rng(0)], [cfg.wavelength],
                               time_step=3)
    assert z.rssi == rf.received_power(obj, uav, cfg)
    assert z.tag_id == 1 and z.time_step == 3


def test_sample_measurement_deterministic():
    cfg = rf.PropagationConfig()
    uav = make_uav()
    obj = tag(100.0, 50.0)
    a, = rf.sample_measurement([obj], uav, cfg, [np.random.default_rng(9)], [cfg.wavelength])
    b, = rf.sample_measurement([obj], uav, cfg, [np.random.default_rng(9)], [cfg.wavelength])
    assert a.rssi == b.rssi


def test_measurement_noise_variance():
    cfg = rf.PropagationConfig(noise_var=25.0)
    uav = make_uav()
    obj = tag(100.0, 50.0)
    rng = np.random.default_rng(4)
    h = rf.received_power(obj, uav, cfg)
    draws = np.array([rf.sample_measurement([obj], uav, cfg, [rng], [cfg.wavelength])[0].rssi
                      for _ in range(100_000)])
    assert abs(float(np.var(draws - h)) - 25.0) < 0.75  # within 3%


def test_log_likelihood_peak_value():
    cfg = rf.PropagationConfig(noise_var=25.0)
    uav = make_uav()
    p = tag(100.0, 50.0)
    h = rf.received_power(p, uav, cfg)
    z = rf.Measurement(tag_id=1, rssi=h)
    assert rf.log_likelihood(z, p, uav, cfg) == pytest.approx(
        -0.5 * math.log(2.0 * math.pi * 25.0), abs=1e-12)


def test_log_likelihood_symmetry():
    cfg = rf.PropagationConfig(noise_var=25.0)
    uav = make_uav()
    p = tag(100.0, 50.0)
    h = rf.received_power(p, uav, cfg)
    for delta in (0.5, 2.0, 7.5):
        lo = rf.log_likelihood(rf.Measurement(1, h - delta), p, uav, cfg)
        hi = rf.log_likelihood(rf.Measurement(1, h + delta), p, uav, cfg)
        assert lo == pytest.approx(hi, abs=1e-12)


def test_log_likelihood_matches_scipy_oracle():
    rng = np.random.default_rng(23)
    cfg = rf.PropagationConfig(noise_var=16.0)
    uav = make_uav(heading=1.1)
    for _ in range(200):
        p = tag(float(rng.uniform(-300, 300)), float(rng.uniform(-300, 300)))
        z = float(rng.uniform(-140, -40))
        h = rf.received_power(p, uav, cfg)
        want = norm.logpdf(z, loc=h, scale=4.0)
        got = rf.log_likelihood(rf.Measurement(1, z), p, uav, cfg)
        assert got == pytest.approx(want, rel=1e-12)


def test_likelihood_normalizes_over_measurements():
    cfg = rf.PropagationConfig(noise_var=25.0)
    uav = make_uav()
    p = tag(120.0, -60.0)
    h = rf.received_power(p, uav, cfg)
    grid = np.linspace(h - 50.0, h + 50.0, 20001)  # +-10 sigma
    ll = np.array([rf.log_likelihood(rf.Measurement(1, z), p, uav, cfg) for z in grid])
    integral = float(np.trapezoid(np.exp(ll), grid))
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_coincident_positions():
    cfg = rf.PropagationConfig()
    uav = make_uav(10.0, 10.0, 30.0)
    p = ObjectState(position=uav.position.copy(), tag_id=1)
    with pytest.raises(ValueError):
        rf.received_power(p, uav, cfg)
    ll = rf.log_likelihood(rf.Measurement(1, -80.0), p, uav, cfg)
    assert ll == -math.inf


def test_likelihood_call_counter():
    cfg = rf.PropagationConfig()
    uav = make_uav()
    p = tag(50.0, 0.0)
    rf.reset_likelihood_calls()
    assert rf.likelihood_call_count() == 0
    rf.log_likelihood(rf.Measurement(1, -90.0), p, uav, cfg)
    rf.log_likelihood_array(-90.0, np.array([[50.0, 0.0], [60.0, 0.0]]), uav, cfg, 1.0)
    assert rf.likelihood_call_count() == 2
    rf.reset_likelihood_calls()
    assert rf.likelihood_call_count() == 0


def test_config_validation():
    with pytest.raises(ValueError):
        rf.PropagationConfig(path_loss_n=1.5)
    with pytest.raises(ValueError):
        rf.PropagationConfig(noise_var=0.0)
    with pytest.raises(ValueError):
        rf.PropagationConfig(reflection_gamma=-1.5)
    with pytest.raises(ValueError):
        rf.PropagationConfig(reflection_mode="mirror")
