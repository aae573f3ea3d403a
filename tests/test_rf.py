import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from tagtrack import rf
from tagtrack.world import UavState

from oracles import two_ray_power_oracle

# free-space reference: no ground reflection, flat antenna
FREE_SPACE = rf.PropagationConfig(
    p0_dbm=-40.0, path_loss_n=2.0, reflection_gamma=0.0,
    antenna_table=((0.0, 0.0),))


def make_uav(x=0.0, y=0.0, z=30.0, heading=0.0):
    return UavState(xy=(x, y), altitude=z, heading=heading)


def observer(uav):
    """The observer's position (x, y, altitude), as the oracles take it."""
    return np.array([*uav.xy, uav.altitude])


def tag(x, y, z=1.0):
    """A tag position (x, y, z)."""
    return np.array([x, y, z], dtype=float)


def power(pos, uav, cfg):
    """Mean received power (dBm) from one tag at pos = (x, y, z)."""
    return float(rf.received_power_array(pos[:2], uav, cfg, pos[2], cfg.wavelength))


def loglik(rssi, pos, uav, cfg):
    """Log-density of one measurement for one candidate tag at pos = (x, y, z)."""
    return float(rf.log_likelihood_array(rssi, pos[:2], uav, cfg, pos[2]))


def measure(pos, uav, cfg, rng):
    """One RSSI measurement of one tag at pos = (x, y, z) on the configured carrier."""
    z, = rf.sample_measurement(pos[None, :2], pos[2], uav, cfg, [rng], [cfg.wavelength])
    return float(z)


def test_free_space_unit_distance():
    uav = make_uav(z=1.0)
    obj = tag(1.0, 0.0, 1.0)
    assert power(obj, uav, FREE_SPACE) == pytest.approx(-40.0, abs=1e-12)


def test_free_space_ten_meters():
    uav = make_uav(z=1.0)
    obj = tag(10.0, 0.0, 1.0)
    assert power(obj, uav, FREE_SPACE) == pytest.approx(-60.0, abs=1e-12)


def test_two_ray_matches_complex_oracle_reference_geometry():
    cfg = rf.PropagationConfig(p0_dbm=-40.0, path_loss_n=3.0, wavelength=2.0,
                               reflection_gamma=-0.8)
    uav = make_uav(0.0, 0.0, 30.0, heading=0.3)
    obj = tag(100.0, 0.0, 1.0)
    got = power(obj, uav, cfg)
    want = two_ray_power_oracle(obj, observer(uav), uav.heading, cfg)
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
        got = power(obj, uav, cfg)
        want = two_ray_power_oracle(obj, observer(uav), uav.heading, cfg)
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
                    pts[:3, :2] = uav.xy  # straight below
                    got = rf.received_power_array(pts[:, :2], uav, cfg, pts[:, 2], cfg.wavelength)
                    want = [two_ray_power_oracle(p, observer(uav), uav.heading, cfg) for p in pts]
                    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

                    # coincident positions still give -inf inside a batch
                    with_coincident = np.vstack([pts, observer(uav)])
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
    xy[:4] = uav.xy  # straight below the observer: rh = 0
    for z in (1.0, 0.0):
        rows = np.full(len(xy), z)
        one = rf.log_likelihood_array(-75.0, xy, uav, cfg, z)
        per_row = rf.log_likelihood_array(-75.0, xy, uav, cfg, rows)
        assert one.tobytes() == per_row.tobytes()
        one = rf.received_power_array(xy, uav, cfg, z, cfg.wavelength)
        per_row = rf.received_power_array(xy, uav, cfg, rows, np.full(len(xy), cfg.wavelength))
        assert one.tobytes() == per_row.tobytes()
        # a carrier passed in equals the same carrier set in the config
        own = rf.log_likelihood_array(-75.0, xy, uav, replace(cfg, wavelength=0.9), z)
        assert own.tobytes() == rf.log_likelihood_array(-75.0, xy, uav, cfg, z, 0.9).tobytes()
    # at the observer's altitude the particles straight below it coincide with it
    z = uav.altitude
    one = rf.log_likelihood_array(-75.0, xy, uav, cfg, z)
    per_row = rf.log_likelihood_array(-75.0, xy, uav, cfg, np.full(len(xy), z))
    assert np.all(one[:4] == -math.inf) and np.all(np.isfinite(one[4:]))
    assert one.tobytes() == per_row.tobytes()


@pytest.mark.parametrize("mode, table", KERNEL_CASES, ids=KERNEL_IDS)
def test_batched_measurement_equals_one_target_calls(mode, table):
    rng = np.random.default_rng(42)
    cfg = rf.PropagationConfig(reflection_mode=mode, antenna_table=table)
    uav = make_uav(5.0, 7.0, 30.0, heading=0.4)
    xy = np.column_stack([rng.uniform(-300, 300, 7), rng.uniform(-300, 300, 7)])
    xy[0] = uav.xy  # straight below the observer
    for height in (1.0, float(rng.uniform(0.0, 3.0))):
        wavelengths = rng.uniform(0.5, 3.0, len(xy))
        batched_rngs = [np.random.default_rng(100 + j) for j in range(len(xy))]
        single_rngs = [np.random.default_rng(100 + j) for j in range(len(xy))]
        batched = rf.sample_measurement(xy, height, uav, cfg, batched_rngs, wavelengths)
        assert batched.shape == (len(xy),) and batched.dtype == float
        for j, (lam, z, r_single, r_batched) in enumerate(zip(wavelengths, batched, single_rngs,
                                                              batched_rngs)):
            single = rf.sample_measurement(xy[j:j + 1], height, uav, cfg, [r_single], [lam])
            assert single.shape == (1,)
            assert z == single[0]  # row j is target j
            assert r_batched.bit_generator.state == r_single.bit_generator.state
        with pytest.raises(ValueError):  # one generator per target
            rf.sample_measurement(xy, height, uav, cfg, batched_rngs[:-1], wavelengths)


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
        d = float(np.linalg.norm(obj - observer(uav)))
        multipath = power(obj, uav, cfg) + 10.0 * n * math.log10(d)
        assert lo - 1e-9 <= multipath <= hi + 1e-9


def test_free_space_monotonic_in_distance():
    uav = make_uav(z=1.0)
    distances = np.linspace(1.0, 1000.0, 200)
    powers = [power(tag(d, 0.0, 1.0), uav, FREE_SPACE) for d in distances]
    assert all(a > b for a, b in zip(powers, powers[1:]))


def test_antenna_pattern_periodicity():
    # the table gain is periodic in the relative azimuth (the default pattern reads only
    # its cosine, so it has no angle to wrap)
    phi = np.linspace(0.0, 2.0 * math.pi, 50)
    table_cfg = rf.PropagationConfig(antenna_table=((0.0, 4.0), (math.pi / 2, 0.0),
                                                    (math.pi, -10.0), (3 * math.pi / 2, 0.0)))
    a = rf._table_gain_db(table_cfg, phi)
    b = rf._table_gain_db(table_cfg, phi - 2.0 * math.pi)
    assert np.allclose(a, b, atol=1e-12)


def reflection_gamma(cfg, psi):
    """The ground reflection coefficient the power model applies at incidence angle psi,
    read back from received_power_array.

    A flat antenna, p0 = 0 and a tag at 1 m under an observer at 30 m, placed so that
    the reflected ray arrives at psi. On the carrier equal to the path difference the
    two rays are in phase and the power is 5n*log10((1 + G)^2 / d^2); on twice that
    carrier they are in antiphase, (1 - G)^2. Their difference is 4G.
    """
    cfg = replace(cfg, p0_dbm=0.0, antenna_table=((0.0, 0.0),))
    uav = make_uav(0.0, 0.0, 30.0)
    rh = 31.0 / math.tan(psi)  # sin(psi) = (z_tag + z_obs) / d_ref
    d, d_ref = math.hypot(rh, 29.0), math.hypot(rh, 31.0)
    sq = [10.0 ** ((rf.received_power_array(np.array([rh, 0.0]), uav, cfg, 1.0, k * (d_ref - d))
                    + 10.0 * cfg.path_loss_n * math.log10(d)) / (5.0 * cfg.path_loss_n))
          for k in (1.0, 2.0)]
    return (sq[0] - sq[1]) / 4.0


def test_fresnel_reflection_limits():
    cfg = rf.PropagationConfig(reflection_mode="fresnel", rel_permittivity=15.0)
    psi = np.linspace(1e-3, math.pi / 2, 100)
    gamma = np.array([reflection_gamma(cfg, p) for p in psi])
    assert np.all(np.abs(gamma) <= 1.0)
    # normal incidence: (1 - sqrt(eps)) / (1 + sqrt(eps))
    want = (1.0 - math.sqrt(15.0)) / (1.0 + math.sqrt(15.0))
    assert reflection_gamma(cfg, math.pi / 2) == pytest.approx(want, abs=1e-12)
    # the constant mode applies its configured coefficient at every angle
    flat = rf.PropagationConfig(reflection_gamma=-0.8)
    for p in (1e-3, 0.7, math.pi / 2):
        assert reflection_gamma(flat, p) == pytest.approx(-0.8, abs=1e-12)


def test_sample_measurement_noiseless_limit():
    cfg = rf.PropagationConfig(noise_var=1e-300)
    uav = make_uav()
    obj = tag(100.0, 50.0)
    assert measure(obj, uav, cfg, np.random.default_rng(0)) == power(obj, uav, cfg)


def test_sample_measurement_deterministic():
    cfg = rf.PropagationConfig()
    uav = make_uav()
    obj = tag(100.0, 50.0)
    a = measure(obj, uav, cfg, np.random.default_rng(9))
    b = measure(obj, uav, cfg, np.random.default_rng(9))
    assert a == b


def test_measurement_noise_variance():
    cfg = rf.PropagationConfig(noise_var=25.0)
    uav = make_uav()
    obj = tag(100.0, 50.0)
    rng = np.random.default_rng(4)
    h = power(obj, uav, cfg)
    draws = np.array([measure(obj, uav, cfg, rng) for _ in range(100_000)])
    assert abs(float(np.var(draws - h)) - 25.0) < 0.75  # within 3%


def test_log_likelihood_peak_value():
    cfg = rf.PropagationConfig(noise_var=25.0)
    uav = make_uav()
    p = tag(100.0, 50.0)
    h = power(p, uav, cfg)
    assert loglik(h, p, uav, cfg) == pytest.approx(
        -0.5 * math.log(2.0 * math.pi * 25.0), abs=1e-12)


def test_log_likelihood_symmetry():
    cfg = rf.PropagationConfig(noise_var=25.0)
    uav = make_uav()
    p = tag(100.0, 50.0)
    h = power(p, uav, cfg)
    for delta in (0.5, 2.0, 7.5):
        lo = loglik(h - delta, p, uav, cfg)
        hi = loglik(h + delta, p, uav, cfg)
        assert lo == pytest.approx(hi, abs=1e-12)


def test_log_likelihood_matches_scipy_oracle():
    rng = np.random.default_rng(23)
    cfg = rf.PropagationConfig(noise_var=16.0)
    uav = make_uav(heading=1.1)
    for _ in range(200):
        p = tag(float(rng.uniform(-300, 300)), float(rng.uniform(-300, 300)))
        z = float(rng.uniform(-140, -40))
        h = power(p, uav, cfg)
        want = norm.logpdf(z, loc=h, scale=4.0)
        got = loglik(z, p, uav, cfg)
        assert got == pytest.approx(want, rel=1e-12)


def test_likelihood_normalizes_over_measurements():
    cfg = rf.PropagationConfig(noise_var=25.0)
    uav = make_uav()
    p = tag(120.0, -60.0)
    h = power(p, uav, cfg)
    grid = np.linspace(h - 50.0, h + 50.0, 20001)  # +-10 sigma
    ll = np.array([loglik(z, p, uav, cfg) for z in grid])
    integral = float(np.trapezoid(np.exp(ll), grid))
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_coincident_positions():
    cfg = rf.PropagationConfig()
    uav = make_uav(10.0, 10.0, 30.0)
    p = observer(uav)
    with pytest.raises(ValueError):
        power(p, uav, cfg)
    ll = loglik(-80.0, p, uav, cfg)
    assert ll == -math.inf


def test_likelihood_call_counter():
    cfg = rf.PropagationConfig()
    uav = make_uav()
    p = tag(50.0, 0.0)
    rf.reset_likelihood_calls()
    assert rf.likelihood_call_count() == 0
    loglik(-90.0, p, uav, cfg)
    rf.log_likelihood_array(-90.0, np.array([[50.0, 0.0], [60.0, 0.0]]), uav, cfg, 1.0)
    assert rf.likelihood_call_count() == 2
    rf.reset_likelihood_calls()
    assert rf.likelihood_call_count() == 0


def test_config_validation():
    with pytest.raises(ValueError):
        rf.PropagationConfig(path_loss_n=1.5)
    for table in ((), ((0.0, 1.0, 2.0),), ((0.0, 1.0), (2.0,))):
        with pytest.raises(ValueError, match="antenna_table"):
            rf.PropagationConfig(antenna_table=table)
    with pytest.raises(ValueError):
        rf.PropagationConfig(noise_var=0.0)
    with pytest.raises(ValueError):
        rf.PropagationConfig(reflection_gamma=-1.5)
    with pytest.raises(ValueError):
        rf.PropagationConfig(reflection_mode="mirror")
