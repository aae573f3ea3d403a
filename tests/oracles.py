"""Independent reference implementations used as test oracles.

These deliberately avoid the package's code paths: direct complex arithmetic for
the two-ray term, double loops for void probabilities, mpmath for high-precision
weighted statistics, and a standalone fine-step integrator for rollouts.
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np


def rollout_positions_oracle(start_xy, start_speed, waypoint, v_max, accel, dt, horizon, t0):
    """Fine-step 2D waypoint integrator: accelerate, cruise, brake-to-stop.

    Each sample period t0 is integrated in the whole number of steps nearest t0 / dt,
    each exactly t0 / n long."""
    pos = np.array(start_xy, dtype=float)
    wp = np.array(waypoint, dtype=float)
    v = float(start_speed)
    n_fine = max(1, round(t0 / dt))
    dt = t0 / n_fine
    samples = []
    for _ in range(horizon):
        for _ in range(n_fine):
            delta = wp - pos
            remaining = math.hypot(delta[0], delta[1])
            if remaining <= 0.0:
                v = max(v - accel * dt, 0.0)
                continue
            if remaining <= v * v / (2.0 * accel):
                v = max(v - accel * dt, 0.0)
            else:
                v = min(v + accel * dt, v_max)
            step = v * dt
            if step >= remaining:
                pos = wp.copy()
            else:
                pos = pos + delta * (step / remaining)
        samples.append(pos.copy())
    return samples


def two_ray_power_oracle(tag_pos, uav_pos, uav_heading, cfg):
    """Received power by direct complex arithmetic with image-method path lengths."""
    tx, ty, tz = (float(v) for v in tag_pos)
    ux, uy, uz = (float(v) for v in uav_pos)
    d_los = math.dist((tx, ty, tz), (ux, uy, uz))
    d_ref = math.dist((tx, ty, -tz), (ux, uy, uz))  # reflect the tag in the ground plane
    dphi = 2.0 * math.pi * (d_ref - d_los) / cfg.wavelength
    psi = math.asin((tz + uz) / d_ref)
    if cfg.reflection_mode == "constant":
        gamma = cfg.reflection_gamma
    else:
        root = math.sqrt(cfg.rel_permittivity - math.cos(psi) ** 2)
        gamma = (math.sin(psi) - root) / (math.sin(psi) + root)
    term = abs(1.0 + gamma * cmath.exp(-1j * dphi))
    phi = (math.atan2(ty - uy, tx - ux) - uav_heading) % (2.0 * math.pi)
    if cfg.antenna_table is not None:
        pts = sorted((a % (2.0 * math.pi), g) for a, g in cfg.antenna_table)
        ang = [p[0] for p in pts] + [pts[0][0] + 2.0 * math.pi]
        gains = [p[1] for p in pts] + [pts[0][1]]
        gain = float(np.interp(phi, ang, gains))
    else:
        gain = cfg.antenna_gain_max_db + 20.0 * math.log10(
            max(cfg.antenna_floor, 0.5 * (1.0 + math.cos(phi))))
    return (cfg.p0_dbm - 10.0 * cfg.path_loss_n * math.log10(d_los)
            + gain + 10.0 * cfg.path_loss_n * math.log10(term))


def void_probability_brute(particles, weights, pose_xy, r_min):
    """Direct evaluation: one minus the weight of particles strictly inside the disc."""
    total = 0.0
    for p, w in zip(particles, weights):
        if math.hypot(p[0] - pose_xy[0], p[1] - pose_xy[1]) < r_min:
            total += w
    return 1.0 - total


def mass_inside_broadcast(particles, weights, px, py, r_min):
    """The void gate's per-pose disc mass as one broadcast expression: the particles in
    the poses' bounding box widened by r_min, their (n, H) boolean disc test, and that
    test weighted by a matrix product. The planner must match it bit for bit."""
    x = particles[:, 0]
    y = particles[:, 1]
    near = (
        (x >= px.min() - r_min) & (x <= px.max() + r_min)
        & (y >= py.min() - r_min) & (y <= py.max() + r_min)
    )
    if not near.any():
        return np.zeros(len(px))
    dx = x[near, None] - px[None, :]
    dy = y[near, None] - py[None, :]
    return weights[near] @ ((dx * dx + dy * dy) < r_min * r_min)


def trajectory_void_brute(belief_arrays, poses_xy, r_min):
    """Minimum of the single-pose void probability over all (object, pose) pairs."""
    best = 1.0
    for particles, weights in belief_arrays:
        for pose in poses_xy:
            best = min(best, void_probability_brute(particles, weights, pose, r_min))
    return best


def random_walk_displacements(n: int, dyn, rng: np.random.Generator) -> np.ndarray:
    """n zero-mean Gaussian displacement rows with covariance diag(dyn.q_diag), drawn as
    one (n, len(q_diag)) block and scaled as a whole: the random-walk step that
    world.random_walk takes column by column, which must match it bit for bit."""
    return rng.normal(size=(n, len(dyn.q_diag))) * np.sqrt(dyn.q_diag)


def clamp(points, area) -> np.ndarray:
    """`points` (..., 2) clipped into `area` by IEEE comparisons, axis by axis: a value
    below its lower bound becomes that bound, one above its upper bound becomes that
    bound, and any other value (a NaN, or a zero of either sign on a zero bound) is kept."""
    pts = np.asarray(points, dtype=float)
    out = np.empty(pts.shape)
    for axis, lo, hi in ((0, area.x_min, area.x_max), (1, area.y_min, area.y_max)):
        x = pts[..., axis]
        out[..., axis] = np.where(x < lo, lo, np.where(x > hi, hi, x))
    return out


def dyadic_weights(rng: np.random.Generator, n: int, denom_pow: int = 10) -> np.ndarray:
    """Random weights that are exact binary fractions summing to exactly 1.0."""
    denom = 2 ** denom_pow
    cuts = np.sort(rng.integers(1, denom, size=n - 1))
    counts = np.diff(np.concatenate([[0], cuts, [denom]]))
    return counts.astype(float) / denom


def weighted_sigma_mpmath(particles, weights, dps: int = 50) -> float:
    """Max per-axis weighted standard deviation at high precision."""
    with mpmath.workdps(dps):
        best = mpmath.mpf(0)
        for axis in range(3):
            mean = mpmath.fsum(mpmath.mpf(w) * mpmath.mpf(p[axis])
                               for p, w in zip(particles, weights))
            var = mpmath.fsum(mpmath.mpf(w) * (mpmath.mpf(p[axis]) - mean) ** 2
                              for p, w in zip(particles, weights))
            best = max(best, var)
        return float(mpmath.sqrt(best))


def posterior_weights_mpmath(weights, log_likelihoods, dps: int = 60) -> np.ndarray:
    """Bayes reweighting w_i * exp(ll_i), renormalized, at high precision."""
    with mpmath.workdps(dps):
        vals = [mpmath.mpf(w) * mpmath.e ** mpmath.mpf(ll)
                for w, ll in zip(weights, log_likelihoods)]
        total = mpmath.fsum(vals)
        return np.array([float(v / total) for v in vals])
