"""Received-signal-strength model: log-distance path loss with a two-ray ground
reflection, an azimuth antenna pattern, and the Gaussian measurement likelihood.

The received power at the observer from a tag at 3D distance d is

    h = P0 - 10*n*log10(d) + G(azimuth) + 10*n*log10(|1 + G_refl * exp(-j*dphi)|)

where dphi is the phase lag of the ground-reflected ray relative to line of sight
(image-method path lengths) and G_refl is the ground reflection coefficient, either
a constant or the horizontal-polarization Fresnel coefficient of the incidence angle.

The particle kernel evaluates this in one pass without angles. For the default
pattern the relative azimuth enters only through

    cos(phi) = (dx*cos(heading) + dy*sin(heading)) / rh

with (dx, dy) the horizontal offset from the observer to the tag and rh its length.
A tag straight below the observer (rh = 0) takes cos(phi) = cos(heading), the value
of atan2(0, 0) = 0. The Fresnel coefficient uses sin(psi) = (z_tag + z_obs) / d_ref
and cos(psi)^2 = rh^2 / d_ref^2, and path loss and multipath share one logarithm,
5*n*log10(|1 + G_refl*exp(-j*dphi)|^2 / d^2). Only an antenna table needs the azimuth
angle itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .world import ObjectState, UavState

SPEED_OF_LIGHT = 299_792_458.0

# Diagnostic counter: number of likelihood evaluations (calls, not particles).
_likelihood_calls = 0


def likelihood_call_count() -> int:
    return _likelihood_calls


def reset_likelihood_calls() -> None:
    global _likelihood_calls
    _likelihood_calls = 0


@dataclass(frozen=True)
class PropagationConfig:
    """RF constants for the propagation model and the measurement noise.

    antenna_table, when given, is a sequence of (azimuth_rad, gain_db) rows
    interpolated periodically over [0, 2pi); otherwise the default two-element
    directional approximation G(phi) = gain_max + 20*log10(max(floor, (1+cos phi)/2))
    is used, with the main lobe along the observer heading.
    """

    p0_dbm: float = -40.0
    path_loss_n: float = 3.0
    wavelength: float = 2.0
    reflection_mode: str = "constant"  # "constant" | "fresnel"
    reflection_gamma: float = -0.8
    rel_permittivity: float = 15.0
    antenna_gain_max_db: float = 4.0
    antenna_floor: float = 1e-2
    antenna_table: tuple[tuple[float, float], ...] | None = None
    noise_var: float = 25.0  # dB^2

    def __post_init__(self):
        for name in ("p0_dbm", "path_loss_n", "wavelength", "reflection_gamma",
                     "rel_permittivity", "antenna_gain_max_db", "antenna_floor", "noise_var"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.antenna_table is not None and not np.all(np.isfinite(self.antenna_table)):
            raise ValueError(f"antenna_table entries must be finite, got {self.antenna_table}")
        if not (2.0 <= self.path_loss_n <= 4.0):
            raise ValueError(f"path_loss_n must lie in [2, 4], got {self.path_loss_n}")
        if self.noise_var <= 0.0:
            raise ValueError("noise_var must be positive")
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")
        if self.reflection_mode not in ("constant", "fresnel"):
            raise ValueError(f"unknown reflection_mode: {self.reflection_mode}")
        if self.reflection_mode == "constant" and abs(self.reflection_gamma) > 1.0:
            raise ValueError("|reflection_gamma| must be <= 1")
        if self.antenna_floor <= 0.0:
            raise ValueError("antenna_floor must be positive")
        if self.rel_permittivity < 1.0:
            raise ValueError("rel_permittivity must be >= 1")


def wavelength_from_mhz(freq_mhz: float) -> float:
    return SPEED_OF_LIGHT / (freq_mhz * 1e6)


@dataclass(frozen=True)
class Measurement:
    """One RSSI observation of a tag at a time step."""

    tag_id: int
    rssi: float
    time_step: int = 0


def _pattern_db(cfg: PropagationConfig, cos_phi: np.ndarray) -> np.ndarray:
    """Default two-element pattern in dB from the cosine of the relative azimuth.

    Overwrites `cos_phi`.
    """
    lobe = cos_phi
    lobe += 1.0
    lobe *= 0.5
    np.maximum(lobe, cfg.antenna_floor, out=lobe)
    gain = np.log10(lobe, out=lobe)
    gain *= 20.0
    gain += cfg.antenna_gain_max_db
    return gain


def antenna_gain_db(cfg: PropagationConfig, rel_azimuth) -> np.ndarray:
    """Directional gain in dB as a function of azimuth relative to the heading."""
    phi = np.asarray(rel_azimuth, dtype=float) % (2.0 * math.pi)
    if cfg.antenna_table is not None:
        pts = sorted((a % (2.0 * math.pi), g) for a, g in cfg.antenna_table)
        ang = np.array([p[0] for p in pts])
        gain = np.array([p[1] for p in pts])
        # periodic wrap for interpolation
        ang = np.concatenate([ang, [ang[0] + 2.0 * math.pi]])
        gain = np.concatenate([gain, [gain[0]]])
        return np.interp(phi, ang, gain)
    return _pattern_db(cfg, np.asarray(np.cos(phi)))


def _fresnel_gamma(cfg: PropagationConfig, sin_psi, cos2_psi):
    """Horizontal-polarization Fresnel coefficient from sin(psi) and cos(psi)^2."""
    root = np.sqrt(cfg.rel_permittivity - cos2_psi)
    return (sin_psi - root) / (sin_psi + root)


def reflection_coefficient(cfg: PropagationConfig, psi) -> np.ndarray:
    """Ground reflection coefficient for incidence angle psi above the ground plane."""
    psi = np.asarray(psi, dtype=float)
    if cfg.reflection_mode == "constant":
        return np.full_like(psi, cfg.reflection_gamma)
    return _fresnel_gamma(cfg, np.sin(psi), np.cos(psi) ** 2)


def _model_power(xy, z, uav: UavState, cfg: PropagationConfig, wavelength):
    """Mean received power (dBm) for tags at horizontal positions xy (..., 2) and
    height z; also returns the squared 3D distance to the observer.

    `z` and `wavelength` are each a scalar or one value per position. The formulas
    run as in-place passes over six buffers the size of the batch (the Fresnel
    coefficient and an antenna table take a few more), each operation in the order
    the module docstring writes it, so the values equal evaluating each formula
    into a fresh array. Entries at zero distance are not finite; callers must
    inspect the returned squared distances.
    """
    xy = np.asarray(xy, dtype=float)
    batch = xy.shape[:-1]
    xy = xy.reshape(-1, 2)
    ux, uy, uz = uav.position
    dx = np.subtract(xy[:, 0], ux)
    dy = np.subtract(xy[:, 1], uy)
    rh2 = np.multiply(dx, dx)
    buf = np.multiply(dy, dy)
    rh2 += buf
    dz = np.subtract(z, uz)
    d_sq = np.add(rh2, dz * dz)
    d3 = np.sqrt(d_sq)
    z_sum = np.add(z, uz)  # image method: reflect the tag in the ground
    d_ref = np.add(rh2, z_sum * z_sum, out=buf)  # squared until the sqrt below

    with np.errstate(divide="ignore", invalid="ignore"):
        if cfg.reflection_mode == "fresnel":
            cos2_psi = rh2 / d_ref
            np.sqrt(d_ref, out=d_ref)
            gamma = _fresnel_gamma(cfg, z_sum / d_ref, cos2_psi)
        else:
            np.sqrt(d_ref, out=d_ref)
        # |1 + gamma*exp(-j*dphi)|^2 = 1 + 2*gamma*cos(dphi) + gamma^2
        cos_dphi = d_ref
        cos_dphi -= d3
        cos_dphi *= 2.0 * math.pi / wavelength
        np.cos(cos_dphi, out=cos_dphi)
        mp_sq = cos_dphi
        if cfg.reflection_mode == "fresnel":
            mp_sq *= 2.0 * gamma
            mp_sq += 1.0
            gamma *= gamma
            mp_sq += gamma
        else:
            g = cfg.reflection_gamma
            mp_sq *= 2.0 * g
            mp_sq += 1.0 + g * g
        # -10*n*log10(d) + 5*n*log10(mp_sq) in one log; mp_sq >= (1 - |gamma|)^2, so
        # the ratio stays a normal float out to distances far beyond any mission area
        h = mp_sq
        h /= d_sq
        np.log10(h, out=h)
        h *= 5.0 * cfg.path_loss_n

        if cfg.antenna_table is None:
            ch, sh = math.cos(uav.heading), math.sin(uav.heading)
            cos_phi = dx
            cos_phi *= ch
            dy *= sh
            cos_phi += dy
            rh = np.sqrt(rh2, out=rh2)
            cos_phi /= rh
            if not rh.all():
                cos_phi[rh == 0.0] = ch  # straight below: atan2(0, 0) = 0
            h += _pattern_db(cfg, cos_phi)
        else:
            rel = np.arctan2(dy, dx, out=dx)
            rel -= uav.heading
            h += antenna_gain_db(cfg, rel)
    h += cfg.p0_dbm
    return h.reshape(batch), d_sq.reshape(batch)


def received_power_array(positions, uav: UavState, cfg: PropagationConfig, height,
                         wavelength=None) -> np.ndarray:
    """Vectorized mean received power for horizontal positions shaped (..., 2).

    `height` (the tags' height above the ground plane) and `wavelength` (by default
    cfg.wavelength) are each a scalar or one value per position.
    """
    h, d_sq = _model_power(positions, height, uav, cfg,
                           cfg.wavelength if wavelength is None else wavelength)
    if not d_sq.all():
        raise ValueError("tag position coincides with the observer position")
    return h


def received_power(obj: ObjectState, uav: UavState, cfg: PropagationConfig) -> float:
    """Mean received power (dBm) from one tag."""
    return float(received_power_array(obj.position[:2], uav, cfg, obj.position[2]))


def sample_measurement(
    targets,
    uav: UavState,
    cfg: PropagationConfig,
    rngs,
    wavelengths,
    time_step: int = 0,
) -> list[Measurement]:
    """One noisy RSSI observation per target: mean power plus N(0, noise_var).

    The mean powers of all targets come from one kernel call, with one carrier
    wavelength per target; then each target's noise is drawn from its own generator
    in `rngs`, in target order.
    """
    pos = np.array([t.position for t in targets], dtype=float).reshape(-1, 3)
    powers = received_power_array(pos[:, :2], uav, cfg, pos[:, 2],
                                  np.asarray(wavelengths, dtype=float))
    sd = math.sqrt(cfg.noise_var)
    return [Measurement(tag_id=t.tag_id, rssi=float(p + rng.normal(0.0, sd)), time_step=time_step)
            for t, p, rng in zip(targets, powers, rngs, strict=True)]


def log_likelihood_array(rssi: float, positions, uav: UavState, cfg: PropagationConfig,
                         height=0.0) -> np.ndarray:
    """Gaussian log-density of an RSSI value for candidate tag positions (..., 2) at
    `height` above the ground plane (a scalar, or one value per position; ground
    level when left out).

    Positions coincident with the observer get -inf (excluded by the void
    constraint in normal operation).
    """
    global _likelihood_calls
    _likelihood_calls += 1
    h, d_sq = _model_power(positions, height, uav, cfg, cfg.wavelength)
    ll = np.subtract(rssi, h, out=h)
    ll *= ll
    ll *= -0.5 / cfg.noise_var
    ll += -0.5 * math.log(2.0 * math.pi * cfg.noise_var)
    if not d_sq.all():
        ll[d_sq == 0.0] = -np.inf
    return ll


def log_likelihood(z: Measurement, particle: ObjectState, uav: UavState, cfg: PropagationConfig) -> float:
    """Log-density of one measurement at one candidate tag state."""
    return float(log_likelihood_array(z.rssi, particle.position[:2], uav, cfg, particle.position[2]))
