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


def _model_power(positions, uav: UavState, cfg: PropagationConfig):
    """Mean received power (dBm) for tag positions (..., 3); also returns 3D distance.

    Entries at zero distance are not finite; callers must inspect the returned
    distances.
    """
    pos = np.asarray(positions, dtype=float)
    batch = pos.shape[:-1]
    pos = pos.reshape(-1, 3)
    ux, uy, uz = uav.position
    dx = pos[:, 0] - ux
    dy = pos[:, 1] - uy
    rh2 = dx * dx + dy * dy
    dz = pos[:, 2] - uz
    d_sq = rh2 + dz * dz
    d3 = np.sqrt(d_sq)
    z_sum = pos[:, 2] + uz  # image method: reflect the tag in the ground
    dref_sq = rh2 + z_sum * z_sum
    d_ref = np.sqrt(dref_sq)

    with np.errstate(divide="ignore", invalid="ignore"):
        # |1 + gamma*exp(-j*dphi)|^2 = 1 + 2*gamma*cos(dphi) + gamma^2
        cos_dphi = d_ref - d3
        cos_dphi *= 2.0 * math.pi / cfg.wavelength
        np.cos(cos_dphi, out=cos_dphi)
        if cfg.reflection_mode == "constant":
            g = cfg.reflection_gamma
            mp_sq = cos_dphi
            mp_sq *= 2.0 * g
            mp_sq += 1.0 + g * g
        else:
            gamma = _fresnel_gamma(cfg, z_sum / d_ref, rh2 / dref_sq)
            mp_sq = 1.0 + 2.0 * gamma * cos_dphi + gamma * gamma
        # -10*n*log10(d) + 5*n*log10(mp_sq) in one log; mp_sq >= (1 - |gamma|)^2, so
        # the ratio stays a normal float out to distances far beyond any mission area
        h = mp_sq
        h /= d_sq
        np.log10(h, out=h)
        h *= 5.0 * cfg.path_loss_n

        if cfg.antenna_table is None:
            ch, sh = math.cos(uav.heading), math.sin(uav.heading)
            cos_phi = dx * ch + dy * sh
            cos_phi /= np.sqrt(rh2)
            if not rh2.all():
                cos_phi[rh2 == 0.0] = ch  # straight below: atan2(0, 0) = 0
            h += _pattern_db(cfg, cos_phi)
        else:
            h += antenna_gain_db(cfg, np.arctan2(dy, dx) - uav.heading)
    h += cfg.p0_dbm
    return h.reshape(batch), d3.reshape(batch)


def received_power_array(positions, uav: UavState, cfg: PropagationConfig) -> np.ndarray:
    """Vectorized mean received power for positions shaped (..., 3)."""
    h, d3 = _model_power(positions, uav, cfg)
    if np.any(d3 == 0.0):
        raise ValueError("tag position coincides with the observer position")
    return h

def received_power(obj: ObjectState, uav: UavState, cfg: PropagationConfig) -> float:
    """Mean received power (dBm) from one tag."""
    return float(received_power_array(obj.position, uav, cfg))


def sample_measurement(
    obj: ObjectState,
    uav: UavState,
    cfg: PropagationConfig,
    rng: np.random.Generator,
    time_step: int = 0,
) -> Measurement:
    """Draw one noisy RSSI observation: mean power plus N(0, noise_var)."""
    rssi = received_power(obj, uav, cfg) + rng.normal(0.0, math.sqrt(cfg.noise_var))
    return Measurement(tag_id=obj.tag_id, rssi=float(rssi), time_step=time_step)


def log_likelihood_array(rssi: float, positions, uav: UavState, cfg: PropagationConfig) -> np.ndarray:
    """Gaussian log-density of an RSSI value for candidate tag positions (..., 3).

    Positions coincident with the observer get -inf (excluded by the void
    constraint in normal operation).
    """
    global _likelihood_calls
    _likelihood_calls += 1
    h, d3 = _model_power(positions, uav, cfg)
    ll = np.subtract(rssi, h, out=h)
    ll *= ll
    ll *= -0.5 / cfg.noise_var
    ll += -0.5 * math.log(2.0 * math.pi * cfg.noise_var)
    if not d3.all():
        ll[d3 == 0.0] = -np.inf
    return ll


def log_likelihood(z: Measurement, particle: ObjectState, uav: UavState, cfg: PropagationConfig) -> float:
    """Log-density of one measurement at one candidate tag state."""
    return float(log_likelihood_array(z.rssi, particle.position, uav, cfg))
