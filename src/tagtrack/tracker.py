"""Sequential importance resampling particle filter, one instance per tag."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import rf
from .world import Area, TargetDynamics, UavState, check_fields, random_walk


@dataclass(frozen=True)
class TrackerConfig:
    num_particles: int = 10_000
    resample_threshold: float = 0.5  # fraction of num_particles
    sigma_min: float = 35.0  # meters; localization threshold

    def __post_init__(self):
        check_fields(self)
        if self.num_particles < 1:
            raise ValueError("num_particles must be an integer >= 1")
        if not (0.0 < self.resample_threshold <= 1.0):
            raise ValueError("resample_threshold must lie in (0, 1]")
        if self.sigma_min <= 0.0:
            raise ValueError("sigma_min must be positive")


@dataclass(frozen=True, eq=False)
class ObjectBelief:
    """Weighted particle approximation of one tag's posterior, an immutable value.

    particles: (N, 2) horizontal positions in meters, C-contiguous; weights: (N,)
    non-negative, summing to 1; height and wavelength: the tag's fixed height and
    carrier wavelength in meters, one value each for every particle. `diverged` flags
    that the latest update underflowed and was reset to uniform. The filter stages
    build a new belief rather than write into these arrays.
    """

    particles: np.ndarray
    weights: np.ndarray
    height: float
    wavelength: float
    localized: bool = False
    diverged: bool = False

    @cached_property
    def summary(self) -> tuple[np.ndarray, float]:
        """(weighted mean, spread), computed on first use and kept: the spread is the
        maximum per-axis weighted standard deviation about the mean (two-pass, so
        tight beliefs keep their digits)."""
        mean = self.weights @ self.particles
        dev = np.empty(self.particles.shape)
        # per column: an (N, 2) - (2,) broadcast loops two elements at a time
        for axis in range(dev.shape[1]):
            np.subtract(self.particles[:, axis], mean[axis], out=dev[:, axis])
        dev *= dev
        var = self.weights @ dev
        return mean, float(np.sqrt(np.max(var)))


def init_belief(
    area: Area,
    tag_height: float,
    wavelength: float,
    cfg: TrackerConfig,
    rng: np.random.Generator,
) -> ObjectBelief:
    """Uniform particles over the 2D search area at the tag height, uniform weights."""
    n = cfg.num_particles
    return ObjectBelief(particles=area.sample(rng, n), weights=np.full(n, 1.0 / n),
                        height=float(tag_height), wavelength=float(wavelength))


def init_belief_at(
    xy,
    tag_height: float,
    sigma: float,
    wavelength: float,
    cfg: TrackerConfig,
    rng: np.random.Generator,
    area: Area,
) -> ObjectBelief:
    """Particles drawn as a tight horizontal Gaussian blob around a known (x, y) centre,
    clamped to the mission area, at the tag height, for a tag on the given carrier
    wavelength.

    Used to construct converged beliefs for controlled experiments.
    """
    n = cfg.num_particles
    pts = np.tile(np.asarray(xy, dtype=float), (n, 1))
    pts += rng.normal(scale=sigma, size=(n, 2))
    pts = area.clamp(pts)
    return ObjectBelief(particles=pts, weights=np.full(n, 1.0 / n),
                        height=float(tag_height), wavelength=float(wavelength))


def predict(
    belief: ObjectBelief,
    dyn: TargetDynamics,
    noise: np.ndarray,
    area: Area,
) -> ObjectBelief:
    """Propagate every particle through the targets' own transition, `world.random_walk`,
    with one row of the standard-normal block `noise` per particle; weights unchanged.
    The block is not kept."""
    return replace(belief, particles=random_walk(belief.particles, dyn, noise, area))


def update(
    belief: ObjectBelief,
    rssi: float,
    uav: UavState,
    cfg: rf.PropagationConfig,
) -> ObjectBelief:
    """Bayes reweighting by the likelihood of one RSSI measurement at the belief's
    height and carrier wavelength, log-sum-exp stabilized.

    If every likelihood underflows (all particles coincident with the observer),
    the weights reset to uniform and the belief is flagged diverged.
    """
    logw = rf.log_likelihood_array(rssi, belief.particles, uav, cfg, belief.height,
                                   belief.wavelength)
    with np.errstate(divide="ignore"):
        logw += np.log(belief.weights)
    m = np.max(logw)
    if not np.isfinite(m):
        n = len(belief.weights)
        return replace(belief, weights=np.full(n, 1.0 / n), diverged=True)
    logw -= m
    w = np.exp(logw, out=logw)
    w /= w.sum()
    return replace(belief, weights=w, diverged=False)


def effective_sample_size(weights: np.ndarray) -> float:
    return 1.0 / float(np.sum(weights * weights))


def systematic_resample_indices(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling: one uniform offset, N evenly spaced positions."""
    n = len(weights)
    positions = (rng.random() + np.arange(n)) / n
    cum = np.cumsum(weights)
    cum[-1] = 1.0  # guard against rounding
    return np.searchsorted(cum, positions, side="right")


def resample_if_needed(
    belief: ObjectBelief,
    cfg: TrackerConfig,
    rng: np.random.Generator,
) -> ObjectBelief:
    """Systematic resampling when the effective sample size drops below the threshold."""
    n = len(belief.weights)
    if effective_sample_size(belief.weights) >= cfg.resample_threshold * n:
        return belief
    idx = systematic_resample_indices(belief.weights, rng)
    # np.take gathers whole rows in one copy, several times faster than fancy indexing
    return replace(belief, particles=np.take(belief.particles, idx, axis=0),
                   weights=np.full(n, 1.0 / n))


def estimate(belief: ObjectBelief) -> np.ndarray:
    """The weighted mean of the particles: a fresh (2,) array (mean x, mean y). The tag
    height is `belief.height`."""
    return belief.summary[0].copy()


def uncertainty(belief: ObjectBelief) -> float:
    """Belief spread: the maximum of the per-axis weighted standard deviations."""
    return belief.summary[1]


def mark_localized(belief: ObjectBelief, cfg: TrackerConfig) -> ObjectBelief:
    """Set `localized` once the spread falls below sigma_min; never reverts."""
    if not belief.localized and uncertainty(belief) < cfg.sigma_min:
        return replace(belief, localized=True)
    return belief
