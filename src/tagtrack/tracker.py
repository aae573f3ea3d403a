"""Sequential importance resampling particle filter, one instance per tag."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import rf
from .world import Area, ObjectState, TargetDynamics, UavState


@dataclass(frozen=True)
class TrackerConfig:
    num_particles: int = 10_000
    resample_threshold: float = 0.5  # fraction of num_particles
    sigma_min: float = 35.0  # meters; localization threshold

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.num_particles >= 1:
            raise ValueError("num_particles must be >= 1")
        if not (0.0 < self.resample_threshold <= 1.0):
            raise ValueError("resample_threshold must lie in (0, 1]")
        if not 0.0 < self.sigma_min < math.inf:
            raise ValueError("sigma_min must be positive and finite")


@dataclass(frozen=True, eq=False)
class ObjectBelief:
    """Weighted particle approximation of one tag's posterior, an immutable value.

    particles: (N, 2) horizontal positions in meters, C-contiguous; weights: (N,)
    non-negative, summing to 1; height: the tag's fixed height in meters, one value
    for every particle. `diverged` flags that the latest update underflowed and was
    reset to uniform. The filter stages build a new belief rather than write into
    these arrays.
    """

    tag_id: int
    particles: np.ndarray
    weights: np.ndarray
    height: float
    localized: bool = False
    diverged: bool = False

    @cached_property
    def summary(self) -> tuple[np.ndarray, float]:
        """(weighted mean, spread), computed on first use and kept: the spread is the
        maximum per-axis weighted standard deviation about the mean (two-pass, so
        tight beliefs keep their digits)."""
        mean = self.weights @ self.particles
        dev = np.empty_like(self.particles)
        # per column: an (N, 2) - (2,) broadcast loops two elements at a time
        for axis in range(dev.shape[1]):
            np.subtract(self.particles[:, axis], mean[axis], out=dev[:, axis])
        dev *= dev
        var = self.weights @ dev
        return mean, float(np.sqrt(np.max(var)))


def init_belief(
    tag_id: int,
    area: Area,
    tag_height: float,
    cfg: TrackerConfig,
    rng: np.random.Generator,
) -> ObjectBelief:
    """Uniform particles over the 2D search area at the tag height, uniform weights."""
    n = cfg.num_particles
    return ObjectBelief(tag_id=tag_id, particles=area.sample(rng, n), weights=np.full(n, 1.0 / n),
                        height=float(tag_height))


def init_belief_at(
    tag_id: int,
    position,
    sigma: float,
    cfg: TrackerConfig,
    rng: np.random.Generator,
    area: Area | None = None,
) -> ObjectBelief:
    """Particles drawn as a tight horizontal Gaussian blob around a known 3D position,
    at its height.

    Used to construct converged beliefs for controlled experiments.
    """
    n = cfg.num_particles
    center = np.asarray(position, dtype=float).reshape(3)
    pts = np.tile(center[:2], (n, 1))
    pts += rng.normal(scale=sigma, size=(n, 2))
    if area is not None:
        pts = area.clamp(pts)
    return ObjectBelief(tag_id=tag_id, particles=pts, weights=np.full(n, 1.0 / n),
                        height=float(center[2]))


def predict(
    belief: ObjectBelief,
    dyn: TargetDynamics,
    noise: np.ndarray,
    area: Area | None = None,
) -> ObjectBelief:
    """Propagate every particle through the random-walk transition; weights unchanged.

    `noise` is an (N, 3) block of standard normals as `rng.standard_normal((N, 3))`
    draws them; the new particles then match the x and y columns of
    `pts + random_walk_displacements(N, dyn, rng)` bit for bit. Only columns 0 and 1
    are read (TargetDynamics rejects z noise): the third keeps each generator's
    stream as it was. The result is a fresh (N, 2) array; the block is not kept.
    """
    old = belief.particles
    n = len(old)
    if noise.shape != (n, 3):
        raise ValueError(f"noise block has shape {noise.shape}, expected {(n, 3)}")
    pts = np.empty((n, 2))
    # column by column: numpy loops over an (N, 2) array two elements at a time
    for axis in (0, 1):
        col = np.multiply(noise[:, axis], np.sqrt(dyn.q_diag[axis]), out=pts[:, axis])
        col += old[:, axis]
    if area is not None:
        np.clip(pts[:, 0], area.x_min, area.x_max, out=pts[:, 0])
        np.clip(pts[:, 1], area.y_min, area.y_max, out=pts[:, 1])
    return replace(belief, particles=pts)


def update(
    belief: ObjectBelief,
    z: rf.Measurement,
    uav: UavState,
    cfg: rf.PropagationConfig,
) -> ObjectBelief:
    """Bayes reweighting by the measurement likelihood, log-sum-exp stabilized.

    If every likelihood underflows (all particles coincident with the observer),
    the weights reset to uniform and the belief is flagged diverged.
    """
    if z.tag_id != belief.tag_id:
        raise ValueError(f"measurement tag {z.tag_id} does not match belief tag {belief.tag_id}")
    logw = rf.log_likelihood_array(z.rssi, belief.particles, uav, cfg, belief.height)
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
    return replace(belief, particles=belief.particles[idx], weights=np.full(n, 1.0 / n))


def estimate(belief: ObjectBelief) -> ObjectState:
    """The weighted mean of the particles, at the tag height."""
    return ObjectState(position=np.append(belief.summary[0], belief.height), tag_id=belief.tag_id)


def uncertainty(belief: ObjectBelief) -> float:
    """Belief spread: the maximum of the per-axis weighted standard deviations."""
    return belief.summary[1]


def mark_localized(belief: ObjectBelief, cfg: TrackerConfig) -> ObjectBelief:
    """Set `localized` once the spread falls below sigma_min; never reverts."""
    if not belief.localized and uncertainty(belief) < cfg.sigma_min:
        return replace(belief, localized=True)
    return belief
