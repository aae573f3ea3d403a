"""Scenario state: observer kinematics with waypoint rollout and target random walk."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi
EULER_DT_S = 1e-3  # forward-Euler step of the rollout speed profile


@dataclass(frozen=True)
class Area:
    """Axis-aligned mission rectangle in meters."""

    x_min: float = 0.0
    x_max: float = 1000.0
    y_min: float = 0.0
    y_max: float = 1000.0

    def __post_init__(self):
        # written so that NaN fails it; an infinite bound fails too
        if not (-math.inf < self.x_min < self.x_max < math.inf
                and -math.inf < self.y_min < self.y_max < math.inf):
            raise ValueError(f"area bounds must be finite with min < max: {self}")

    @property
    def center(self) -> np.ndarray:
        return np.array([0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max)])

    def contains(self, xy) -> bool:
        x, y = float(xy[0]), float(xy[1])
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def clamp(self, xy) -> np.ndarray:
        """A 2D point (or an (..., 2) array of points) clipped into the rectangle, as a
        fresh array of its shape: x against x_min/x_max and y against y_min/y_max, each
        with scalar bounds. A value equal to a bound keeps its sign of zero (a -0.0 on a
        0.0 edge stays -0.0), as IEEE comparisons leave it."""
        pts = np.asarray(xy, dtype=float)
        out = np.empty(np.broadcast_shapes(pts.shape, (2,)))  # any other last axis raises
        np.clip(pts[..., 0], self.x_min, self.x_max, out=out[..., 0])
        np.clip(pts[..., 1], self.y_min, self.y_max, out=out[..., 1])
        return out

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n points uniformly over the rectangle, shape (n, 2)."""
        lo = np.array([self.x_min, self.y_min])
        hi = np.array([self.x_max, self.y_max])
        return rng.uniform(lo, hi, size=(n, 2))


def is_count(value) -> bool:
    """Whether `value` is an integer (a numpy integer too), not a bool or a whole float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def wrap_heading(theta: float) -> float:
    """Normalize an angle to [0, 2*pi)."""
    return float(theta) % TWO_PI


@dataclass(frozen=True, eq=False)  # an array field: equality is identity
class UavState:
    """Observer pose, an immutable value: a read-only (2,) `xy` and the `altitude` above
    ground in meters, a heading in [0, 2pi) and a speed in m/s."""

    xy: np.ndarray
    altitude: float
    heading: float = 0.0
    speed: float = 0.0

    def __post_init__(self):
        xy = np.array(self.xy, dtype=float).reshape(2)  # a copy: no caller's array aliases it
        xy.flags.writeable = False
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "altitude", float(self.altitude))
        object.__setattr__(self, "heading", wrap_heading(self.heading))
        # a non-finite heading wraps to NaN, and NaN fails both checks
        values = (*xy.tolist(), self.altitude, self.heading, self.speed)
        if not (all(map(math.isfinite, values)) and self.speed >= 0.0):
            raise ValueError(f"pose values must be finite and the speed non-negative: {self}")


@dataclass(frozen=True, eq=False)  # array fields: equality is identity
class Rollout:
    """H observer poses sampled every step period along one straight flight.

    `xy` holds the (H, 2) positions and `speed` the (H,) speeds, both read-only; every
    pose shares `altitude` and `heading`. `rollout[i]` is pose i as a UavState.
    """

    xy: np.ndarray
    speed: np.ndarray
    altitude: float
    heading: float

    def __len__(self) -> int:
        return len(self.speed)

    def __getitem__(self, i) -> UavState:
        return UavState(xy=self.xy[i], altitude=self.altitude, heading=self.heading,
                        speed=float(self.speed[i]))


@dataclass(frozen=True)
class UavKinematics:
    """Waypoint-following motion limits for the observer."""

    v_max: float = 5.0
    accel: float = 2.5  # symmetric accelerate/decelerate magnitude
    altitude: float = 30.0

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not (0.0 < self.v_max < math.inf and 0.0 < self.accel < math.inf):
            raise ValueError("v_max and accel must be positive and finite")
        if not math.isfinite(self.altitude):
            raise ValueError("altitude must be finite")


@dataclass(frozen=True)
class TargetDynamics:
    """Gaussian random-walk displacement per step; z-axis variance must be zero."""

    q_diag: tuple[float, float, float] = (1.0, 1.0, 0.0)

    def __post_init__(self):
        # a tuple of floats: compares, hashes and pickles as a value, and nothing can edit it
        q_diag = tuple(map(float, np.ravel(self.q_diag)))
        if len(q_diag) != 3:
            raise ValueError(f"q_diag must hold 3 variances (x, y, z), got {len(q_diag)}")
        object.__setattr__(self, "q_diag", q_diag)
        if not all(0.0 <= q < math.inf for q in q_diag):
            raise ValueError("process noise variances must be non-negative and finite")
        if q_diag[2] != 0.0:
            raise ValueError("z-axis process noise must be zero (targets stay at fixed height)")


def random_walk(xy: np.ndarray, dyn: TargetDynamics, noise: np.ndarray, area: Area) -> np.ndarray:
    """One random-walk step of the (n, 2) points `xy`: each point moves by its row of the
    (n, len(dyn.q_diag)) standard-normal block `noise` times the per-axis standard
    deviations, x and y only (z has zero variance; its column keeps each generator's
    stream whole), then clipped into the mission area by `area.clamp`, the rule of every
    position: each axis against its own bounds, and a value equal to a bound is kept, so
    a -0.0 on a 0.0 edge stays -0.0. Returns a fresh (n, 2) array."""
    shape = (len(xy), len(dyn.q_diag))
    if noise.shape != shape:
        raise ValueError(f"noise block has shape {noise.shape}, expected {shape}")
    out = np.empty((shape[0], 2))
    # column by column: numpy loops over an (n, 2) array two elements at a time
    for axis in (0, 1):
        col = np.multiply(noise[:, axis], np.sqrt(dyn.q_diag[axis]), out=out[:, axis])
        col += xy[:, axis]
    return area.clamp(out)


def target_step(xy: np.ndarray, dyn: TargetDynamics, rngs, area: Area) -> np.ndarray:
    """Advance every target one step of its random walk, clamped to the mission area.

    `xy` holds the (T, 2) horizontal target positions; target j draws its noise row
    from rngs[j], in target order (targets stay at their fixed height). Returns a
    fresh (T, 2) array.
    """
    noise = np.concatenate([rng.normal(size=(1, len(dyn.q_diag))) for rng in rngs])
    return random_walk(xy, dyn, noise, area)


@lru_cache(maxsize=64)  # a mission reuses a profile within a few decisions; more only grows RSS
def _trapezoid_samples(
    distance: float,
    v0: float,
    v_max: float,
    accel: float,
    horizon: int,
    step_period: float,
) -> tuple[tuple[float, float], ...]:
    """Integrate the 1D trapezoidal speed profile toward a waypoint at `distance`.

    Forward-Euler at the step nearest EULER_DT_S that divides step_period; returns
    (arc_length, speed) sampled every step_period, horizon samples total. Accelerates at
    `accel` up to v_max, cruises, and brakes so the arc length never exceeds `distance`.
    """
    n_fine = max(1, round(step_period / EULER_DT_S))
    dt = step_period / n_fine
    s = 0.0
    v = v0
    out = []
    for _ in range(horizon):
        for _ in range(n_fine):
            remaining = distance - s
            if remaining <= 0.0:
                v = max(v - accel * dt, 0.0)
                continue
            if remaining <= v * v / (2.0 * accel):
                v = max(v - accel * dt, 0.0)
            else:
                v = min(v + accel * dt, v_max)
            step = v * dt
            if step >= remaining:
                s = distance  # arrive exactly; never overshoot
            else:
                s += step
        out.append((s, v))
    return tuple(out)


def uav_rollout(
    current: UavState,
    waypoint,
    kin: UavKinematics,
    horizon_steps: int,
    step_period: float,
) -> Rollout:
    """Emulate flying toward a 2D waypoint: the Rollout of poses sampled every step_period.

    The path is the straight segment to the waypoint with a trapezoidal speed profile
    starting from the current speed, at the current altitude, heading along the travel
    direction; the final pose never overshoots the waypoint. Kinematics only: the caller
    keeps the waypoint inside the mission area, and the straight path then stays inside it.
    """
    if horizon_steps < 1:
        raise ValueError("horizon_steps must be >= 1")
    delta = np.asarray(waypoint, dtype=float) - current.xy
    dist = float(math.hypot(delta[0], delta[1]))
    if dist <= 1e-12:
        unit = np.zeros(2)
        heading = current.heading
        dist = 0.0
    else:
        unit = delta / dist
        heading = wrap_heading(math.atan2(delta[1], delta[0]))
    samples = np.array(_trapezoid_samples(
        dist, float(current.speed), kin.v_max, kin.accel, int(horizon_steps), float(step_period),
    ))
    xy = current.xy + unit * samples[:, :1]
    samples.flags.writeable = xy.flags.writeable = False
    return Rollout(xy=xy, speed=samples[:, 1], altitude=current.altitude, heading=heading)
