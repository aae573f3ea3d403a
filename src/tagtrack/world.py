"""Scenario state: observer kinematics with waypoint rollout and target random walk."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"degenerate area: {self}")

    @property
    def center(self) -> np.ndarray:
        return np.array([0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max)])

    def contains(self, xy) -> bool:
        x, y = float(xy[0]), float(xy[1])
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def clamp(self, xy) -> np.ndarray:
        """Clip a 2D point (or an (..., 2) array of points) into the rectangle."""
        pts = np.asarray(xy, dtype=float)
        lo = np.array([self.x_min, self.y_min])
        hi = np.array([self.x_max, self.y_max])
        return np.clip(pts, lo, hi)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n points uniformly over the rectangle, shape (n, 2)."""
        lo = np.array([self.x_min, self.y_min])
        hi = np.array([self.x_max, self.y_max])
        return rng.uniform(lo, hi, size=(n, 2))


def wrap_heading(theta: float) -> float:
    """Normalize an angle to [0, 2*pi)."""
    return float(theta) % TWO_PI


@dataclass
class UavState:
    """Observer pose: 3D position (z is altitude AGL), heading in [0, 2pi), speed in m/s."""

    position: np.ndarray
    heading: float = 0.0
    speed: float = 0.0

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        self.heading = wrap_heading(self.heading)
        if self.speed < 0.0:
            raise ValueError(f"negative speed: {self.speed}")

    @property
    def xy(self) -> np.ndarray:
        return self.position[:2]


@dataclass
class ObjectState:
    """A radio tag: 3D position at fixed height, identified by tag_id."""

    position: np.ndarray
    tag_id: int = 1

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(3)


@dataclass(frozen=True)
class UavKinematics:
    """Waypoint-following motion limits for the observer."""

    v_max: float = 5.0
    accel: float = 2.5  # symmetric accelerate/decelerate magnitude
    altitude: float = 30.0

    def __post_init__(self):
        if self.v_max <= 0.0 or self.accel <= 0.0:
            raise ValueError("v_max and accel must be positive")


@dataclass
class TargetDynamics:
    """Gaussian random-walk displacement per step; z-axis variance must be zero."""

    q_diag: np.ndarray = field(default_factory=lambda: np.array([1.0, 1.0, 0.0]))

    def __post_init__(self):
        self.q_diag = np.asarray(self.q_diag, dtype=float).reshape(3)
        if np.any(self.q_diag < 0.0):
            raise ValueError("process noise variances must be non-negative")
        if self.q_diag[2] != 0.0:
            raise ValueError("z-axis process noise must be zero (targets stay at fixed height)")


def random_walk_displacements(n: int, dyn: TargetDynamics, rng: np.random.Generator) -> np.ndarray:
    """Draw n zero-mean Gaussian displacement vectors with covariance diag(q_diag)."""
    return rng.normal(size=(n, 3)) * np.sqrt(dyn.q_diag)


def target_step(
    state: ObjectState,
    dyn: TargetDynamics,
    rng: np.random.Generator,
    area: Area | None = None,
) -> ObjectState:
    """Advance a target one step of its random walk, clamped to the mission area."""
    pos = state.position + random_walk_displacements(1, dyn, rng)[0]
    if area is not None:
        pos[:2] = area.clamp(pos[:2])
    return ObjectState(position=pos, tag_id=state.tag_id)


@lru_cache(maxsize=4096)
def _trapezoid_samples(
    distance: float,
    v0: float,
    v_max: float,
    accel: float,
    horizon: int,
    step_period: float,
) -> tuple[tuple[float, float], ...]:
    """Integrate the 1D trapezoidal speed profile toward a waypoint at `distance`.

    Forward-Euler at step EULER_DT_S; returns (arc_length, speed) sampled every step_period,
    horizon samples total. Accelerates at `accel` up to v_max, cruises, and brakes so
    the arc length never exceeds `distance`.
    """
    dt = EULER_DT_S
    n_fine = max(1, round(step_period / dt))
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
    area: Area | None = None,
) -> list[UavState]:
    """Emulate flying toward a 2D waypoint, returning poses sampled every step_period.

    The path is the straight segment to the waypoint with a trapezoidal speed profile
    starting from the current speed. Heading points along the travel direction; the
    final pose never overshoots the waypoint. Waypoints outside `area` are clamped.
    """
    if horizon_steps < 1:
        raise ValueError("horizon_steps must be >= 1")
    wp = np.asarray(waypoint, dtype=float).reshape(-1)[:2]
    if area is not None:
        wp = area.clamp(wp)
    start = current.position
    delta = wp - start[:2]
    dist = float(math.hypot(delta[0], delta[1]))
    if dist <= 1e-12:
        unit = np.zeros(2)
        heading = current.heading
        dist = 0.0
    else:
        unit = delta / dist
        heading = wrap_heading(math.atan2(delta[1], delta[0]))
    samples = _trapezoid_samples(
        dist, float(current.speed), kin.v_max, kin.accel, int(horizon_steps), float(step_period),
    )
    poses = []
    for s, v in samples:
        xy = start[:2] + unit * s
        poses.append(UavState(position=np.array([xy[0], xy[1], start[2]]), heading=heading, speed=v))
    return poses
