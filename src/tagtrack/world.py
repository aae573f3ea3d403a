"""Scenario state: observer kinematics with waypoint rollout and target random walk."""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi
EULER_DT_S = 1e-3  # forward-Euler step of the rollout speed profile


class ConfigError(ValueError):
    """Invalid scenario configuration."""


def is_count(value) -> bool:
    """Whether `value` is an integer (a numpy integer too), not a bool or a whole float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _number(key: str, value) -> float:
    """`value` as a finite float, else a ConfigError naming `key`: a real number, not a
    bool."""
    try:
        ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and math.isfinite(value))
    except OverflowError:  # an integer too large for a float
        ok = False
    if not ok:
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _xy(key: str, point) -> tuple[float, float]:
    """`point` as an (x, y) pair of finite floats, else a ConfigError naming `key`."""
    try:
        x, y = point
    except (TypeError, ValueError):  # not iterable, or not two entries
        raise ConfigError(f"{key} must be an (x, y) pair, got {point!r}") from None
    return _number(f"{key}[0]", x), _number(f"{key}[1]", y)


def _each(key: str, values, check) -> tuple:
    """`check(f"{key}[i]", v)` of each entry v of `values`, else a ConfigError naming `key`."""
    if not np.iterable(values):
        raise ConfigError(f"{key} must be a list, got {values!r}")
    return tuple(check(f"{key}[{i}]", v) for i, v in enumerate(values))


_KINDS = {bool: "true or false", str: "a string"}


def check_fields(cfg, keys=None) -> None:
    """Hold each field of the frozen config dataclass `cfg` as the type of its default:
    a float field takes a finite real number (an integer too) and stores it as a float,
    an int field a count and stores it as an int (a numpy integer too, as JSON needs),
    a tuple field a list of finite real numbers and stores it as a tuple of floats (so
    the config compares, hashes and pickles as a value, and nothing can edit it), a bool
    or a str field only its own type, and a sub-config field an instance of its class. A
    field whose default is None is left to its class. A ConfigError names the field, or
    its JSON key `keys[name]` when `keys` maps it."""
    for f in fields(cfg):
        value, key = getattr(cfg, f.name), (keys or {}).get(f.name, f.name)
        kind = type(f.default) if f.default_factory is MISSING else f.default_factory
        if kind is float:
            object.__setattr__(cfg, f.name, _number(key, value))
        elif kind is int:
            if not is_count(value):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
            object.__setattr__(cfg, f.name, int(value))
        elif kind is tuple:
            object.__setattr__(cfg, f.name, _each(key, value, _number))
        elif kind is not type(None) and not isinstance(value, kind):
            what = _KINDS.get(kind, f"a {kind.__name__}")
            raise ConfigError(f"{key} must be {what}, got {value!r}")


@dataclass(frozen=True)
class Area:
    """Axis-aligned mission rectangle in meters."""

    x_min: float = 0.0
    x_max: float = 1000.0
    y_min: float = 0.0
    y_max: float = 1000.0

    def __post_init__(self):
        check_fields(self)
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"area bounds must have min < max: {self}")

    @property
    def center(self) -> np.ndarray:
        return np.array([0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max)])

    def contains(self, xy) -> bool:
        x, y = float(xy[0]), float(xy[1])
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def clamp(self, xy, out=None) -> np.ndarray:
        """A 2D point (or an (..., 2) array of points) clipped into the rectangle, into
        `out` (which may be `xy` itself) or else a fresh array of its shape: x against
        x_min/x_max and y against y_min/y_max, each with scalar bounds. A value equal to
        a bound keeps its sign of zero (a -0.0 on a 0.0 edge stays -0.0), as IEEE
        comparisons leave it."""
        pts = np.asarray(xy, dtype=float)
        if out is None:
            out = np.empty(np.broadcast_shapes(pts.shape, (2,)))  # any other last axis raises
        np.clip(pts[..., 0], self.x_min, self.x_max, out=out[..., 0])
        np.clip(pts[..., 1], self.y_min, self.y_max, out=out[..., 1])
        return out

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n points uniformly over the rectangle, shape (n, 2)."""
        lo = np.array([self.x_min, self.y_min])
        hi = np.array([self.x_max, self.y_max])
        return rng.uniform(lo, hi, size=(n, 2))


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
        check_fields(self)
        if not (self.v_max > 0.0 and self.accel > 0.0):
            raise ValueError("v_max and accel must be positive")


@dataclass(frozen=True)
class TargetDynamics:
    """Gaussian random-walk displacement per step; z-axis variance must be zero."""

    q_diag: tuple[float, float, float] = (1.0, 1.0, 0.0)

    def __post_init__(self):
        check_fields(self)
        if len(self.q_diag) != 3:
            raise ValueError(f"q_diag must hold 3 variances (x, y, z), got {len(self.q_diag)}")
        if min(self.q_diag) < 0.0:
            raise ValueError("process noise variances must be non-negative")
        if self.q_diag[2] != 0.0:
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
    return area.clamp(out, out=out)


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
