"""Trajectory planning under a void (safe-distance) probability constraint.

The void probability of a pose, under one belief, is the probability that the tag
lies outside the horizontal disc of radius r_min around the pose. Extended to a
candidate trajectory it is the minimum over all tracked objects and all rollout
poses. The greedy task-based planner steers toward the unlocalized object with the
lowest belief spread, trying the LOS point A and the two tangent points B, C on the
object's void circle first, then a discrete set of headings, and accepts the first
(A/B/C) or the nearest (discrete) candidate whose trajectory keeps the void
probability above a configured lower bound. Information-gain planners score the
discrete candidates and stay-in-place by Renyi or Shannon belief change from a
predicted ideal measurement. All three planners draw their candidates from one
gated search (`_gated`), so they face the same constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rf, tracker
from .world import Area, ObjectState, UavKinematics, UavState, uav_rollout, wrap_heading


@dataclass(frozen=True)
class VoidConfig:
    r_min: float = 50.0
    b_min: float = 0.8
    horizon: int = 11
    step_period: float = 1.0
    action_count: int = 12

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.r_min > 0.0:
            raise ValueError("r_min must be positive")
        if not (0.0 <= self.b_min <= 1.0):
            raise ValueError("b_min must lie in [0, 1]")
        if not self.horizon >= 1:
            raise ValueError("horizon must be >= 1")
        if not self.action_count >= 3:
            raise ValueError("action_count must be >= 3")
        if not 0.0 < self.step_period < math.inf:
            raise ValueError("step_period must be positive and finite")


@dataclass(frozen=True)
class PlannerKind:
    kind: str = "lavapilot"  # "lavapilot" | "renyi" | "shannon"
    alpha: float = 0.5
    void_enabled: bool = True

    def __post_init__(self):
        if self.kind not in ("lavapilot", "renyi", "shannon"):
            raise ValueError(f"unknown planner kind: {self.kind}")
        if self.kind == "renyi" and not (0.0 < self.alpha < math.inf and self.alpha != 1.0):
            raise ValueError("renyi alpha must lie in (0,1) or (1,inf)")


@dataclass
class CandidateAction:
    """A waypoint with its rolled-out pose sequence and trajectory void probability.

    `fallback` marks actions exempted from the void gate (stay-in-place when no
    candidate qualifies, or the radial escape when starting inside a void disc).
    """

    waypoint: np.ndarray
    rollout: list[UavState]
    void_prob: float
    label: str
    fallback: bool = False


def in_void(particle: ObjectState, uav_pose: UavState, r_min: float) -> bool:
    """True iff the horizontal distance from particle to pose is strictly below r_min."""
    dx = particle.position[0] - uav_pose.position[0]
    dy = particle.position[1] - uav_pose.position[1]
    return dx * dx + dy * dy < r_min * r_min


def _rollout_xy(rollout) -> np.ndarray:
    return np.array([[p.position[0], p.position[1]] for p in rollout])


def _mass_inside(belief: tracker.ObjectBelief, px: np.ndarray, py: np.ndarray, r_min: float) -> np.ndarray:
    """Belief mass inside the void disc of each pose; shape (H,).

    A bounding-box prefilter skips particles that cannot fall inside any disc.
    """
    x = belief.particles[:, 0]
    y = belief.particles[:, 1]
    near = (
        (x >= px.min() - r_min) & (x <= px.max() + r_min)
        & (y >= py.min() - r_min) & (y <= py.max() + r_min)
    )
    if not near.any():
        return np.zeros(len(px))
    dx = x[near, None] - px[None, :]
    dy = y[near, None] - py[None, :]
    inside = (dx * dx + dy * dy) < r_min * r_min
    return belief.weights[near] @ inside


def _void_per_belief(beliefs, rollout, r_min: float):
    """Per belief, the minimum void probability over the rollout poses."""
    xy = _rollout_xy(rollout)
    px, py = xy[:, 0], xy[:, 1]
    for belief in beliefs:
        yield 1.0 - float(np.max(_mass_inside(belief, px, py, r_min)))


def void_probability(belief: tracker.ObjectBelief, uav_pose: UavState, r_min: float) -> float:
    """One minus the belief mass inside the pose's void disc."""
    return trajectory_void_probability([belief], [uav_pose], r_min)


def trajectory_void_probability(beliefs, rollout, r_min: float) -> float:
    """Minimum void probability over all (object, rollout pose) pairs."""
    return min(_void_per_belief(beliefs, rollout, r_min), default=1.0)


def _void_ok(beliefs, rollout, r_min: float, b_min: float) -> bool:
    """Gate check with early exit per belief; decision-equivalent to the exact min."""
    return not any(vp < b_min for vp in _void_per_belief(beliefs, rollout, r_min))


def _rotate(vec: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([c * vec[0] - s * vec[1], s * vec[0] + c * vec[1]])


def candidate_points_abc(uav: UavState, target_estimate, r_min: float) -> list[tuple[str, np.ndarray]]:
    """Candidate waypoints on the void circle of radius r_min around the estimate.

    A is the intersection of the observer-to-estimate LOS with the circle; B and C
    are the two tangent points seen from the observer (observer-to-point
    perpendicular to point-to-estimate). When the observer is on or inside the
    circle only the radially outward point is returned; at zero range the escape
    direction is the current heading.
    """
    est = np.asarray(target_estimate, dtype=float).reshape(-1)[:2]
    to_uav = uav.xy - est
    dist = float(math.hypot(to_uav[0], to_uav[1]))
    if dist == 0.0:
        u_hat = np.array([math.cos(uav.heading), math.sin(uav.heading)])
        return [("A", est + r_min * u_hat)]
    u_hat = to_uav / dist
    point_a = est + r_min * u_hat
    if dist <= r_min:
        return [("A", point_a)]
    beta = math.acos(r_min / dist)
    point_b = est + r_min * _rotate(u_hat, beta)
    point_c = est + r_min * _rotate(u_hat, -beta)
    return [("A", point_a), ("B", point_b), ("C", point_c)]


def _discrete_waypoints(uav: UavState, kin: UavKinematics, cfg: VoidConfig, area: Area | None):
    """The |U| headings {0, 2pi/|U|, ...} as (label, waypoint one full-speed epoch away)."""
    reach = kin.v_max * cfg.horizon * cfg.step_period
    for i in range(cfg.action_count):
        theta = 2.0 * math.pi * i / cfg.action_count
        wp = uav.xy + reach * np.array([math.cos(theta), math.sin(theta)])
        yield f"discrete_{i:02d}", wp if area is None else area.clamp(wp)


def _gated(beliefs, uav: UavState, kin: UavKinematics, cfg: VoidConfig, area: Area | None,
           candidates):
    """(label, waypoint, rollout) of each (label, waypoint) candidate, in order, whose
    trajectory keeps the void probability of every object at or above cfg.b_min."""
    for label, wp in candidates:
        rollout = uav_rollout(uav, wp, kin, cfg.horizon, cfg.step_period, area)
        if _void_ok(beliefs, rollout, cfg.r_min, cfg.b_min):
            yield label, wp, rollout


def _finalize(beliefs, label: str, wp, rollout, cfg: VoidConfig, fallback: bool = False) -> CandidateAction:
    vp = trajectory_void_probability(beliefs, rollout, cfg.r_min)
    return CandidateAction(waypoint=np.asarray(wp, dtype=float), rollout=rollout,
                           void_prob=vp, label=label, fallback=fallback)


def _stay(beliefs, uav: UavState, kin: UavKinematics, cfg: VoidConfig,
          area: Area | None) -> CandidateAction:
    """The stay-in-place fallback, exempt from the gate, for when no candidate passes it."""
    wp = uav.xy.copy()
    rollout = uav_rollout(uav, wp, kin, cfg.horizon, cfg.step_period, area)
    return _finalize(beliefs, "stay", wp, rollout, cfg, fallback=True)


def lavapilot_select(
    beliefs,
    uav: UavState,
    kin: UavKinematics,
    cfg: VoidConfig,
    area: Area | None = None,
) -> CandidateAction | None:
    """Greedy task-based selection toward the lowest-spread unlocalized object.

    Returns None when every object is localized (mission complete). Evaluates A, B,
    C in that fixed order and returns the first whose trajectory satisfies the void
    bound; otherwise the qualifying discrete heading whose waypoint is nearest the
    selected object (the lowest index on ties); otherwise the stay-in-place
    fallback. Starting on or inside the selected object's void disc returns the
    radially outward escape, exempt from the gate for that single decision.
    """
    active = [b for b in beliefs if not b.localized]
    if not active:
        return None
    x_star = min(active, key=lambda b: (tracker.uncertainty(b), b.tag_id))
    est_xy = tracker.estimate(x_star).position[:2]

    points = candidate_points_abc(uav, est_xy, cfg.r_min)
    if float(math.hypot(*(uav.xy - est_xy))) <= cfg.r_min:
        wp = points[0][1]
        rollout = uav_rollout(uav, wp, kin, cfg.horizon, cfg.step_period, area)
        return _finalize(beliefs, "escape", wp, rollout, cfg, fallback=True)

    best = next(_gated(beliefs, uav, kin, cfg, area, points), None)
    if best is None:
        best = min(_gated(beliefs, uav, kin, cfg, area, _discrete_waypoints(uav, kin, cfg, area)),
                   key=lambda c: float(math.hypot(*(c[1] - est_xy))), default=None)
    if best is None:
        return _stay(beliefs, uav, kin, cfg, area)
    return _finalize(beliefs, *best, cfg)


def shannon_reward(weights: np.ndarray, log_g: np.ndarray) -> float:
    """Entropy of the weights before minus after a pseudo-update with likelihood g."""
    w = weights / weights.sum()
    finite = np.isfinite(log_g)
    if not finite.any():
        return 0.0
    m = np.max(log_g[finite])
    g = np.where(finite, np.exp(log_g - m), 0.0)
    wg = w * g
    total = wg.sum()
    if total <= 0.0:
        return 0.0
    post = wg / total

    def entropy(p):
        nz = p > 0.0
        return -float(np.sum(p[nz] * np.log(p[nz])))

    return entropy(w) - entropy(post)


def renyi_reward(weights: np.ndarray, log_g: np.ndarray, alpha: float) -> float:
    """Particle alpha-divergence between the prior and the pseudo-posterior:

        R = 1/(alpha-1) * ln( sum_i w_i g_i^alpha / (sum_i w_i g_i)^alpha )

    evaluated in log space for numerical stability.
    """
    w = weights / weights.sum()
    finite = np.isfinite(log_g)
    if not finite.any():
        return 0.0
    m = np.max(log_g[finite])
    shifted = np.where(finite, log_g - m, -np.inf)
    g = np.exp(shifted)
    num = float(np.sum(w * np.power(g, alpha)))
    den = float(np.sum(w * g))
    if num <= 0.0 or den <= 0.0:
        return 0.0
    return (math.log(num) - alpha * math.log(den)) / (alpha - 1.0)


def _pseudo_update_reward(
    belief: tracker.ObjectBelief,
    terminal: UavState,
    kind: PlannerKind,
    rf_cfg: rf.PropagationConfig,
) -> float:
    """Reward of a predicted ideal (noiseless) measurement taken at the terminal pose."""
    est = tracker.estimate(belief)
    try:
        z_star = rf.received_power(est, terminal, rf_cfg)
    except ValueError:  # estimate coincides with the pose; no usable prediction
        return 0.0
    log_g = rf.log_likelihood_array(z_star, belief.particles, terminal, rf_cfg, belief.height)
    if kind.kind == "shannon":
        return shannon_reward(belief.weights, log_g)
    return renyi_reward(belief.weights, log_g, kind.alpha)


def info_gain_select(
    beliefs,
    uav: UavState,
    kin: UavKinematics,
    cfg: VoidConfig,
    kind: PlannerKind,
    rf_cfgs,
    area: Area | None = None,
) -> CandidateAction | None:
    """Reward-maximizing selection over the discrete headings plus stay-in-place.

    Each candidate is scored by the summed per-object reward of a pseudo-update at
    its terminal rollout pose, over unlocalized objects only; candidates violating
    the void bound are discarded first. Ties break toward the lowest candidate
    index. If nothing qualifies the stay-in-place fallback is returned.
    rf_cfgs holds one PropagationConfig per belief (per-tag carriers).
    """
    active = [(b, c) for b, c in zip(beliefs, rf_cfgs, strict=True) if not b.localized]
    if not active:
        return None

    def reward(gated) -> float:
        terminal = gated[2][-1]
        return sum(_pseudo_update_reward(b, terminal, kind, c) for b, c in active)

    candidates = [*_discrete_waypoints(uav, kin, cfg, area), ("stay", uav.xy.copy())]
    best = max(_gated(beliefs, uav, kin, cfg, area, candidates), key=reward, default=None)
    if best is None:
        return _stay(beliefs, uav, kin, cfg, area)
    return _finalize(beliefs, *best, cfg)


def select_action(
    beliefs,
    uav: UavState,
    kin: UavKinematics,
    cfg: VoidConfig,
    kind: PlannerKind,
    rf_cfgs,
    area: Area | None = None,
) -> CandidateAction | None:
    """Dispatch to the configured planner; rf_cfgs holds one PropagationConfig per belief."""
    if kind.kind == "lavapilot":
        return lavapilot_select(beliefs, uav, kin, cfg, area)
    return info_gain_select(beliefs, uav, kin, cfg, kind, rf_cfgs, area)


def verify_void_bound(action: CandidateAction, cfg: VoidConfig, beliefs=None) -> bool:
    """Safe-distance audit: the selected trajectory keeps the void probability at or
    above the configured bound (recomputed from the beliefs when provided)."""
    if beliefs is not None:
        vp = trajectory_void_probability(beliefs, action.rollout, cfg.r_min)
    else:
        vp = action.void_prob
    return vp >= cfg.b_min
