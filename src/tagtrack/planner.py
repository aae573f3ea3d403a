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
from dataclasses import dataclass

import numpy as np

from . import rf, tracker
from .world import Area, Rollout, UavKinematics, UavState, check_fields, uav_rollout


PLANNER_KINDS = ("lavapilot", "renyi", "shannon")  # the kinds PlannerKind accepts
GATE_ROW_BLOCK = 2048  # rows of the void gate's dy² work block (176 kB at H = 11)


@dataclass(frozen=True)
class VoidConfig:
    r_min: float = 50.0
    b_min: float = 0.8
    horizon: int = 11
    step_period: float = 1.0
    action_count: int = 12

    def __post_init__(self):
        check_fields(self)
        if self.r_min <= 0.0:
            raise ValueError("r_min must be positive")
        if not (0.0 <= self.b_min <= 1.0):
            raise ValueError("b_min must lie in [0, 1]")
        if self.horizon < 1:
            raise ValueError("horizon must be an integer >= 1")
        if self.action_count < 3:
            raise ValueError("action_count must be an integer >= 3")
        if self.step_period <= 0.0:
            raise ValueError("step_period must be positive")


@dataclass(frozen=True)
class PlannerKind:
    kind: str = "lavapilot"  # one of PLANNER_KINDS
    alpha: float = 0.5
    void_enabled: bool = True

    def __post_init__(self):
        check_fields(self)
        if self.kind not in PLANNER_KINDS:
            raise ValueError(f"unknown planner kind: {self.kind}")
        if self.kind == "renyi" and not (self.alpha > 0.0 and self.alpha != 1.0):
            raise ValueError("renyi alpha must lie in (0,1) or (1,inf)")


@dataclass
class CandidateAction:
    """A waypoint in the mission area, the Rollout flown to it and its void probability.

    `fallback` marks actions exempted from the void gate (stay-in-place when no
    candidate qualifies, or the radial escape when starting inside a void disc).
    """

    waypoint: np.ndarray
    rollout: Rollout
    void_prob: float
    label: str
    fallback: bool = False


def _mass_inside(belief: tracker.ObjectBelief, px: np.ndarray, py: np.ndarray, r_min: float) -> np.ndarray:
    """Belief mass inside the void disc of each pose, at a horizontal distance strictly
    below r_min (a particle on the circle is outside); shape (H,).

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
    # one (n, H) buffer: d2 takes dx, dx², dx² + dy² and then the 1.0/0.0 disc test,
    # in the order and with the values of `(dx * dx + dy * dy) < r_min * r_min`;
    # dy² is added in blocks of at most GATE_ROW_BLOCK rows
    d2 = np.subtract(x[near, None], px[None, :])
    np.multiply(d2, d2, out=d2)
    yn = y[near, None]
    dy = np.empty((min(len(yn), GATE_ROW_BLOCK), len(py)))
    for i in range(0, len(yn), GATE_ROW_BLOCK):
        block = dy[: len(yn) - i]
        np.subtract(yn[i:i + GATE_ROW_BLOCK], py[None, :], out=block)
        d2[i:i + GATE_ROW_BLOCK] += np.multiply(block, block, out=block)
    np.less(d2, r_min * r_min, out=d2)
    return belief.weights[near] @ d2


def _void_per_belief(beliefs, xy: np.ndarray, r_min: float):
    """Per belief, the minimum void probability over the (H, 2) positions `xy`."""
    px, py = xy[:, 0], xy[:, 1]
    for belief in beliefs:
        yield 1.0 - float(np.max(_mass_inside(belief, px, py, r_min)))


def trajectory_void_probability(beliefs, xy: np.ndarray, r_min: float) -> float:
    """Minimum void probability over all (object, position) pairs, `xy` of shape (H, 2)."""
    return min(_void_per_belief(beliefs, xy, r_min), default=1.0)


def _void_ok(beliefs, xy: np.ndarray, r_min: float, b_min: float) -> bool:
    """Gate check with early exit per belief; decision-equivalent to the exact min."""
    return not any(vp < b_min for vp in _void_per_belief(beliefs, xy, r_min))


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
    est = np.asarray(target_estimate, dtype=float)
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


def _discrete_waypoints(uav: UavState, kin: UavKinematics, cfg: VoidConfig):
    """The |U| headings {0, 2pi/|U|, ...} as (label, waypoint one full-speed epoch away)."""
    reach = kin.v_max * cfg.horizon * cfg.step_period
    for i in range(cfg.action_count):
        theta = 2.0 * math.pi * i / cfg.action_count
        wp = uav.xy + reach * np.array([math.cos(theta), math.sin(theta)])
        yield f"discrete_{i:02d}", wp


def _gated(beliefs, uav: UavState, kin: UavKinematics, cfg: VoidConfig, area: Area, candidates):
    """(label, clamped waypoint, rollout) of each (label, waypoint) candidate, in order,
    whose trajectory keeps the void probability of every object at or above cfg.b_min."""
    for label, wp in candidates:
        wp = area.clamp(wp)
        rollout = uav_rollout(uav, wp, kin, cfg.horizon, cfg.step_period)
        if _void_ok(beliefs, rollout.xy, cfg.r_min, cfg.b_min):
            yield label, wp, rollout


def _finalize(beliefs, label: str, wp, rollout, cfg: VoidConfig, fallback: bool = False) -> CandidateAction:
    vp = trajectory_void_probability(beliefs, rollout.xy, cfg.r_min)
    return CandidateAction(waypoint=np.asarray(wp, dtype=float), rollout=rollout,
                           void_prob=vp, label=label, fallback=fallback)


def _fallback(beliefs, uav: UavState, kin: UavKinematics, cfg: VoidConfig, area: Area,
              label: str, wp) -> CandidateAction:
    """The flight to `wp` clamped into the area, exempt from the gate: stay-in-place when
    no candidate passes it, or the radial escape from inside a void disc."""
    wp = area.clamp(wp)
    rollout = uav_rollout(uav, wp, kin, cfg.horizon, cfg.step_period)
    return _finalize(beliefs, label, wp, rollout, cfg, fallback=True)


def lavapilot_select(
    beliefs,
    uav: UavState,
    kin: UavKinematics,
    cfg: VoidConfig,
    area: Area,
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
    x_star = min(active, key=tracker.uncertainty)  # on a tie, the first in the list
    est_xy = tracker.estimate(x_star)

    points = candidate_points_abc(uav, est_xy, cfg.r_min)
    if len(points) == 1:  # on or inside the void circle: only point A
        return _fallback(beliefs, uav, kin, cfg, area, "escape", points[0][1])

    best = next(_gated(beliefs, uav, kin, cfg, area, points), None)
    if best is None:
        best = min(_gated(beliefs, uav, kin, cfg, area, _discrete_waypoints(uav, kin, cfg)),
                   key=lambda c: float(math.hypot(*(c[1] - est_xy))), default=None)
    if best is None:
        return _fallback(beliefs, uav, kin, cfg, area, "stay", uav.xy)
    return _finalize(beliefs, *best, cfg)


def _prior_and_likelihood(weights: np.ndarray, log_g: np.ndarray):
    """The normalised weights w and the likelihood g scaled so that its largest finite
    value is 1. An entry whose log-likelihood is not finite gets g = 0, so when none is
    finite g is all zeros, which both rewards score as 0."""
    finite = np.isfinite(log_g)
    shifted = np.subtract(log_g, np.max(log_g, where=finite, initial=-np.inf),
                          out=np.full(log_g.shape, -np.inf), where=finite)
    return weights / weights.sum(), np.exp(shifted)


def shannon_reward(weights: np.ndarray, log_g: np.ndarray) -> float:
    """Entropy of the weights before minus after a pseudo-update with likelihood g."""
    w, g = _prior_and_likelihood(weights, log_g)
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
    w, g = _prior_and_likelihood(weights, log_g)
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
    """Reward of a predicted ideal (noiseless) measurement taken at the terminal pose,
    from a tag at the belief's estimate, height and carrier wavelength."""
    try:
        z_star = float(rf.received_power_array(tracker.estimate(belief), terminal, rf_cfg,
                                               belief.height, belief.wavelength))
    except ValueError:  # estimate coincides with the pose; no usable prediction
        return 0.0
    log_g = rf.log_likelihood_array(z_star, belief.particles, terminal, rf_cfg, belief.height,
                                    belief.wavelength)
    if kind.kind == "shannon":
        return shannon_reward(belief.weights, log_g)
    return renyi_reward(belief.weights, log_g, kind.alpha)


def info_gain_select(
    beliefs,
    uav: UavState,
    kin: UavKinematics,
    cfg: VoidConfig,
    kind: PlannerKind,
    rf_cfg: rf.PropagationConfig,
    area: Area,
) -> CandidateAction | None:
    """Reward-maximizing selection over the discrete headings plus stay-in-place.

    Each candidate is scored by the summed per-object reward of a pseudo-update at
    its terminal rollout pose, over unlocalized objects only; candidates violating
    the void bound are discarded first. Ties break toward the lowest candidate
    index. If nothing qualifies the stay-in-place fallback is returned.
    """
    active = [b for b in beliefs if not b.localized]
    if not active:
        return None

    def reward(gated) -> float:
        terminal = gated[2][-1]
        return sum(_pseudo_update_reward(b, terminal, kind, rf_cfg) for b in active)

    candidates = [*_discrete_waypoints(uav, kin, cfg), ("stay", uav.xy)]
    best = max(_gated(beliefs, uav, kin, cfg, area, candidates), key=reward, default=None)
    if best is None:
        return _fallback(beliefs, uav, kin, cfg, area, "stay", uav.xy)
    return _finalize(beliefs, *best, cfg)


def select_action(
    beliefs,
    uav: UavState,
    kin: UavKinematics,
    cfg: VoidConfig,
    kind: PlannerKind,
    rf_cfg: rf.PropagationConfig,
    area: Area,
) -> CandidateAction | None:
    """Dispatch to the configured planner."""
    if kind.kind == "lavapilot":
        return lavapilot_select(beliefs, uav, kin, cfg, area)
    return info_gain_select(beliefs, uav, kin, cfg, kind, rf_cfg, area)


def verify_void_bound(action: CandidateAction, cfg: VoidConfig, beliefs) -> bool:
    """Safe-distance audit: the selected trajectory keeps the void probability, recomputed
    from the beliefs, at or above the configured bound."""
    return trajectory_void_probability(beliefs, action.rollout.xy, cfg.r_min) >= cfg.b_min
