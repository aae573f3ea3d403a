"""Scenario configuration, the closed simulate-measure-track-plan loop, Monte-Carlo
batching, metrics, the planner benchmark, and file outputs."""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import planner as planner_mod
from . import rf as rf_mod
from . import tracker as tracker_mod
from .world import (
    Area,
    ObjectState,
    TargetDynamics,
    UavKinematics,
    UavState,
    target_step,
)

SCHEMA_VERSION = 2
HEATMAP_BIN_M = 10.0


class ConfigError(ValueError):
    """Invalid scenario configuration."""


class VoidAuditError(RuntimeError):
    """A void-enabled run recorded a non-fallback decision below the void bound."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(slots=True)
class ScenarioConfig:
    """Everything a mission needs; serializable to/from the JSON config schema.

    Slotted, so assigning to a name that is not a field raises AttributeError.
    """

    area: Area = field(default_factory=Area)
    num_tags: int = 10
    tag_positions: list | None = None  # [(x, y), ...] or None for random
    tag_height: float = 1.0
    tag_frequencies_mhz: list | None = None  # per-tag carrier; None -> rf.wavelength for all
    uav_start_xy: tuple | None = None  # None -> area center
    uav_start_heading: float = 0.0
    max_flight_time: float = 3000.0
    seed: int = 0
    planner: planner_mod.PlannerKind = field(default_factory=planner_mod.PlannerKind)
    void: planner_mod.VoidConfig = field(default_factory=planner_mod.VoidConfig)
    tracker: tracker_mod.TrackerConfig = field(default_factory=tracker_mod.TrackerConfig)
    rf: rf_mod.PropagationConfig = field(default_factory=rf_mod.PropagationConfig)
    target_dynamics: TargetDynamics = field(default_factory=TargetDynamics)
    filter_dynamics: TargetDynamics | None = None  # None -> target_dynamics
    belief_init_mode: str = "uniform"  # "uniform" | "at_truth"
    belief_init_sigma: float = 1.0
    kinematics: UavKinematics = field(default_factory=UavKinematics)

    def __post_init__(self):
        if self.uav_start_xy is None:
            self.uav_start_xy = (float(self.area.center[0]), float(self.area.center[1]))

    def validate(self):
        if self.num_tags < 1:
            raise ConfigError("num_tags must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for key, value in (("tag_height_m", self.tag_height),
                           ("max_flight_time_s", self.max_flight_time),
                           ("uav_start.heading_rad", self.uav_start_heading),
                           ("belief_init.sigma_m", self.belief_init_sigma)):
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.tag_height < 0.0:  # the ground plane the two-ray model reflects in
            raise ConfigError(f"tag_height_m must be non-negative, got {self.tag_height}")
        if self.max_flight_time < 0.0:
            raise ConfigError("max_flight_time must be non-negative")
        if self.tag_positions is not None:
            if len(self.tag_positions) != self.num_tags:
                raise ConfigError("tag_positions length must equal num_tags")
            for xy in self.tag_positions:
                if not self.area.contains(xy):
                    raise ConfigError(f"tag position {tuple(xy)} outside the mission area")
        if self.tag_frequencies_mhz is not None:
            if len(self.tag_frequencies_mhz) != self.num_tags:
                raise ConfigError("tag_frequencies_mhz length must equal num_tags")
            for f in self.tag_frequencies_mhz:
                if not (math.isfinite(f) and f > 0.0):
                    raise ConfigError(f"tag frequencies must be finite and positive, got {f} MHz")
        if not self.area.contains(self.uav_start_xy):
            raise ConfigError("uav_start lies outside the mission area")
        if self.belief_init_mode not in ("uniform", "at_truth"):
            raise ConfigError(f"unknown belief_init_mode: {self.belief_init_mode}")
        if self.belief_init_sigma < 0.0:
            raise ConfigError("belief_init_sigma must be non-negative")
        if self.kinematics.altitude <= self.tag_height:
            raise ConfigError(f"kinematics.altitude_m ({self.kinematics.altitude}) must exceed "
                              f"tag_height_m ({self.tag_height})")

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **_write(self, _SCHEMA)}

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        """Parse the JSON config: absent keys keep the dataclass defaults, and an unknown
        key or a value not of its attribute's type is a ConfigError naming the key."""
        base = cls(filter_dynamics=TargetDynamics())  # the defaults, optional section included
        fields = {}
        _read(d, _SCHEMA, "", base, fields)
        start = fields.pop("uav_start_xy", {})
        try:
            for name, value in fields.items():
                if isinstance(value, dict):  # a sub-config: override its defaults
                    fields[name] = replace(getattr(base, name), **value)
            cfg = cls(**fields)
        except ValueError as exc:  # a dataclass range check
            raise ConfigError(f"invalid configuration: {exc}") from exc
        cfg.uav_start_xy = tuple(start.get(str(i), v) for i, v in enumerate(cfg.uav_start_xy))
        return cfg


# The JSON config schema. Each key names the ScenarioConfig attribute it sets, as
# "field", "subconfig.field" or "tuple_field.index"; a nested dict is a JSON section.
# A value's type follows the attribute's default, or its kind in _LISTS.
_SCHEMA = {
    "seed": "seed",
    "area": {"x_min": "area.x_min", "x_max": "area.x_max",
             "y_min": "area.y_min", "y_max": "area.y_max"},
    "num_tags": "num_tags",
    "tag_positions": "tag_positions",
    "tag_height_m": "tag_height",
    "tag_frequencies_mhz": "tag_frequencies_mhz",
    "uav_start": {"x": "uav_start_xy.0", "y": "uav_start_xy.1",
                  "heading_rad": "uav_start_heading"},
    "max_flight_time_s": "max_flight_time",
    "step_period_s": "void.step_period",
    "planner": {"kind": "planner.kind", "alpha": "planner.alpha",
                "void_enabled": "planner.void_enabled"},
    "void": {"r_min_m": "void.r_min", "b_min": "void.b_min", "horizon_steps": "void.horizon",
             "action_count": "void.action_count"},
    "tracker": {"num_particles": "tracker.num_particles",
                "resample_threshold": "tracker.resample_threshold",
                "sigma_min_m": "tracker.sigma_min"},
    "rf": {"p0_dbm": "rf.p0_dbm", "path_loss_n": "rf.path_loss_n",
           "wavelength_m": "rf.wavelength", "reflection_mode": "rf.reflection_mode",
           "reflection_gamma": "rf.reflection_gamma", "rel_permittivity": "rf.rel_permittivity",
           "antenna_gain_max_db": "rf.antenna_gain_max_db", "antenna_floor": "rf.antenna_floor",
           "antenna_table": "rf.antenna_table", "noise_var_db2": "rf.noise_var"},
    "target_dynamics": {"q_diag_m2": "target_dynamics.q_diag"},
    "filter_dynamics": {"q_diag_m2": "filter_dynamics.q_diag"},
    "belief_init": {"mode": "belief_init_mode", "sigma_m": "belief_init_sigma"},
    "kinematics": {"v_max_mps": "kinematics.v_max", "accel_mps2": "kinematics.accel",
                   "altitude_m": "kinematics.altitude"},
}
_NUMBERS = "a list of finite numbers"
_PAIRS = "a list of [number, number] pairs"
_LISTS = {"tag_positions": _PAIRS, "tag_frequencies_mhz": _NUMBERS, "rf.antenna_table": _PAIRS,
          "target_dynamics.q_diag": _NUMBERS, "filter_dynamics.q_diag": _NUMBERS}
_NULLABLE_SECTIONS = ("filter_dynamics",)


def _get(cfg: ScenarioConfig, path: str):
    obj = cfg
    for part in path.split("."):
        obj = obj[int(part)] if part.isdigit() else getattr(obj, part)
    return obj


def _write(cfg: ScenarioConfig, schema: dict) -> dict:
    out = {}
    for key, path in schema.items():
        if isinstance(path, dict):
            absent = key in _NULLABLE_SECTIONS and getattr(cfg, key) is None
            out[key] = None if absent else _write(cfg, path)
        else:
            value = _get(cfg, path)
            if value is not None and path in _LISTS:
                value = np.asarray(value, dtype=float).tolist()
            out[key] = value
    return out


def _read(d, schema: dict, prefix: str, base: ScenarioConfig, fields: dict) -> None:
    """Check the JSON object `d` against `schema`, collecting each attribute's value
    in `fields`, and a sub-config field's in `fields[sub-config]`."""
    if not isinstance(d, dict):
        raise ConfigError(f"{prefix[:-1] or 'the config'} must be a JSON object, got {d!r}")
    for key, value in d.items():
        dotted, path = prefix + key, schema.get(key)
        if dotted == "schema_version":
            if value != SCHEMA_VERSION:
                raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {value!r}")
        elif path is None:
            raise ConfigError(f"unknown key {dotted}")
        elif isinstance(path, dict) and key in _NULLABLE_SECTIONS and value is None:
            fields[key] = None
        elif isinstance(path, dict):
            if key in _NULLABLE_SECTIONS:
                fields.setdefault(key, {})  # present, so built from the defaults
            _read(value, path, dotted + ".", base, fields)
        else:
            value = _checked(dotted, value, _get(base, path), _LISTS.get(path))
            name, _, attr = path.partition(".")
            target = fields.setdefault(name, {}) if attr else fields
            target[attr or name] = value


# -- input checks: JSON values to attribute types

_JSON_TYPES = {bool: "true or false", int: "an integer", str: "a string"}


def _number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _checked(key: str, value, default, kind: str | None):
    """`value` as the type of `default` (or as the list `kind`), else a ConfigError."""
    if value is None and default is None:
        return None
    if kind is None:
        if isinstance(default, float):
            return _number(key, value)  # an integer is a number too
        if type(value) is not type(default):  # also keeps a bool out of an int
            raise ConfigError(f"{key} must be {_JSON_TYPES[type(default)]}, got {value!r}")
        return value
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be {kind}, got {value!r}")
    if kind == _NUMBERS:
        return [_number(f"{key}[{i}]", v) for i, v in enumerate(value)]
    for i, pair in enumerate(value):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError(f"{key}[{i}] must be a [number, number] pair, got {pair!r}")
    return tuple((_number(f"{key}[{i}][0]", a), _number(f"{key}[{i}][1]", b))
                 for i, (a, b) in enumerate(value))


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return ScenarioConfig.from_dict(data)


# ---------------------------------------------------------------------------
# mission records


@dataclass
class MissionStep:
    k: int
    uav_x: float
    uav_y: float
    uav_z: float
    uav_heading: float
    rssi: list
    est: list  # per tag (x, y, z)
    sigma: list
    localized: list
    planning_time: float | None = None
    void_prob: float | None = None


@dataclass
class DecisionRecord:
    k: int
    label: str
    fallback: bool
    void_prob: float
    planning_time: float
    bound_ok: bool | None = None  # None when the void constraint is disabled


@dataclass
class MissionSummary:
    flight_time: float
    all_localized: bool
    localized: list
    per_tag_error: list
    rms: float
    n_steps: int
    n_decisions: int
    planning_time_stats: dict
    violation_events: list
    divergence_events: list
    tag_truths_initial: list
    tag_truths_final: list

    def to_dict(self) -> dict:
        return {
            "flight_time_s": self.flight_time,
            "all_localized": self.all_localized,
            "localized": list(self.localized),
            "per_tag_error_m": list(self.per_tag_error),
            "rms_m": self.rms,
            "n_steps": self.n_steps,
            "n_decisions": self.n_decisions,
            "planning_time_stats_s": dict(self.planning_time_stats),
            "violation_events": list(self.violation_events),
            "divergence_events": list(self.divergence_events),
            "tag_truths_initial": [list(t) for t in self.tag_truths_initial],
            "tag_truths_final": [list(t) for t in self.tag_truths_final],
        }


@dataclass
class MissionRecord:
    steps: list
    decisions: list
    summary: MissionSummary


def _stats(values) -> dict:
    if len(values) == 0:
        return {"mean": 0.0, "min": 0.0, "max": 0.0, "median": 0.0}
    arr = np.asarray(values, dtype=float)
    return {"mean": float(np.mean(arr)), "min": float(np.min(arr)),
            "max": float(np.max(arr)), "median": float(np.median(arr))}


def compute_rms(estimates, truths) -> float:
    """Root of the mean squared 3D error between matched estimates and truths."""
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truths, dtype=float)
    if est.shape != tru.shape:
        raise ValueError(f"mismatched shapes: {est.shape} vs {tru.shape}")
    d2 = np.sum((est - tru) ** 2, axis=-1)
    return float(np.sqrt(np.mean(d2)))


# ---------------------------------------------------------------------------
# the closed loop


def run_mission(cfg: ScenarioConfig) -> MissionRecord:
    """Run one mission: step targets, fly the current rollout, measure every tag,
    filter, and replan every horizon steps until all tags localize or time runs out.
    """
    cfg.validate()
    t0_step = cfg.void.step_period
    n_steps = int(round(cfg.max_flight_time / t0_step))
    n_tags = cfg.num_tags
    area = cfg.area
    kin = cfg.kinematics

    master = np.random.SeedSequence(cfg.seed)
    scen_ss, dyn_ss, meas_ss, filt_ss = master.spawn(4)
    scen_rng = np.random.default_rng(scen_ss)
    dyn_rngs = [np.random.default_rng(s) for s in dyn_ss.spawn(n_tags)]
    meas_rngs = [np.random.default_rng(s) for s in meas_ss.spawn(n_tags)]
    filt_rngs = [np.random.default_rng(s) for s in filt_ss.spawn(n_tags)]

    if cfg.tag_positions is not None:
        tag_xy = np.asarray(cfg.tag_positions, dtype=float)
    else:
        tag_xy = area.sample(scen_rng, n_tags)
    targets = [ObjectState(np.array([xy[0], xy[1], cfg.tag_height]), tag_id=j + 1)
               for j, xy in enumerate(tag_xy)]
    truths_initial = [tuple(map(float, t.position)) for t in targets]

    if cfg.tag_frequencies_mhz is not None:
        rf_cfgs = [replace(cfg.rf, wavelength=rf_mod.wavelength_from_mhz(f))
                   for f in cfg.tag_frequencies_mhz]
    else:
        rf_cfgs = [cfg.rf] * n_tags
    wavelengths = np.array([c.wavelength for c in rf_cfgs])

    filter_dyn = cfg.filter_dynamics if cfg.filter_dynamics is not None else cfg.target_dynamics
    # "without void" runs keep the same code path with a vanishing safe radius
    planner_void = cfg.void if cfg.planner.void_enabled else replace(cfg.void, r_min=0.001)

    uav = UavState(position=np.array([cfg.uav_start_xy[0], cfg.uav_start_xy[1], kin.altitude]),
                   heading=cfg.uav_start_heading, speed=0.0)
    pending: list[UavState] = []

    steps: list[MissionStep] = []
    decisions: list[DecisionRecord] = []
    violations: list[dict] = []
    divergences: list[dict] = []
    loc_error = [None] * n_tags
    flight_time = float(cfg.max_flight_time)

    # One thread draws each tag's predict noise for the next step while this one runs
    # the rest of the step (the draw releases the GIL). Tag j's next block is asked for
    # only after the last use of filt_rngs[j] in a step and read before the next, so
    # every generator draws in the same order as drawing inside predict would. The
    # thread calls only the Generator method, never a tagtrack function (tracing
    # wraps those and keeps one span stack), and the blocks are allocated on this
    # thread: allocated on the draw thread they page-faulted over three times as often.
    draws = ThreadPoolExecutor(max_workers=1)
    try:
        def draw_noise(j):
            return draws.submit(filt_rngs[j].standard_normal,
                                out=np.empty((cfg.tracker.num_particles, 3)))

        beliefs = []
        for j in range(n_tags):
            if cfg.belief_init_mode == "at_truth":
                b = tracker_mod.init_belief_at(j + 1, targets[j].position, cfg.belief_init_sigma,
                                               cfg.tracker, filt_rngs[j], area)
            else:
                b = tracker_mod.init_belief(j + 1, area, cfg.tag_height, cfg.tracker, filt_rngs[j])
            beliefs.append(b)
        noise = [draw_noise(j) for j in range(n_tags)]

        for k in range(1, n_steps + 1):
            targets = [target_step(t, cfg.target_dynamics, dyn_rngs[j], area)
                       for j, t in enumerate(targets)]
            if pending:
                uav = pending.pop(0)

            zs = rf_mod.sample_measurement(targets, uav, cfg.rf, meas_rngs, wavelengths, time_step=k)
            for j in range(n_tags):
                b = tracker_mod.predict(beliefs[j], filter_dyn, noise[j].result(), area)
                b = tracker_mod.update(b, zs[j], uav, rf_cfgs[j])
                if b.diverged:
                    divergences.append({"k": k, "tag_id": j + 1})
                b = tracker_mod.resample_if_needed(b, cfg.tracker, filt_rngs[j])
                noise[j] = draw_noise(j)
                b = tracker_mod.mark_localized(b, cfg.tracker)
                if b.localized and loc_error[j] is None:
                    err = tracker_mod.estimate(b).position - targets[j].position
                    loc_error[j] = float(np.linalg.norm(err))
                beliefs[j] = b

            all_localized = all(b.localized for b in beliefs)
            if all_localized:
                flight_time = k * t0_step

            plan_time = None
            void_prob = None
            if not all_localized and k % cfg.void.horizon == 0:
                t_start = time.perf_counter()
                action = planner_mod.select_action(beliefs, uav, kin, planner_void,
                                                   cfg.planner, rf_cfgs, area)
                plan_time = time.perf_counter() - t_start
                if action is not None:
                    pending = list(action.rollout)
                    void_prob = action.void_prob
                    bound_ok = None
                    if cfg.planner.void_enabled:
                        bound_ok = planner_mod.verify_void_bound(action, cfg.void, beliefs)
                        if not bound_ok:  # a fallback is exempt from the gate, not from the record
                            kind = action.label if action.fallback else "gated"
                            violations.append({"k": k, "kind": f"{kind}_below_bound",
                                               "void_prob": action.void_prob})
                    decisions.append(DecisionRecord(k=k, label=action.label,
                                                    fallback=action.fallback,
                                                    void_prob=action.void_prob,
                                                    planning_time=plan_time, bound_ok=bound_ok))

            ests = [tracker_mod.estimate(b).position for b in beliefs]
            steps.append(MissionStep(
                k=k,
                uav_x=float(uav.position[0]), uav_y=float(uav.position[1]),
                uav_z=float(uav.position[2]), uav_heading=float(uav.heading),
                rssi=[z.rssi for z in zs],
                est=[tuple(map(float, e)) for e in ests],
                sigma=[tracker_mod.uncertainty(b) for b in beliefs],
                localized=[b.localized for b in beliefs],
                planning_time=plan_time,
                void_prob=void_prob,
            ))
            if all_localized:
                break
    finally:
        # the blocks still queued are for a step that never comes: drop them undrawn
        draws.shutdown(cancel_futures=True)

    for j in range(n_tags):
        if loc_error[j] is None:
            err = tracker_mod.estimate(beliefs[j]).position - targets[j].position
            loc_error[j] = float(np.linalg.norm(err))

    localized = [b.localized for b in beliefs]
    summary = MissionSummary(
        flight_time=flight_time,
        all_localized=all(localized),
        localized=localized,
        per_tag_error=loc_error,
        rms=float(np.sqrt(np.mean(np.square(loc_error)))),
        n_steps=len(steps),
        n_decisions=len(decisions),
        planning_time_stats=_stats([d.planning_time for d in decisions]),
        violation_events=violations,
        divergence_events=divergences,
        tag_truths_initial=truths_initial,
        tag_truths_final=[tuple(map(float, t.position)) for t in targets],
    )
    return MissionRecord(steps=steps, decisions=decisions, summary=summary)


def audit_mission(record: MissionRecord, cfg: ScenarioConfig) -> None:
    """Raise when a void-enabled mission recorded a gated decision below the bound."""
    if not cfg.planner.void_enabled:
        return
    for d in record.decisions:
        if not d.fallback and d.void_prob < cfg.void.b_min:
            raise VoidAuditError(
                f"decision at k={d.k} ({d.label}) has void probability "
                f"{d.void_prob:.6f} < B_min={cfg.void.b_min}")


# ---------------------------------------------------------------------------
# Monte-Carlo batching


@dataclass
class TrialMetrics:
    seed: int
    rms: float
    flight_time: float
    planning_time_mean: float
    n_decisions: int
    min_nonfallback_void_prob: float | None
    localized_count: int
    n_violations: int
    n_divergences: int
    poses: np.ndarray  # (n_steps, 2)


def derive_trial_seeds(seed: int, trials: int) -> list[int]:
    """Per-trial seeds derived from (seed, trial index); independent of parallelism."""
    children = np.random.SeedSequence(seed).spawn(trials)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def _trial_metrics(cfg: ScenarioConfig) -> TrialMetrics:
    record = run_mission(cfg)
    s = record.summary
    nonfallback = [d.void_prob for d in record.decisions if not d.fallback]
    poses = np.array([[st.uav_x, st.uav_y] for st in record.steps], dtype=float).reshape(-1, 2)
    return TrialMetrics(
        seed=cfg.seed,
        rms=s.rms,
        flight_time=s.flight_time,
        planning_time_mean=s.planning_time_stats["mean"],
        n_decisions=s.n_decisions,
        min_nonfallback_void_prob=min(nonfallback) if nonfallback else None,
        localized_count=sum(bool(x) for x in s.localized),
        n_violations=len(s.violation_events),
        n_divergences=len(s.divergence_events),
        poses=poses,
    )


def heatmap_from_poses(poses: np.ndarray, area: Area, bin_m: float = HEATMAP_BIN_M):
    """2D visit counts of observer positions on a bin_m grid over the area.

    Returns (counts as [ny][nx] lists of ints, x_edges, y_edges).
    """
    nx = max(1, int(math.ceil((area.x_max - area.x_min) / bin_m)))
    ny = max(1, int(math.ceil((area.y_max - area.y_min) / bin_m)))
    x_edges = area.x_min + bin_m * np.arange(nx + 1)
    y_edges = area.y_min + bin_m * np.arange(ny + 1)
    x_edges[-1] = max(x_edges[-1], area.x_max)
    y_edges[-1] = max(y_edges[-1], area.y_max)
    if len(poses):
        h, _, _ = np.histogram2d(poses[:, 0], poses[:, 1], bins=[x_edges, y_edges])
    else:
        h = np.zeros((nx, ny))
    counts = h.T.astype(int)  # rows indexed by y bin
    return [[int(v) for v in row] for row in counts], x_edges, y_edges


@dataclass
class McSummary:
    trials: int
    planner_kind: str
    void_enabled: bool
    metrics: dict
    heatmap_bin_m: float
    heatmap_x0: float
    heatmap_y0: float
    heatmap_counts: list
    total_poses: int
    min_nonfallback_void_prob: float | None

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "planner": self.planner_kind,
            "void_enabled": self.void_enabled,
            "metrics": self.metrics,
            "heatmap": {
                "bin_m": self.heatmap_bin_m,
                "x0": self.heatmap_x0,
                "y0": self.heatmap_y0,
                "counts": self.heatmap_counts,
                "total_poses": self.total_poses,
            },
            "min_nonfallback_void_prob": self.min_nonfallback_void_prob,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "McSummary":
        hm = d["heatmap"]
        return cls(
            trials=d["trials"],
            planner_kind=d["planner"],
            void_enabled=d["void_enabled"],
            metrics=d["metrics"],
            heatmap_bin_m=hm["bin_m"],
            heatmap_x0=hm["x0"],
            heatmap_y0=hm["y0"],
            heatmap_counts=hm["counts"],
            total_poses=hm["total_poses"],
            min_nonfallback_void_prob=d["min_nonfallback_void_prob"],
        )


def run_montecarlo(cfg: ScenarioConfig, trials: int, parallelism: int = 1) -> McSummary:
    """Run independently seeded trials and aggregate the metric suite.

    Results are identical for any parallelism degree: trial seeds derive from
    (seed, trial index) and aggregation runs in trial order.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if parallelism < 1:
        raise ConfigError(f"parallelism must be >= 1, got {parallelism}")
    cfg.validate()
    trial_cfgs = [replace(cfg, seed=s) for s in derive_trial_seeds(cfg.seed, trials)]
    workers = min(parallelism, trials)  # the pool forks every worker up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_metrics, trial_cfgs))
    else:
        results = [_trial_metrics(c) for c in trial_cfgs]

    metrics = {
        "rms_m": _stats([r.rms for r in results]),
        "flight_time_s": _stats([r.flight_time for r in results]),
        "planning_time_mean_s": _stats([r.planning_time_mean for r in results]),
        "localized_count": _stats([r.localized_count for r in results]),
        "violation_events": _stats([r.n_violations for r in results]),
        "divergence_events": _stats([r.n_divergences for r in results]),
        "n_decisions": _stats([r.n_decisions for r in results]),
    }
    all_poses = np.concatenate([r.poses for r in results])
    counts, x_edges, y_edges = heatmap_from_poses(all_poses, cfg.area)
    nonfallback = [r.min_nonfallback_void_prob for r in results
                   if r.min_nonfallback_void_prob is not None]
    return McSummary(
        trials=trials,
        planner_kind=cfg.planner.kind,
        void_enabled=cfg.planner.void_enabled,
        metrics=metrics,
        heatmap_bin_m=HEATMAP_BIN_M,
        heatmap_x0=float(x_edges[0]),
        heatmap_y0=float(y_edges[0]),
        heatmap_counts=counts,
        total_poses=int(len(all_poses)),
        min_nonfallback_void_prob=min(nonfallback) if nonfallback else None,
    )


def audit_mc(mc: McSummary, cfg: ScenarioConfig) -> None:
    """Raise when a void-enabled batch recorded any gated decision below the bound."""
    if not cfg.planner.void_enabled or mc.min_nonfallback_void_prob is None:
        return
    if mc.min_nonfallback_void_prob < cfg.void.b_min:
        raise VoidAuditError(
            f"batch minimum non-fallback void probability "
            f"{mc.min_nonfallback_void_prob:.6f} < B_min={cfg.void.b_min}")


# ---------------------------------------------------------------------------
# planner benchmark


def _bench_snapshot(particles: int, tags: int, seed: int):
    """Identical belief snapshots for timing: converging blobs in an open area with a
    clear line of sight from the observer to the lowest-spread object."""
    rng = np.random.default_rng(seed)
    area = Area(0.0, 1000.0, 0.0, 1000.0)
    xs = np.linspace(100.0, 900.0, tags)
    mid = tags // 2
    beliefs = []
    for j, x in enumerate(xs):
        sigma = 20.0 + 4.0 * abs(j - mid)  # the middle object has the lowest spread
        center = np.array([x, 700.0, 1.0])
        cfg_t = tracker_mod.TrackerConfig(num_particles=particles, sigma_min=35.0)
        beliefs.append(tracker_mod.init_belief_at(j + 1, center, sigma, cfg_t, rng, area))
    uav = UavState(position=np.array([xs[mid], 150.0, 30.0]), heading=math.pi / 2, speed=0.0)
    return beliefs, uav, area


def bench_planners(repetitions: int, particles: int = tracker_mod.TrackerConfig.num_particles,
                   tags: int = ScenarioConfig.__dataclass_fields__["num_tags"].default,
                   actions: int = planner_mod.VoidConfig.action_count,
                   horizon: int = planner_mod.VoidConfig.horizon, seed: int = 0) -> dict:
    """Wall-clock per-decision planning time for each planner on identical snapshots.

    The sizes default to the default scenario's; a size or a seed out of range is a
    ConfigError.
    """
    for name, value, least in (("repetitions", repetitions, 10), ("particles", particles, 1),
                               ("tags", tags, 1), ("actions", actions, 3), ("horizon", horizon, 1),
                               ("seed", seed, 0)):
        if value < least:
            raise ConfigError(f"{name} must be >= {least}, got {value}")
    beliefs, uav, area = _bench_snapshot(particles, tags, seed)
    kin = UavKinematics()
    void_cfg = planner_mod.VoidConfig(horizon=horizon, action_count=actions)
    rf_cfgs = [rf_mod.PropagationConfig()] * tags
    out = {"meta": {"particles": particles, "tags": tags, "actions": actions,
                    "horizon": horizon, "repetitions": repetitions, "seed": seed}}
    for kind_name in ("lavapilot", "renyi", "shannon"):
        kind = planner_mod.PlannerKind(kind=kind_name)
        rf_mod.reset_likelihood_calls()
        times = []
        for _ in range(repetitions):
            t_start = time.perf_counter()
            action = planner_mod.select_action(beliefs, uav, kin, void_cfg, kind, rf_cfgs, area)
            times.append(time.perf_counter() - t_start)
        stats = _stats(times)
        out[kind_name] = {
            "mean_s": stats["mean"], "min_s": stats["min"],
            "max_s": stats["max"], "median_s": stats["median"],
            "likelihood_calls": rf_mod.likelihood_call_count(),
            "label": action.label if action is not None else None,
        }
    return out


# ---------------------------------------------------------------------------
# file outputs


def mission_csv_header(num_tags: int) -> list:
    cols = ["k", "uav_x", "uav_y", "uav_z", "uav_heading"]
    for j in range(1, num_tags + 1):
        cols += [f"tag{j}_rssi", f"tag{j}_est_x", f"tag{j}_est_y", f"tag{j}_est_z",
                 f"tag{j}_sigma", f"tag{j}_localized"]
    cols += ["planning_time_s", "void_prob"]
    return cols


def _step_row(step: MissionStep) -> list:
    row = [step.k, step.uav_x, step.uav_y, step.uav_z, step.uav_heading]
    for rssi, est, sigma, loc in zip(step.rssi, step.est, step.sigma, step.localized):
        row += [rssi, est[0], est[1], est[2], sigma, int(loc)]
    row.append("" if step.planning_time is None else step.planning_time)
    row.append("" if step.void_prob is None else step.void_prob)
    return row


def write_mission_csv(record: MissionRecord, path: str, num_tags: int) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(mission_csv_header(num_tags))
        for step in record.steps:
            writer.writerow(_step_row(step))


def write_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_heatmap_csv(mc: McSummary, path: str) -> None:
    """Grid of visit counts; row i is y-bin i (y increasing), column j is x-bin j."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in mc.heatmap_counts:
            writer.writerow(row)


def export_mission(record: MissionRecord, cfg: ScenarioConfig, out_dir: str,
                   fmt: str = "csv") -> list:
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if fmt == "json":
        rows_path = os.path.join(out_dir, "mission.json")
        header = mission_csv_header(cfg.num_tags)
        rows = [dict(zip(header, _step_row(s))) for s in record.steps]
        write_json({"schema_version": SCHEMA_VERSION, "kind": "mission_rows", "rows": rows},
                   rows_path)
    else:
        rows_path = os.path.join(out_dir, "mission.csv")
        write_mission_csv(record, rows_path, cfg.num_tags)
    written.append(rows_path)
    summary_path = os.path.join(out_dir, "summary.json")
    write_json({"schema_version": SCHEMA_VERSION, "kind": "mission_summary",
                "summary": record.summary.to_dict(), "config": cfg.to_dict()}, summary_path)
    written.append(summary_path)
    return written


def export_mc(mc: McSummary, cfg: ScenarioConfig, out_dir: str, fmt: str = "csv") -> list:
    os.makedirs(out_dir, exist_ok=True)
    written = []
    summary_path = os.path.join(out_dir, "mc_summary.json")
    write_json({"schema_version": SCHEMA_VERSION, "kind": "mc_summary",
                "summary": mc.to_dict(), "config": cfg.to_dict()}, summary_path)
    written.append(summary_path)
    heatmap_path = os.path.join(out_dir, "heatmap.csv")
    write_heatmap_csv(mc, heatmap_path)
    written.append(heatmap_path)
    return written


def export_bench(results: dict, out_dir: str) -> list:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "bench.json")
    write_json({"schema_version": SCHEMA_VERSION, "kind": "bench", "results": results}, path)
    return [path]

