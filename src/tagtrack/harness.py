"""Scenario configuration, the closed simulate-measure-track-plan loop, Monte-Carlo
batching, metrics, the planner benchmark, and file outputs."""

from __future__ import annotations

import csv
import itertools
import json
import math
import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import planner as planner_mod
from . import rf as rf_mod
from . import tracker as tracker_mod
from .world import Area, TargetDynamics, UavKinematics, UavState, is_count, target_step

SCHEMA_VERSION = 2
HEATMAP_BIN_M = 10.0


class ConfigError(ValueError):
    """Invalid scenario configuration."""


class VoidAuditError(RuntimeError):
    """A void-enabled run recorded a non-fallback decision below the void bound."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a mission needs; serializable to/from the JSON config schema.

    Immutable and checked where it is made: a bad value is a ConfigError at construction.
    """

    area: Area = field(default_factory=Area)
    num_tags: int = 10
    tag_positions: tuple | None = None  # ((x, y), ...) or None for random
    tag_height: float = 1.0
    tag_frequencies_mhz: tuple | None = None  # per-tag carrier; None -> rf.wavelength for all
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
        # (x, y) pairs of floats: they compare and hash as values, no in-place edit skips
        # validate(), and a point of any other length is rejected here, not in the mission
        start = self.area.center if self.uav_start_xy is None else self.uav_start_xy
        object.__setattr__(self, "uav_start_xy", _xy("uav_start", start))
        if self.tag_positions is not None:
            object.__setattr__(self, "tag_positions",
                               _each("tag_positions", self.tag_positions, _xy))
        if self.tag_frequencies_mhz is not None:
            object.__setattr__(self, "tag_frequencies_mhz",
                               _each("tag_frequencies_mhz", self.tag_frequencies_mhz, _number))
        self.validate()
        for name in ("num_tags", "seed"):  # a numpy integer is stored as int, as JSON needs
            object.__setattr__(self, name, int(getattr(self, name)))

    def validate(self):
        if not (is_count(self.num_tags) and self.num_tags >= 1):
            raise ConfigError(f"num_tags must be an integer >= 1, got {self.num_tags!r}")
        if not (is_count(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        for name in ("tag_height", "max_flight_time", "uav_start_heading", "belief_init_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{_KEYS[name]} must be finite, got {getattr(self, name)}")
        if self.tag_height < 0.0:  # the ground plane the two-ray model reflects in
            raise ConfigError(f"{_KEYS['tag_height']} must be non-negative, got {self.tag_height}")
        if self.max_flight_time < 0.0:
            raise ConfigError(f"{_KEYS['max_flight_time']} must be non-negative")
        if not math.isfinite(self.max_flight_time / self.void.step_period):
            raise ConfigError(f"{_KEYS['max_flight_time']} / {_KEYS['void.step_period']} "
                              "must be a finite step count")
        if self.tag_positions is not None:
            if len(self.tag_positions) != self.num_tags:
                raise ConfigError("tag_positions length must equal num_tags")
            for xy in self.tag_positions:
                if not self.area.contains(xy):
                    raise ConfigError(f"tag position {tuple(xy)} outside the mission area")
        carriers = [(_KEYS["rf.wavelength"], self.rf.wavelength)]
        if self.tag_frequencies_mhz is not None:
            if len(self.tag_frequencies_mhz) != self.num_tags:
                raise ConfigError("tag_frequencies_mhz length must equal num_tags")
            for i, f in enumerate(self.tag_frequencies_mhz):
                if not (math.isfinite(f) and f > 0.0):
                    raise ConfigError(f"{_KEYS['tag_frequencies_mhz']}[{i}] must be finite and "
                                      f"positive, got {f} MHz")
            carriers = [(f"{_KEYS['tag_frequencies_mhz']}[{i}]", rf_mod.wavelength_from_mhz(f))
                        for i, f in enumerate(self.tag_frequencies_mhz)]
        # the two-ray phase lag is at most (2 pi / wavelength) * 2 * tag height
        for key, lam in carriers:
            if not (lam > 0.0 and math.isfinite(2.0 * math.pi / lam * 2.0 * self.tag_height)):
                raise ConfigError(f"{key}: wavelength {lam} m must be positive and give a finite "
                                  f"two-ray phase at {_KEYS['tag_height']} {self.tag_height}")
        if not self.area.contains(self.uav_start_xy):
            raise ConfigError("uav_start lies outside the mission area")
        if self.belief_init_mode not in ("uniform", "at_truth"):
            raise ConfigError(f"unknown {_KEYS['belief_init_mode']}: {self.belief_init_mode}")
        if self.belief_init_sigma < 0.0:
            raise ConfigError(f"{_KEYS['belief_init_sigma']} must be non-negative")
        if self.kinematics.altitude <= self.tag_height:
            raise ConfigError(f"{_KEYS['kinematics.altitude']} ({self.kinematics.altitude}) must "
                              f"exceed {_KEYS['tag_height']} ({self.tag_height})")

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
        for name, value in fields.items():
            if isinstance(value, dict):  # a sub-config: override its defaults
                try:
                    fields[name] = replace(getattr(base, name), **value)
                except ValueError as exc:  # a dataclass range check
                    key = _rejected_key(getattr(base, name), name, value)
                    raise ConfigError(f"invalid configuration: {key}: {exc}") from exc
        centre = fields.get("area", base.area).center  # where a coordinate left out stays
        fields["uav_start_xy"] = tuple(start.get(str(i), float(c)) for i, c in enumerate(centre))
        return cls(**fields)


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


def _invert(schema: dict, prefix: str = ""):
    for key, path in schema.items():
        if isinstance(path, dict):
            yield from _invert(path, prefix + key + ".")
        else:
            yield path, prefix + key


_KEYS = dict(_invert(_SCHEMA))  # attribute path -> the dotted JSON key that sets it


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


def _rejected_key(default, name: str, value: dict) -> str:
    """The JSON key of the first field in `value` that sub-config `name` rejects on its
    own, or the section name when only a combination of fields is rejected."""
    for attr, v in value.items():
        try:
            replace(default, **{attr: v})
        except ValueError:
            return _KEYS[f"{name}.{attr}"]
    return name


# -- input checks: JSON values to attribute types

_JSON_TYPES = {bool: "true or false", int: "an integer", str: "a string"}


def _number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
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
        return _each(key, value, _number)
    for i, pair in enumerate(value):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError(f"{key}[{i}] must be a [number, number] pair, got {pair!r}")
    return tuple((_number(f"{key}[{i}][0]", a), _number(f"{key}[{i}][1]", b))
                 for i, (a, b) in enumerate(value))


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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


def _median(arr: np.ndarray) -> float:
    """np.median of a 1D float array, bit for bit, without the numpy.ma import that
    np.median's NaN check makes. The same partition puts a NaN last, and a NaN is the
    result; otherwise np.mean of the middle element or two, a sum that starts at 0.0
    (so -0.0 becomes 0.0) divided by the count."""
    n = len(arr)
    kth = [n // 2] if n % 2 else [n // 2 - 1, n // 2]
    part = np.partition(arr, kth + [-1])
    if np.isnan(part[-1]):
        return float(part[-1])
    if n % 2:
        return float(0.0 + part[kth[0]])
    return float((0.0 + part[kth[0]] + part[kth[1]]) / 2.0)


def _stats(values) -> dict:
    if len(values) == 0:
        return {"mean": 0.0, "min": 0.0, "max": 0.0, "median": 0.0}
    arr = np.asarray(values, dtype=float)
    return {"mean": float(np.mean(arr)), "min": float(np.min(arr)),
            "max": float(np.max(arr)), "median": _median(arr)}


# ---------------------------------------------------------------------------
# the closed loop


def run_mission(cfg: ScenarioConfig) -> MissionRecord:
    """Run one mission: step targets, fly the current rollout, measure every tag,
    filter, and replan every horizon steps until all tags localize or time runs out.
    """
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

    # the true tags: (T, 2) horizontal positions, all at the one tag height
    tag_xy = (area.sample(scen_rng, n_tags) if cfg.tag_positions is None
              else np.asarray(cfg.tag_positions, dtype=float))
    height = float(cfg.tag_height)

    def truths():
        return [(float(x), float(y), height) for x, y in tag_xy]

    def tag_error(j):
        return float(np.linalg.norm(tracker_mod.estimate(beliefs[j]) - tag_xy[j]))

    truths_initial = truths()

    if cfg.tag_frequencies_mhz is not None:
        wavelengths = np.array([rf_mod.wavelength_from_mhz(f) for f in cfg.tag_frequencies_mhz])
    else:
        wavelengths = np.full(n_tags, cfg.rf.wavelength)

    filter_dyn = cfg.filter_dynamics if cfg.filter_dynamics is not None else cfg.target_dynamics
    # "without void" runs keep the same code path with a vanishing safe radius
    planner_void = cfg.void if cfg.planner.void_enabled else replace(cfg.void, r_min=0.001)

    uav = UavState(xy=cfg.uav_start_xy, altitude=kin.altitude, heading=cfg.uav_start_heading)
    pending = iter(())

    steps: list[MissionStep] = []
    decisions: list[DecisionRecord] = []
    violations: list[dict] = []
    divergences: list[dict] = []
    loc_error = [None] * n_tags

    # One thread draws the next tag's predict noise while this one runs tag j's turn
    # (the draw releases the GIL). Each submit takes the other of two buffers, so the
    # draw never writes the block predict is reading. The draw for tag j + 1 (tag 0's
    # for the next step) goes in when tag j's block is taken; with one tag, after its
    # resample. Either way it follows the last use of that generator, so every generator
    # draws in the same order as drawing inside predict would. The thread calls only
    # the Generator method, never a tagtrack function (tracing wraps those and keeps
    # one span stack), and the buffers are allocated on this thread: allocated on the
    # draw thread they page-faulted over three times as often.
    draws = ThreadPoolExecutor(max_workers=1)
    try:
        shape = (cfg.tracker.num_particles, len(filter_dyn.q_diag))
        buffers = itertools.cycle([np.empty(shape) for _ in range(2)])

        def draw_noise(j):
            return draws.submit(filt_rngs[j].standard_normal, out=next(buffers))

        beliefs = []
        for j in range(n_tags):
            if cfg.belief_init_mode == "at_truth":
                b = tracker_mod.init_belief_at(tag_xy[j], height, cfg.belief_init_sigma,
                                               wavelengths[j], cfg.tracker, filt_rngs[j], area)
            else:
                b = tracker_mod.init_belief(area, cfg.tag_height, wavelengths[j], cfg.tracker,
                                            filt_rngs[j])
            beliefs.append(b)
        noise = draw_noise(0)

        for k in range(1, n_steps + 1):
            tag_xy = target_step(tag_xy, cfg.target_dynamics, dyn_rngs, area)
            uav = next(pending, uav)

            zs = rf_mod.sample_measurement(tag_xy, height, uav, cfg.rf, meas_rngs, wavelengths)
            for j in range(n_tags):
                block = noise.result()
                if n_tags > 1:  # the next tag's generator is idle until its turn
                    noise = draw_noise((j + 1) % n_tags)
                b = tracker_mod.predict(beliefs[j], filter_dyn, block, area)
                b = tracker_mod.update(b, zs[j], uav, cfg.rf)
                if b.diverged:
                    divergences.append({"k": k, "tag_id": j + 1})
                b = tracker_mod.resample_if_needed(b, cfg.tracker, filt_rngs[j])
                if n_tags == 1:  # after the generator's last use in the step
                    noise = draw_noise(0)
                beliefs[j] = b = tracker_mod.mark_localized(b, cfg.tracker)
                if b.localized and loc_error[j] is None:
                    loc_error[j] = tag_error(j)

            all_localized = all(b.localized for b in beliefs)
            plan_time = None
            void_prob = None
            if not all_localized and k % cfg.void.horizon == 0:
                t_start = time.perf_counter()
                action = planner_mod.select_action(beliefs, uav, kin, planner_void,
                                                   cfg.planner, cfg.rf, area)
                plan_time = time.perf_counter() - t_start
                pending = iter(action.rollout)
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

            steps.append(MissionStep(
                k=k,
                uav_x=float(uav.xy[0]), uav_y=float(uav.xy[1]),
                uav_z=uav.altitude, uav_heading=uav.heading,
                rssi=zs.tolist(),
                est=[(float(x), float(y), height) for x, y in map(tracker_mod.estimate, beliefs)],
                sigma=[tracker_mod.uncertainty(b) for b in beliefs],
                localized=[b.localized for b in beliefs],
                planning_time=plan_time,
                void_prob=void_prob,
            ))
            if all_localized:
                break
    finally:
        # the draw still queued is for a turn that never comes: drop it undrawn
        draws.shutdown(cancel_futures=True)

    for j in range(n_tags):
        if loc_error[j] is None:
            loc_error[j] = tag_error(j)

    localized = [b.localized for b in beliefs]
    summary = MissionSummary(
        flight_time=len(steps) * t0_step,  # the steps flown, up to the capped step count
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
        tag_truths_final=truths(),
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


def derive_trial_seeds(seed: int, trials: int) -> list[int]:
    """Per-trial seeds derived from (seed, trial index); independent of parallelism."""
    children = np.random.SeedSequence(seed).spawn(trials)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def _trial_metrics(cfg: ScenarioConfig):
    """One trial: (summary, lowest non-fallback void probability or None, (n_steps, 2)
    observer track)."""
    record = run_mission(cfg)
    nonfallback = [d.void_prob for d in record.decisions if not d.fallback]
    poses = np.array([[st.uav_x, st.uav_y] for st in record.steps], dtype=float).reshape(-1, 2)
    return record.summary, min(nonfallback) if nonfallback else None, poses


def heatmap_from_poses(poses: np.ndarray, area: Area):
    """2D visit counts of observer positions on a HEATMAP_BIN_M grid over the area.

    Returns (counts as [ny][nx] lists of ints, x_edges, y_edges).
    """
    nx = max(1, int(math.ceil((area.x_max - area.x_min) / HEATMAP_BIN_M)))
    ny = max(1, int(math.ceil((area.y_max - area.y_min) / HEATMAP_BIN_M)))
    x_edges = area.x_min + HEATMAP_BIN_M * np.arange(nx + 1)
    y_edges = area.y_min + HEATMAP_BIN_M * np.arange(ny + 1)
    x_edges[-1] = max(x_edges[-1], area.x_max)
    y_edges[-1] = max(y_edges[-1], area.y_max)
    h, _, _ = np.histogram2d(poses[:, 0], poses[:, 1], bins=[x_edges, y_edges])
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


def _counts(*checks) -> list[int]:
    """Each (name, value, least) value as an int, else a ConfigError naming it: an
    integer (a numpy integer too) of at least `least`, not a bool or a whole float."""
    for name, value, least in checks:
        if not (is_count(value) and value >= least):
            raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
    return [int(value) for _, value, _ in checks]


def run_montecarlo(cfg: ScenarioConfig, trials: int, parallelism: int = 1) -> McSummary:
    """Run independently seeded trials and aggregate the metric suite.

    Results are identical for any parallelism degree: trial seeds derive from
    (seed, trial index) and aggregation runs in trial order.
    """
    trials, parallelism = _counts(("trials", trials, 1), ("parallelism", parallelism, 1))
    trial_cfgs = [replace(cfg, seed=s) for s in derive_trial_seeds(cfg.seed, trials)]
    workers = min(parallelism, trials)  # the pool forks every worker up front
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # +1 MB resident: only when used

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_metrics, trial_cfgs))
    else:
        results = [_trial_metrics(c) for c in trial_cfgs]

    summaries, void_mins, tracks = zip(*results)
    metrics = {
        "rms_m": _stats([s.rms for s in summaries]),
        "flight_time_s": _stats([s.flight_time for s in summaries]),
        "planning_time_mean_s": _stats([s.planning_time_stats["mean"] for s in summaries]),
        "localized_count": _stats([sum(map(bool, s.localized)) for s in summaries]),
        "violation_events": _stats([len(s.violation_events) for s in summaries]),
        "divergence_events": _stats([len(s.divergence_events) for s in summaries]),
        "n_decisions": _stats([s.n_decisions for s in summaries]),
    }
    all_poses = np.concatenate(tracks)
    counts, x_edges, y_edges = heatmap_from_poses(all_poses, cfg.area)
    nonfallback = [v for v in void_mins if v is not None]
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


def _bench_snapshot(particles: int, tags: int, seed: int, wavelength: float):
    """Identical belief snapshots for timing: converging blobs in an open area with a
    clear line of sight from the observer to the lowest-spread object."""
    rng = np.random.default_rng(seed)
    area = Area(0.0, 1000.0, 0.0, 1000.0)
    xs = np.linspace(100.0, 900.0, tags)
    mid = tags // 2
    beliefs = []
    for j, x in enumerate(xs):
        sigma = 20.0 + 4.0 * abs(j - mid)  # the middle object has the lowest spread
        cfg_t = tracker_mod.TrackerConfig(num_particles=particles, sigma_min=35.0)
        beliefs.append(tracker_mod.init_belief_at((x, 700.0), 1.0, sigma, wavelength, cfg_t,
                                                  rng, area))
    uav = UavState(xy=(xs[mid], 150.0), altitude=30.0, heading=math.pi / 2)
    return beliefs, uav, area


def bench_planners(repetitions: int, particles: int = tracker_mod.TrackerConfig.num_particles,
                   tags: int = ScenarioConfig.__dataclass_fields__["num_tags"].default,
                   actions: int = planner_mod.VoidConfig.action_count,
                   horizon: int = planner_mod.VoidConfig.horizon, seed: int = 0) -> dict:
    """Wall-clock per-decision planning time for each planner on identical snapshots.

    The sizes default to the default scenario's; a size or a seed out of range is a
    ConfigError.
    """
    repetitions, particles, tags, actions, horizon, seed = _counts(
        ("repetitions", repetitions, 10), ("particles", particles, 1), ("tags", tags, 1),
        ("actions", actions, 3), ("horizon", horizon, 1), ("seed", seed, 0))
    rf_cfg = rf_mod.PropagationConfig()
    beliefs, uav, area = _bench_snapshot(particles, tags, seed, rf_cfg.wavelength)
    kin = UavKinematics()
    void_cfg = planner_mod.VoidConfig(horizon=horizon, action_count=actions)
    out = {"meta": {"particles": particles, "tags": tags, "actions": actions,
                    "horizon": horizon, "repetitions": repetitions, "seed": seed}}
    for kind_name in planner_mod.PLANNER_KINDS:
        kind = planner_mod.PlannerKind(kind=kind_name)
        rf_mod.reset_likelihood_calls()
        times = []
        for _ in range(repetitions):
            t_start = time.perf_counter()
            action = planner_mod.select_action(beliefs, uav, kin, void_cfg, kind, rf_cfg, area)
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
    # fmt is unused (a batch writes JSON and a CSV heatmap); kept for positional callers
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

