"""Span recording around the library's layer boundaries, for the traced run.

Each wrapper replaces a module attribute under the name its caller looks it up
by, so `planner.uav_rollout` is wrapped in `tagtrack.planner` (which imports it
by name) rather than in `tagtrack.world`. A span is `[name, start_ns, end_ns,
parent_index, attrs]`; spans stay in memory until the run ends. A function that
no longer exists is recorded as missing and its metrics are reported absent.

Pool workers inherit the wrappers through `fork`. Each worker writes the spans
of one trial to `spans_dir` when the trial ends, and the parent merges them.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from pathlib import Path

from tagtrack import harness, planner, rf, tracker, world

SUMMARY_SPANS = ("tracker.estimate", "tracker.uncertainty", "tracker.mark_localized")

# Spans nested inside `harness.mission`; their self times plus the mission's own
# self time add up to the mission wall time.
MISSION_CHILDREN = (
    "world.target_step", "world.rollout", "rf.measure", "rf.lik",
    "tracker.predict", "tracker.update", "tracker.resample", *SUMMARY_SPANS,
    "planner.decide", "planner.gate", "planner.reward", "planner.verify",
)


def _n_particles(args, kwargs, out):
    shape = getattr(kwargs.get("positions", args[1] if len(args) > 1 else None), "shape", ())
    return math.prod(shape[:-1])


def _written_bytes(args, kwargs, out):
    return sum(os.path.getsize(p) for p in out)


def _fallback(args, kwargs, out):
    return None if out is None else bool(out.fallback)  # `stay` or `escape`


def _mission_tag_steps(args, kwargs, out):
    return out.summary.n_steps * args[0].num_tags


# (module, attribute, span name, attribute extractor)
WRAPPED = (
    (harness, "run_montecarlo", "harness.batch", None),
    (harness, "run_mission", "harness.mission", _mission_tag_steps),
    (harness, "export_mission", "harness.export", _written_bytes),
    (harness, "export_mc", "harness.export", _written_bytes),
    (harness, "target_step", "world.target_step", None),
    (planner, "uav_rollout", "world.rollout", None),
    (rf, "sample_measurement", "rf.measure", None),
    (rf, "log_likelihood_array", "rf.lik", _n_particles),
    (tracker, "predict", "tracker.predict", None),
    (tracker, "update", "tracker.update", lambda a, k, out: bool(out.diverged)),
    (tracker, "resample_if_needed", "tracker.resample", lambda a, k, out: out is not a[0]),
    (tracker, "estimate", "tracker.estimate", None),
    (tracker, "uncertainty", "tracker.uncertainty", None),
    (tracker, "mark_localized", "tracker.mark_localized", None),
    (planner, "select_action", "planner.decide", _fallback),
    (planner, "_void_ok", "planner.gate", lambda a, k, out: bool(out)),
    (planner, "_pseudo_update_reward", "planner.reward", None),
    (planner, "verify_void_bound", "planner.verify", None),
)


def rollout_cache_info():
    """(hits, misses) of the rollout cache, or None once that cache is gone."""
    info = getattr(getattr(world, "_trapezoid_samples", None), "cache_info", None)
    if info is None:
        return None
    i = info()
    return (i.hits, i.misses)


class Recorder:
    """Installs the span wrappers and keeps the spans of this process."""

    def __init__(self, spans_dir: Path):
        self.spans: list = []
        self.stack: list = []
        self.pid = os.getpid()
        self.spans_dir = spans_dir
        self.missing: list = []
        self.names: set = set()  # span names whose wrapper is installed
        self._originals: list = []
        self._trials = 0

    def _wrap(self, module, attr, name, attrs_fn):
        orig = getattr(module, attr, None)
        if not callable(orig):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        spans, stack = self.spans, self.stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                out = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if attrs_fn is not None:
                try:
                    span[4] = attrs_fn(args, kwargs, out)
                except (AttributeError, IndexError, TypeError, OSError):
                    pass  # a changed signature leaves the attribute absent
            return out

        self._originals.append((module, attr, orig))
        self.names.add(name)
        setattr(module, attr, wrapper)

    def install(self) -> None:
        for module, attr, name, attrs_fn in WRAPPED:
            self._wrap(module, attr, name, attrs_fn)
        self._wrap_trial()

    def _wrap_trial(self):
        """Wrap the pool's per-trial function so a worker ships its spans home."""
        orig = getattr(harness, "_trial_metrics", None)
        if not callable(orig):
            self.missing.append("tagtrack.harness._trial_metrics")
            return
        rec = self

        @functools.wraps(orig)
        def trial(cfg):
            if os.getpid() == rec.pid:
                return orig(cfg)
            # a forked worker starts with a copy of the parent's spans and stack
            rec.spans.clear()
            rec.stack.clear()
            cache0 = rollout_cache_info()
            out = orig(cfg)
            cache1 = rollout_cache_info()
            rec._trials += 1
            path = rec.spans_dir / f"w{os.getpid()}-{rec._trials}.json"
            cache = None if cache0 is None else [cache1[0] - cache0[0], cache1[1] - cache0[1]]
            path.write_text(json.dumps({"spans": rec.spans, "cache": cache}))
            rec.spans.clear()
            return out

        self._originals.append((harness, "_trial_metrics", orig))
        harness._trial_metrics = trial

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._originals):
            setattr(module, attr, orig)
        self._originals.clear()

    def collect_workers(self):
        """Merge worker span files into this process's list; returns their cache deltas."""
        caches = []
        for path in sorted(self.spans_dir.glob("w*.json")):
            data = json.loads(path.read_text())
            base = len(self.spans)
            for name, t0, t1, parent, attrs in data["spans"]:
                self.spans.append([name, t0, t1, parent + base if parent >= 0 else -1, attrs])
            if data["cache"] is not None:
                caches.append(data["cache"])
            path.unlink()
        return caches

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def layer_metrics(spans, names, steps: int, workers: int, wall_s: float, cache) -> dict:
    """Per-layer metrics from spans: times and counts per simulated step, and ratios.

    `names` are the span names that were wrapped; a layer that was wrapped but
    never called reads 0. Returns {name: (value, unit)}; a metric whose wrapper
    is missing, or whose ratio has no base, is left out.
    """
    n = len(spans)
    self_ns = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_ns[s[3]] -= s[2] - s[1]
    by_name: dict = {nm: [0, 0, 0] for nm in names}
    for i, s in enumerate(spans):
        agg = by_name.setdefault(s[0], [0, 0, 0])  # calls, self ns, total ns
        agg[0] += 1
        agg[1] += self_ns[i]
        agg[2] += s[2] - s[1]

    def calls(name):
        return by_name[name][0] if name in by_name else None

    def self_s(*names):
        if not all(nm in by_name for nm in names):
            return None
        return sum(by_name[nm][1] for nm in names) * 1e-9 / steps

    def attrs(name):
        return [s[4] for s in spans if s[0] == name]

    def frac(num, den):
        return None if den in (None, 0) or num is None else num / den

    per_step = "s/step"
    out = {
        "world.target_step_s": (self_s("world.target_step"), per_step),
        "world.rollout_s": (self_s("world.rollout"), per_step),
        "world.rollout_calls": (frac(calls("world.rollout"), steps), "1/step"),
        "world.rollout_cache_hit_frac": (None if cache is None else frac(cache[0], cache[0] + cache[1]), "1"),
        "rf.measure_s": (self_s("rf.measure"), per_step),
        "rf.lik_s": (self_s("rf.lik"), per_step),
        "rf.lik_calls": (frac(calls("rf.lik"), steps), "1/step"),
        "tracker.predict_s": (self_s("tracker.predict"), per_step),
        "tracker.update_s": (self_s("tracker.update"), per_step),
        "tracker.resample_s": (self_s("tracker.resample"), per_step),
        "tracker.summary_s": (self_s(*SUMMARY_SPANS), per_step),
        "planner.decide_self_s": (self_s("planner.decide"), per_step),
        "planner.gate_s": (self_s("planner.gate"), per_step),
        "planner.gate_calls": (frac(calls("planner.gate"), steps), "1/step"),
        "planner.reward_s": (self_s("planner.reward"), per_step),
        "planner.verify_s": (self_s("planner.verify"), per_step),
        "harness.mission_self_s": (self_s("harness.mission"), per_step),
        "harness.mission_wall_s": (None if "harness.mission" not in by_name
                                   else by_name["harness.mission"][2] * 1e-9 / steps, per_step),
        "harness.export_s": (self_s("harness.export"), per_step),
    }

    def total(name):
        """Sum of a span attribute over the spans of `name`; None if any is unknown."""
        vals = attrs(name)
        return None if None in vals else sum(vals)

    # lavapilot must never evaluate the likelihood inside a decision (C2); any
    # evaluation below a `planner.decide` span counts for the planner
    lik = [i for i in range(n) if spans[i][0] == "rf.lik"]
    if "rf.lik" in by_name and total("rf.lik") is not None:
        planner_evals = 0
        for i in lik:
            j = spans[i][3]
            while j >= 0 and spans[j][0] != "planner.decide":
                j = spans[j][3]
            if j >= 0:
                planner_evals += spans[i][4]
        evals = total("rf.lik")
        out["rf.lik_evals.update"] = ((evals - planner_evals) / steps, "1/step")
        out["rf.lik_evals.planner"] = (planner_evals / steps, "1/step")
        out["rf.lik_ns_per_eval"] = (frac(by_name["rf.lik"][1], evals), "ns")
    out["tracker.diverged_frac"] = (frac(total("tracker.update"), calls("tracker.update")), "1")
    out["tracker.resample_frac"] = (frac(total("tracker.resample"), calls("tracker.update")), "1")
    missions = attrs("harness.mission")
    if all(nm in by_name for nm in SUMMARY_SPANS) and missions and None not in missions:
        out["tracker.summary_calls_per_tag_step"] = (
            sum(by_name[nm][0] for nm in SUMMARY_SPANS) / sum(missions), "1")
    out["planner.gate_pass_frac"] = (frac(total("planner.gate"), calls("planner.gate")), "1")
    fallbacks = [fb for fb in attrs("planner.decide") if fb is not None]
    if fallbacks:
        out["planner.fallback_frac"] = (sum(fallbacks) / len(fallbacks), "1")
    out["harness.export_bytes"] = (frac(total("harness.export"), steps), "bytes/step")
    if by_name.get("harness.mission", [0, 0, 0])[2] > 0:
        mission_ns = by_name["harness.mission"][2]
        inside = sum(by_name[nm][1] for nm in ("harness.mission", *MISSION_CHILDREN) if nm in by_name)
        out["harness.pool_busy_frac"] = (mission_ns * 1e-9 / (workers * wall_s), "1")
        out["trace.accounted_frac"] = (inside / mission_ns, "1")
    return {k: v for k, v in out.items() if v[0] is not None}
