"""The tagtrack benchmark: three seeded mission workloads, their output checks,
end-to-end metrics and, in a traced run, the per-layer split.

Only the JSON config schema and the public API drive a mission
(`ScenarioConfig.from_dict`, `run_mission` + `export_mission` + `audit_mission`,
or `run_montecarlo` + `export_mc` + `audit_mc`). Timing covers those calls
only; the benchmark's own checks and digests run outside the timed region.
See README.md in this directory for the workloads and metric definitions.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tagtrack
from tagtrack import harness, planner, rf, world

import spans as spans_mod

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SEARCH_FLIGHT_CAP_S = 300.0
BATCH_TRIALS = 4
BATCH_WORKERS = 2
SETUP_REPEATS = 7
P90_MIN_DECISIONS = 100

# wall-clock fields outside the determinism contract (tagtrack README, "Determinism")
TIMING_COLUMNS = ("planning_time_s",)

E2E_UNITS = {
    "steps_per_s": "1/s",
    "trials_per_s": "1/s",
    "decision_ms_mean": "ms",
    "decision_ms_p50": "ms",
    "decision_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rms_m": "m",
    "flight_time_s": "s",
    "localized_frac": "1",
    "unsafe_decision_frac": "1",
    "failed_frac": "1",
}
# the subset on the result line: never 0, and the steadiest across seeds (README)
GATED = ("steps_per_s", "setup_s", "peak_rss_mb")

PER_LAYER = (
    "world.target_step_s", "world.rollout_s", "world.rollout_calls", "world.rollout_cache_hit_frac",
    "rf.measure_s", "rf.lik_s", "rf.lik_calls", "rf.lik_ns_per_eval",
    "rf.lik_evals.update", "rf.lik_evals.planner",
    "tracker.predict_s", "tracker.update_s", "tracker.resample_s", "tracker.resample_frac",
    "tracker.summary_s", "tracker.summary_calls_per_tag_step", "tracker.diverged_frac",
    "planner.decide_self_s", "planner.gate_s", "planner.gate_calls", "planner.gate_pass_frac",
    "planner.reward_s", "planner.verify_s", "planner.fallback_frac",
    "harness.mission_self_s", "harness.mission_wall_s", "harness.export_s", "harness.export_bytes",
    "harness.pool_busy_frac", "trace.overhead_frac",
)


# ---------------------------------------------------------------------------
# workloads


def search_config(kind: str, seed: int) -> dict:
    """The README default scenario with a 300 s flight cap."""
    return {
        "seed": seed,
        "area": {"x_min": 0.0, "x_max": 1000.0, "y_min": 0.0, "y_max": 1000.0},
        "num_tags": 10,
        "uav_start": {"x": 500.0, "y": 500.0, "heading_rad": 0.0},
        "max_flight_time_s": SEARCH_FLIGHT_CAP_S,
        "planner": {"kind": kind, "alpha": 0.5, "void_enabled": True},
        "void": {"r_min_m": 50.0, "b_min": 0.8, "horizon_steps": 11, "action_count": 12},
        "tracker": {"num_particles": 10_000, "resample_threshold": 0.5, "sigma_min_m": 35.0},
        "belief_init": {"mode": "uniform", "sigma_m": 1.0},
    }


def batch_config(seed: int) -> dict:
    """The comparative scenario of acceptance criteria C3/C4, lavapilot."""
    return {
        "seed": seed,
        "area": {"x_min": 0.0, "x_max": 1000.0, "y_min": 0.0, "y_max": 1000.0},
        "num_tags": 10,
        "uav_start": {"x": 500.0, "y": 500.0, "heading_rad": 0.0},
        "max_flight_time_s": 1200.0,
        "planner": {"kind": "lavapilot", "alpha": 0.5, "void_enabled": True},
        "void": {"r_min_m": 50.0, "b_min": 0.8, "horizon_steps": 11, "action_count": 12},
        "tracker": {"num_particles": 4000, "resample_threshold": 0.5, "sigma_min_m": 35.0},
        "rf": {"antenna_floor": 0.25, "noise_var_db2": 64.0},
        "target_dynamics": {"q_diag_m2": [1.0, 1.0, 0.0]},
        "filter_dynamics": {"q_diag_m2": [2.0, 2.0, 0.0]},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    planner: str
    batch: bool
    why: str

    def config(self, seed: int) -> dict:
        return batch_config(seed) if self.batch else search_config(self.planner, seed)

    @property
    def workers(self) -> int:
        return BATCH_WORKERS if self.batch else 1


WORKLOADS = {w.name: w for w in (
    Workload("search_lavapilot", "lavapilot", False,
             "default scenario, lavapilot: the particle filter (rf likelihood, predict, "
             "summaries) does ~90% of the work; planning is under 3%"),
    Workload("search_renyi", "renyi", False,
             "same scenario and seeds, renyi: each decision scores 13 candidates x active "
             "tags x 10k particles through the rf kernel"),
    Workload("batch_comparative", "lavapilot", True,
             "C3/C4 comparative scenario through run_montecarlo on 2 workers: long missions, "
             "a busy void gate, small arrays, and the process pool"),
)}


def unit_seed(bench_seed: int, i: int) -> int:
    """Config seed of the i-th mission (or batch) of a run. Two benchmark seeds
    share no config seed while a run holds fewer than 1000 units."""
    return bench_seed * 1000 + i + 1


# ---------------------------------------------------------------------------
# one timed unit of work: a mission, or a Monte-Carlo batch


class PlannerLikelihoodError(RuntimeError):
    """A lavapilot decision evaluated the measurement likelihood (C2 says it never does)."""


class LavapilotProbe:
    """Wraps `planner.select_action` to fail any decision that moves the likelihood
    counter. Pool workers inherit it through `fork`, and the error fails their batch."""

    def __init__(self):
        self.decisions = 0
        self.available = callable(getattr(rf, "likelihood_call_count", None)) and \
            callable(getattr(planner, "select_action", None))
        self._orig = None

    def install(self) -> None:
        if not self.available:
            return
        orig = self._orig = planner.select_action
        count = rf.likelihood_call_count
        probe = self

        def select_action(*args, **kwargs):
            before = count()
            out = orig(*args, **kwargs)
            probe.decisions += 1
            if count() != before:
                raise PlannerLikelihoodError(f"{count() - before} likelihood calls in one decision")
            return out

        planner.select_action = select_action

    def uninstall(self) -> None:
        if self._orig is not None:
            planner.select_action = self._orig
            self._orig = None


@dataclass
class Unit:
    seed: int
    trials: int
    tags: int
    wall_s: float = 0.0
    steps: int = 0
    failed: int = 0
    reason: str = ""
    decision_times: list = field(default_factory=list)  # per decision (missions only)
    decision_means: list = field(default_factory=list)  # per mission
    decisions: int = 0
    fallbacks: int = 0
    unsafe: int = 0
    localized: int = 0
    rms: list = field(default_factory=list)
    flight: list = field(default_factory=list)
    digest: str = ""


def _digest_files(paths, drop_json) -> str:
    """sha256 over the written files with the wall-clock timing fields removed."""
    h = hashlib.sha256()
    for path in sorted(paths, key=os.path.basename):
        h.update(os.path.basename(path).encode())
        if path.endswith(".json"):
            data = json.loads(Path(path).read_text())
            drop_json(data)
            h.update(json.dumps(data, sort_keys=True).encode())
        elif path.endswith(".csv"):
            rows = list(csv.reader(io.StringIO(Path(path).read_text())))
            drop = {i for i, col in enumerate(rows[0] if rows else []) if col in TIMING_COLUMNS}
            for row in rows:
                h.update(",".join(c for i, c in enumerate(row) if i not in drop).encode() + b"\n")
    return h.hexdigest()


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def run_mission_unit(wl: Workload, seed: int, out_dir: Path) -> Unit:
    """One mission the way `tagtrack simulate` runs it: load, run, export, audit."""
    cfg_dict = wl.config(seed)
    unit = Unit(seed=seed, trials=1, tags=cfg_dict["num_tags"])
    record = None
    t0 = time.perf_counter()
    try:
        cfg = harness.ScenarioConfig.from_dict(cfg_dict)
        cfg.validate()
        record = harness.run_mission(cfg)
        written = harness.export_mission(record, cfg, str(out_dir), "csv")
        harness.audit_mission(record, cfg)
    except Exception as exc:  # a failed mission is counted, the run goes on
        unit.failed, unit.reason = 1, f"{type(exc).__name__}: {exc}"
    unit.wall_s = time.perf_counter() - t0
    if record is None:
        return unit
    s = record.summary
    unit.steps = s.n_steps
    unit.decision_times = [d.planning_time for d in record.decisions]
    if record.decisions:
        unit.decision_means = [s.planning_time_stats["mean"]]
    unit.decisions = s.n_decisions
    unit.fallbacks = sum(d.fallback for d in record.decisions)
    unit.unsafe = len(s.violation_events)
    unit.localized = sum(bool(x) for x in s.localized)
    unit.rms, unit.flight = [s.rms], [s.flight_time]
    if not unit.failed:
        if not (_finite([st.est for st in record.steps]) and _finite(s.per_tag_error)
                and _finite([s.rms])):
            unit.failed, unit.reason = 1, "non-finite estimate or RMS"
        else:
            unit.digest = _digest_files(
                written, lambda d: d["summary"].pop("planning_time_stats_s", None))
    return unit


def run_batch_unit(wl: Workload, seed: int, out_dir: Path) -> Unit:
    """One batch the way `tagtrack montecarlo` runs it: load, run, export, audit."""
    cfg_dict = wl.config(seed)
    unit = Unit(seed=seed, trials=BATCH_TRIALS, tags=cfg_dict["num_tags"])
    mc = None
    t0 = time.perf_counter()
    try:
        cfg = harness.ScenarioConfig.from_dict(cfg_dict)
        cfg.validate()
        mc = harness.run_montecarlo(cfg, trials=BATCH_TRIALS, parallelism=BATCH_WORKERS)
        written = harness.export_mc(mc, cfg, str(out_dir), "csv")
        harness.audit_mc(mc, cfg)
    except Exception as exc:  # the whole batch counts as failed
        unit.failed, unit.reason = BATCH_TRIALS, f"{type(exc).__name__}: {exc}"
    unit.wall_s = time.perf_counter() - t0
    if mc is None:
        return unit
    m, n = mc.metrics, BATCH_TRIALS
    unit.steps = mc.total_poses
    unit.decision_means = [m["planning_time_mean_s"]["mean"]]
    unit.decisions = round(m["n_decisions"]["mean"] * n)
    unit.unsafe = round(m["violation_events"]["mean"] * n)
    unit.localized = round(m["localized_count"]["mean"] * n)
    unit.rms = [m["rms_m"]["mean"]] * n
    unit.flight = [m["flight_time_s"]["mean"]] * n
    if not unit.failed:
        if not _finite([m["rms_m"][k] for k in ("mean", "min", "max")]):
            unit.failed, unit.reason = BATCH_TRIALS, "non-finite RMS in the batch"
        else:
            unit.digest = _digest_files(
                written, lambda d: d["summary"]["metrics"].pop("planning_time_mean_s", None))
    return unit


def run_units(wl: Workload, bench_seed: int, seconds: float, out_dir: Path,
              seeds: list | None = None) -> list:
    """Closed loop: the next unit starts when the previous one ends, until `seconds`
    of timed work have passed (or, with `seeds`, exactly those units)."""
    run = run_batch_unit if wl.batch else run_mission_unit
    if seeds is not None:
        return [run(wl, seed, out_dir) for seed in seeds]
    units, elapsed = [], 0.0
    while elapsed < seconds or not units:
        units.append(run(wl, unit_seed(bench_seed, len(units)), out_dir))
        elapsed += units[-1].wall_s
    return units


# ---------------------------------------------------------------------------
# metrics


def e2e_metrics(units: list, setup_s: float | None, peak_rss_mb: float | None) -> dict:
    """End-to-end metrics of an untraced run: {name: value or None (not measurable)}."""
    wall = sum(u.wall_s for u in units)
    trials = sum(u.trials for u in units)
    ok = [u for u in units if not u.failed]
    times = [t for u in units for t in u.decision_times]
    means = [x for u in units for x in u.decision_means]
    decisions = sum(u.decisions for u in ok)
    return {
        "steps_per_s": sum(u.steps for u in units) / wall,
        "trials_per_s": trials / wall,
        "decision_ms_mean": 1e3 * statistics.fmean(means) if means else None,
        "decision_ms_p50": 1e3 * float(np.quantile(times, 0.5)) if times else None,
        "decision_ms_p90": 1e3 * float(np.quantile(times, 0.9)) if len(times) >= P90_MIN_DECISIONS else None,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "rms_m": statistics.fmean(r for u in ok for r in u.rms) if ok else None,
        "flight_time_s": statistics.fmean(f for u in ok for f in u.flight) if ok else None,
        "localized_frac": sum(u.localized for u in ok) / sum(u.tags * u.trials for u in ok) if ok else None,
        "unsafe_decision_frac": sum(u.unsafe for u in ok) / decisions if decisions else None,
        "failed_frac": sum(u.failed for u in units) / trials,
    }


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus, with a pool, `workers` times the largest reaped
    child's peak (a pool worker; the set-up interpreters are smaller)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * child) / 1024.0  # ru_maxrss is in KiB on Linux


# what `tagtrack simulate --config FILE` does before step 1
SETUP_SNIPPET = (
    "import sys\n"
    "from tagtrack import cli, harness\n"
    "cli.build_parser().parse_args(['simulate', '--config', sys.argv[1]])\n"
    "harness.load_config(sys.argv[1]).validate()\n"
)


def measure_setup(cfg_dict: dict, out_dir: Path, repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of a fresh interpreter that imports the tagtrack CLI, parses
    a `simulate` command line and loads and validates the workload's config file;
    one untimed call first warms the file cache."""
    path = out_dir / "config.json"
    path.write_text(json.dumps(cfg_dict, indent=2))
    cmd = [sys.executable, "-c", SETUP_SNIPPET, str(path)]
    env = dict(os.environ)  # carries the BLAS thread settings
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        # no timeout: waiting with one polls in 50 ms steps, which would quantize the time
        subprocess.run(cmd, env=env, check=True, cwd=ROOT)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# environment record


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # keep git from finding a repository above the checkout
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) CPU time of the whole machine from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "tagtrack").glob("*.py")):
        src_hash.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "tagtrack": getattr(tagtrack, "__version__", None),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": src_hash.hexdigest(),
        "command": [sys.executable, *sys.argv],
    }


# ---------------------------------------------------------------------------
# a run


def _print_units(units: list) -> None:
    print(f"{'seed':>8} {'trials':>6} {'steps':>6} {'wall_s':>7} {'decisions':>9} "
          f"{'fallbacks':>9} {'unsafe':>6} {'localized':>9} {'failed':>6}")
    for u in units:
        fb = "-" if u.trials > 1 else str(u.fallbacks)  # batches report no per-decision labels
        print(f"{u.seed:>8} {u.trials:>6} {u.steps:>6} {u.wall_s:>7.2f} {u.decisions:>9} "
              f"{fb:>9} {u.unsafe:>6} {u.localized:>5}/{u.tags * u.trials:<3} {u.failed:>6}"
              + (f"  {u.reason}" if u.reason else ""))


def run_workload(name: str, bench_seed: int, seconds: float, trace: bool,
                 out_root: Path = OUT) -> tuple[dict, bool]:
    """Run one workload; returns (result line, all checks passed)."""
    wl = WORKLOADS[name]
    jiffies0 = cpu_jiffies()
    out_dir = out_root / name
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = LavapilotProbe() if wl.planner == "lavapilot" else None
    if probe:
        probe.install()
    try:
        if trace:
            units, metrics, checks = _traced(wl, bench_seed, seconds, out_dir)
        else:
            setup = measure_setup(wl.config(unit_seed(bench_seed, 0)), out_dir)
            units = run_units(wl, bench_seed, seconds, out_dir)
            rss = peak_rss_mb(wl.workers)
            values = e2e_metrics(units, setup, rss)
            metrics = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
            checks = {}
    finally:
        if probe:
            probe.uninstall()

    attempted = sum(u.trials for u in units)
    failed = sum(u.failed for u in units)
    checks["missions_failed"] = f"{failed} of {attempted}"
    if probe:
        if not probe.available:
            probed = "unavailable: rf.likelihood_call_count or planner.select_action is gone"
        elif not wl.batch:
            probed = f"{probe.decisions} decisions probed"
        elif multiprocessing.get_start_method() == "fork":
            probed = "every decision probed in the fork-started pool workers"
        else:
            probed = "not probed: pool workers do not inherit the probe without fork"
        checks["lavapilot_planner_likelihood_zero"] = probed
    correct = failed == 0

    _print_units(units)
    print(f"workload {name}: {wl.why}")
    for key, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:<36} {shown:>12} {unit}")
    if not trace:
        times = sum(len(u.decision_times) for u in units)
        print(f"  decisions timed: {times} (p90 needs >= {P90_MIN_DECISIONS}; batch decisions "
              "run in pool workers and give only per-mission means)")
    for key, value in checks.items():
        print(f"  check {key}: {value}")
    env = environment()
    jiffies1 = cpu_jiffies()
    if jiffies0 and jiffies1 and jiffies1[1] > jiffies0[1]:
        # time the hypervisor gave to other guests: a slow host shows here
        env["host_steal_frac"] = (jiffies1[0] - jiffies0[0]) / (jiffies1[1] - jiffies0[1])
        print(f"  host steal: {env['host_steal_frac']:.3f} of all CPU time during the run")

    names = PER_LAYER if trace else GATED
    absent = [k for k in names if metrics.get(k, (None,))[0] is None]
    for k in absent:
        print(f"  absent {k}")
    result = {
        "workload": name, "seed": bench_seed, "seconds": seconds, "trace": trace,
        "environment": env,
        "units": [u.__dict__ for u in units],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "checks": checks, "absent": absent,
        "digests": {str(u.seed): u.digest for u in units},
    }
    (out_root / f"{name}-seed{bench_seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1, default=float))
    line = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in names if k not in absent},
    }
    return line, correct


def _traced(wl: Workload, bench_seed: int, seconds: float, out_dir: Path):
    """Half the time untraced, then the same units again with spans on."""
    plain = run_units(wl, bench_seed, seconds / 2, out_dir)
    clear = getattr(getattr(world, "_trapezoid_samples", None), "cache_clear", None)
    if clear is not None:
        clear()  # the traced pass starts with the same empty rollout cache
    spans_dir = out_dir / "spans"
    spans_dir.mkdir(exist_ok=True)
    for stale in spans_dir.glob("w*.json"):
        stale.unlink()
    rec = spans_mod.Recorder(spans_dir)
    cache0 = spans_mod.rollout_cache_info()
    rec.install()
    try:
        traced = run_units(wl, bench_seed, seconds, out_dir, seeds=[u.seed for u in plain])
    finally:
        rec.uninstall()
    cache1 = spans_mod.rollout_cache_info()
    if wl.batch:
        caches = rec.collect_workers()
        cache = [sum(c[0] for c in caches), sum(c[1] for c in caches)] if caches else None
    else:
        cache = None if cache0 is None else [cache1[0] - cache0[0], cache1[1] - cache0[1]]
    rec.write(out_dir / "spans.jsonl")

    steps = sum(u.steps for u in traced) or 1
    wall = sum(u.wall_s for u in traced)
    layers = spans_mod.layer_metrics(rec.spans, rec.names, steps, wl.workers, wall, cache)
    accounted = layers.pop("trace.accounted_frac", (None, "1"))[0]
    plain_sps = sum(u.steps for u in plain) / sum(u.wall_s for u in plain)
    layers["trace.overhead_frac"] = (plain_sps / (steps / wall) - 1.0, "1")
    metrics = {k: layers.get(k, (None, "")) for k in PER_LAYER}
    mismatched = [v for u, v in zip(plain, traced) if u.digest != v.digest and not v.failed]
    for v in mismatched:
        v.failed, v.reason = v.trials, "traced outputs differ from the untraced run"
    checks = {
        "traced_mission_wall_accounted": "n/a" if accounted is None else f"{accounted:.6f}",
        "tracing_overhead": f"untraced {plain_sps:.3f} vs traced {steps / wall:.3f} steps/s",
        "wrapped_functions_missing": ", ".join(rec.missing) or "none",
        "traced_outputs_match_untraced":
            "yes" if not mismatched else f"no, seeds {[v.seed for v in mismatched]}",
    }
    return plain + traced, metrics, checks
