"""The library surface the benchmark's traced run reads (`perfbench/spans.py` and
`perfbench/core.py`): every wrapped function exists, the rollout cache and the
likelihood counter are there, the per-layer flags come back as bools, the target
walk and the measurements take one call each per step, and the planner's rollouts
and gate checks are recorded."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from tagtrack import harness, tracker, world

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("core"), importlib.import_module("spans")


def test_traced_run_finds_every_layer(tmp_path, perfbench):
    core, spans = perfbench
    cfg = harness.ScenarioConfig(
        area=world.Area(0.0, 300.0, 0.0, 300.0), num_tags=2,
        tag_positions=[(70.0, 220.0), (230.0, 90.0)], max_flight_time=30.0,
        tracker=tracker.TrackerConfig(num_particles=300, sigma_min=35.0),
        target_dynamics=world.TargetDynamics(q_diag=np.array([1.0, 1.0, 0.0])), seed=42)
    recorder = spans.Recorder(tmp_path)
    recorder.install()
    try:
        assert recorder.missing == []
        assert spans.rollout_cache_info() is not None
        assert core.LavapilotProbe().available
        record = harness.run_mission(cfg)
    finally:
        recorder.uninstall()
    # all tags of a step move in one call and are measured in one call, so the
    # per-step times of these layers keep their meaning
    names = [s[0] for s in recorder.spans]
    for name in ("world.target_step", "rf.measure"):
        assert names.count(name) == record.summary.n_steps > 0, name
    flags = {name: [s[4] for s in recorder.spans if s[0] == name]
             for name in ("tracker.update", "tracker.resample", "planner.gate")}
    for name, values in flags.items():
        assert values and all(isinstance(v, bool) for v in values), name
    # the resample flag is `out is not belief`: a step that keeps its particles
    # must hand back the very same belief
    assert 0 < sum(flags["tracker.resample"]) < len(flags["tracker.resample"])
    # the planner flies and gates its candidates through the wrapped module
    # attributes: each gate call checks one rollout, and a fallback flies one more
    gates = names.count("planner.gate")
    fallbacks = sum(s[4] is True for s in recorder.spans if s[0] == "planner.decide")
    assert gates > 0 and names.count("world.rollout") >= gates + fallbacks
