"""Fast check of the benchmark itself at tiny sizes (a few seconds).

    python3 -m pytest -q -p no:cacheprovider perfbench/test_smoke.py

It checks that every metric named in BENCHMARK.json is emitted with its unit,
and that a mission with a non-finite estimate, one that fails the void audit,
and a lavapilot decision that evaluates the likelihood each count as failed.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import core  # noqa: E402
from tagtrack import harness, planner, rf  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Two tags, 200 particles, 30 s missions and two-trial batches."""
    def shrink(make):
        def config(*args):
            cfg = make(*args)
            cfg.update(num_tags=2, max_flight_time_s=30.0)
            cfg["tracker"]["num_particles"] = 200
            return cfg
        return config

    monkeypatch.setattr(core, "search_config", shrink(core.search_config))
    monkeypatch.setattr(core, "batch_config", shrink(core.batch_config))
    monkeypatch.setattr(core, "BATCH_TRIALS", 2)
    monkeypatch.setattr(core, "SETUP_REPEATS", 1)


def _out(name):
    return core.OUT / "smoke" / name


def test_workload_names_match_the_spec():
    import run
    assert run.WORKLOAD_NAMES == tuple(core.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(core.WORKLOADS)
    assert SPEC["command"][1] == "perfbench/run.py"


@pytest.mark.parametrize("name", list(core.WORKLOADS))
def test_every_end_to_end_metric_is_emitted_with_its_unit(name):
    line, correct = core.run_workload(name, 0, 0.01, False, out_root=_out("e2e"))
    assert correct and line["attempted"] >= 1 and line["failed"] == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("name", list(core.WORKLOADS))
def test_every_per_layer_metric_is_emitted_with_its_unit(name):
    line, correct = core.run_workload(name, 0, 0.01, True, out_root=_out("trace"))
    assert correct
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(want) == set(core.PER_LAYER)
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == want, set(want) ^ set(got)
    if core.WORKLOADS[name].planner == "lavapilot":
        assert line["metrics"]["rf.lik_evals.planner"]["value"] == 0
    else:
        assert line["metrics"]["rf.lik_evals.planner"]["value"] > 0


def test_broken_missions_count_in_failed_frac(monkeypatch):
    real = harness.run_mission

    def broken(cfg):
        record = real(cfg)
        if cfg.seed == 1:  # non-finite estimate
            record.steps[-1].est[0] = (math.nan, 0.0, 1.0)
        elif cfg.seed == 2:  # a gated decision below the void bound
            record.decisions[0].fallback = False
            record.decisions[0].void_prob = 0.0
        return record

    monkeypatch.setattr(harness, "run_mission", broken)
    wl = core.WORKLOADS["search_lavapilot"]
    units = core.run_units(wl, 0, 0.0, _out("broken"), seeds=[1, 2, 3])
    assert [u.failed for u in units] == [1, 1, 0]
    assert "non-finite" in units[0].reason and "VoidAuditError" in units[1].reason
    assert core.e2e_metrics(units, 1.0, 1.0)["failed_frac"] == pytest.approx(2 / 3)


def test_non_finite_batch_counts_every_trial(monkeypatch):
    real = harness.run_montecarlo

    def broken(cfg, trials, parallelism=1):
        mc = real(cfg, trials, 1)
        mc.metrics["rms_m"]["max"] = math.inf
        return mc

    monkeypatch.setattr(harness, "run_montecarlo", broken)
    units = core.run_units(core.WORKLOADS["batch_comparative"], 0, 0.0, _out("broken"), seeds=[1])
    assert units[0].failed == core.BATCH_TRIALS
    assert core.e2e_metrics(units, 1.0, 1.0)["failed_frac"] == 1.0


def test_lavapilot_likelihood_evaluation_fails_the_mission(monkeypatch):
    real = planner.lavapilot_select

    def peeking(beliefs, uav, *args, **kwargs):
        rf.log_likelihood_array(-60.0, beliefs[0].particles, uav, rf.PropagationConfig())
        return real(beliefs, uav, *args, **kwargs)

    monkeypatch.setattr(planner, "lavapilot_select", peeking)
    line, correct = core.run_workload("search_lavapilot", 0, 0.01, False, out_root=_out("peek"))
    assert not correct and line["failed"] == line["attempted"] >= 1
