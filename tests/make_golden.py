"""Write the golden seeded-mission fixture that `test_golden.py` checks.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py

It runs one short mission per planner (4 tags x 2000 particles, 60 s cap) and
writes every non-timing output of each to `tests/golden_missions.json`: poses,
RSSI, estimated x/y, spreads, flags, void probabilities, decisions, flight time,
per-tag errors and RMS. The estimate's z is left out: it is the configured tag
height, which the test checks directly. Regenerate only when a change is meant
to alter seeded outputs, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np

from tagtrack import harness

FIXTURE = Path(__file__).resolve().parent / "golden_missions.json"
COMMAND = "PYTHONPATH=src python tests/make_golden.py"


def _config(kind: str, seed: int, **rf) -> dict:
    return {
        "seed": seed,
        "area": {"x_min": 0.0, "x_max": 800.0, "y_min": 0.0, "y_max": 800.0},
        "num_tags": 4,
        "max_flight_time_s": 60.0,
        "planner": {"kind": kind},
        "void": {"horizon_steps": 5},
        "tracker": {"num_particles": 2000},
        "rf": rf,
    }


# one mission per planner; between them they cover both reflection modes, an
# antenna table and per-tag carrier frequencies
CONFIGS = {
    "lavapilot": _config("lavapilot", 11),
    "renyi": {**_config("renyi", 12), "tag_frequencies_mhz": [148.0, 150.0, 151.5, 153.0]},
    "shannon": _config("shannon", 13, reflection_mode="fresnel",
                       antenna_table=[[0.0, 4.0], [1.5, -2.0], [3.1, -9.0], [4.7, -2.0]]),
}


def run(cfg_dict: dict) -> harness.MissionRecord:
    return harness.run_mission(harness.ScenarioConfig.from_dict(cfg_dict))


def outputs(rec: harness.MissionRecord) -> dict:
    """Every non-timing output of one mission but the estimates' z, as JSON-ready values."""
    steps = [{"k": s.k, "uav": [s.uav_x, s.uav_y, s.uav_z, s.uav_heading],
              "rssi": s.rssi, "est_xy": [[e[0], e[1]] for e in s.est], "sigma": s.sigma,
              "localized": s.localized, "void_prob": s.void_prob} for s in rec.steps]
    decisions = [{"k": d.k, "label": d.label, "fallback": d.fallback,
                  "void_prob": d.void_prob, "bound_ok": d.bound_ok} for d in rec.decisions]
    summary = rec.summary.to_dict()
    summary.pop("planning_time_stats_s")
    return {"steps": steps, "decisions": decisions, "summary": summary}


def main() -> None:
    fixture = {
        "command": COMMAND,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "missions": {name: {"config": cfg, **outputs(run(cfg))} for name, cfg in CONFIGS.items()},
    }
    FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}", file=sys.stderr)


if __name__ == "__main__":
    main()
