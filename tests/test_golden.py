"""Seeded missions against the golden fixture written by `make_golden.py`: every
non-timing output must match exactly, and each estimate's z is the tag height."""

import json

import pytest

from make_golden import CONFIGS, FIXTURE, outputs, run

from tagtrack import harness

GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GOLDEN["missions"]))
def test_seeded_mission_matches_golden(name):
    want = GOLDEN["missions"][name]
    assert want["config"] == CONFIGS[name]
    record = run(want["config"])
    got = outputs(record)
    assert got["summary"] == want["summary"]
    assert got["decisions"] == want["decisions"]
    assert len(got["steps"]) == len(want["steps"])
    for g, w in zip(got["steps"], want["steps"]):
        assert g == w, f"step {w['k']}"
    tag_height = harness.ScenarioConfig.from_dict(want["config"]).tag_height
    assert {e[2] for s in record.steps for e in s.est} == {tag_height}
