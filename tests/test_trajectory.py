"""The committed benchmark trajectory: each `BENCH_*.json` is a well-formed result of `BENCHMARK.json`."""

import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TRAJECTORY = sorted(REPO_ROOT.glob("BENCH_*.json"))


def test_the_trajectory_is_committed():
    assert TRAJECTORY


@pytest.mark.parametrize("path", TRAJECTORY, ids=lambda path: path.name)
def test_each_result_covers_every_workload_and_end_to_end_metric(path):
    results = json.loads(path.read_text(encoding="utf-8"))["results"]
    assert sorted(results) == sorted(w["name"] for w in BENCHMARK["workloads"])
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for result in results.values():
        assert result["correct"] is True and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == units
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
