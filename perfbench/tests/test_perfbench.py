"""Tests of the benchmark itself: seeded inputs, declared metric names, exit codes.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from repro.api import problem_digest  # noqa: E402

import workloads  # noqa: E402
from layers import span_self_times  # noqa: E402
from spec import PER_LAYER, WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _digests(instances):
    return [problem_digest(i.problem, i.solver, i.options) for i in instances]


def _inputs(seed: int):
    return {
        "service-miss": _digests(workloads.service_miss_problems(seed, 24)),
        "service-hit": workloads.hit_order(seed, 40, len(workloads.HIT_POOL)),
    }


def test_same_seed_gives_identical_problems_and_order():
    assert _inputs(7) == _inputs(7)


def test_different_seed_gives_different_problems_and_order():
    first, second = _inputs(7), _inputs(8)
    for key in first:
        assert first[key] != second[key], key


def test_no_problem_repeats_within_a_run():
    miss = _digests(workloads.service_miss_problems(3, 2000))
    assert len(miss) == 2 * len(workloads.family_grid())
    assert len(set(miss)) == len(miss)


def test_spec_covers_exactly_the_declared_per_layer_metrics():
    assert set(PER_LAYER) == {m["name"] for m in DECLARED["per_layer"]}
    assert set(WORKLOADS) == {w["name"] for w in DECLARED["workloads"]}


def test_span_self_time_subtracts_the_union_of_children(tmp_path):
    spans = [
        {"trace_id": "t", "span_id": "a", "name": "root", "start_s": 100.0, "duration_s": 1.0},
        {"trace_id": "t", "span_id": "b", "parent_id": "a", "name": "child", "start_s": 100.1, "duration_s": 0.4},
        {"trace_id": "t", "span_id": "c", "parent_id": "a", "name": "child", "start_s": 100.3, "duration_s": 0.4},
        {"trace_id": "t", "span_id": "d", "name": "old", "start_s": 1.0, "duration_s": 5.0},
    ]
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(s) + "\n" for s in spans))
    totals = span_self_times([path], since=50.0)
    assert totals["root"] == pytest.approx(0.4)  # children cover 100.1-100.7
    assert totals["child"] == pytest.approx(0.8)
    assert "old" not in totals


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_emitted_metric_names_match_the_declaration(workload, trace):
    out = _run("--workload", workload, "--seed", "1", "--seconds", "2", "--trace", trace)
    assert out.returncode == 0, out.stderr[-2000:]
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace == "1" else "end_to_end"]}
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == declared
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "service-miss", "--seed", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
