"""Smoke test of the benchmark at tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that traced self times are non-negative and children never outlast their
parent, and that the benchmark refuses to run without the source tree.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3
CLOCK_SLACK = 1e-9  # perf_counter differences can round by a few ulps


def run_bench(cwd, workload, trace, *extra):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def assert_metrics(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = result_of(run_bench(ROOT, workload, 0, "--tiny"))
    assert_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_layers_and_consistent_spans(workload):
    result = result_of(run_bench(ROOT, workload, 1, "--tiny"))
    assert_metrics(result["metrics"], SPEC["per_layer"])
    for name, metric in result["metrics"].items():
        if metric["unit"] in ("s", "count", "B"):
            assert metric["value"] >= 0, name

    trace_file = os.path.join(HERE, "traces", f"{workload}-seed{SEED}.jsonl")
    with open(trace_file, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = json.loads(lines[0])
    assert header["environment"]["workload"] == workload
    spans = [dict(zip(header["fields"], json.loads(line))) for line in lines[1:]]
    assert spans
    children = {}
    for span in spans:
        assert span["end"] >= span["start"]
        assert span["self"] >= -CLOCK_SLACK, span
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    for parent_id, kids in children.items():
        parent = spans[parent_id]
        assert all(parent["start"] <= k["start"] and k["end"] <= parent["end"] for k in kids)
        assert sum(k["end"] - k["start"] for k in kids) <= parent["end"] - parent["start"] + CLOCK_SLACK
    roots = [s for s in spans if s["parent"] is None]
    assert sum(s["self"] for s in spans if s["parent"] is not None) <= sum(
        r["end"] - r["start"] for r in roots
    ) + CLOCK_SLACK


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work", "traces"))
    proc = run_bench(str(tmp_path), WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
