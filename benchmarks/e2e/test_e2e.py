"""Self-test of the benchmark: scaled-down runs of every workload.

Run with ``pytest benchmarks/e2e -q``.  Each workload runs twice: once
untraced, once traced with a wrong expected census injected.
"""

import collections
import json
import shutil
import subprocess
import sys

import pytest

from common import E2E_UNITS, LAYER_UNITS, ROOT, WORKLOADS

RUN = ROOT / "benchmarks" / "e2e" / "run.py"
#: Scaled-down settings: a few seconds of load, 5% of the serve preloads.
SMALL = ["--seconds", "4", "--scale", "0.05"]


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True,
        text=True, timeout=120,
    )


def last_json(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_declares_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1] == "benchmarks/e2e/run.py"
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = last_json(run("--workload", workload, "--seed", "7", *SMALL))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == E2E_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_fires_every_wrapper_and_reports_a_mismatch(
    workload, tmp_path
):
    out = tmp_path / "result.json"
    result = last_json(run(
        "--workload", workload, "--seed", "7", *SMALL, "--traced",
        "--inject-census-mismatch", "--out", str(out),
    ))
    assert not result["correct"] and result["failed"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == LAYER_UNITS
    assert result["metrics"]["trace.overhead"]["value"] > 0
    trace = json.loads(out.with_name(out.name + ".trace.json").read_text())
    for process in trace["processes"]:
        fired = collections.Counter(span[0] for span in process["spans"])
        assert [n for n in process["names"] if not fired[n]] == []


def test_fails_without_the_package_under_test(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "paper_sweep"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
