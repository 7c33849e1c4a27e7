"""Smoke tests of the benchmark: the whole command path at tiny shapes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def smoke(workload: str, trace: int, seed: int = 3) -> tuple[dict, str]:
    out = run(
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


def assert_metrics(result: dict, listing: str, expected: list[dict], prefix: str = "") -> None:
    reported = {name for name in result["metrics"] if name.startswith(prefix)}
    assert reported == {prefix + m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][prefix + m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
        assert any(
            line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
            for line in listing.splitlines()
        ), f"{m['name']} is not listed with its unit"


def test_spec_follows_its_own_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))


def test_all_workloads_report_every_end_to_end_metric():
    out = run("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for workload in WORKLOADS:
        assert_metrics(result, out.stdout, SPEC["end_to_end"], prefix=f"{workload}.")
    assert all(m["value"] != 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result, listing = smoke(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert_metrics(result, listing, SPEC["per_layer"])


def test_same_seed_repeats_training_bit_for_bit():
    first, first_listing = smoke("train_small", trace=0, seed=5)
    second, second_listing = smoke("train_small", trace=0, seed=5)
    for name in ("val_mae", "test_mae"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]
    digests = [
        json.loads(listing.strip().splitlines()[-2])["report"]["loss_trace_sha256"]
        for listing in (first_listing, second_listing)
    ]
    assert digests[0] == digests[1]


def test_serving_workload_only_serves_in_the_measured_process():
    result, listing = smoke("forecast_online", trace=0)
    assert result["correct"] and result["failed"] == 0
    report = json.loads(listing.strip().splitlines()[-2])["report"]
    assert report["trained_in"] == "child process"
    train_report = json.loads(smoke("train_small", trace=0)[1].strip().splitlines()[-2])["report"]
    assert train_report["trained_in"] == "this process"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
