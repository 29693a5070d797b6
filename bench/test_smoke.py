"""Smoke test of the benchmark itself, at a tiny size (2 trials per mode).

    python3 -m pytest -q bench/test_smoke.py

Each workload runs once untraced and once traced; the test asserts that
every metric named in BENCHMARK.json is printed with its unit and that the
correctness gate passes. A copy holding only BENCHMARK.json and bench/
must be refused without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run_bench.py", "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--trials", "2"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_and_gate_passes(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in expected}
    for m in expected:
        assert f"  {m['name']} " in done.stdout, f"{m['name']} missing from the text report"
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        layers = result["metrics"]
        for name in ("harness.frames", "gating.us_per_frame", "cli.replay_s_per_log", "experts.log_read_s"):
            assert layers[name]["value"] > 0, name


def test_refused_without_padland_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    try:
        done = run_bench("campaign_default", 0, cwd=bare)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare)
