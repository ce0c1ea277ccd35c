"""Smoke test of the benchmark harness, every workload at its tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each run reports every end-to-end metric (untraced) or every
per-layer metric (traced) that BENCHMARK.json declares, with its unit, and
that the benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *BENCH["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_reported_with_its_unit(workload, trace, section):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", BENCH["workloads"][0]["name"], "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
