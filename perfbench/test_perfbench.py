"""Self-test of the benchmark harness, in quick mode.  No timing gates.

    python3 -m pytest perfbench/test_perfbench.py -q

Every workload must emit every end-to-end metric (--trace 0) and every
per-layer metric (--trace 1) of BENCHMARK.json, with its unit, and pass its
own output checks.
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
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spec.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == spec.PER_LAYER
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_quick_run_emits_every_metric_with_its_unit(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in table]
    for m in table:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float)) and math.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] != 0, m["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench(tmp_path, "--workload", "replay-sparse", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
