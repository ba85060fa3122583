"""Smoke test of the benchmark: every workload once at reduced size.

    python3 -m pytest perfbench/test_smoke.py

takes about a minute.  Each workload runs untraced and traced with the
``--smoke`` sizes; the test checks the result line's keys, that every
declared metric is printed with its declared unit, and that the output
checks passed.  A copy of the benchmark without the package sources must
fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(run_py: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = _run(HERE / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / HERE.name / "run.py", SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
