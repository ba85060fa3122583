"""The demos run unchanged: each of demos 01-05 exits 0 from a scratch directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-5]_*.py"))


def test_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
