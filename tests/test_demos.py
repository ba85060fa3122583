"""The demos run unchanged: demos 01-04 each exit 0 from a scratch directory.

Demo 05 (the full stability sweep, about half a minute) is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-4]_*.py"))


def test_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
