"""What importing the package loads, each case in a fresh interpreter.

`dhym_lab.geometry` loads scipy's pocketfft extension without running
scipy.fft's package init; the CLI must not pull that init in another way,
and scipy.fft, imported before or after, must run the same module object.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
POCKETFFT = "scipy.fft._pocketfft.pypocketfft"


def run_python(code):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_scipy_fft_out():
    run_python(f"""
import sys
import dhym_lab.cli
from dhym_lab import geometry
left_out = ["scipy.fft", "scipy.fft._pocketfft", "scipy.special", "scipy._lib._array_api"]
assert not [m for m in left_out if m in sys.modules], [m for m in left_out if m in sys.modules]
assert sys.modules["{POCKETFFT}"] is geometry._pocketfft
""")


@pytest.mark.parametrize("first", ["dhym_lab", "scipy.fft"])
def test_scipy_fft_runs_the_same_module_in_either_order(first):
    # scipy.fft's own functions reach the extension through `from . import pypocketfft`
    imports = ["import dhym_lab", "import scipy.fft"]
    run_python("\n".join(imports if first == "dhym_lab" else imports[::-1]) + f"""
import sys
import numpy as np
from scipy.fft._pocketfft import basic, pypocketfft
from dhym_lab import geometry
assert geometry._pocketfft is pypocketfft is basic.pfft is sys.modules["{POCKETFFT}"]
geom = dhym_lab.build_torus(1, 32, [1.0])
u = np.random.default_rng(0).standard_normal(geom.shape)
uh = geom.rfft(u)
assert np.array_equal(uh, scipy.fft.rfftn(u))
assert np.array_equal(geom.irfft(uh), scipy.fft.irfftn(uh, s=geom.shape))
""")


def test_flow_sfft_imports_scipy_fft_when_read():
    run_python("""
import sys
from dhym_lab import flow
assert "scipy.fft" not in sys.modules
sfft = flow.sfft
assert "scipy.fft" in sys.modules and sfft is sys.modules["scipy.fft"] and flow.sfft is sfft
""")
