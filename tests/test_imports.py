"""What importing the package loads, each case in a fresh interpreter.

`dhym_lab.geometry` loads scipy's pocketfft extension without running the
package inits of scipy and scipy.fft; the CLI must not pull them in another way,
and scipy.fft, imported before or after, must run the same module object.
`diagnostics` imports no module of the package but `geometry` and `phase`, so
`flow`, which records through it, depends on it one way.  The benchmark's frozen
tracer must install on the package and restore it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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
left_out = ["scipy", "scipy.fft", "scipy.fft._pocketfft", "scipy.special", "scipy._lib._array_api"]
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


def test_diagnostics_imports_only_geometry_and_phase():
    # every import, lazy ones in a function body too, by the module it names
    tree = ast.parse((SRC / "dhym_lab" / "diagnostics.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module if not node.level else ".".join(filter(None, ["dhym_lab", node.module]))
            if base == "dhym_lab":  # `from . import flow` names the module flow
                modules.update(f"{base}.{alias.name}" for alias in node.names)
            else:
                modules.add(base)
    package = {m.split(".")[1] for m in modules if m.startswith("dhym_lab.")}
    assert "dhym_lab" not in modules and package <= {"geometry", "phase"}, sorted(modules)


def test_perfbench_tracer_installs_and_restores():
    # perfbench/tracer.py, frozen between benchmark changes, wraps the package by name:
    # every public function, LineBundleFlow.theta and rhs from the class __dict__, and
    # flow.sfft; the suite does not collect perfbench's own tests, so this is their guard
    run_python(f"""
import sys
sys.path.insert(0, {str(PERFBENCH)!r})
import dhym_lab, dhym_lab.cli
from dhym_lab import flow
from tracer import Tracer
modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("dhym_lab")]
before = [dict(vars(m)) for m in modules] + [dict(vars(flow.LineBundleFlow))]
tracer = Tracer()
tracer.install(dhym_lab)
assert vars(flow.LineBundleFlow)["theta"] is not before[-1]["theta"]
assert flow.run_flow is not before[modules.index(flow)]["run_flow"]
assert type(flow.sfft).__name__ == "_SfftProxy"
tracer.restore()
after = [dict(vars(m)) for m in modules] + [dict(vars(flow.LineBundleFlow))]
assert all(a.get(k) is v for a, b in zip(after, before) for k, v in b.items())
assert flow.sfft is sys.modules["scipy.fft"]
""")
