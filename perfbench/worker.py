"""One workload process of the benchmark; started by run.py, never by hand.

Modes:
  setup    import dhym_lab and write the workload's configuration files, then
           report how long that took (one set-up sample).
  measure  set up, then run operations back to back, untraced, until the
           next one would end after --seconds (at least one operation);
           each operation's wall time is corrected for the host's speed
           (pace.py).
  trace    set up, then run one operation with every public dhym_lab call
           traced, and derive the per-layer metrics from the spans.

The result is one JSON document written to --result.  dhym_lab is imported
from the ``src`` directory of the checkout that holds this file, never from
an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _untraced(name, fn, *args):
    return fn(*args)


def _hash_tree(top: Path) -> dict:
    """sha256 of every file under ``top``, keyed by relative path."""
    out = {}
    for path in sorted(p for p in top.rglob("*") if p.is_file()):
        out[str(path.relative_to(top))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    import numpy as np
    import scipy

    from dhym_lab import geometry

    workers = getattr(geometry, "_workers", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "DHYM_THREADS": os.environ.get("DHYM_THREADS"),
        "fft_workers": workers() if workers else None,
        "blas_threads": _blas_threads(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _setup(args):
    """Import the package from the checkout and write the input files."""
    sys.path.insert(0, str(SRC))
    import dhym_lab
    import dhym_lab.cli

    where = Path(dhym_lab.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"dhym_lab imported from {where}, not from {SRC}")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    cfg_dir = Path(args.workdir) / "config"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for name, doc in workload.configs(args.seed, args.smoke).items():
        (cfg_dir / name).write_text(json.dumps(doc, indent=2) + "\n")
    return dhym_lab, workload, cfg_dir


def _one_op(workload, main, cfg_dir, out, call):
    """Run one operation; returns (start, end, failures, info, output hashes)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    start = time.perf_counter()
    try:
        codes = workload.run(main, cfg_dir, out, call)
    except Exception:
        return start, time.perf_counter(), [traceback.format_exc()], {}, {}
    end = time.perf_counter()
    try:
        failures, info = workload.check(cfg_dir, out, codes)
    except Exception:
        failures, info = [traceback.format_exc()], {}
    return start, end, failures, info, _hash_tree(out)


def _sum(tracer, names, field):
    return sum(getattr(tracer.stats[n], field) for n in names if n in tracer.stats)


def _counter(tracer, names, key):
    return sum(tracer.stats[n].counters.get(key, 0.0) for n in names if n in tracer.stats)


def layer_metrics(tracer, out: Path) -> dict:
    """Per-layer metrics from the spans of one traced operation.

    ``*_calls`` count calls; a ``<function>_s`` metric is that function's self
    time (its spans minus their traced children); ``flow.step_ms``,
    ``harness.cell_s`` and ``cli.*_s`` include their children.
    """
    from tracer import FFT_SPANS

    def stat(name):
        return tracer.stats[name] if name in tracer.stats else None

    def calls(name):
        return stat(name).calls if stat(name) else 0

    def self_s(*names):
        return _sum(tracer, names, "self_time")

    def incl_s(*names):
        return _sum(tracer, names, "inclusive")

    rk4 = stat("flow.rk4_step")
    rejected = rk4.errors.get("FlowDiverged", 0) if rk4 else 0
    accepted = calls("flow.rk4_step") - sum(rk4.errors.values()) if rk4 else 0
    records = calls("diagnostics.build_record")
    cells = converged = 0
    report = out / "report.json"
    if report.exists():
        doc = json.loads(report.read_text())
        cells = len(doc.get("cells", ()))
        converged = sum(1 for c in doc.get("cells", ()) if c["status"] == "converged")
    return {
        "geometry.fft_calls": _sum(tracer, FFT_SPANS, "calls"),
        "geometry.fft_s": self_s(*FFT_SPANS),
        "geometry.fft_bytes_computed": _counter(tracer, FFT_SPANS, "bytes"),
        "geometry.complex_hessian_calls": calls("geometry.complex_hessian"),
        "geometry.complex_hessian_s": self_s("geometry.complex_hessian"),
        "phase.eigenvalue_field_calls": calls("phase.eigenvalue_field"),
        "phase.eigenvalue_field_s": self_s("phase.eigenvalue_field"),
        "phase.points": _counter(tracer, ["phase.eigenvalue_field"], "points"),
        "phase.phase_fields_s": self_s("phase.phase_fields"),
        "cohomology.winding_hat_theta_s": self_s("cohomology.winding_hat_theta"),
        "flow.steps_accepted": accepted,
        "flow.steps_rejected": rejected,
        "flow.rhs_evals": calls("flow.LineBundleFlow.theta"),
        "flow.rhs_evals_per_step": (
            tracer.nested[("flow.LineBundleFlow.theta", "flow.rk4_step")] / calls("flow.rk4_step")
            if calls("flow.rk4_step") else 0.0),
        "flow.rk4_step_s": self_s("flow.rk4_step"),
        "flow.rhs_s": self_s("flow.LineBundleFlow.theta", "flow.LineBundleFlow.rhs"),
        "flow.step_ms": (1e3 * incl_s("flow.rk4_step") / calls("flow.rk4_step")
                         if calls("flow.rk4_step") else 0.0),
        "diagnostics.build_record_calls": records,
        "diagnostics.build_record_s": self_s("diagnostics.build_record"),
        "diagnostics.tensor_norms_calls": calls("diagnostics.tensor_norms"),
        "diagnostics.tensor_norms_s": self_s("diagnostics.tensor_norms"),
        "diagnostics.tensor_norms_per_record": (
            tracer.nested[("diagnostics.tensor_norms", "diagnostics.build_record")] / records
            if records else 0.0),
        "diagnostics.identity_checks_s": self_s(
            "diagnostics.verify_evolution_identity", "diagnostics.dhym_point_identities",
            "diagnostics.verify_linearization"),
        "diagnostics.monitors_s": self_s(
            "diagnostics.maximum_principle_monitor", "diagnostics.oscillation_decay",
            "diagnostics.harnack_monitor"),
        "harness.cells": cells,
        "harness.cells_converged": converged,
        "harness.cell_s": incl_s("harness.stability_sweep") / cells if cells else 0.0,
        "config_io.snapshot_bytes_written": _counter(tracer, ["config_io.write_snapshot"], "bytes"),
        "config_io.snapshot_write_s": self_s("config_io.write_snapshot"),
        "config_io.snapshot_bytes_read": _counter(tracer, ["config_io.read_snapshot"], "bytes"),
        "config_io.snapshot_read_s": self_s("config_io.read_snapshot"),
        "config_io.csv_rows_written": _counter(tracer, ["config_io.write_diagnostics"], "rows"),
        "config_io.csv_write_s": self_s("config_io.write_diagnostics"),
        "cli.sweep_s": incl_s("cli.sweep"),
        "cli.simulate_s": incl_s("cli.simulate"),
        "cli.verify_s": incl_s("cli.verify"),
    }


def _measure(args, workload, main, cfg_dir, work):
    """Untraced operations back to back, timed under the host-speed correction."""
    from pace import Pace

    raw, walls, failed, failures, first, info = [], [], 0, [], None, {}
    begin = time.perf_counter()
    with Pace() as pace:
        while True:
            start, end, fails, info, hashes = _one_op(
                workload, main, cfg_dir, work / "op", _untraced)
            if first is None:
                first = hashes
            elif hashes != first:
                fails.append("outputs differ from the first operation of this run")
            seconds, corrected = pace.corrected(start, end)
            raw.append(seconds)
            walls.append(corrected)
            failed += bool(fails)
            failures.extend(fails)
            if time.perf_counter() - begin + (end - start) > args.seconds:
                break
    shutil.rmtree(work / "op", ignore_errors=True)
    return {"walls": walls, "raw_walls": raw, "failed": failed, "failures": failures[:10],
            "info": info, "hashes": first}


def _trace(dhym_lab, workload, cfg_dir, work):
    from tracer import Tracer

    tracer = Tracer()
    tracer.count_nested("flow.LineBundleFlow.theta", "flow.rk4_step")
    tracer.count_nested("diagnostics.tensor_norms", "diagnostics.build_record")
    tracer.install(dhym_lab)
    try:
        start, end, fails, info, hashes = _one_op(
            workload, dhym_lab.cli.main, cfg_dir, work / "op", tracer.call)
        wall = end - start
    finally:
        tracer.restore()
    metrics = layer_metrics(tracer, work / "op")
    shutil.rmtree(work / "op", ignore_errors=True)
    tracer.write_spans(work / "spans.jsonl")
    shares = [[name, calls, round(incl, 4), round(own, 4)]
              for name, calls, incl, own in tracer.share_table(wall)]
    return {"walls": [wall], "failed": int(bool(fails)), "failures": fails[:10],
            "info": info, "hashes": hashes, "metrics": metrics, "shares": shares}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    dhym_lab, workload, cfg_dir = _setup(args)
    setup_s = time.perf_counter() - T_START
    work = Path(args.workdir)
    result = {"setup_s": setup_s}
    if args.mode == "measure":
        result.update(_measure(args, workload, dhym_lab.cli.main, cfg_dir, work))
    elif args.mode == "trace":
        result.update(_trace(dhym_lab, workload, cfg_dir, work))
    if args.mode != "setup":
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["environment"] = _environment()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
