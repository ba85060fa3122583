"""Command-line entry point: dhym-lab {simulate|verify|sweep|reference|hat-theta|phase-table}.

Exit codes for `simulate`: 0 converged, 2 timeout, 3 blow-up.  `verify`
exits 0 when every check passes and 1 otherwise.  Worker count for FFTs is
capped by the DHYM_THREADS environment variable (default: all cores);
results do not depend on it, and a bad value fails before any command runs.
`simulate --snapshots all-samples` writes each snapshot on one background
thread during the run, with at most four samples in flight; both `verify`
paths hold only the three samples their identities read.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from . import diagnostics
from .config_io import (
    _SNAPSHOT_MODES,
    ConfigError,
    RunConfig,
    _as_complex,
    _json_value,
    _matrix,
    _metric,
    parse_config,
    parse_sweep_config,
    read_snapshot,
    write_config,
    write_diagnostics,
    write_json,
    write_snapshot,
)
from .flow import LineBundleFlow, Trajectory, run_flow, run_fixed, stable_dt
from .geometry import _workers
from .harness import generate_reference, stability_sweep
from .phase import pointwise_phase

_STATUS_CODES = {"converged": 0, "timeout": 2, "blowup": 3}
_PENDING_WRITES = 4  # snapshot writes in flight at most; each holds its sample's field


def _ensure_dir(path: str) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


@contextmanager
def _snapshot_writer(geom, out_dir: Path):
    """A `run_flow` on_record that writes each sample's snapshot u_<k>.snap on one
    background thread while the run goes on.  At most _PENDING_WRITES writes are
    in flight, and a failed write raises at the first record after it ends; on
    leaving, every write has ended and the thread is gone."""
    writer = ThreadPoolExecutor(max_workers=1, thread_name_prefix="snapshot-writer")
    pending = deque()

    def write(k, sample):
        while pending and (pending[0].done() or len(pending) >= _PENDING_WRITES):
            pending.popleft().result()
        pending.append(writer.submit(write_snapshot, sample.u, "u", sample.t, geom,
                                     out_dir / f"u_{k:06d}.snap"))

    try:
        yield write
        while pending:
            pending.popleft().result()
    finally:
        writer.shutdown(cancel_futures=True)


def _cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    flow_cfg = cfg.flow_config()  # a refused flow leaves no output directory
    out_dir = _ensure_dir(args.out_dir or cfg.outputs["dir"])
    snapshots = args.snapshots or cfg.outputs["snapshots"]
    write_config(cfg, out_dir / "effective-config.json")

    geom = flow_cfg.flow.geometry
    streamed = snapshots == "all-samples"
    with _snapshot_writer(geom, out_dir) if streamed else nullcontext() as on_record:
        traj = run_flow(flow_cfg, on_record=on_record)
        write_diagnostics(traj.records, out_dir / "diagnostics.csv")
    if snapshots == "final":
        write_snapshot(traj.final.u, "u_final", traj.final.t, geom, out_dir / "u_final.snap")
    first, last = traj.records[0], traj.records[-1]
    write_json({
        "status": traj.status,
        "t_final": traj.final.t,
        "steps": traj.steps,
        "steps_rejected": traj.steps_rejected,
        "residual_sup": traj.final.residual_sup,
        "hat_theta": flow_cfg.flow.hat_theta,
        "dt_final": traj.dt_final,
        "dt_changes": [list(change) for change in traj.dt_changes],
        "Z_initial": [first.Z_re, first.Z_im],
        "Z_final": [last.Z_re, last.Z_im],
        "records": len(traj.records),
    }, out_dir / "report.json")
    print(f"status: {traj.status}  t={traj.final.t:g}  residual={traj.final.residual_sup:.3e}")
    return _STATUS_CODES.get(traj.status, 1)


def _bracket_keeper(m: int):
    """(bracket, on_record): an on_record that keeps in bracket only the samples k of
    |k - m| <= 1, the three `_cmd_verify` checks."""
    bracket = []

    def keep(k, sample):  # it holds the samples, not the trajectory: no reference cycle
        if abs(k - m) <= 1:
            bracket.append(sample)

    return bracket, keep


def _verify_config_trajectory(cfg: RunConfig):
    flow = cfg.flow()
    geom = flow.geometry
    u0 = cfg.initial_field(geom)
    dt = min(1e-3, stable_dt(geom, cfg.time["dt_safety"]))
    bracket, keep = _bracket_keeper(4)  # the middle of samples 0..8
    traj = run_fixed(flow, u0, dt=dt, n_steps=8, sample_every=1, norms=False, on_record=keep)
    if traj.steps_rejected:  # the identities need the fixed RK4 step
        t, h, _, reason = traj.dt_changes[0]
        raise RuntimeError(f"RK4 step of {h:g} rejected at t={t:g}: {reason}")
    return traj, bracket


def _load_run_trajectory(run_dir: Path, norms: bool = True):
    cfg = parse_config(run_dir / "effective-config.json")
    snaps = sorted(run_dir.glob("u_[0-9]*.snap"))
    if len(snaps) < 3:
        raise ValueError("insufficient trajectory sampling: need all-samples snapshots")
    flow = cfg.flow()
    bracket, keep = _bracket_keeper(len(snaps) // 2)
    traj = Trajectory(flow, norms=norms, on_record=keep)
    for snap in snaps:
        u, header = read_snapshot(snap)  # a fresh float64 array: astype keeps it
        if u.shape != flow.geometry.shape:
            raise ValueError(f"snapshot {snap}: shape {u.shape} is not the run's grid "
                             f"{flow.geometry.shape}")
        traj.record(flow.state(u.real.astype(np.float64, copy=False), header["t"]))
    return traj, bracket


def _cmd_verify(args) -> int:
    # the checks read no tensor column, so both paths record phase-only
    if args.run_dir:
        traj, bracket = _load_run_trajectory(Path(args.run_dir), norms=False)
    else:
        traj, bracket = _verify_config_trajectory(parse_config(args.config))
    lines = []
    all_pass = True

    tolerances = {"u_sq": 1e-4, "grad_sq": 1e-4, "Theta": 1e-4, "ThetaP": 1e-3}
    for rep in diagnostics.verify_evolution_identities(traj.flow, bracket):
        tol = tolerances[rep.identity]
        ok = rep.residual_rel <= tol
        all_pass &= ok
        lines.append({**rep.to_dict(), "tolerance": tol, "pass": ok})

    mp = diagnostics.maximum_principle_monitor(traj)
    all_pass &= mp.passed
    lines.append({
        "identity": "maximum_principle",
        "worst_violation": mp.worst_violation,
        "pass": mp.passed,
    })

    Z0 = complex(traj.records[0].Z_re, traj.records[0].Z_im)
    drift = max(
        abs(complex(r.Z_re, r.Z_im) - Z0) for r in traj.records
    ) / abs(Z0)
    ok = drift <= 1e-9
    all_pass &= ok
    lines.append({"identity": "Z_invariance", "relative_drift": drift, "pass": ok})

    out = args.out or "verify-report.jsonl"
    with open(out, "w") as fh:
        for line in lines:
            fh.write(json.dumps(line) + "\n")
    for line in lines:
        print(json.dumps(line))
    return 0 if all_pass else 1


def _cmd_sweep(args) -> int:
    spec = parse_sweep_config(args.config)
    report = stability_sweep(spec.sweep_config())
    out_dir = _ensure_dir(args.out_dir or spec.run.outputs["dir"])
    write_json(report.to_dict(), out_dir / "report.json")
    for cell in report.cells:
        if cell.records:
            name = f"cell_d{cell.delta:g}_s{cell.seed}.csv"
            write_diagnostics(cell.records, out_dir / name)
    n_err = sum(1 for c in report.cells if c.status == "error")
    print(f"sweep: {len(report.cells)} cells, "
          f"largest delta all-converged = {report.largest_delta_all_converged:g}, "
          f"{n_err} errors, {len(report.warnings)} warnings")
    return 0 if n_err == 0 else 1


def _cmd_reference(args) -> int:
    cfg = parse_config(args.config)
    flow_cfg = cfg.flow_config()  # a refused flow leaves no output directory
    out_dir = _ensure_dir(args.out_dir or cfg.outputs["dir"])
    try:
        ref = generate_reference(flow_cfg)
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    write_snapshot(ref.u_hat, "u_hat", ref.trajectory.t_final,
                   flow_cfg.flow.geometry, out_dir / "u_hat.snap")
    write_json({
        "hat_theta": flow_cfg.flow.hat_theta,
        "residual_sup": ref.residual_sup,
        "identities": [rep.to_dict() for rep in ref.identities],
    }, out_dir / "reference-report.json")
    print(f"reference: residual={ref.residual_sup:.3e}")
    return 0


def _cmd_hat_theta(args) -> int:
    cfg = parse_config(args.config)
    # the lift of the base's class whatever hat_theta the config gives: the flow built
    # without one winds its class once
    inv = LineBundleFlow(cfg.base(cfg.geometry())).class_invariants
    doc = {
        "Z_re": inv.Z.real,
        "Z_im": inv.Z.imag,
        "abs_Z": abs(inv.Z),
        "hat_theta": inv.hat_theta,
        "hat_theta_mod_2pi": float(np.mod(inv.hat_theta, 2 * np.pi)),
    }
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_phase_table(args) -> int:
    with open(args.input) as fh:
        matrices = []
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{args.input}:{lineno}"
            M = _as_complex(_matrix(_json_value(line, where), where, "curvature input"))
            if matrices and M.shape != matrices[0].shape:
                raise ConfigError(where, "matrix size differs from the first line")
            matrices.append(M)
    if not matrices:
        raise ValueError("nothing to write: no matrices in input")
    n = matrices[0].shape[0]
    if args.metric:
        with open(args.metric) as fh:
            g = _as_complex(_metric(_json_value(fh.read(), args.metric), args.metric))
        if g.shape != (n, n):
            raise ConfigError(args.metric, f"the metric is {len(g)}x{len(g)} but the input "
                                           f"matrices are {n}x{n}")
    else:
        g = np.eye(n)
    header = ",".join(
        [f"lambda_{j + 1}" for j in range(n)] + ["theta", "zeta_re", "zeta_im", "det_eta"]
    )
    lines = [header]
    for M in matrices:
        data = pointwise_phase(M, g)
        det_eta = float(np.linalg.det(data.eta).real)
        vals = [float(v) for v in np.atleast_1d(data.lam).ravel()]
        vals += [float(data.theta), float(data.zeta.real), float(data.zeta.imag), det_eta]
        lines.append(",".join(repr(v) for v in vals))
    with open(args.output, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(matrices)} rows to {args.output}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dhym-lab",
        description="Simulator and verification laboratory for the line bundle "
                    "mean curvature flow on flat Kahler tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one flow and write diagnostics")
    p.add_argument("--config", required=True, help="run configuration JSON")
    p.add_argument("--out-dir", default=None, help="output directory (default: config outputs.dir)")
    p.add_argument("--snapshots", choices=_SNAPSHOT_MODES, default=None,
                   help="field snapshot policy (default: config outputs.snapshots)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the identity/invariant suite")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--config", help="run configuration JSON (fresh short run)")
    g.add_argument("--run-dir", help="existing run directory with all-samples snapshots")
    p.add_argument("--out", default=None, help="JSONL report path (default: verify-report.jsonl)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="perturbation stability sweep")
    p.add_argument("--config", required=True, help="sweep configuration JSON")
    p.add_argument("--out-dir", default=None,
                   help="directory for report.json and the per-cell CSVs "
                        "(default: config outputs.dir)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("reference", help="generate a converged reference metric")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_reference)

    p = sub.add_parser("hat-theta", help="print Z and the lifted angle as JSON")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_hat_theta)

    p = sub.add_parser("phase-table", help="tabulate pointwise phase data for matrices")
    p.add_argument("--input", required=True, help="file with one JSON matrix per line")
    p.add_argument("--output", required=True, help="CSV output path")
    p.add_argument("--metric", default=None, help="JSON file with the metric matrix (default: identity)")
    p.set_defaults(func=_cmd_phase_table)

    args = parser.parse_args(argv)
    try:
        _workers()  # a bad DHYM_THREADS fails here, before a command writes anything
        return args.func(args)
    except (ConfigError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
