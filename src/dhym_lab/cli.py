"""Command-line entry point: dhym-lab {simulate|verify|sweep|reference|hat-theta|phase-table}.

Exit codes for `simulate`: 0 converged, 2 timeout, 3 blow-up.  `verify`
exits 0 when every check passes and 1 otherwise.  Worker count for FFTs is
capped by the DHYM_THREADS environment variable (default: all cores);
results do not depend on it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import diagnostics
from .cohomology import cohomology_invariants
from .config_io import (
    ConfigError,
    RunConfig,
    _entry,
    parse_config,
    parse_sweep_config,
    read_snapshot,
    write_config,
    write_diagnostics,
    write_snapshot,
)
from .flow import LineBundleFlow, Trajectory, run_flow, run_fixed, stable_dt
from .harness import SweepConfig, generate_reference, stability_sweep
from .phase import pointwise_phase

_STATUS_CODES = {"converged": 0, "timeout": 2, "blowup": 3}


def _ensure_dir(path: str) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _apply_seed_override(cfg: RunConfig, seed: int | None) -> RunConfig:
    if seed is None:
        return cfg
    if cfg.initial.get("type") != "noise":
        raise ConfigError("$.initial", "--seed-override requires noise initial data")
    cfg.initial = dict(cfg.initial, seed=int(seed))
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _apply_seed_override(parse_config(args.config), args.seed_override)
    out_dir = _ensure_dir(args.out_dir or cfg.outputs["dir"])
    snapshots = args.snapshots or cfg.outputs["snapshots"]
    keep = None if snapshots == "all-samples" else 4
    flow_cfg = cfg.flow_config(keep_fields=keep)
    write_config(cfg, out_dir / "effective-config.json")

    traj = run_flow(flow_cfg)
    write_diagnostics(traj.records, out_dir / "diagnostics.csv")
    geom = flow_cfg.geometry
    if snapshots == "final":
        write_snapshot(traj.final.u, "u_final", traj.final.t, geom, out_dir / "u_final.snap")
    elif snapshots == "all-samples":
        for k, s in enumerate(traj.samples):
            write_snapshot(s.u, "u", s.t, geom, out_dir / f"u_{k:06d}.snap")
    first, last = traj.records[0], traj.records[-1]
    report = {
        "status": traj.status,
        "t_final": traj.final.t,
        "steps": traj.steps,
        "steps_rejected": traj.steps_rejected,
        "residual_sup": traj.final.residual_sup,
        "hat_theta": flow_cfg.hat_theta,
        "dt_final": traj.dt_final,
        "dt_changes": [list(change) for change in traj.dt_changes],
        "Z_initial": [first.Z_re, first.Z_im],
        "Z_final": [last.Z_re, last.Z_im],
        "records": len(traj.records),
    }
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"status: {traj.status}  t={traj.final.t:g}  residual={traj.final.residual_sup:.3e}")
    return _STATUS_CODES.get(traj.status, 1)


def _verify_config_trajectory(cfg: RunConfig):
    geom = cfg.geometry()
    base = cfg.base(geom)
    hat_theta = cfg.hat_theta_value(geom, base)
    u0 = cfg.initial_field(geom)
    dt = min(1e-3, stable_dt(geom, cfg.time["dt_safety"]))
    traj = run_fixed(geom, base, hat_theta, u0, dt=dt, n_steps=8, sample_every=1, norms=False)
    if traj.steps_rejected:  # the identities need the fixed RK4 step
        t, h, _, reason = traj.dt_changes[0]
        raise RuntimeError(f"RK4 step of {h:g} rejected at t={t:g}: {reason}")
    return traj


def _load_run_trajectory(run_dir: Path, norms: bool = True):
    cfg = parse_config(run_dir / "effective-config.json")
    geom = cfg.geometry()
    base = cfg.base(geom)
    hat_theta = cfg.hat_theta_value(geom, base)
    snaps = sorted(run_dir.glob("u_[0-9]*.snap"))
    if len(snaps) < 3:
        raise ValueError("insufficient trajectory sampling: need all-samples snapshots")
    flow = LineBundleFlow(geom, base, hat_theta)
    traj = Trajectory(geometry=geom, base=base, hat_theta=hat_theta, norms=norms)
    for snap in snaps:
        u, header = read_snapshot(snap)  # a fresh float64 array: astype keeps it
        traj.record(flow.state(u.real.astype(np.float64, copy=False), header["t"]))
    return traj


def _cmd_verify(args) -> int:
    # the checks read no tensor column, so both paths record phase-only
    if args.run_dir:
        traj = _load_run_trajectory(Path(args.run_dir), norms=False)
    else:
        traj = _verify_config_trajectory(parse_config(args.config))
    mid_t = traj.samples[len(traj.samples) // 2].t
    lines = []
    all_pass = True

    tolerances = {"u_sq": 1e-4, "grad_sq": 1e-4, "Theta": 1e-4, "ThetaP": 1e-3}
    for rep in diagnostics.verify_evolution_identities(traj, mid_t, tuple(tolerances)):
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
    run = spec.run
    geom = run.geometry()
    base = run.base(geom)
    sweep = SweepConfig(geometry=geom, base=base, delta_list=spec.delta_list,
                        seeds=spec.seeds, k_band=spec.k_band, hat_theta=run.hat_theta,
                        seed_base=spec.seed_base, **run.time)
    report = stability_sweep(sweep)
    out_dir = _ensure_dir(args.out_dir or run.outputs["dir"])
    out = args.out or (out_dir / "report.json")
    with open(out, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
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
    out_dir = _ensure_dir(args.out_dir or cfg.outputs["dir"])
    flow_cfg = cfg.flow_config(keep_fields=4)
    try:
        ref = generate_reference(flow_cfg)
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    write_snapshot(ref.u_hat, "u_hat", ref.trajectory.t_final,
                   flow_cfg.geometry, out_dir / "u_hat.snap")
    report = {
        "hat_theta": ref.hat_theta,
        "residual_sup": ref.residual_sup,
        "identities": [rep.to_dict() for rep in ref.identities],
    }
    with open(out_dir / "reference-report.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"reference: residual={ref.residual_sup:.3e}")
    return 0


def _cmd_hat_theta(args) -> int:
    cfg = parse_config(args.config)
    geom = cfg.geometry()
    base = cfg.base(geom)
    inv = cohomology_invariants(geom, base.field())
    doc = {
        "Z_re": inv.Z.real,
        "Z_im": inv.Z.imag,
        "abs_Z": abs(inv.Z),
        "hat_theta": inv.hat_theta,
        "hat_theta_mod_2pi": float(np.mod(inv.hat_theta, 2 * np.pi)),
    }
    print(json.dumps(doc, indent=2))
    return 0


def _matrix_of(rows, where: str) -> np.ndarray:
    """A square matrix from a JSON list of rows of numbers or [re, im] pairs."""
    if not isinstance(rows, list) or not rows:
        raise ConfigError(where, "expected a square matrix as a nonempty list of rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(rows):
            raise ConfigError(f"{where}[{i}]", f"expected a row of {len(rows)} entries")
    return np.array([[complex(*_entry(e, f"{where}[{i}][{j}]")) for j, e in enumerate(row)]
                     for i, row in enumerate(rows)])


def _cmd_phase_table(args) -> int:
    with open(args.input) as fh:
        matrices = []
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            M = _matrix_of(json.loads(line), f"{args.input}:{lineno}")
            if matrices and M.shape != matrices[0].shape:
                raise ValueError(f"line {lineno}: matrix size differs from the first line")
            matrices.append(M)
    if not matrices:
        raise ValueError("nothing to write: no matrices in input")
    n = matrices[0].shape[0]
    if args.metric:
        with open(args.metric) as fh:
            g = _matrix_of(json.load(fh), args.metric)
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
    p.add_argument("--snapshots", choices=("none", "final", "all-samples"), default=None,
                   help="field snapshot policy (default: config outputs.snapshots)")
    p.add_argument("--seed-override", type=int, default=None,
                   help="replace the noise seed of the initial data")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the identity/invariant suite")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--config", help="run configuration JSON (fresh short run)")
    g.add_argument("--run-dir", help="existing run directory with all-samples snapshots")
    p.add_argument("--out", default=None, help="JSONL report path (default: verify-report.jsonl)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="perturbation stability sweep")
    p.add_argument("--config", required=True, help="sweep configuration JSON")
    p.add_argument("--out", default=None, help="report JSON path (default: out-dir/report.json)")
    p.add_argument("--out-dir", default=None, help="directory for per-cell CSVs")
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
        return args.func(args)
    except (ConfigError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
