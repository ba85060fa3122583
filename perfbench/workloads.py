"""The benchmark's workloads: input generation, one operation, output checks.

Each workload is one closed-loop caller: a single process runs one
operation after another through ``dhym_lab.cli.main``, each on a fresh
output directory.  The only input derived from ``--seed`` is the noise seed
of the generated configuration (``initial.seed``, or ``sweep.seed_base``);
the program receives nothing but the configuration files.

``smoke`` sizes only serve the smoke test: they run the same commands and
checks on inputs small enough to finish in a few seconds.

The share tables beside each workload come from the traced run
(``--trace 1 --seed 1``, DHYM_THREADS=1) on a 2-core x86-64 virtual
machine with Python 3.11, numpy 2.4 and scipy 1.17: "incl" is a span's
share of the traced wall time including its children, "self" without them.
"""

from __future__ import annotations

import json
from pathlib import Path

# Tolerances of acceptance criterion 7 (tests/test_acceptance.py).
SWEEP_RATE = 0.125  # linearized rate 1 / (4 (1 + c^2)) at c = 1
SWEEP_RATE_TOL = 0.0125
SWEEP_R2_MIN = 0.99
SWEEP_HESS_RATIO_MAX = 2.0
RESIDUAL_TOL = 1e-10
Z_DRIFT_MAX = 1e-9


def _read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0]
    names = header.split(",")
    rows = [dict(zip(names, map(float, line.split(",")))) for line in lines[1:]]
    return header, rows


def _z_drift(rows) -> float:
    z0 = complex(rows[0]["Z_re"], rows[0]["Z_im"])
    return max(abs(complex(r["Z_re"], r["Z_im"]) - z0) for r in rows) / abs(z0)


def _jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _check_verify_lines(lines, failures, label):
    if not lines:
        failures.append(f"{label}: empty verify report")
    for line in lines:
        if line.get("pass") is not True:
            failures.append(f"{label}: {line.get('identity')} failed: {json.dumps(line)}")


def _residuals(lines) -> dict:
    return {line["identity"]: line["residual_rel"] for line in lines if "residual_rel" in line}


class SweepN1:
    """Time to solution of the paper's stability experiment.

    Acceptance criterion 7 at N = 32 instead of 64: the same physics with a
    quarter of the steps (N = 64 takes about 50 s per cell).  Two cells of
    about 16k RK4 steps each; almost all of the time is the n = 1 fast-path
    right-hand side and its FFTs, diagnostics take a few per cent and the
    n >= 2 phase path is never entered.  A change of stepper or of the FFT
    path shows here first; a change of the n >= 2 phase should not move it.

    Traced shares (31,835 steps, 256k FFT calls):
        flow.rk4_step                 incl 0.97  self 0.15
        flow.LineBundleFlow.theta     incl 0.78  self 0.18
        geometry.sfft.rfft2 + irfft2  incl 0.60  self 0.60
        diagnostics.build_record      incl 0.02  self 0.00
    """

    name = "sweep_n1"

    def configs(self, seed: int, smoke: bool) -> dict:
        return {"sweep.json": {
            "dimension": 1,
            "resolution": 16 if smoke else 32,
            "metric": [[1.0]],
            "base_curvature": {"constant": [[1.0]]},
            "time": {"t_max": 200.0, "dt_safety": 1.0, "residual_tol": RESIDUAL_TOL,
                     "sample_every": 64 if smoke else 256},
            "outputs": {"dir": "sweep"},
            "sweep": {"delta_list": [0.1] if smoke else [0.05, 0.1], "seeds": 1,
                      "k_band": 2, "seed_base": seed},
        }}

    def run(self, main, cfg_dir: Path, out: Path, call) -> dict:
        return {"sweep": call("cli.sweep", main, [
            "sweep", "--config", str(cfg_dir / "sweep.json"), "--out-dir", str(out)])}

    def check(self, cfg_dir: Path, out: Path, codes: dict) -> tuple:
        failures = []
        if codes["sweep"] != 0:
            failures.append(f"sweep exited {codes['sweep']}, expected 0")
            return failures, {}
        spec = json.loads((cfg_dir / "sweep.json").read_text())["sweep"]
        cells = json.loads((out / "report.json").read_text())["cells"]
        if len(cells) != len(spec["delta_list"]) * spec["seeds"]:
            failures.append(f"{len(cells)} cells in the report")
        for cell in cells:
            label = f"cell delta={cell['delta']:g} seed={cell['seed']}"
            if cell["status"] != "converged":
                failures.append(f"{label}: status {cell['status']}")
                continue
            if not cell["hess_ratio_max"] <= SWEEP_HESS_RATIO_MAX:
                failures.append(f"{label}: hess_ratio_max {cell['hess_ratio_max']}")
            if not abs(cell["rate"] - SWEEP_RATE) <= SWEEP_RATE_TOL:
                failures.append(f"{label}: rate {cell['rate']}")
            if not cell["r_squared"] >= SWEEP_R2_MIN:
                failures.append(f"{label}: r_squared {cell['r_squared']}")
            _, rows = _read_csv(out / f"cell_d{cell['delta']:g}_s{cell['seed']}.csv")
            if not rows[-1]["residual_sup"] <= RESIDUAL_TOL:
                failures.append(f"{label}: final residual {rows[-1]['residual_sup']}")
            drift = _z_drift(rows)
            if not drift <= Z_DRIFT_MAX:
                failures.append(f"{label}: Z drift {drift}")
        info = {"rates": [c["rate"] for c in cells],
                "time_to_tol": [c["time_to_tol"] for c in cells]}
        return failures, info


class VerifyN2:
    """The only workload on the n >= 2 path.

    ``verify --config`` integrates 8 fixed RK4 steps (``run_fixed``, RK4 kept
    as the oracle, so a change of the adaptive stepper should not move it),
    builds 9 diagnostics records and checks the four evolution identities.
    The batched LAPACK eigenvalues with their Cholesky matmuls and the
    identity contractions take most of the time.

    Known defect, kept visible on purpose: the Theta identity residual at
    n = 2 does not shrink under dt refinement (see NOTES.md).  Neither this
    configuration nor the CLI tolerance may be changed to hide it; the
    per-identity ``residual_rel`` is printed with every result.

    Traced shares (47 eigenvalue fields of 65,536 points):
        phase.eigenvalue_field        incl 0.36  self 0.36
        diagnostics.build_record      incl 0.36  self 0.00
        diagnostics.verify_evolution_identity  incl 0.34  self 0.15
        diagnostics.tensor_norms      incl 0.33  self 0.25
        flow.rk4_step                 incl 0.28  self 0.00
    """

    name = "verify_n2"

    def configs(self, seed: int, smoke: bool) -> dict:
        return {"verify.json": {
            "dimension": 2,
            "resolution": 8 if smoke else 16,
            "metric": [[1.0, 0.0], [0.0, 1.0]],
            "base_curvature": {
                "constant": [[1.0, 0.0], [0.0, 0.5]],
                "potential": {"modes": [
                    {"m": [1, 0, 0, 0], "amplitude": 0.2},
                    {"m": [0, 1, 1, 0], "amplitude": 0.1, "phase": 0.3},
                ]},
            },
            "initial": {"type": "noise", "k_band": 2, "seed": seed,
                        "target_hess_sup": 0.01 if smoke else 0.05},
        }}

    def run(self, main, cfg_dir: Path, out: Path, call) -> dict:
        return {"verify": call("cli.verify", main, [
            "verify", "--config", str(cfg_dir / "verify.json"),
            "--out", str(out / "verify.jsonl")])}

    def check(self, cfg_dir: Path, out: Path, codes: dict) -> tuple:
        failures = []
        if codes["verify"] != 0:
            failures.append(f"verify exited {codes['verify']}, expected 0")
        lines = _jsonl(out / "verify.jsonl")
        _check_verify_lines(lines, failures, "verify")
        return failures, {"residual_rel": _residuals(lines)}


class RundirN1:
    """The run directory: written by one command, read back by another.

    The README configuration under record-bound load: ``simulate
    --snapshots all-samples`` for 2,048 steps with a record every 4 steps
    (513 records and snapshots, 17 MB), then ``verify --run-dir`` reads the
    directory back and rebuilds every record.  ``build_record`` dominates,
    the flow takes about a fifth, so a change that trades per-step cost
    against per-sample cost shows either here or on sweep_n1.  ``simulate``
    stops at ``t_max`` by design and exits 2.

    Traced shares (1,026 records, 513 snapshots written and read):
        diagnostics.build_record      incl 0.69  self 0.03
        diagnostics.tensor_norms      incl 0.36  self 0.09
        flow.rk4_step                 incl 0.23  self 0.04
        config_io.write/read_snapshot incl 0.03  self 0.03
    """

    name = "rundir_n1"

    def configs(self, seed: int, smoke: bool) -> dict:
        return {"run.json": {
            "dimension": 1,
            "resolution": 64,
            "metric": [[1.0]],
            "base_curvature": {
                "constant": [[1.0]],
                "potential": {"modes": [{"m": [1, 0], "amplitude": 0.2, "phase": 0.0}]},
            },
            "initial": {"type": "noise", "k_band": 2, "seed": seed, "target_hess_sup": 0.05},
            "time": {"t_max": 0.125 if smoke else 2.0, "dt_safety": 0.5,
                     "residual_tol": RESIDUAL_TOL, "sample_every": 4},
            "outputs": {"dir": "run", "snapshots": "all-samples"},
        }}

    def run(self, main, cfg_dir: Path, out: Path, call) -> dict:
        run_dir = out / "run"
        codes = {"simulate": call("cli.simulate", main, [
            "simulate", "--config", str(cfg_dir / "run.json"),
            "--out-dir", str(run_dir), "--snapshots", "all-samples"])}
        codes["verify"] = call("cli.verify", main, [
            "verify", "--run-dir", str(run_dir), "--out", str(out / "verify.jsonl")])
        return codes

    def check(self, cfg_dir: Path, out: Path, codes: dict) -> tuple:
        from dhym_lab.diagnostics import CSV_COLUMNS

        failures = []
        if codes["simulate"] != 2:
            failures.append(f"simulate exited {codes['simulate']}, expected 2 (timeout)")
        if codes["verify"] != 0:
            failures.append(f"verify exited {codes['verify']}, expected 0")
        run_dir = out / "run"
        header, rows = _read_csv(run_dir / "diagnostics.csv")
        if header != CSV_COLUMNS:
            failures.append(f"CSV header {header!r}")
        snaps = len(list(run_dir.glob("u_[0-9]*.snap")))
        if snaps != len(rows):
            failures.append(f"{snaps} snapshots for {len(rows)} CSV rows")
        lines = _jsonl(out / "verify.jsonl")
        _check_verify_lines(lines, failures, "verify --run-dir")
        return failures, {"residual_rel": _residuals(lines), "records": len(rows)}


WORKLOADS = {w.name: w for w in (SweepN1(), VerifyN2(), RundirN1())}
