"""Desk-scale stability experiments around reference stationary metrics.

A reference is a converged flow endpoint (tight residual) together with its
stationary-point identity reports.  A stability sweep then perturbs the
reference with band-limited noise normalized to prescribed Hessian sizes
and records, per (delta, seed) cell: convergence status, time to tolerance,
the worst ratio sup_t ||D^2 u_t|| / delta, and the fitted exponential decay
rate of the velocity oscillation.  Individual cell failures are recorded in
the report and never abort the sweep; identical configurations reproduce
reports bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cohomology import winding_hat_theta
from .diagnostics import dhym_point_identities, oscillation_decay, tensor_norms
from .flow import BaseCurvature, FlowConfig, LineBundleFlow, Trajectory, _check_time, run_flow
from .geometry import TorusGeometry, bandlimited_noise

__all__ = [
    "Reference",
    "SweepConfig",
    "SweepCell",
    "SweepReport",
    "generate_reference",
    "stability_sweep",
]


@dataclass(frozen=True, eq=False)
class Reference:
    u_hat: np.ndarray
    hat_theta: float
    residual_sup: float
    identities: tuple  # pair of IdentityReports
    trajectory: Trajectory


def generate_reference(config: FlowConfig, residual_tol: float = 1e-11) -> Reference:
    """Drive the flow to a tightly converged stationary metric.

    Raises RuntimeError("no reference obtained") when the run times out or
    blows up instead of converging.
    """
    cfg = replace(config, residual_tol=min(config.residual_tol, residual_tol), keep_fields=4)
    traj = run_flow(cfg)
    if traj.status != "converged":
        raise RuntimeError(f"no reference obtained: flow status {traj.status!r}")
    u_hat = traj.final.u
    reports = dhym_point_identities(
        config.geometry, config.base, u_hat,
        hat_theta=config.hat_theta, residual_tol=10.0 * cfg.residual_tol,
    )
    return Reference(
        u_hat=u_hat,
        hat_theta=config.hat_theta,
        residual_sup=traj.final.residual_sup,
        identities=reports,
        trajectory=traj,
    )


@dataclass
class SweepConfig:
    """Perturbation sweep: noise seeds are shared across deltas so each
    seed's initial shape is identical up to the normalizing factor."""

    geometry: TorusGeometry
    base: BaseCurvature
    delta_list: list
    seeds: int
    k_band: int = 2
    hat_theta: float | None = None
    dt_safety: float = 0.5
    t_max: float = 200.0
    residual_tol: float = 1e-10
    sample_every: int = 100
    seed_base: int = 0

    def __post_init__(self):
        _check_time(self)  # here, not in each cell after its noise is drawn
        deltas = list(self.delta_list)
        if any(d < 0 for d in deltas):
            raise ValueError("deltas must be nonnegative")
        if sorted(deltas) != deltas:
            raise ValueError("deltas must be ascending")
        if self.seeds < 1:
            raise ValueError("need at least one seed per delta")
        self.delta_list = deltas


@dataclass(frozen=True)
class SweepCell:
    delta: float
    seed: int
    status: str
    time_to_tol: float
    hess_ratio_t0: float
    hess_ratio_max: float
    rate: float
    r_squared: float
    error: str | None
    records: list = field(repr=False, default_factory=list)

    def summary(self) -> dict:
        return {
            "delta": self.delta,
            "seed": self.seed,
            "status": self.status,
            "time_to_tol": self.time_to_tol,
            "hess_ratio_t0": self.hess_ratio_t0,
            "hess_ratio_max": self.hess_ratio_max,
            "rate": self.rate,
            "r_squared": self.r_squared,
            "error": self.error,
        }


@dataclass(frozen=True)
class SweepReport:
    cells: list
    largest_delta_all_converged: float
    rate_table: dict  # delta -> list of fitted rates, seed order
    warnings: list

    def to_dict(self) -> dict:
        return {
            "cells": [c.summary() for c in self.cells],
            "largest_delta_all_converged": self.largest_delta_all_converged,
            "rate_table": {repr(k): v for k, v in self.rate_table.items()},
            "warnings": list(self.warnings),
        }


def _one_cell(sweep: SweepConfig, flow: LineBundleFlow, delta: float, seed: int) -> SweepCell:
    geom = sweep.geometry
    if delta == 0.0:
        u0 = np.zeros(geom.shape)
        ratio0 = math.nan
    else:
        raw = bandlimited_noise(geom, sweep.k_band, 1.0, sweep.seed_base + seed)
        # hess_sup reads the Theta and ThetaP tensors only
        h0 = tensor_norms(geom, raw, ("Theta", "ThetaP")).hess_sup
        u0 = raw * (delta / h0)
        ratio0 = tensor_norms(geom, u0, ("Theta", "ThetaP")).hess_sup / delta
    cfg = FlowConfig(
        geometry=geom, base=sweep.base, u0=u0, hat_theta=flow.hat_theta,
        dt_safety=sweep.dt_safety, t_max=sweep.t_max,
        residual_tol=sweep.residual_tol, sample_every=sweep.sample_every,
        keep_fields=4,
    )
    traj = run_flow(cfg, flow)
    ratio_max = math.nan
    if delta > 0.0:
        ratio_max = max(r.hess_sup for r in traj.records) / delta
    rate = r2 = math.nan
    err = None
    try:
        fit = oscillation_decay(traj)
        rate, r2 = fit.rate, fit.r_squared
    except (RuntimeError, ValueError) as exc:
        err = str(exc)
    return SweepCell(
        delta=float(delta), seed=int(seed), status=traj.status,
        time_to_tol=traj.t_final if traj.status == "converged" else math.nan,
        hess_ratio_t0=ratio0, hess_ratio_max=ratio_max,
        rate=rate, r_squared=r2, error=err, records=traj.records,
    )


def stability_sweep(sweep: SweepConfig) -> SweepReport:
    """Run every (delta, seed) cell on one flow and aggregate; cells never abort the sweep."""
    flow = LineBundleFlow(sweep.geometry, sweep.base, sweep.hat_theta if sweep.hat_theta is not None
                          else winding_hat_theta(sweep.geometry, sweep.base.field()))

    cells = []
    for delta in sweep.delta_list:
        for seed in range(sweep.seeds):
            try:
                cells.append(_one_cell(sweep, flow, delta, seed))
            except Exception as exc:  # cell-level failure, recorded
                cells.append(SweepCell(
                    delta=float(delta), seed=int(seed), status="error",
                    time_to_tol=math.nan, hess_ratio_t0=math.nan,
                    hess_ratio_max=math.nan, rate=math.nan, r_squared=math.nan,
                    error=f"{type(exc).__name__}: {exc}",
                ))

    by_delta: dict = {}
    for c in cells:
        by_delta.setdefault(c.delta, []).append(c)
    largest = 0.0
    for delta in sweep.delta_list:
        if delta > 0 and all(c.status == "converged" for c in by_delta[delta]):
            largest = max(largest, delta)
    rate_table = {
        delta: [c.rate for c in by_delta[delta]] for delta in sweep.delta_list
    }

    # Empirical regularity, not a theorem: time to tolerance should not
    # shrink as delta grows (5% slack); violations are warnings only.
    warnings = []
    for seed in range(sweep.seeds):
        prev_delta, prev_t = None, None
        for delta in sweep.delta_list:
            cell = next(c for c in by_delta[delta] if c.seed == seed)
            t = cell.time_to_tol
            if prev_t is not None and not math.isnan(t) and not math.isnan(prev_t):
                if t < prev_t * 0.95:
                    warnings.append(
                        f"seed {seed}: time_to_tol {t:.3g} at delta {delta:g} "
                        f"below {prev_t:.3g} at delta {prev_delta:g}"
                    )
            if not math.isnan(t):
                prev_delta, prev_t = delta, t
    return SweepReport(
        cells=cells,
        largest_delta_all_converged=largest,
        rate_table=rate_table,
        warnings=warnings,
    )
