"""Desk-scale stability experiments around reference stationary metrics.

A reference is a converged flow endpoint (tight residual) together with its
stationary-point identity reports.  A stability sweep then perturbs the
reference with band-limited noise normalized to prescribed Hessian sizes
and records, per (delta, seed) cell: convergence status, time to tolerance,
the worst ratio sup_t ||D^2 u_t|| / delta, and the fitted exponential decay
rate of the velocity oscillation.  Every cell runs on the sweep's one flow
(`SweepConfig.flow`), so the cells share its ETDRK4 coefficients.
Individual cell failures are recorded in the report and never abort the
sweep; identical configurations reproduce reports bit-for-bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .diagnostics import dhym_point_identities, oscillation_decay, tensor_norms
from .flow import FlowConfig, LineBundleFlow, Schedule, Trajectory, run_flow
from .geometry import _band_error, bandlimited_noise

__all__ = [
    "Reference",
    "SweepConfig",
    "SweepCell",
    "SweepReport",
    "generate_reference",
    "stability_sweep",
]

_REFERENCE_TOL = 1e-11  # the largest residual a reference run stops at


@dataclass(frozen=True, eq=False)
class Reference:
    u_hat: np.ndarray
    residual_sup: float
    identities: tuple  # pair of IdentityReports
    trajectory: Trajectory


def generate_reference(config: FlowConfig) -> Reference:
    """Drive the flow to a tightly converged stationary metric, at the config's
    residual_tol or 1e-11, whichever is smaller.

    Raises RuntimeError("no reference obtained") when the run times out or
    blows up instead of converging.
    """
    cfg = replace(config, residual_tol=min(config.residual_tol, _REFERENCE_TOL))
    traj = run_flow(cfg)
    if traj.status != "converged":
        raise RuntimeError(f"no reference obtained: flow status {traj.status!r}")
    u_hat = traj.final.u
    reports = dhym_point_identities(config.flow, u_hat, residual_tol=10.0 * cfg.residual_tol)
    return Reference(
        u_hat=u_hat,
        residual_sup=traj.final.residual_sup,
        identities=reports,
        trajectory=traj,
    )


@dataclass
class SweepConfig(Schedule):
    """Perturbation sweep of a flow on a `Schedule`: noise seeds are shared across deltas
    so each seed's initial shape is identical up to the normalizing factor.  The fields
    but flow and the schedule's are the keys of a JSON `sweep` block."""

    flow: LineBundleFlow
    delta_list: list
    seeds: int
    k_band: int = 2
    seed_base: int = field(default=0, kw_only=True)

    def __post_init__(self):
        super().__post_init__()  # here, not in each cell after its noise is drawn
        self.delta_list = list(self.delta_list)
        error = _sweep_error(vars(self), self.flow.geometry.N)
        if error is not None:
            raise ValueError(error[1])


def _sweep_error(sweep: dict, N: int) -> tuple | None:
    """(key, message) of the first sweep parameter out of range on an N grid, or None:
    the checks of a SweepConfig and of a parsed sweep block (`config_io.parse_sweep_config`)."""
    for key in ("seeds", "k_band", "seed_base"):
        if isinstance(sweep[key], bool) or not isinstance(sweep[key], numbers.Integral):
            return key, f"{key} must be an integer, got {sweep[key]!r}"
    if not sweep["delta_list"]:
        return "delta_list", "expected a nonempty list"
    if not all(isinstance(d, numbers.Real) and not isinstance(d, bool) and math.isfinite(d)
               for d in sweep["delta_list"]):
        return "delta_list", f"deltas must be finite numbers, got {sweep['delta_list']!r}"
    if any(d < 0 for d in sweep["delta_list"]):
        return "delta_list", "deltas must be nonnegative"
    if sorted(sweep["delta_list"]) != sweep["delta_list"]:
        return "delta_list", "deltas must be ascending"
    if sweep["seeds"] < 1:
        return "seeds", "need at least one seed per delta"
    band = _band_error(sweep["k_band"], N)
    if band is not None:
        return "k_band", band
    if sweep["seed_base"] < 0:
        return "seed_base", "seed_base must be nonnegative"
    return None


def _scaled_noise(geom, k_band: int, seed: int, hess_sup: float) -> np.ndarray:
    """Band-limited noise of a seed scaled to a Hessian size hess_sup (the sup of the
    Theta and ThetaP tensors, the only ones it reads); zeros, undrawn, at size 0."""
    if hess_sup == 0.0:
        return np.zeros(geom.shape)
    raw = bandlimited_noise(geom, k_band, 1.0, seed)
    return raw * (hess_sup / tensor_norms(geom, raw, ("Theta", "ThetaP")).hess_sup)


@dataclass(frozen=True)
class SweepCell:
    """One (delta, seed) cell; an outcome the cell did not reach stays NaN or None."""

    delta: float
    seed: int
    status: str
    time_to_tol: float = math.nan
    hess_ratio_t0: float = math.nan
    hess_ratio_max: float = math.nan
    rate: float = math.nan
    r_squared: float = math.nan
    error: str | None = None
    records: list = field(repr=False, default_factory=list)

    def summary(self) -> dict:
        """The cell's fields but its records, in order: its entry in the sweep report."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "records"}


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


def _one_cell(sweep: SweepConfig, delta: float, seed: int) -> SweepCell:
    u0 = _scaled_noise(sweep.flow.geometry, sweep.k_band, sweep.seed_base + seed, delta)
    traj = run_flow(FlowConfig(flow=sweep.flow, u0=u0, **sweep.schedule()))
    outcome = {}
    if delta > 0.0:  # record 0 is the state at u0
        outcome.update(hess_ratio_t0=traj.records[0].hess_sup / delta,
                       hess_ratio_max=max(r.hess_sup for r in traj.records) / delta)
    try:
        fit = oscillation_decay(traj)
        outcome.update(rate=fit.rate, r_squared=fit.r_squared)
    except (RuntimeError, ValueError) as exc:
        outcome.update(error=str(exc))
    return SweepCell(float(delta), int(seed), traj.status,
                     time_to_tol=traj.t_final if traj.status == "converged" else math.nan,
                     records=traj.records, **outcome)


def stability_sweep(sweep: SweepConfig) -> SweepReport:
    """Run every (delta, seed) cell on the sweep's flow and aggregate; cells never abort
    the sweep."""
    cells = []
    for delta in sweep.delta_list:
        for seed in range(sweep.seeds):
            try:
                cells.append(_one_cell(sweep, delta, seed))
            except Exception as exc:  # cell-level failure, recorded
                cells.append(SweepCell(float(delta), int(seed), status="error",
                                       error=f"{type(exc).__name__}: {exc}"))

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
