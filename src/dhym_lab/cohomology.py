"""Cohomological invariant Z and the lifted angle via winding.

Z is the volume integral of zeta and depends only on the class of the
curvature: adding a complex Hessian to F leaves Z unchanged (up to
discretization error far below the working tolerances).  The lifted angle
hat_theta is the continuous argument of the curve

    t |-> integral of prod_j (t + i lambda_j(x)) = vol * sum_k i^k <e_k> t^(n-k),

with <e_k> the grid means of the characteristic coefficients of the
curvature (`phase.characteristic_field`, no eigenvalues).  It is tracked
from t_start down to t = 1, where it coincides with an argument of
Z.  The lift fixes the 2*pi branch that a principal argument cannot.

The unwrap is anchored at the principal argument at t_start.  With
Lambda = max_x sqrt(e_1^2 - 2 e_2) >= max |lambda_j|, every point's argument
for t >= t_start lies within n arctan(Lambda / t_start) < pi/2 of zero, and
so does the mean's: the anchor is the lift.  The default start is
max(1e4, 4 n Lambda); an explicit t_start that breaks the bound raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import TorusGeometry, volume_integral
from .phase import characteristic_field, phase_fields

__all__ = [
    "CohomologyInvariants",
    "compute_Z",
    "winding_hat_theta",
    "cohomology_invariants",
]


@dataclass(frozen=True)
class CohomologyInvariants:
    Z: complex
    hat_theta: float
    vol: float


def compute_Z(geom: TorusGeometry, F: np.ndarray) -> complex:
    """Z = integral of zeta(F) against the volume form."""
    return complex(volume_integral(geom, phase_fields(geom, F).zeta))


def _winding(geom: TorusGeometry, F: np.ndarray, t_start: float | None, n_steps: int) -> tuple:
    """Z (the path at t = 1) and the lifted angle hat_theta."""
    n, e = geom.n, characteristic_field(geom, F)
    coeff = np.array([e[0]] + [geom.mean(ek) for ek in e[1:]]) * (1j ** np.arange(n + 1)) * geom.vol
    # sum_j lambda_j^2 = e_1^2 - 2 e_2 bounds every |lambda_j|
    sum_sq = e[1] ** 2 - 2.0 * (e[2] if n > 1 else 0.0)
    lam_bound = float(np.sqrt(np.maximum(sum_sq, 0.0)).max())
    if t_start is None:
        t_start = max(1e4, 4.0 * n * lam_bound)
    ts = np.geomspace(t_start, 1.0, n_steps)
    powers = ts[:, None] ** (n - np.arange(n + 1))[None, :]
    Zs = powers @ coeff
    floor = 1e-8 * ts ** geom.n * geom.vol
    if (np.abs(Zs) < floor).any():
        raise RuntimeError("winding path crosses zero; hat_theta ill-defined")
    args = np.angle(Zs)
    jumps = np.abs(np.diff(args))
    jumps = np.minimum(jumps, 2 * np.pi - jumps)  # wrapped increment size
    if jumps.size and jumps.max() > np.pi / 2:
        raise RuntimeError("winding under-resolved, increase n_steps")
    if n * np.arctan(lam_bound / t_start) >= np.pi / 2:
        raise RuntimeError(f"winding start t_start={t_start:g} too small for max|lambda| "
                           f"<= {lam_bound:.6g}; use t_start >= {4.0 * n * lam_bound:.6g}")
    return complex(Zs[-1]), float(np.unwrap(args)[-1])


def winding_hat_theta(
    geom: TorusGeometry,
    F: np.ndarray,
    t_start: float | None = None,
    n_steps: int = 4096,
) -> float:
    """Lifted angle of Z obtained by tracking the winding from t_start to 1.

    t_start defaults to max(1e4, 4 n max|lambda|).  For F = c*omega this
    returns n*arctan(c) exactly (up to rounding).
    """
    return _winding(geom, F, t_start, n_steps)[1]


def cohomology_invariants(
    geom: TorusGeometry,
    F: np.ndarray,
    t_start: float | None = None,
    n_steps: int = 4096,
) -> CohomologyInvariants:
    """Z, lifted hat_theta and volume."""
    Z, lift = _winding(geom, F, t_start, n_steps)
    return CohomologyInvariants(Z=Z, hat_theta=lift, vol=geom.vol)
