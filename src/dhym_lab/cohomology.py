"""Cohomological invariant Z and the lifted angle via winding.

Z is the volume integral of zeta and depends only on the class of the
curvature: adding a complex Hessian to F leaves Z unchanged (up to
discretization error far below the working tolerances).  The lifted angle
hat_theta is the continuous argument of the curve

    t |-> integral of prod_j (t + i lambda_j(x)) = vol * sum_k i^k <e_k> t^(n-k),

with <e_k> the grid means of the characteristic coefficients e = [e_0, ..., e_n]
of the curvature, which is all this module reads: a flow's come from its planes
(`flow.LineBundleFlow.phase_fields(uh).e`, no eigenvalues), and those of its
base's class from uh = rfft(0).  The curve is tracked from t_start down to
t = 1, where it is Z.  The lift fixes the 2*pi branch that a principal
argument cannot.

The path starts at t_start = max(1e4, 4 n Lambda), with
Lambda = max_x sqrt(e_1^2 - 2 e_2) >= max |lambda_j|, and has 4096
geometrically spaced points; the unwrap is anchored at the principal
argument there; a curvature so large that the bound or the path is not finite
is refused.  Every point's argument for t >= t_start lies within
n arctan(Lambda / t_start) <= n arctan(1 / (4 n)) < pi/2 of zero, and so
does the mean's: the anchor is the lift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import TorusGeometry

__all__ = [
    "CohomologyInvariants",
    "winding_hat_theta",
    "cohomology_invariants",
]

_T_START_MIN = 1e4  # the path runs from max(_T_START_MIN, 4 n Lambda) down to t = 1
_N_POINTS = 4096  # geometrically spaced
_TOO_LARGE = ("curvature too large for the winding: its eigenvalue bound or winding path is "
              "not finite")


@dataclass(frozen=True)
class CohomologyInvariants:
    Z: complex
    hat_theta: float


def _winding(geom: TorusGeometry, e: list) -> tuple:
    """Z (the path at t = 1) and the lifted angle hat_theta of the coefficients e."""
    n = geom.n
    if len(e) != n + 1:
        raise ValueError(f"expected the {n + 1} coefficients e_0..e_{n}, got {len(e)}")
    # the coefficients, the bound and the path overflow for a curvature too large to
    # wind, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        coeff = (np.array([e[0]] + [geom.mean(ek) for ek in e[1:]])
                 * (1j ** np.arange(n + 1)) * geom.vol)
        # sum_j lambda_j^2 = e_1^2 - 2 e_2 bounds every |lambda_j|
        sum_sq = e[1] ** 2 - 2.0 * (e[2] if n > 1 else 0.0)
        lam_bound = float(np.sqrt(np.maximum(sum_sq, 0.0)).max())
        ts = np.geomspace(max(_T_START_MIN, 4.0 * n * lam_bound), 1.0, _N_POINTS)
        powers = ts[:, None] ** (n - np.arange(n + 1))[None, :]
        # a sum, not a matmul, which wakes BLAS worker threads whatever DHYM_THREADS is
        Zs = (powers * coeff).sum(axis=1)
    if not (np.isfinite(lam_bound) and np.isfinite(Zs).all()):
        raise RuntimeError(_TOO_LARGE)
    floor = 1e-8 * ts ** geom.n * geom.vol
    if (np.abs(Zs) < floor).any():
        raise RuntimeError("winding path crosses zero; hat_theta ill-defined")
    args = np.angle(Zs)
    jumps = np.abs(np.diff(args))
    jumps = np.minimum(jumps, 2 * np.pi - jumps)  # wrapped increment size
    if jumps.max() > np.pi / 2:
        raise RuntimeError("winding under-resolved: the path turns by more than pi/2 "
                           "between two of its points")
    return complex(Zs[-1]), float(np.unwrap(args)[-1])


def winding_hat_theta(geom: TorusGeometry, e: list) -> float:
    """Lifted angle of Z obtained by tracking the winding from t_start to 1, from the
    characteristic coefficients e = [e_0, ..., e_n] of the curvature.

    For F = c*omega this returns n*arctan(c) exactly (up to rounding).
    """
    return _winding(geom, e)[1]


def cohomology_invariants(geom: TorusGeometry, e: list) -> CohomologyInvariants:
    """Z and the lifted hat_theta from the characteristic coefficients e."""
    Z, lift = _winding(geom, e)
    return CohomologyInvariants(Z=Z, hat_theta=lift)
