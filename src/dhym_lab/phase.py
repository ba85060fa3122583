"""Pointwise linear algebra of the Lagrangian phase operator.

Given the constant metric g and a Hermitian curvature matrix F at a point,
the relevant quantities are the generalized eigenvalues lambda_j of
F v = lambda g v, the phase theta = sum_j arctan(lambda_j), the complex
volume ratio zeta = prod_j (1 + i lambda_j), and the Hermitian metric
eta = g + F g^{-1} F whose inverse drives the flow's linearization.

Everything here is a pure function of its inputs and safe to call from any
number of workers.  All operations broadcast over leading batch axes, so a
whole grid (or a random ensemble) is processed in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import TorusGeometry, check_hermitian_field

__all__ = [
    "PhasePointData",
    "PhaseFields",
    "pointwise_phase",
    "phase_fields",
    "eigenvalue_field",
    "eta_pair",
    "hypercritical_classify",
]


@dataclass(frozen=True, eq=False)
class PhasePointData:
    """Phase data at a point (or batch of points).

    lam is sorted ascending; theta lies strictly in (-n*pi/2, n*pi/2);
    zeta = exp(i*theta) * sqrt(det(eta)/det(g)).
    """

    lam: np.ndarray
    theta: np.ndarray
    zeta: np.ndarray
    eta: np.ndarray
    eta_inv: np.ndarray


@dataclass(frozen=True, eq=False)
class PhaseFields:
    """Pointwise phase data assembled over the grid (eta is left to eta_pair)."""

    theta: np.ndarray
    zeta: np.ndarray
    lambda_min: np.ndarray
    lambda_max: np.ndarray


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square matrices, got shape {a.shape}")
    return a

def _lambdas(F: np.ndarray, chol_inv: np.ndarray) -> np.ndarray:
    """Generalized eigenvalues of (F, g) via the Cholesky reduction g = L L^H."""
    if F.shape[-1] == 1:
        lam = (F[..., 0, 0].real) * (chol_inv[..., 0, 0].real ** 2)
        return lam[..., np.newaxis]
    W = chol_inv @ F @ np.conj(np.swapaxes(chol_inv, -1, -2))
    return np.linalg.eigvalsh(W)


def eta_pair(F: np.ndarray, g: np.ndarray, g_inv: np.ndarray):
    """The metric eta = g + F g^{-1} F and its inverse, pointwise over leading axes."""
    eta = g + F @ g_inv @ F
    return eta, np.linalg.inv(eta)


def pointwise_phase(F, g) -> PhasePointData:
    """Phase data for Hermitian F against Hermitian positive-definite g.

    Accepts single matrices or arrays of matrices with matching leading
    axes (g may also be a single matrix shared by a batch of F).
    """
    F = _as_matrix(F, "curvature")
    g = _as_matrix(g, "metric")
    check_hermitian_field(F)
    check_hermitian_field(g, label="metric")
    eigs_g = np.linalg.eigvalsh(g)
    if eigs_g.min() <= 0.0:
        raise ValueError("metric not positive definite")
    L = np.linalg.cholesky(g)
    lam = _lambdas(F, np.linalg.inv(L))
    theta = np.arctan(lam).sum(axis=-1)
    zeta = np.prod(1.0 + 1j * lam, axis=-1)
    eta, eta_inv = eta_pair(F, g, np.linalg.inv(g))
    return PhasePointData(lam=lam, theta=theta, zeta=zeta, eta=eta, eta_inv=eta_inv)


def eigenvalue_field(geom: TorusGeometry, F: np.ndarray) -> np.ndarray:
    """Eigenvalue field (ascending) of a Hermitian curvature field against g."""
    return _lambdas(F, geom.chol_inv)


def phase_fields(geom: TorusGeometry, F: np.ndarray) -> PhaseFields:
    """Apply the pointwise phase construction over the whole grid.

    F has shape grid + (n, n) and must be Hermitian at every point; the
    metric is the geometry's constant g, so the Cholesky factor is reused
    across points.
    """
    F = np.asarray(F, dtype=np.complex128)
    check_hermitian_field(F)
    lam = eigenvalue_field(geom, F)
    theta = np.arctan(lam).sum(axis=-1)
    zeta = np.prod(1.0 + 1j * lam, axis=-1)
    return PhaseFields(
        theta=theta,
        zeta=zeta,
        lambda_min=lam[..., 0],
        lambda_max=lam[..., -1],
    )


def hypercritical_classify(theta, n: int) -> str:
    """Classify the phase branch of a theta field.

    'hypercritical' if min theta > (n-1)*pi/2, 'supercritical' if
    min theta > (n-2)*pi/2, else 'none'.
    """
    tmin = np.min(theta)
    if tmin > (n - 1) * np.pi / 2:
        return "hypercritical"
    if tmin > (n - 2) * np.pi / 2:
        return "supercritical"
    return "none"
