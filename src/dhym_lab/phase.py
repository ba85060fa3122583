"""Pointwise linear algebra of the Lagrangian phase operator.

Given the constant metric g and a Hermitian curvature matrix F at a point,
the relevant quantities are the generalized eigenvalues lambda_j of
F v = lambda g v, the phase theta = sum_j arctan(lambda_j), the complex
volume ratio zeta = prod_j (1 + i lambda_j), and the Hermitian metric
eta = g + F g^{-1} F whose inverse drives the flow's linearization.

On the grid everything is taken in the g-orthonormal frame of
`TorusGeometry.to_frame`: the frame curvature F~ = P F P^H (g = L L^H,
P = L^{-1}) is Hermitian with eigenvalues lambda_j, and eta becomes
eta~ = I + F~^2 (`eta_pair`).  No eigenvalue is computed:
zeta = sum_k i^k e_k with e_k the elementary symmetric functions of the
lambda_j, from the power sums tr(F~^k) (`frame_characteristic`).  For
n <= 3, theta lies in (-3 pi/2, 3 pi/2) and Re zeta < 0 forces
sign(theta) = sign(e_1), so theta = arctan(Im zeta / Re zeta) +
pi sign(e_1) [Re zeta < 0], with Re zeta and Im zeta summed as real fields
(at n = 1, arctan(e_1)).  `pointwise_phase` keeps `eigvalsh` as the oracle.

Everything here is a pure function of its inputs and safe to call from any
number of workers.  All operations broadcast over leading batch axes, so a
whole grid (or a random ensemble) is processed in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add

import numpy as np

from .geometry import TorusGeometry, check_hermitian_field

__all__ = [
    "PhasePointData",
    "PhaseFields",
    "pointwise_phase",
    "phase_fields",
    "characteristic_field",
    "frame_characteristic",
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
    """Grid phase data from e_0..e_n; zeta and theta are built when first read."""

    e: list

    def _zeta_parts(self) -> tuple:
        # zeta = sum_k i^k e_k with i^k = 1, i, -1, -i: Re zeta sums the even k, Im zeta the odd k
        e, sign = self.e, (1.0, 1.0, -1.0, -1.0)
        return tuple(sum((sign[k % 4] * e[k] for k in range(a + 2, len(e), 2)), e[a])
                     for a in (0, 1))

    @cached_property
    def zeta(self) -> np.ndarray:
        re, im = self._zeta_parts()
        return re + 1j * im

    @cached_property
    def theta(self) -> np.ndarray:
        re, im = self._zeta_parts()
        if not (re <= 0).any():  # no zero divisor and no branch term
            return np.arctan(im / re)
        with np.errstate(divide="ignore"):
            theta = np.arctan(im / re)
        np.add(theta, np.copysign(np.pi, self.e[1]), out=theta, where=np.less(re, 0))
        return theta


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square matrices, got shape {a.shape}")
    return a


def eta_pair(F: np.ndarray):
    """eta = I + F F, the frame form of g + F g^{-1} F, and its inverse for a
    frame curvature F, pointwise over leading axes."""
    eta = np.eye(F.shape[-1]) + F @ F
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
    if np.linalg.eigvalsh(g).min() <= 0.0:
        raise ValueError("metric not positive definite")
    L_inv = np.linalg.inv(np.linalg.cholesky(g))
    lam = np.linalg.eigvalsh(L_inv @ F @ np.conj(np.swapaxes(L_inv, -1, -2)))
    theta = np.arctan(lam).sum(axis=-1)
    zeta = np.prod(1.0 + 1j * lam, axis=-1)
    eta = g + F @ np.linalg.solve(g, F)
    return PhasePointData(lam=lam, theta=theta, zeta=zeta, eta=eta, eta_inv=np.linalg.inv(eta))


def frame_characteristic(F: np.ndarray) -> list:
    """Elementary symmetric functions [e_0, ..., e_n] of the eigenvalues of the
    Hermitian matrix field F, unchecked (a frame curvature, `TorusGeometry.to_frame`).

    e_0 is the scalar 1.0, e_k for k >= 1 a real field, from the power sums
    p_k = tr(F^k) by Newton's identities k e_k = sum_{i=1}^{k} (-1)^(i-1) e_{k-i} p_i.
    """
    n = F.shape[-1]
    idx = range(n)
    # F is an n x n table of grid fields, so each product streams over whole
    # fields instead of looping over tiny matrices
    A = [[F[..., i, j] for j in idx] for i in idx]
    Ak, p = A, [reduce(add, (A[i][i].real for i in idx))]
    for k in idx[1:]:
        # p_(k+1) = tr(A^k A) takes the diagonal only; A^(k+1) only if a later p needs it
        p.append(reduce(add, (Ak[i][q] * A[q][i] for i in idx for q in idx)).real)
        if k + 1 < n:
            Ak = [[reduce(add, (Ak[i][q] * A[q][j] for q in idx)) for j in idx] for i in idx]
    e = [np.float64(1.0), p[0]]  # a numpy scalar, so e_0 <= 0 has .any() like a field
    for k in range(2, n + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i - 1] for i in range(1, k + 1)) / k)
    return e


def characteristic_field(geom: TorusGeometry, F: np.ndarray) -> list:
    """[e_0, ..., e_n] of the eigenvalues of (F, g) for a coordinate curvature F:
    those of its frame curvature (`frame_characteristic`)."""
    return frame_characteristic(geom.to_frame(F, "zZ"))


def phase_fields(geom: TorusGeometry, F: np.ndarray) -> PhaseFields:
    """Apply the pointwise phase construction over the whole grid.

    F has shape grid + (n, n) in coordinates and must be Hermitian at every
    point; zeta and theta come from `characteristic_field` (see the module
    docstring).
    """
    F = np.asarray(F, dtype=np.complex128)
    check_hermitian_field(F)
    return PhaseFields(characteristic_field(geom, F))


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
