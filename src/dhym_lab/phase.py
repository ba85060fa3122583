"""Pointwise linear algebra of the Lagrangian phase operator.

Given the constant metric g and a Hermitian curvature matrix F at a point,
the relevant quantities are the generalized eigenvalues lambda_j of
F v = lambda g v, the phase theta = sum_j arctan(lambda_j), the complex
volume ratio zeta = prod_j (1 + i lambda_j), and the Hermitian metric
eta = g + F g^{-1} F whose inverse drives the flow's linearization.

On the grid everything is taken in the g-orthonormal frame of
`TorusGeometry.to_frame`: the frame curvature F~ = P F P^H (g = L L^H,
P = L^{-1}) is Hermitian with eigenvalues lambda_j, and eta becomes
eta~ = I + F~^2, built with its inverse in closed form (`eta_pair`).  No
eigenvalue and no batched inverse is computed on the grid:
zeta = sum_k i^k e_k with e_k the elementary symmetric functions of the
lambda_j, from the power sums tr(F~^k) of the n^2 real planes of F~
(`frame_characteristic`, `hermitian_planes`).  For n <= 3, theta lies in
(-3 pi/2, 3 pi/2) and Re zeta < 0 forces sign(theta) = sign(e_1), so
theta = arctan(Im zeta / Re zeta) + pi sign(e_1) [Re zeta < 0], with
Re zeta and Im zeta summed as real fields (at n = 1, arctan(e_1)).
`pointwise_phase` keeps `eigvalsh` as the oracle.

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
    "hermitian_planes",
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
        if len(self.e) == 2:  # n = 1: Re zeta = e_0 = 1
            return np.arctan(self.e[1])
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
    Hermitian frame curvature F (n <= 3), pointwise over leading axes.

    F is read as an n x n table of entry fields, so each product streams over
    whole fields.  eta is Hermitian with the real diagonal 1 + sum_k |F_ik|^2.
    Its inverse is taken in closed form from M = I + iF, for which
    eta = M^H M: eta^{-1} = adj(M) adj(M)^H / |det M|^2.  The minors of M are
    products of entries of F, not of eta, so they keep full accuracy when
    eta is ill-conditioned.  Each result is a view, with the index axes last,
    of an array that holds them first, so an entry [..., p, q] is a
    contiguous field.
    """
    F = np.asarray(F)
    n = F.shape[-1]
    idx = range(n)
    A = [[F[..., i, j] for j in idx] for i in idx]
    eta = np.empty((n, n) + F.shape[:-2], dtype=np.complex128)
    for i in idx:
        eta[i, i] = 1.0 + reduce(add, (A[i][k].real ** 2 + A[i][k].imag ** 2 for k in idx))
        for j in idx[i + 1:]:
            eta[i, j] = reduce(add, (A[i][k] * A[k][j] for k in idx))
            eta[j, i] = eta[i, j].conj()
    M = [[1.0 + 1j * A[i][j] if i == j else 1j * A[i][j] for j in idx] for i in idx]
    adj = _adjugate(M)
    det = reduce(add, (M[0][k] * adj[k][0] for k in idx))  # along the first row
    det2 = det.real ** 2 + det.imag ** 2
    inv = np.empty_like(eta)
    for i in idx:
        inv[i, i] = reduce(add, (adj[i][k].real ** 2 + adj[i][k].imag ** 2 for k in idx)) / det2
        for j in idx[i + 1:]:
            inv[i, j] = reduce(add, (adj[i][k] * adj[j][k].conj() for k in idx)) / det2
            inv[j, i] = inv[i, j].conj()
    return np.moveaxis(eta, (0, 1), (-2, -1)), np.moveaxis(inv, (0, 1), (-2, -1))


def _adjugate(M: list) -> list:
    """adj(M) of an n x n table of fields, n <= 3: at n = 3, adj_ij is the minor
    M_(j+1)(i+1) M_(j+2)(i+2) - M_(j+1)(i+2) M_(j+2)(i+1), indices mod 3."""
    n = len(M)
    if n == 1:
        return [[1.0]]
    if n == 2:
        return [[M[1][1], -M[0][1]], [-M[1][0], M[0][0]]]
    return [[M[(j + 1) % 3][(i + 1) % 3] * M[(j + 2) % 3][(i + 2) % 3]
             - M[(j + 1) % 3][(i + 2) % 3] * M[(j + 2) % 3][(i + 1) % 3] for j in range(3)]
            for i in range(3)]


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


def hermitian_planes(F: np.ndarray) -> list:
    """The n^2 real planes of a Hermitian matrix field F (index axes last) as views:
    an n x n table T, T[p][p] = Re F_pp, T[p][q] = Re F_pq and T[q][p] = Im F_pq, p < q."""
    idx = range(F.shape[-1])
    return [[F[..., p, q].real if p <= q else F[..., q, p].imag for q in idx] for p in idx]


def frame_characteristic(F: np.ndarray | list) -> list:
    """Elementary symmetric functions [e_0, ..., e_n] of the eigenvalues of a
    Hermitian frame curvature (`TorusGeometry.to_frame`), unchecked: a matrix
    field F, or its planes (`hermitian_planes`), which is all this reads.

    e_0 is the scalar 1.0, e_k for k >= 1 a real field, from the power sums
    p_k = tr(F^k) by Newton's identities k e_k = sum_{i=1}^{k} (-1)^(i-1) e_{k-i} p_i.
    """
    # each product streams over whole real fields instead of looping over tiny
    # matrices: the diagonal d, and the real and imaginary parts above it
    T = hermitian_planes(F) if isinstance(F, np.ndarray) else F
    n, idx = len(T), range(len(T))
    d = [T[i][i] for i in idx]
    p = [reduce(add, d)]
    if n > 1:  # p_2 = sum_i d_i^2 + 2 sum_{i<j} |F_ij|^2
        sq = {(i, j): T[i][j] ** 2 + T[j][i] ** 2 for i in idx for j in idx[i + 1:]}
        p.append(reduce(add, (x * x for x in d)) + 2.0 * reduce(add, sq.values()))
    if n > 2:  # p_3 = sum_i d_i^3 + 3 sum_{i<j} (d_i + d_j) |F_ij|^2 + 6 Re(F_01 F_12 F_20)
        re = T[0][1] * T[1][2] - T[1][0] * T[2][1]  # F_01 F_12
        im = T[0][1] * T[2][1] + T[1][0] * T[1][2]
        p.append(reduce(add, (x * x * x for x in d))
                 + 3.0 * reduce(add, ((d[i] + d[j]) * v for (i, j), v in sq.items()))
                 + 6.0 * (re * T[0][2] + im * T[2][0]))
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
