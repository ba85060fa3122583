"""The full-tensor spectral derivative and the coordinate curvature path, kept
as test oracles.

`deriv(geom, f_hat, word)` builds a whole coordinate derivative tensor from a
spectrum, with one axis of length n per letter of the word after the grid
axes.  The package reads derivative tensors one distinct entry at a time
(`TorusGeometry.entries`) or as real planes (`TorusGeometry.word_planes`);
the tests check both, and the identities built from them, against this form.

The package holds a curvature only as the n^2 real frame planes of a flow
(`LineBundleFlow.curvature_planes`).  The coordinate path it replaced builds the
whole field F = F0 + ddbar psi + ddbar u of shape grid + (n, n)
(`complex_hessian`, `base_field`) and takes its phase data through the frame
(`characteristic_field`, `phase_fields`, `compute_Z`); the tests check the
flow's phase, Z and winding lift against it.
"""

from functools import reduce

import numpy as np

from dhym_lab.geometry import _orbits, check_hermitian_field, volume_integral
from dhym_lab.phase import PhaseFields, frame_characteristic, hermitian_planes


def _entry(geom, f_hat: np.ndarray, symbols: list, idx: tuple) -> np.ndarray:
    # one entry of a derivative tensor: the product of one multiplier per index
    m = reduce(np.multiply, (s[j] for s, j in zip(symbols, idx)))
    return geom.ifft(m.reshape(m.shape + (1,) * (f_hat.ndim - 2 * geom.n)) * f_hat)


def deriv(geom, f_hat: np.ndarray, word: str) -> np.ndarray:
    """Derivative tensor of a field from its spectrum and a derivative word.

    The word has one letter per derivative, 'z' for d/dz_j and 'Z' for
    d/dzbar_j; the result carries one axis of length n per letter, right
    after the grid axes and ahead of any trailing axes the field has, so
    deriv(geom, fft(u), "zZz")[..., i, j, k] = u_{i jbar k}.  Derivatives
    commute, so one inverse transform serves every index permutation
    among equal letters.  The word "zZ" is taken of a real field (the
    complex Hessian, Hermitian): its lower triangle is the conjugate of
    the upper one.  The tensor is a view, in this axis order, of an array
    that holds the derivative axes first, so each entry [..., i, j] is a
    contiguous field.
    """
    if not word or set(word) - {"z", "Z"}:
        raise ValueError(f"derivative word must be letters 'z' and 'Z', got {word!r}")
    n, k, trailing = geom.n, len(word), f_hat.shape[2 * geom.n:]
    symbols = [geom._letter_multipliers[c] for c in word]
    if n == 1:  # one entry, which is the tensor
        return _entry(geom, f_hat, symbols, (0,) * k).reshape(geom.shape + (1,) * k + trailing)
    out = np.empty((n,) * k + geom.shape + trailing, dtype=np.complex128)
    for orbit in _orbits(symbols, n):
        rep = orbit[0]
        if word == "zZ" and rep[0] > rep[1]:
            np.conj(out[rep[::-1]], out=out[rep])
            continue
        out[rep] = _entry(geom, f_hat, symbols, rep)
        for idx in orbit[1:]:
            out[idx] = out[rep]
    return np.moveaxis(out, range(k), range(2 * n, 2 * n + k))


def complex_hessian(geom, u: np.ndarray) -> np.ndarray:
    """Complex Hessian u_{i jbar} of a real field, shape grid + (n, n), Hermitian bit for bit."""
    return deriv(geom, geom.fft(np.asarray(u, dtype=np.float64)), "zZ")


def base_field(base) -> np.ndarray:
    """The coordinate curvature field F_hat = F0 + complex_hessian(psi) of a BaseCurvature."""
    geom = base.geometry
    out = np.broadcast_to(base.F0, geom.shape + base.F0.shape).copy()
    if base.psi is not None:
        out += complex_hessian(geom, base.psi)
    return out


def characteristic_field(geom, F: np.ndarray) -> list:
    """[e_0, ..., e_n] of the eigenvalues of (F, g) for a coordinate curvature field F."""
    return frame_characteristic(hermitian_planes(geom.to_frame(F, "zZ")))


def phase_fields(geom, F: np.ndarray) -> PhaseFields:
    """PhaseFields of a coordinate curvature field F, checked Hermitian at every point."""
    F = np.asarray(F, dtype=np.complex128)
    check_hermitian_field(F)
    return PhaseFields(characteristic_field(geom, F))


def compute_Z(geom, F: np.ndarray) -> complex:
    """Z = integral of zeta(F) against the volume form."""
    return complex(volume_integral(geom, phase_fields(geom, F).zeta))
