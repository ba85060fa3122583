"""The full-tensor spectral derivative, kept as a test oracle.

`deriv(geom, f_hat, word)` builds a whole coordinate derivative tensor from a
spectrum, with one axis of length n per letter of the word after the grid
axes.  The package reads derivative tensors one distinct entry at a time
(`TorusGeometry.entries`) or as real planes (`TorusGeometry.word_planes`);
the tests check both, and the identities built from them, against this form.
"""

from functools import reduce

import numpy as np

from dhym_lab.geometry import _orbits


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
