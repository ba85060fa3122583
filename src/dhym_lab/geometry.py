"""Flat-torus discretization and spectral calculus.

The spatial domain is the real torus [0, 2*pi)^(2n) carrying complex
coordinates z_j = x_j + i*y_j, j = 1..n.  Fields are sampled on a uniform
grid with N points per real axis and stored as numpy arrays of shape
(N,)*2n, axes ordered (x_1, ..., x_n, y_1, ..., y_n), C (row-major) order.
Matrix-valued fields carry two trailing axes of length n; the entry
M[..., p, q] holds the coefficient with holomorphic index p and
anti-holomorphic index q (so Hermitian fields satisfy M[..., q, p] ==
conj(M[..., p, q]) pointwise).

All derivatives are Fourier-spectral.  For the mode exp(i*(m.x + l.y)) the
multiplier of d/dz_j is (i*m_j + l_j)/2 and of d/dzbar_j is (i*m_j - l_j)/2,
which realizes d/dz = (d/dx - i d/dy)/2 per complex axis.  A derivative
tensor is named by a word of 'z' (d/dz_j) and 'Z' (d/dzbar_j), one letter
per index, so "zZz" gives u_{i jbar k}; no whole tensor is built.
`TorusGeometry.entries` yields its distinct complex entries one at a time from
the full spectrum (`fft`), with any of its indices in the frame below.  A
real field u is also taken from its half spectrum (`TorusGeometry.rfft`,
wave numbers 0..N/2 on the last axis): `TorusGeometry.word_planes` yields
each distinct frame entry of a word's tensor as its real and imaginary
planes, one real inverse transform per entry, with the half-grid symbols of
`TorusGeometry.word_symbols`: the Hessian ("zZ", `frame_hessian`), and the
tensor norms (`norm_planes`; at n = 1 from a held stack of their symbols).
The transforms call pocketfft's kernels with the arguments of scipy.fft's n-D
functions, skipping a dispatch that costs as much as an N = 32 transform.
The extension module is loaded from its spec, found under scipy's package
path, without running scipy.fft's package init: that init imports numpy.f2py
(scipy's array-API layer) and scipy.special (FFTLog), about 0.3 s of each
CLI start, and nothing here uses either.  It is registered under its own
name, so a later `import scipy.fft` takes the same module object.

The Kahler metric is a constant Hermitian positive-definite matrix g, so the
volume form is det(g) dx dy and covariant derivatives coincide with
coordinate derivatives (the connection coefficients vanish).

The metric is read here only.  `build_torus` factors g = L L^H and keeps
the frame P = L^{-1} (None for g = I); `TorusGeometry.to_frame` takes a
tensor to the g-orthonormal frame, P on each holomorphic index and conj(P)
on each anti-holomorphic one (a matrix field F becomes P F P^H).  There g is
the identity: a g-contraction is a plain sum over an index pair and |T|_g^2
is the sum of |T|^2 over the tensor's index axes.
"""

from __future__ import annotations

import importlib.util
import itertools
import os
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from importlib.machinery import PathFinder

import numpy as np
import scipy

__all__ = [
    "TorusGeometry",
    "build_torus",
    "complex_hessian",
    "volume_integral",
    "bandlimited_noise",
    "check_hermitian_field",
]

NORM_WORDS = ("z", "zZ", "zz", "zZz")  # of the tensor norms: u_i, u_{i jbar}, u_{i p}, u_{i jbar k}


def _load_pocketfft():
    """scipy's pocketfft extension, without the package inits of scipy.fft and
    scipy.fft._pocketfft (the module docstring says why).

    Python's path finder walks from scipy's package path down to the module,
    which is then registered in sys.modules under its canonical name before it
    is executed; a module already registered there is taken as it is.
    """
    name = "scipy.fft._pocketfft.pypocketfft"
    if name in sys.modules:
        return sys.modules[name]
    parent, path = "scipy", scipy.__path__
    for part in name.split(".")[1:]:
        spec = PathFinder.find_spec(f"{parent}.{part}", path) if path else None
        if spec is None:
            raise ImportError(f"cannot find {name}: no {parent}.{part} in {path}", name=name)
        parent, path = spec.name, spec.submodule_search_locations
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


_pocketfft = _load_pocketfft()


def _workers() -> int:
    """Worker cap for FFTs, from DHYM_THREADS (default: all cores).

    Worker count never changes results: transforms are deterministic and
    grid reductions use numpy's pairwise summation.  The variable is read on
    every call and its value parsed once.
    """
    return _parse_workers(os.environ.get("DHYM_THREADS"))


@lru_cache(maxsize=8)
def _parse_workers(env: str | None) -> int:
    if not env:
        return os.cpu_count() or 1
    if not env.isdigit() or int(env) < 1:
        raise ValueError(f"DHYM_THREADS must be a positive integer, got {env!r}")
    return int(env)


def _floating(f) -> np.ndarray:  # scipy.fft's promotion: float64, or complex128 if complex
    return np.asarray(f, dtype=np.complex128 if np.iscomplexobj(f) else np.float64)


@dataclass(frozen=True, eq=False)
class TorusGeometry:
    """Discretized flat Kahler torus.

    Attributes
    ----------
    n : complex dimension (1..3)
    N : grid points per real axis (power of two, >= 8)
    g : constant n x n Hermitian positive-definite metric matrix
    frame : L^{-1} for the Cholesky factor g = L L^H, or None if g = I
    g_eig_min : smallest eigenvalue of g
    det_g : determinant of g (real, positive)
    vol : total volume det(g) * (2*pi)^(2n)
    """

    n: int
    N: int
    g: np.ndarray
    frame: np.ndarray | None
    g_eig_min: float
    det_g: float
    vol: float

    def __post_init__(self):
        # the grid axes, held rather than built on every transform
        object.__setattr__(self, "_axes", tuple(range(2 * self.n)))

    @property
    def shape(self) -> tuple:
        return (self.N,) * (2 * self.n)

    @property
    def num_points(self) -> int:
        return self.N ** (2 * self.n)

    def axis_coordinate(self, axis: int) -> np.ndarray:
        """Grid coordinate along one real axis, broadcastable over the grid.

        Axes 0..n-1 are x_1..x_n, axes n..2n-1 are y_1..y_n.
        """
        c = np.arange(self.N) * (2.0 * np.pi / self.N)
        return self._along(c, axis)

    def wavevector(self, axis: int) -> np.ndarray:
        """Integer wave numbers in [-N/2, N/2) along one real axis."""
        k = (np.arange(self.N) + self.N // 2) % self.N - self.N // 2  # rint(fftfreq(N) * N)
        return self._along(k, axis)

    def _along(self, arr1d: np.ndarray, axis: int) -> np.ndarray:
        if not 0 <= axis < 2 * self.n:
            raise ValueError(f"axis {axis} out of range for 2n={2*self.n}")
        shape = [1] * (2 * self.n)
        shape[axis] = self.N
        return arr1d.reshape(shape)

    def dz_multiplier(self, j: int) -> np.ndarray:
        """Spectral multiplier of d/dz_j (0-based j), broadcastable."""
        if not 0 <= j < self.n:
            raise ValueError(f"complex axis {j} out of range for n={self.n}")
        m = self.wavevector(j)
        l = self.wavevector(self.n + j)
        return 0.5 * (1j * m + l)

    def dzbar_multiplier(self, j: int) -> np.ndarray:
        """Spectral multiplier of d/dzbar_j (0-based j), broadcastable."""
        if not 0 <= j < self.n:
            raise ValueError(f"complex axis {j} out of range for n={self.n}")
        m = self.wavevector(j)
        l = self.wavevector(self.n + j)
        return 0.5 * (1j * m - l)

    @cached_property
    def _letter_multipliers(self) -> dict:
        # the per-axis multipliers are small broadcast arrays; building them
        # costs more than a transform at small N, so it is done once
        return {"z": [self.dz_multiplier(j) for j in range(self.n)],
                "Z": [self.dzbar_multiplier(j) for j in range(self.n)]}

    @cached_property
    def half_symbols(self) -> dict:
        """The d/dz_j ('z') and d/dzbar_j ('Z') multipliers on the half grid of `rfft`."""
        half = slice(None, self.N // 2 + 1)
        return {c: [m[..., half] for m in ms] for c, ms in self._letter_multipliers.items()}

    def entries(self, f_hat: np.ndarray, word: str, coords: int = 0):
        """The distinct entries of a word's derivative tensor, one at a time.

        Yields (orbit, field) pairs: field is the entry of the tensor at every
        index tuple of orbit, so no whole tensor is held.  The first `coords`
        letters of the word are coordinate indices; the others are frame indices,
        whose multipliers are taken through the frame (P m_z for 'z', conj(P) m_Z
        for 'Z', as `to_frame` does to a tensor).  Indices of one letter and one
        kind commute, and at g = I every index of one letter does: one inverse
        transform serves each orbit.
        """
        if not word or set(word) - {"z", "Z"}:
            raise ValueError(f"derivative word must be letters 'z' and 'Z', got {word!r}")
        frame = self._frame_symbols(self._letter_multipliers)
        symbols = [(self._letter_multipliers if k < coords else frame)[c]
                   for k, c in enumerate(word)]
        for orbit in _orbits(symbols, self.n):
            # one entry: the product of one multiplier per index
            yield orbit, self.ifft(reduce(np.multiply, (s[j] for s, j in zip(symbols, orbit[0])))
                                   * f_hat)

    def _frame_symbols(self, letters: dict) -> dict:
        # the 'z' and 'Z' multipliers of a frame index from those of a coordinate one; built
        # on each call, so a geometry does not hold 2n grid fields
        if self.frame is None:
            return letters
        return {c: list(np.moveaxis(self.to_frame(np.stack(np.broadcast_arrays(*ms), axis=-1), c),
                                    -1, 0).copy())
                for c, ms in letters.items()}

    def to_frame(self, X: np.ndarray, word: str, frame: np.ndarray | None = None) -> np.ndarray:
        """Tensor X in the g-orthonormal frame, one letter per trailing index axis.

        Each 'z' axis is multiplied by the frame P = L^{-1} and each 'Z' axis
        by conj(P), so a matrix field F with the word "zZ" becomes P F P^H;
        leading axes (grid, batch or none) pass through; a matrix Q in place of
        P gives Q F Q^H.  For g = I, X is returned as it is.
        """
        if self.frame is None:
            return X
        P = self.frame if frame is None else frame
        M = reduce(np.kron, [P if c == "z" else P.conj() for c in word])
        # the word axes merge into one of length n^k, so one product serves all of
        # them; a tensor that holds them first in memory (`eta_pair`) is not copied
        k, lead = len(word), X.ndim - len(word)
        Xw = np.moveaxis(X, range(lead, X.ndim), range(k))
        if Xw.flags.c_contiguous:
            Y = (M @ Xw.reshape(M.shape[0], -1)).reshape(Xw.shape)
            return np.moveaxis(Y, range(k), range(lead, X.ndim))
        return (X.reshape(-1, M.shape[0]) @ M.T).reshape(X.shape)

    def fft(self, f: np.ndarray) -> np.ndarray:
        """Forward transform over the 2n grid axes (trailing axes pass through), by pocketfft's
        c2c with scipy.fft.fftn's arguments: its dispatch costs as much as an N = 32 transform."""
        return _pocketfft.c2c(_floating(f), self._axes, True, 0, None, _workers())

    def ifft(self, fh: np.ndarray) -> np.ndarray:
        return _pocketfft.c2c(_floating(fh), self._axes, False, 2, None, _workers())

    def rfft(self, f: np.ndarray) -> np.ndarray:
        """Half spectrum of a real field: wave numbers 0..N/2 on the last grid axis."""
        if np.iscomplexobj(f):
            raise TypeError("rfft takes a real field, got complex input")
        return _pocketfft.r2c(np.asarray(f, dtype=np.float64), self._axes, True, 0, None,
                              _workers())

    def irfft(self, fh: np.ndarray) -> np.ndarray:
        """The real field of a half spectrum from `rfft`; leading axes (a stack of planes) pass
        through, each plane bit for bit that of its own call.  It calls pocketfft's c2r as
        irfftn(s=shape) does, but refuses a spectrum of other grid axes, which that pads or cuts."""
        fh = np.asarray(fh) if np.iscomplexobj(fh) else np.asarray(fh) + 0j
        half, d = self.shape[:-1] + (self.N // 2 + 1,), 2 * self.n
        if fh.shape[-d:] != half:
            raise ValueError(f"irfft expects grid axes {half}, got a spectrum of shape {fh.shape}")
        return _pocketfft.c2r(fh, list(range(fh.ndim))[-d:], self.N, False, 2, None, _workers())

    @cached_property
    def plane_symbols(self) -> list:
        """`word_symbols("zZ")`, held: the flow's Hessian takes them at every phase."""
        return list(self.word_symbols("zZ"))

    def word_symbols(self, word: str):
        """(orbit, S) per distinct frame entry of a real field's derivative tensor, each
        built from the per-axis multipliers when it is reached.

        S stacks the half-grid symbols of the entry's real and imaginary planes,
        (s + r) / 2 and (s - r) / 2i for its symbol s at k and r the conjugate of its
        symbol at -k (mod N, so -N/2 stays), as the full spectrum takes them; every
        index tuple of orbit has an entry of this modulus.  s is a product of frame
        multipliers, as in `entries`, but for the Hermitian "zZ": its entries are
        F_pq, p <= q, of F = P H P^H for H = `complex_hessian` (mz_i mZ_j at k for
        i <= j, at -k below), r is the symbol of F_qp, the orbit [(p, q), (q, p)]
        places the planes as `phase.hermitian_planes` does, and a real entry has one plane.
        """
        n, P, idx, half = self.n, self.frame, range(self.n), self.half_symbols
        w = [np.where(k == -(self.N // 2), k, -k)[..., : self.N // 2 + 1]
             for k in map(self.wavevector, range(2 * n))]
        neg = {c: [0.5 * (1j * w[j] + w[n + j] if c == "z" else 1j * w[j] - w[n + j]) for j in idx]
               for c in set(word)}
        if word == "zZ":
            H = [[(half if i <= j else neg)["z"][i] * (half if i <= j else neg)["Z"][j]
                  for j in idx] for i in idx]
            T = H if P is None else [[reduce(np.add, (P[p, i] * P[q, j].conj() * H[i][j]
                                                      for i in idx for j in idx))
                                      for q in idx] for p in idx]
            for p, q in itertools.combinations_with_replacement(idx, 2):
                re, im = 0.5 * (T[p][q] + T[q][p]), -0.5j * (T[p][q] - T[q][p])
                S = np.stack((re, im)) if im.any() else re[np.newaxis]
                yield [(p, q), (q, p)][: 1 + (p < q)], S if S.imag.any() else S.real.copy()
            return
        at_k, at_w = ([frame[c] for c in word] for frame in map(self._frame_symbols, (half, neg)))
        for orbit in _orbits(at_k, n):
            s, r = (reduce(np.multiply, (m[j] for m, j in zip(ms, orbit[0]))) for ms in (at_k, at_w))
            r = r.conj()
            yield orbit, np.stack((0.5 * (s + r), -0.5j * (s - r)))

    def word_planes(self, uh: np.ndarray, word: str):
        """(orbit, planes) per distinct frame entry of the derivative tensor of a real field,
        one at a time, from uh = rfft(u) and the word's `word_symbols`."""
        for orbit, S in self.plane_symbols if word == "zZ" else self.word_symbols(word):
            yield orbit, self.irfft(S * uh)

    @cached_property
    def _norm_stack(self) -> tuple:
        # n = 1, one entry per word: the NORM_WORDS' symbols as one stack, and each word's rows
        S = [next(self.word_symbols(w))[1] for w in NORM_WORDS]
        ends = np.cumsum([len(s) for s in S])
        return np.concatenate(S), {w: range(e - len(s), e) for w, s, e in zip(NORM_WORDS, S, ends)}

    def norm_planes(self, uh: np.ndarray, words):
        """(word, orbit, planes) per distinct frame entry of each word's tensor (`word_planes`).
        At n = 1 one `irfft` over the words' rows of the held `_norm_stack` gives them all, or
        one per word past N = 32; at n >= 2 nothing is held and each entry is taken alone."""
        if self.n > 1:
            yield from ((w, *entry) for w in words for entry in self.word_planes(uh, w))
            return
        S, rows = self._norm_stack
        # a batch past 128 KiB takes fresh pages on every call; one word's rows are a view
        for batch in [words] if len(words) > 1 and S.nbytes <= 1 << 17 else [[w] for w in words]:
            at = [r for w in batch for r in rows[w]]
            planes = iter(self.irfft((S[at] if len(batch) > 1 else S[at[0]:at[-1] + 1]) * uh))
            yield from ((w, [(0,) * len(w)], [next(planes) for _ in rows[w]]) for w in batch)

    def frame_hessian(self, uh: np.ndarray) -> list:
        """The frame Hessian u_{i jbar} of a real field from its half spectrum uh =
        rfft(u) as an n x n table of contiguous real planes (`phase.hermitian_planes`)."""
        T = [[None] * self.n for _ in range(self.n)]
        for orbit, planes in self.word_planes(uh, "zZ"):
            for (p, q), plane in zip(orbit, planes):
                T[p][q] = plane
        return T

    def mean(self, f: np.ndarray) -> complex | float:
        return f.mean(axis=self._axes)


def _orbits(symbols: list, n: int) -> list:
    """The index tuples of a derivative tensor grouped by the permutations that fix
    it: indices with the same multiplier list (`symbols` holds one per index)
    commute.  The first tuple of each orbit sorts the indices within each group."""
    groups = {}
    for k, s in enumerate(symbols):
        groups.setdefault(id(s), []).append(k)
    orbits = {}
    for idx in itertools.product(range(n), repeat=len(symbols)):
        key = tuple(tuple(sorted(idx[k] for k in pos)) for pos in groups.values())
        orbits.setdefault(key, []).append(idx)
    return list(orbits.values())


def build_torus(n: int, N: int, g) -> TorusGeometry:
    """Construct the discretized torus.

    Parameters
    ----------
    n : complex dimension, one of {1, 2, 3}
    N : grid points per real axis; power of two, >= 8
    g : n x n Hermitian positive-definite matrix (scalars and length-n
        sequences are promoted to diagonal form)
    """
    if n not in (1, 2, 3):
        raise ValueError(f"complex dimension must be 1, 2 or 3, got {n}")
    N = int(N)
    if N < 8 or (N & (N - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 8, got {N}")
    g = np.asarray(g)
    if g.ndim == 0:
        g = g * np.eye(n)
    elif g.ndim == 1:
        if g.size != n:
            raise ValueError(f"metric vector has length {g.size}, expected {n}")
        g = np.diag(g)
    g = g.astype(np.complex128)
    if g.shape != (n, n):
        raise ValueError(f"metric must be {n}x{n}, got {g.shape}")
    check_hermitian_field(g, tol=1e-14, label="metric")
    eigs = np.linalg.eigvalsh(g)
    if eigs.min() <= 0.0:
        raise ValueError("metric not positive definite")
    det_g = float(np.linalg.det(g).real)
    vol = det_g * (2.0 * np.pi) ** (2 * n)
    frame = None if np.array_equal(g, np.eye(n)) else np.linalg.inv(np.linalg.cholesky(g))
    return TorusGeometry(n=n, N=N, g=g, frame=frame, g_eig_min=float(eigs.min()),
                         det_g=det_g, vol=vol)


def complex_hessian(geom: TorusGeometry, u: np.ndarray) -> np.ndarray:
    """Complex Hessian u_{i jbar} = d/dz_i d/dzbar_j u of a real field.

    Returns a Hermitian matrix field of shape grid + (n, n): one inverse transform
    per entry on and above the diagonal, as `entries` takes it with coordinate
    indices, and their conjugates below.  Diagonal entries equal one quarter of the
    ordinary Laplacian in the (x_j, y_j) plane, so they are real for real input.
    """
    uh = geom.fft(np.asarray(u, dtype=np.float64))
    mz, mZ = geom._letter_multipliers["z"], geom._letter_multipliers["Z"]
    H = np.empty(geom.shape + (geom.n, geom.n), dtype=np.complex128)
    for p, q in itertools.combinations_with_replacement(range(geom.n), 2):
        H[..., p, q] = geom.ifft(mz[p] * mZ[q] * uh)
        if p < q:
            H[..., q, p] = H[..., p, q].conj()  # Hermitian bit for bit
    return H


def volume_integral(geom: TorusGeometry, f: np.ndarray):
    """Integral of a scalar field against the volume form det(g) dx dy.

    Exact for band-limited integrands: the rectangle rule on the periodic
    grid hits the zero Fourier mode exactly.
    """
    m = geom.mean(f)
    if np.iscomplexobj(f):
        return complex(m) * geom.vol
    return float(m) * geom.vol


def bandlimited_noise(geom: TorusGeometry, k_band: int, amplitude: float, seed: int) -> np.ndarray:
    """Reproducible real random field with Fourier support |m|_inf <= k_band.

    The field has zero mean and sup-norm equal to `amplitude`; callers
    normalize further (e.g. to a target Hessian size).  Identical arguments
    produce bit-identical fields.
    """
    if k_band < 1:
        raise ValueError("k_band must be >= 1")
    if k_band > geom.N / 3:
        raise ValueError(
            f"band exceeds dealiasing limit: k_band={k_band} > N/3={geom.N / 3:g}"
        )
    rng = np.random.default_rng(seed)
    d = 2 * geom.n
    w = 2 * k_band + 1
    block = rng.standard_normal((w,) * d) + 1j * rng.standard_normal((w,) * d)
    spec = np.zeros(geom.shape, dtype=np.complex128)
    idx = np.ix_(*[np.arange(-k_band, k_band + 1) % geom.N] * d)
    spec[idx] = block
    # Hermitian-symmetrize so the inverse transform is real; kill the mean.
    rev = tuple(slice(None, None, -1) for _ in range(d))
    spec = 0.5 * (spec + np.roll(spec[rev], 1, axis=tuple(range(d))).conj())
    spec[(0,) * d] = 0.0
    f = geom.ifft(spec).real
    if amplitude == 0.0:
        return np.zeros(geom.shape)
    peak = np.abs(f).max()
    return f * (amplitude / peak)


def check_hermitian_field(M: np.ndarray, tol: float = 1e-12,
                          label: str = "curvature input") -> None:
    """Raise if a matrix (field) is not pointwise Hermitian to relative tol.

    A non-finite entry fails the check.  The message names the checked
    quantity and, for a field of matrices, the grid point of the largest
    deviation.
    """
    dev = np.abs(M - np.conj(np.swapaxes(M, -1, -2))).max(axis=(-1, -2))
    if not dev.max() <= tol * max(1.0, float(np.abs(M).max())):
        where = ""
        if dev.ndim:
            point = np.unravel_index(int(np.argmax(dev)), dev.shape)
            where = f" at grid point {tuple(int(i) for i in point)}"
        what = "non-Hermitian" if np.isfinite(dev).all() else "non-finite"
        raise ValueError(f"{what} {label}{where}")
