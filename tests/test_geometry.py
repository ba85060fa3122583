import itertools
import re
from functools import reduce

import numpy as np
import pytest
import scipy.fft as sfft

import dhym_lab as dl
from conftest import cos_axis
from dhym_lab import diagnostics
from spectral_oracle import deriv


class TestBuildTorus:
    def test_volume_n1(self):
        geom = dl.build_torus(1, 8, [1])
        assert geom.vol == pytest.approx(4 * np.pi**2, rel=1e-15)

    def test_volume_n2_identity(self):
        geom = dl.build_torus(2, 16, np.eye(2))
        assert geom.vol == pytest.approx((2 * np.pi) ** 4, rel=1e-15)

    def test_negative_metric_rejected(self):
        with pytest.raises(ValueError, match="not positive definite"):
            dl.build_torus(1, 8, [-1])

    def test_indefinite_metric_rejected(self):
        with pytest.raises(ValueError, match="not positive definite"):
            dl.build_torus(2, 8, np.diag([1.0, -2.0]))

    def test_non_hermitian_metric_rejected(self):
        with pytest.raises(ValueError, match="non-Hermitian metric"):
            dl.build_torus(2, 8, np.array([[1.0, 0.1j], [0.1j, 1.0]]))

    def test_nan_metric_rejected(self):
        with pytest.raises(ValueError, match="non-finite metric"):
            dl.build_torus(2, 8, np.diag([1.0, np.nan]))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            dl.build_torus(1, 12, [1])

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            dl.build_torus(1, 4, [1])

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            dl.build_torus(4, 8, np.eye(4))

    def test_grid_point_count(self, torus2):
        assert torus2.num_points == 16**4
        assert torus2.shape == (16,) * 4


def _dz(geom, u, j):
    return deriv(geom, geom.fft(u), "z")[..., j]


class TestDerivatives:
    @pytest.mark.parametrize("N", [8, 16, 32, 64, 128, 256])
    def test_wavevector_is_the_fftfreq_integers(self, N):
        k = dl.build_torus(1, N, [1.0]).wavevector(1)
        expect = np.rint(sfft.fftfreq(N) * N).astype(np.int64)
        assert k.dtype == expect.dtype and np.array_equal(k.ravel(), expect)

    def test_dz_cosine(self, torus1):
        u = cos_axis(torus1, 0)
        expect = -0.5 * np.broadcast_to(np.sin(torus1.axis_coordinate(0)), torus1.shape)
        assert np.abs(_dz(torus1, u, 0) - expect).max() < 1e-14

    def test_dzbar_cosine(self, torus1):
        u = cos_axis(torus1, 0)
        expect = -0.5 * np.broadcast_to(np.sin(torus1.axis_coordinate(0)), torus1.shape)
        assert np.abs(deriv(torus1, torus1.fft(u), "Z")[..., 0] - expect).max() < 1e-14

    def test_dz_constant(self, torus1):
        assert np.abs(_dz(torus1, np.ones(torus1.shape), 0)).max() < 1e-15

    def test_dz_y_dependence(self, torus1):
        # d/dz of cos(y) is (i/2) sin(y)
        u = cos_axis(torus1, 1)
        expect = 0.5j * np.broadcast_to(np.sin(torus1.axis_coordinate(1)), torus1.shape)
        assert np.abs(_dz(torus1, u, 0) - expect).max() < 1e-14

    def test_spectral_roundtrip(self, torus2):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(torus2.shape)
        back = torus2.ifft(torus2.fft(f)).real
        assert np.abs(back - f).max() < 1e-13 * np.abs(f).max()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quarter_laplacian(self, torus1, seed):
        # d_z d_zbar equals one quarter of the planar Laplacian per axis
        u = dl.bandlimited_noise(torus1, torus1.N // 3, 1.0, seed)
        uh = torus1.fft(u)
        m = torus1.wavevector(0)
        l = torus1.wavevector(1)
        lap = torus1.ifft(-(m**2 + l**2) * uh).real
        hess = dl.complex_hessian(torus1, u)[..., 0, 0].real
        assert np.abs(hess - lap / 4).max() < 1e-12 * (1 + np.abs(lap).max())


class TestHermitianCheck:
    def test_nan_fails_and_names_point(self):
        from dhym_lab.geometry import check_hermitian_field

        M = np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2)).copy()
        M[2, 0, 0] = np.nan
        with pytest.raises(ValueError, match=r"non-finite curvature input at grid point \(2,\)"):
            check_hermitian_field(M)


class TestComplexHessian:
    def test_zero_field(self, torus1):
        H = dl.complex_hessian(torus1, np.zeros(torus1.shape))
        assert np.abs(H).max() == 0.0

    def test_cosine_n1(self, torus1):
        u = cos_axis(torus1, 0)
        H = dl.complex_hessian(torus1, u)
        assert np.abs(H[..., 0, 0] + 0.25 * u).max() < 1e-13

    def test_diagonal_n2(self, torus2):
        # u = cos x_1 + cos y_2 has Hessian diag(-cos(x_1)/4, -cos(y_2)/4)
        u = cos_axis(torus2, 0) + cos_axis(torus2, 3)
        H = dl.complex_hessian(torus2, u)
        assert np.abs(H[..., 0, 0] + 0.25 * cos_axis(torus2, 0)).max() < 1e-13
        assert np.abs(H[..., 1, 1] + 0.25 * cos_axis(torus2, 3)).max() < 1e-13
        assert np.abs(H[..., 0, 1]).max() < 1e-13

    @pytest.mark.parametrize("seed", [3, 4])
    def test_hermitian_pointwise(self, torus2, seed):
        u = dl.bandlimited_noise(torus2, 4, 1.0, seed)
        H = dl.complex_hessian(torus2, u)
        dev = np.abs(H - H.conj().swapaxes(-1, -2)).max()
        assert dev < 1e-12 * max(1.0, np.abs(H).max())

    @pytest.mark.parametrize("seed", [5, 6])
    def test_diagonal_integrates_to_zero(self, torus2, seed):
        # integration by parts on the torus: the trace entries are mean-free
        u = dl.bandlimited_noise(torus2, 4, 1.0, seed)
        H = dl.complex_hessian(torus2, u)
        for j in range(torus2.n):
            val = dl.volume_integral(torus2, H[..., j, j])
            assert abs(val) < 1e-11 * (1 + np.abs(u).max())


def _one_letter_at_a_time(geom, f_hat, word):
    """Oracle: yield (idx, entry), each letter one multiply of the spectrum.

    Entries come in index order; the spectra of the shared index prefix are
    kept and reused, and only the entry itself is transformed back.
    """
    path, prev = [f_hat], ()
    for idx in itertools.product(range(geom.n), repeat=len(word)):
        k = next((a for a, (i, j) in enumerate(zip(idx, prev)) if i != j), len(prev))
        del path[k + 1:]
        for letter, j in zip(word[k:], idx[k:]):
            mult = geom.dz_multiplier(j) if letter == "z" else geom.dzbar_multiplier(j)
            path.append(mult * path[-1])
        prev = idx
        yield idx, geom.ifft(path[-1])


class TestDerivativeKernel:
    WORDS = ("z", "zZ", "zz", "zZz", "zzz", "zzZ", "zZzZ", "zzzZ")

    @pytest.mark.parametrize("n,N", [(1, 16), (2, 8), (3, 8)])
    def test_every_word_matches_one_letter_oracle(self, n, N):
        geom = dl.build_torus(n, N, np.eye(n))
        u = dl.bandlimited_noise(geom, 2, 1.0, 20 + n)
        uh = geom.fft(u)
        for word in self.WORDS:
            D = {idx: field for orbit, field in geom.entries(uh, word, coords=len(word))
                 for idx in orbit}
            assert sorted(D) == list(itertools.product(range(n), repeat=len(word)))
            scale = max(np.abs(field).max() for field in D.values())
            for idx, expect in _one_letter_at_a_time(geom, uh, word):
                err = np.abs(D[idx] - expect).max()
                assert err <= 1e-12 * scale, (word, idx)
            del D

    def test_hessian_word_is_hermitian(self, torus2):
        u = dl.bandlimited_noise(torus2, 3, 1.0, 8)
        H = dl.complex_hessian(torus2, u)
        assert (H[..., 1, 0] == H[..., 0, 1].conj()).all()

    @pytest.mark.parametrize("metric", [False, True], ids=["I", "g"])
    @pytest.mark.parametrize("n,N", [(1, 16), (2, 8), (3, 8)])
    def test_complex_hessian_is_the_full_tensor_oracle_bit_for_bit(self, n, N, metric):
        # BaseCurvature, and through it every flow output, keeps the bits of the
        # full-tensor Hessian it was built from
        geom = dl.build_torus(n, N, random_metric(np.random.default_rng(n), n) if metric
                              else np.eye(n))
        psi = dl.bandlimited_noise(geom, 2, 0.1, n)
        expect = deriv(geom, geom.fft(psi), "zZ")
        assert np.array_equal(dl.complex_hessian(geom, psi), expect)
        base = dl.BaseCurvature(geometry=geom, F0=geom.g, psi=psi)
        assert np.array_equal(base.field(), geom.g + expect)
        if n == 2:  # the identity context holds one array per orbit of commuting indices
            ctx = diagnostics._sample_context(geom, base, dl.bandlimited_noise(geom, 2, 0.1, 5))
            assert ctx.T[0, 1, 1] is ctx.T[1, 1, 0] and ctx.S[0, 1] is ctx.S[1, 0]
            assert ctx.dF[0, 1, 1] is ctx.dF[1, 0, 1]

    @pytest.mark.parametrize("metric", [False, True], ids=["I", "g"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_complex_hessian_transforms_the_upper_triangle_only(self, n, metric, monkeypatch):
        # n(n+1)/2 inverse transforms, bit for bit the Hessian that transformed all n^2
        # entries through `entries` and dropped those below the diagonal
        geom = dl.build_torus(n, 8, random_metric(np.random.default_rng(n), n) if metric
                              else np.eye(n))
        psi = dl.bandlimited_noise(geom, 2, 0.1, n)
        expect = np.empty(geom.shape + (n, n), dtype=complex)
        for ((p, q),), field in geom.entries(geom.fft(psi), "zZ", 2):
            expect[..., p, q] = field if p <= q else expect[..., q, p].conj()
        calls, ifft = [], dl.TorusGeometry.ifft
        monkeypatch.setattr(dl.TorusGeometry, "ifft", lambda g, fh: calls.append(1) or ifft(g, fh))
        assert np.array_equal(dl.complex_hessian(geom, psi), expect)
        assert len(calls) == n * (n + 1) // 2

    @pytest.mark.parametrize("coords", [0, 1, 2])
    def test_entries_give_the_frame_tensor_one_orbit_at_a_time(self, coords):
        # each index tuple once, at the entry of deriv with its last letters taken
        # to the frame; at g = I one transform per orbit of commuting indices
        word = "zZzZ"
        for g, orbits in (([[2.0, 0.3j], [-0.3j, 1.0]], None), (np.eye(2), 9)):
            geom = dl.build_torus(2, 8, g)
            uh = geom.fft(dl.bandlimited_noise(geom, 2, 1.0, 3))
            expect = geom.to_frame(deriv(geom, uh, word), word[coords:])
            scale, seen, count = np.abs(expect).max(), [], 0
            for orbit, field in geom.entries(uh, word, coords):
                count += 1
                for idx in orbit:
                    assert np.abs(field - expect[(Ellipsis,) + idx]).max() <= 1e-13 * scale, idx
                    seen.append(idx)
            assert sorted(seen) == list(itertools.product(range(2), repeat=len(word)))
            if orbits is not None:
                assert count == orbits

    @pytest.mark.parametrize("word", ["", "zx", "dz"])
    def test_bad_word_rejected(self, torus1, word):
        with pytest.raises(ValueError, match="derivative word"):
            next(torus1.entries(torus1.fft(np.zeros(torus1.shape)), word))


def assert_planes_match_deriv(geom, u):
    """The plane kernel: the frame Hessian as n^2 real planes, each contiguous,
    against the frame form of `deriv`'s Hessian."""
    T = geom.frame_hessian(geom.rfft(u))
    expect = geom.to_frame(deriv(geom, geom.fft(u), "zZ"), "zZ")
    scale = np.abs(expect).max()
    for p, q in itertools.product(range(geom.n), repeat=2):
        want = expect[..., p, q].real if p <= q else expect[..., q, p].imag
        assert T[p][q].dtype == np.float64 and T[p][q].flags.c_contiguous
        assert np.abs(T[p][q] - want).max() <= 1e-13 * scale, (p, q)


class TestHalfSpectrum:
    """The half-spectrum calculus of the flow against the full-spectrum kernel."""

    @pytest.mark.parametrize("n,metric", [(2, False), (2, True), (3, False), (3, True)])
    def test_frame_hessian_matches_deriv_at_nyquist(self, n, metric):
        # white noise fills the Nyquist modes, where the mixed symbols are not even
        # in k and deriv's Hessian takes S_ij at k above the diagonal, at -k below
        rng = np.random.default_rng(n)
        B = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        geom = dl.build_torus(n, 8, B @ B.conj().T + np.eye(n) if metric else np.eye(n))
        assert_planes_match_deriv(geom, rng.standard_normal(geom.shape))

    @pytest.mark.parametrize("n,N", [(1, 16), (2, 8), (3, 8)])
    def test_half_hessian_matches_deriv(self, n, N):
        rng = np.random.default_rng(n)
        B = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        geom = dl.build_torus(n, N, B @ B.conj().T + np.eye(n))
        u = dl.bandlimited_noise(geom, 2, 1.0, 30 + n)
        uh = geom.rfft(u)
        assert uh.shape == geom.shape[:-1] + (N // 2 + 1,)
        assert np.abs(geom.irfft(uh) - u).max() < 1e-15
        assert_planes_match_deriv(geom, u)
        # the symbols are those of the full grid on its first N/2 + 1 columns
        for j in range(n):
            for c, full in (("z", geom.dz_multiplier(j)), ("Z", geom.dzbar_multiplier(j))):
                half = np.broadcast_to(geom.half_symbols[c][j], uh.shape)
                assert np.array_equal(half, np.broadcast_to(full, u.shape)[..., : N // 2 + 1])


def random_metric(rng, n):
    B = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return B @ B.conj().T + np.eye(n)


def per_plane_frame_hessian(geom, uh):
    """The frame Hessian as it was first built from the half spectrum: one symbol
    and one real inverse transform per plane, each over the 2n grid axes."""
    n, P, idx, half = geom.n, geom.frame, range(geom.n), geom.half_symbols
    w = [np.where(k == -(geom.N // 2), k, -k)[..., : geom.N // 2 + 1]
         for k in map(geom.wavevector, range(2 * n))]
    neg = {"z": [0.5 * (1j * w[j] + w[n + j]) for j in idx],
           "Z": [0.5 * (1j * w[j] - w[n + j]) for j in idx]}
    H = [[(half if i <= j else neg)["z"][i] * (half if i <= j else neg)["Z"][j] for j in idx]
         for i in idx]
    T = H if P is None else [[reduce(np.add, (P[p, i] * P[q, j].conj() * H[i][j]
                                              for i in idx for j in idx)) for q in idx] for p in idx]
    planes = [(p, q, 0.5 * (T[p][q] + T[q][p])) for p in idx for q in idx if p <= q]
    planes += [(q, p, -0.5j * (T[p][q] - T[q][p])) for p in idx for q in idx if p < q]
    out = [[None] * n for _ in idx]
    for p, q, s in planes:
        s = s if s.imag.any() else s.real.copy()
        out[p][q] = sfft.irfftn(s * uh, s=geom.shape, axes=tuple(range(2 * n)), workers=1)
    return out


class TestWordKernel:
    """Each distinct frame entry of a real field's tensor as real planes of the half
    spectrum (`word_planes`) against the full-spectrum kernel `deriv`."""

    @pytest.mark.parametrize("metric", [False, True], ids=["I", "g"])
    @pytest.mark.parametrize("n,N", [(1, 16), (2, 8), (3, 8)])
    def test_every_norm_word_matches_deriv(self, n, N, metric):
        # white noise fills the Nyquist modes, where no symbol of a mixed or odd word
        # is even in k
        rng = np.random.default_rng(10 * n + metric)
        geom = dl.build_torus(n, N, random_metric(rng, n) if metric else np.eye(n))
        u = rng.standard_normal(geom.shape)
        for word in ("z", "zZ", "zz", "zZz"):
            expect = geom.to_frame(deriv(geom, geom.fft(u), word), word)
            scale, seen = np.abs(expect).max(), []
            for orbit, planes in geom.word_planes(geom.rfft(u), word):
                assert planes.dtype == np.float64 and len(planes) in (1, 2)
                assert all(plane.flags.c_contiguous for plane in planes)
                field = planes[0] if len(planes) == 1 else planes[0] + 1j * planes[1]
                # a Hermitian "zZ" entry stands for its conjugate at the transposed index
                for k, idx in enumerate(orbit):
                    got = field.conj() if word == "zZ" and k else field
                    assert np.abs(got - expect[(Ellipsis,) + idx]).max() <= 1e-13 * scale, (word, idx)
                    seen.append(idx)
            assert sorted(seen) == list(itertools.product(range(n), repeat=len(word))), word

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("n,N,metric", [(1, 32, False), (1, 32, True), (2, 8, False),
                                            (2, 16, True), (3, 8, False), (3, 8, True)])
    def test_frame_hessian_is_the_per_plane_oracle_bit_for_bit(self, n, N, metric, threads,
                                                               monkeypatch):
        monkeypatch.setenv("DHYM_THREADS", threads)
        rng = np.random.default_rng(n + N)
        geom = dl.build_torus(n, N, random_metric(rng, n) if metric else np.eye(n))
        uh = geom.rfft(rng.standard_normal(geom.shape))
        for row, oracle_row in zip(geom.frame_hessian(uh), per_plane_frame_hessian(geom, uh)):
            for plane, oracle in zip(row, oracle_row):
                assert np.array_equal(plane, oracle)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("n,N", [(1, 32), (1, 64), (2, 16), (2, 32), (3, 8)])
    def test_stacked_planes_transform_as_alone(self, n, N, threads, monkeypatch):
        # one inverse transform per entry over its two planes changes no plane's bits
        monkeypatch.setenv("DHYM_THREADS", threads)
        geom = dl.build_torus(n, N, np.eye(n))
        rng = np.random.default_rng(N)
        half = geom.shape[:-1] + (N // 2 + 1,)
        spec = rng.standard_normal((2,) + half) + 1j * rng.standard_normal((2,) + half)
        stacked = geom.irfft(spec)
        assert stacked.shape == (2,) + geom.shape
        for plane, alone in zip(stacked, spec):
            assert np.array_equal(plane, geom.irfft(alone))

    @pytest.mark.parametrize("n", [1, 2])
    def test_geometry_holds_norm_symbols_at_n1_only(self, n):
        # after a full record and a standalone tensor_norms the geometry holds the Hessian's
        # symbols, and at n = 1 the norm words' stack: 7 planes, one entry per word; at
        # n >= 2 the norms build each entry's symbols when they reach it
        geom = dl.build_torus(n, 8, random_metric(np.random.default_rng(1), n))
        base = dl.BaseCurvature(geometry=geom, F0=np.eye(n))
        flow = dl.LineBundleFlow(geom, base, 0.0)
        u = dl.bandlimited_noise(geom, 2, 0.05, 1)
        traj = dl.Trajectory(geometry=geom, base=base, hat_theta=0.0)
        traj.record(flow.state(u))
        dl.tensor_norms(geom, u)
        held = set(vars(geom)) - set(vars(dl.build_torus(n, 8, np.eye(n))))
        hessians = {"_letter_multipliers", "half_symbols", "plane_symbols"}
        if n == 1:
            assert held == hessians | {"_norm_stack"}
            assert geom._norm_stack[0].shape == (7, 8, 5)
        else:
            assert held <= hessians


FRAMED_G = np.array([[2.0, 0.3j], [-0.3j, 1.0]])


def same(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


class TestKernelEntry:
    """The four transforms call pocketfft's kernels; scipy.fft's n-D functions, which end
    in the same kernels with the same arguments, are the oracle, bit for bit."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("n,N,g", [(1, 32, "I"), (1, 64, "I"), (2, 8, "I"), (2, 8, "g"),
                                       (2, 16, "I"), (2, 16, "g"), (3, 8, "I")])
    def test_each_transform_is_scipys(self, n, N, g, threads, monkeypatch):
        monkeypatch.setenv("DHYM_THREADS", threads)
        w, grid = int(threads), tuple(range(2 * n))
        geom = dl.build_torus(n, N, FRAMED_G if g == "g" else np.eye(n))
        rng = np.random.default_rng(n * N)
        u = rng.standard_normal(geom.shape)
        c = u + 1j * rng.standard_normal(geom.shape)
        H = deriv(geom, geom.fft(c), "zZ")  # trailing (n, n) axes, held first: a strided view
        real = {"real": u, ".real of complex": c.real, "trailing": H.real}
        for name, f in {**real, "complex": c, "complex trailing": H}.items():
            assert same(geom.fft(f), sfft.fftn(f, axes=grid, workers=w)), name
            assert same(geom.ifft(f), sfft.ifftn(f, axes=grid, workers=w)), name
        for name, f in real.items():
            assert same(geom.rfft(f), sfft.rfftn(f, axes=grid, workers=w)), name
        uh = geom.rfft(u)
        stack = np.stack((uh, 2j * uh))
        spectra = {"half": uh, "real half": uh.real, "stack": stack, "reversed stack": stack[::-1],
                   "strided": np.moveaxis(stack, 0, -1)[..., 1]}
        for orbit, S in geom.word_symbols("zz"):
            spectra[f"zz planes {orbit[0]}"] = S * uh
        if n == 1:
            spectra["norm stack rows"] = geom._norm_stack[0][1:3] * uh
        for name, fh in spectra.items():
            assert same(geom.irfft(fh), sfft.irfftn(fh, s=geom.shape, workers=w)), name

    def test_rfft_refuses_complex_input(self, torus1):
        # a plain float64 cast would only warn and drop the imaginary part
        with pytest.raises(TypeError, match="real field"):
            torus1.rfft(np.ones(torus1.shape, dtype=complex))

    @pytest.mark.parametrize("n,N,shape", [(1, 32, (32, 16)), (1, 32, (32, 18)), (1, 32, (16, 17)),
                                           (1, 32, (17,)), (2, 8, (8, 8, 8, 8)),
                                           (2, 8, (8, 4, 8, 5)), (2, 8, (3, 8, 8, 4, 5))])
    def test_irfft_refuses_a_spectrum_of_another_grid(self, n, N, shape):
        # scipy's s= would pad or cut these, and pocketfft checks the last axis only
        geom = dl.build_torus(n, N, np.eye(n))
        half = geom.shape[:-1] + (N // 2 + 1,)
        with pytest.raises(ValueError, match=re.escape(f"grid axes {half}, got a spectrum of "
                                                       f"shape {shape}")):
            geom.irfft(np.ones(shape, dtype=complex))

    @pytest.mark.parametrize("n,N", [(1, 16), (2, 8)])
    def test_flow_and_records_bypass_scipys_dispatch(self, n, N, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a transform went through scipy.fft's dispatch")

        for name in ("fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(sfft, name, refuse)
        geom = dl.build_torus(n, N, FRAMED_G if n == 2 else np.eye(n))
        psi = dl.bandlimited_noise(geom, 2, 0.05, 3)
        base = dl.BaseCurvature(geometry=geom, F0=geom.g, psi=psi)
        flow = dl.LineBundleFlow(geom, base, n * np.pi / 4)
        u = dl.bandlimited_noise(geom, 2, 0.02, 4)
        state = dl.etdrk4_step(flow.initial_state(u), 4 * dl.stable_dt(geom, 0.5))
        traj = dl.Trajectory(geometry=geom, base=base, hat_theta=flow.hat_theta)
        traj.record(state)
        assert np.isfinite(traj.records[0].hess_sup)
        assert np.isfinite(dl.tensor_norms(geom, u).hess_sup)
        assert np.isfinite(dl.complex_hessian(geom, u)).all()


class TestVolumeIntegral:
    def test_constant(self, torus1):
        assert dl.volume_integral(torus1, np.ones(torus1.shape)) == pytest.approx(
            4 * np.pi**2, rel=1e-15)

    def test_mean_zero_mode(self, torus1):
        assert abs(dl.volume_integral(torus1, cos_axis(torus1, 0))) < 1e-13

    def test_scaled_metric(self):
        geom = dl.build_torus(1, 8, [2.0])
        f = 2.0 + cos_axis(geom, 0)
        assert dl.volume_integral(geom, f) == pytest.approx(16 * np.pi**2, rel=1e-14)

    def test_linearity(self, torus1):
        rng = np.random.default_rng(9)
        f = rng.standard_normal(torus1.shape)
        g = rng.standard_normal(torus1.shape)
        lhs = dl.volume_integral(torus1, 2.0 * f + 3.0 * g)
        rhs = 2.0 * dl.volume_integral(torus1, f) + 3.0 * dl.volume_integral(torus1, g)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestBandlimitedNoise:
    def test_deterministic(self, torus1):
        a = dl.bandlimited_noise(torus1, 2, 1.0, 7)
        b = dl.bandlimited_noise(torus1, 2, 1.0, 7)
        assert (a == b).all()

    def test_zero_amplitude(self, torus1):
        f = dl.bandlimited_noise(torus1, 2, 0.0, 7)
        assert (f == 0).all()

    def test_band_too_large(self, torus1):
        with pytest.raises(ValueError, match="dealiasing"):
            dl.bandlimited_noise(torus1, torus1.N // 2, 1.0, 7)

    def test_zero_mean_and_amplitude(self, torus1):
        f = dl.bandlimited_noise(torus1, 2, 0.37, 11)
        assert abs(f.mean()) < 1e-15
        assert np.abs(f).max() == pytest.approx(0.37, rel=1e-14)

    def test_fourier_support(self, torus1):
        k_band = 3
        f = dl.bandlimited_noise(torus1, k_band, 1.0, 13)
        fh = torus1.fft(f)
        m = np.abs(torus1.wavevector(0))
        l = np.abs(torus1.wavevector(1))
        outside = (np.maximum(m, l) > k_band)
        mask = np.broadcast_to(outside, fh.shape)
        assert np.abs(fh[mask]).max() < 1e-12 * np.abs(fh).max()


class TestWorkerCap:
    def test_env_var_respected(self, monkeypatch):
        from dhym_lab.geometry import _workers

        monkeypatch.setenv("DHYM_THREADS", "2")
        assert _workers() == 2

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_env_var_named(self, monkeypatch, value):
        from dhym_lab.geometry import _workers

        monkeypatch.setenv("DHYM_THREADS", value)
        with pytest.raises(ValueError, match="DHYM_THREADS"):
            _workers()

    def test_worker_count_does_not_change_results(self, torus1, torus2, monkeypatch):
        f = dl.bandlimited_noise(torus1, 3, 1.0, 2)
        f2 = dl.bandlimited_noise(torus2, 3, 1.0, 2)
        # a non-diagonal metric, so the norms go through the frame
        framed = dl.build_torus(2, 16, np.array([[2.0, 0.3j], [-0.3j, 1.0]]))
        fields = ("grad_sq", "Theta", "ThetaP", "Gamma")
        results = []
        for threads in ("1", "4"):
            monkeypatch.setenv("DHYM_THREADS", threads)
            results.append([dl.complex_hessian(torus1, f)] + [
                getattr(dl.tensor_norms(geom, u), name)
                for geom, u in ((torus1, f), (torus2, f2), (framed, f2)) for name in fields])
        for a, b in zip(*results):
            assert a.tobytes() == b.tobytes()
