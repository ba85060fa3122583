import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import dhym_lab as dl
from conftest import cos_axis
from dhym_lab import diagnostics
from dhym_lab.config_io import modes_field, parse_config_data
from dhym_lab.diagnostics import TENSOR_COLUMNS, build_record
from dhym_lab.geometry import NORM_WORDS


@pytest.fixture(scope="module")
def base1(torus1):
    return dl.BaseCurvature.proportional(torus1, 1.0)


NON_DIAGONAL_G = np.array([[2.0, 0.3j], [-0.3j, 1.0]])


def psi_base(geom):
    """F_hat = omega + ddbar psi with psi = 0.1 cos(x_1 + y_n), mixing the axes."""
    m = [1] + [0] * (2 * geom.n - 2) + [1]
    psi = modes_field(geom, [{"m": m, "amplitude": 0.1}])
    return dl.BaseCurvature(geometry=geom, F0=geom.g, psi=psi)


class TestTensorNorms:
    def test_zero(self, torus1):
        tn = dl.tensor_norms(torus1, np.zeros(torus1.shape))
        assert tn.grad_sq_sup == tn.Theta_sup == tn.ThetaP_sup == tn.Gamma_sup == 0.0

    def test_single_mode_closed_forms(self, torus1):
        a = 0.7
        u = a * cos_axis(torus1, 0)
        x = np.broadcast_to(torus1.axis_coordinate(0), torus1.shape)
        tn = dl.tensor_norms(torus1, u)
        assert np.abs(tn.grad_sq - (a**2 / 4) * np.sin(x) ** 2).max() < 1e-13
        assert np.abs(tn.Theta - (a**2 / 16) * np.cos(x) ** 2).max() < 1e-13
        assert np.abs(tn.ThetaP - (a**2 / 16) * np.cos(x) ** 2).max() < 1e-13
        assert np.abs(tn.Gamma - (a**2 / 64) * np.sin(x) ** 2).max() < 1e-13
        assert tn.hess_sup == pytest.approx(np.sqrt(2 * a**2 / 16), rel=1e-12)

    def test_resolution_doubling(self):
        # spectral exactness below the band: computing the norms of the same
        # trigonometric polynomial at N and 2N gives identical values at the
        # shared grid points (the doubled grid contains the coarse one)
        coarse = dl.build_torus(1, 32, [1.0])
        fine = dl.build_torus(1, 64, [1.0])
        u32 = dl.bandlimited_noise(coarse, 3, 1.0, 5)
        spec = coarse.fft(u32)
        lift = np.zeros(fine.shape, dtype=complex)
        lift[:16, :16] = spec[:16, :16]
        lift[:16, -16:] = spec[:16, -16:]
        lift[-16:, :16] = spec[-16:, :16]
        lift[-16:, -16:] = spec[-16:, -16:]
        u64 = fine.ifft(lift).real * (fine.num_points / coarse.num_points)
        assert np.abs(u64[::2, ::2] - u32).max() < 1e-13
        tn32 = dl.tensor_norms(coarse, u32)
        tn64 = dl.tensor_norms(fine, u64)
        for f in ("grad_sq", "Theta", "ThetaP", "Gamma"):
            a = getattr(tn32, f)
            b = getattr(tn64, f)[::2, ::2]
            assert np.abs(a - b).max() <= 1e-10 * (1 + np.abs(a).max()), f
        # the finer grid can only see a larger or equal supremum
        for f in ("grad_sq_sup", "Theta_sup", "ThetaP_sup", "Gamma_sup"):
            assert getattr(tn64, f) >= getattr(tn32, f) - 1e-12

    def test_hess_sup_is_sup_of_pointwise_sum(self, torus1):
        # u = cos x + cos y: Theta and Theta' peak at different points, so
        # sup(Theta + Theta') < sup Theta + sup Theta'
        u = cos_axis(torus1, 0) + cos_axis(torus1, 1)
        tn = dl.tensor_norms(torus1, u)
        assert tn.hess_sup**2 == pytest.approx((tn.Theta + tn.ThetaP).max(), rel=1e-12)
        assert tn.hess_sup**2 < tn.Theta_sup + tn.ThetaP_sup - 1e-3

    def test_metric_contraction(self):
        # doubling the metric scales |grad u|^2 by 1/2 and Theta by 1/4
        g1 = dl.build_torus(1, 16, [1.0])
        g2 = dl.build_torus(1, 16, [2.0])
        u = 0.3 * cos_axis(g1, 0)
        t1 = dl.tensor_norms(g1, u)
        t2 = dl.tensor_norms(g2, u)
        assert t2.grad_sq_sup == pytest.approx(t1.grad_sq_sup / 2, rel=1e-12)
        assert t2.Theta_sup == pytest.approx(t1.Theta_sup / 4, rel=1e-12)

    @pytest.mark.parametrize("n,N", [(1, 16), (2, 8)])
    def test_named_norms_are_bit_identical(self, n, N, monkeypatch):
        # hess_sup reads Theta and ThetaP: built from the words zZ and zz alone
        geom = dl.build_torus(n, N, np.eye(n))
        u = dl.bandlimited_noise(geom, 2, 0.3, 5)
        full = dl.tensor_norms(geom, u)
        norm_planes, words = dl.TorusGeometry.norm_planes, []

        def spy(g, uh, ws):  # the words of the entries the norms are built from
            for entry in norm_planes(g, uh, ws):
                words.append(entry[0])
                yield entry

        monkeypatch.setattr(dl.TorusGeometry, "norm_planes", spy)
        part = dl.tensor_norms(geom, u, ("Theta", "ThetaP"))
        assert list(dict.fromkeys(words)) == ["zZ", "zz"]
        assert part.hess_sup == full.hess_sup
        assert np.array_equal(part.Theta, full.Theta) and np.array_equal(part.ThetaP, full.ThetaP)
        assert part.grad_sq is None and part.Gamma is None
        assert np.isnan(part.grad_sq_sup) and np.isnan(part.Gamma_sup)

    @pytest.mark.parametrize("g", [[1.0], [2.0]])
    def test_standalone_norms_at_n1_form_no_symbols(self, g, monkeypatch):
        # the first call builds the geometry's stack of all norm words' symbols, once
        # each; later calls, such as the sweep's two scale calls per cell, form none
        geom = dl.build_torus(1, 32, g)
        u = dl.bandlimited_noise(geom, 2, 0.3, 5)
        word_symbols, formed = dl.TorusGeometry.word_symbols, []
        monkeypatch.setattr(dl.TorusGeometry, "word_symbols",
                            lambda g, word: formed.append(word) or word_symbols(g, word))
        first = dl.tensor_norms(geom, u, ("Theta", "ThetaP"))
        assert sorted(formed) == ["z", "zZ", "zZz", "zz"]
        formed.clear()
        again = dl.tensor_norms(geom, u, ("Theta", "ThetaP"))
        assert formed == []
        assert again.hess_sup == first.hess_sup
        assert np.isnan(dl.tensor_norms(geom, u, ()).hess_sup)


class TestQFunctional:
    def test_zero(self, torus1):
        _, sup = dl.q_functional(torus1, np.zeros(torus1.shape), 0.0)
        assert sup == 0.0

    def test_constant(self, torus1):
        c = 1.3
        _, sup = dl.q_functional(torus1, np.full(torus1.shape, c), c)
        assert sup == 0.0

    def test_assembled_closed_form(self, torus1):
        a = 0.5
        u = a * cos_axis(torus1, 0)
        x = np.broadcast_to(torus1.axis_coordinate(0), torus1.shape)
        Q, sup = dl.q_functional(torus1, u, a)  # u0 at the origin is a
        expect = (2 * (a**2 / 16) * np.cos(x) ** 2 + (a**2 / 4) * np.sin(x) ** 2
                  + 0.5 * (a * np.cos(x) - a) ** 2)
        assert np.abs(Q - expect).max() < 1e-13
        assert sup == pytest.approx(expect.max(), rel=1e-12)

    def test_positivity_validation(self):
        with pytest.raises(ValueError, match="positive"):
            dl.QConfig(K1=-1.0)


def _sups_at_n1(geom, u, dtype):
    """The four tensor norms' sups and hess_sup of u at n = 1, g = I, from u's full
    spectrum in the given float type."""
    import scipy.fft as sfft

    uh = sfft.fftn(u.astype(dtype))
    kx, ky = (geom.wavevector(a).astype(dtype) for a in (0, 1))
    mz, mZ = 0.5 * (1j * kx + ky), 0.5 * (1j * kx - ky)
    f = {name: np.abs(sfft.ifftn(m * uh)) ** 2 for name, m in (
        ("grad_sq_sup", mz), ("Theta_sup", mz * mZ), ("ThetaP_sup", mz * mz), ("Gamma_sup", mz * mZ * mz))}
    return {**{name: F.max() for name, F in f.items()},
            "hess_sup": np.sqrt((f["Theta_sup"] + f["ThetaP_sup"]).max())}


class TestBuildRecord:
    def test_run_records_at_N64_are_as_near_exact_as_the_full_spectrum(self):
        # the forward transform's rounding, times k^3 at the top modes, puts the
        # full-spectrum tensors up to ~3e-12 from the long-double norms in Gamma at
        # N = 64 late in a run (~3e-13 in Theta); the planes of the state's half
        # spectrum are held to the same bounds, so they differ from that path by as much
        cfg = parse_config_data({
            "dimension": 1, "resolution": 64, "metric": [[1.0]],
            "base_curvature": {"constant": [[1.0]], "potential": {
                "modes": [{"m": [1, 0], "amplitude": 0.2, "phase": 0.0}]}},
            "initial": {"type": "noise", "k_band": 2, "seed": 1, "target_hess_sup": 0.05},
            "time": {"t_max": 2.0, "dt_safety": 0.5, "residual_tol": 1e-10, "sample_every": 32},
            "outputs": {"dir": "run", "snapshots": "all-samples"}})
        traj = dl.run_flow(cfg.flow_config(keep_fields=None))
        bound = {"grad_sq_sup": 2e-14, "Theta_sup": 5e-13, "ThetaP_sup": 5e-13,
                 "Gamma_sup": 5e-12, "hess_sup": 2e-13}
        for rec, sample in zip(traj.records, traj.samples):
            exact = _sups_at_n1(traj.geometry, sample.u, np.longdouble)
            full = _sups_at_n1(traj.geometry, sample.u, np.float64)
            for name, tol in bound.items():
                assert abs(full[name] - exact[name]) <= tol * exact[name], (name, rec.t)
                assert abs(getattr(rec, name) - exact[name]) <= tol * exact[name], (name, rec.t)

    @pytest.mark.parametrize("n,N", [(1, 32), (2, 8)])
    def test_one_transform_gives_the_separately_built_fields(self, n, N):
        geom = dl.build_torus(n, N, np.eye(n))
        base = psi_base(geom)
        u = dl.bandlimited_noise(geom, 2, 0.05, 3)
        rec = build_record(geom, base, 0.7, 0.25, u)
        tn = dl.tensor_norms(geom, u)
        # the phase is the flow's, bit for bit, and the full-spectrum path's within rounding
        pf = dl.LineBundleFlow(geom, base, 0.7).phase_fields(geom.rfft(u))
        Z = dl.volume_integral(geom, pf.zeta)
        assert (rec.grad_sq_sup, rec.Theta_sup, rec.ThetaP_sup, rec.Gamma_sup,
                rec.hess_sup) == (tn.grad_sq_sup, tn.Theta_sup, tn.ThetaP_sup,
                                  tn.Gamma_sup, tn.hess_sup)
        assert (rec.Z_re, rec.Z_im) == (Z.real, Z.imag)
        assert (rec.theta_max, rec.theta_min) == (pf.theta.max(), pf.theta.min())
        full = dl.phase_fields(geom, base.field() + dl.complex_hessian(geom, u))
        assert abs(dl.volume_integral(geom, full.zeta) - Z) <= 1e-14 * abs(Z)
        assert np.abs(full.theta - pf.theta).max() <= 1e-14


    @pytest.mark.parametrize("n,N", [(1, 32), (1, 64), (2, 8)])
    def test_full_record_of_a_state_transforms(self, n, N, monkeypatch):
        # at n = 1 one inverse transform over all the norm words' 7 planes, or one per word
        # once the planes' stack passes 128 KiB (N >= 64); at n >= 2 one per distinct
        # entry; never a forward transform
        geom = dl.build_torus(n, N, np.eye(n))
        base = psi_base(geom)
        flow = dl.LineBundleFlow(geom, base, 0.7)
        traj = dl.Trajectory(geometry=geom, base=base, hat_theta=0.7)
        states = [flow.state(dl.bandlimited_noise(geom, 2, 0.05, 3), t) for t in (0.0, 1.0)]
        traj.record(states[0])
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            transform = getattr(dl.TorusGeometry, name)
            monkeypatch.setattr(dl.TorusGeometry, name, lambda g, f, name=name, transform=transform:
                                calls.append((name, len(f))) or transform(g, f))
        traj.record(states[1])
        if n == 1:
            assert calls == ([("irfft", 7)] if N == 32 else [("irfft", k) for k in (2, 1, 2, 2)])
        else:
            entries = sum(len(list(geom.word_symbols(w))) for w in NORM_WORDS)
            assert [name for name, _ in calls] == ["irfft"] * entries

    @pytest.mark.parametrize("n,N,g", [(1, 16, [2.0]), (2, 8, NON_DIAGONAL_G)])
    def test_phase_only_record_equals_full_record(self, n, N, g):
        # the columns a phase-only record keeps are bit for bit a full record's
        geom = dl.build_torus(n, N, g)
        base = psi_base(geom)
        u = dl.bandlimited_noise(geom, 2, 0.05, 3)
        theta = dl.LineBundleFlow(geom, base, 0.7).theta(u)
        for given in (None, theta):
            full = build_record(geom, base, 0.7, 0.25, u, theta=given, u0_at_p=0.01)
            phase_only = build_record(geom, base, 0.7, 0.25, u, theta=given, u0_at_p=0.01,
                                      norms=False)
            for name, value in dataclasses.asdict(phase_only).items():
                if name in TENSOR_COLUMNS:
                    assert np.isnan(value) and np.isfinite(getattr(full, name)), name
                else:
                    assert value == getattr(full, name), name


class TestCsvRow:
    def test_formats_each_field_as_astuple_did(self):
        # csv_row reads the fields instead of deep-copying them; the text is unchanged
        values = [0.0, -0.0, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308 / 3, math.nan,
                  np.float64(-0.0), np.float64(1e-310), 0.1, 1.0 / 3.0, -7, 1e300,
                  np.float32(0.1)]
        for shift in range(len(values)):
            rec = dl.DiagnosticsRecord(*(values[shift:] + values[:shift]))
            assert rec.csv_row() == ",".join(repr(float(v)) for v in dataclasses.astuple(rec))


class TestVerifyLinearization:
    def test_zero_direction(self, torus1, base1):
        u = 0.1 * cos_axis(torus1, 0)
        assert dl.verify_linearization(torus1, base1, u, np.zeros(torus1.shape), 1e-5) == 0.0

    def test_analytic_at_flat_point(self, torus1, base1):
        # at u = 0 over F_hat = c omega the derivative is phi_hess/(1+c^2)
        phi = cos_axis(torus1, 0)
        err = dl.verify_linearization(torus1, base1, np.zeros(torus1.shape), phi, 1e-5)
        assert err < 1e-9

    @pytest.mark.parametrize("n,N,tol", [(1, 64, 1e-6), (2, 32, 1e-6)])
    def test_random_direction_small_error(self, n, N, tol):
        geom = dl.build_torus(n, N, np.eye(n))
        base = dl.BaseCurvature.proportional(geom, 1.0)
        u = dl.bandlimited_noise(geom, 2, 1.0, 31)
        u *= 0.2 / dl.tensor_norms(geom, u).hess_sup
        phi = dl.bandlimited_noise(geom, 2, 1.0, 32)
        assert dl.verify_linearization(geom, base, u, phi, 1e-5) < tol

    def test_eps_refinement_order_two(self, torus1, base1):
        u = dl.bandlimited_noise(torus1, 2, 1.0, 41)
        u *= 0.3 / dl.tensor_norms(torus1, u).hess_sup
        phi = dl.bandlimited_noise(torus1, 2, 1.0, 42)
        errs = [dl.verify_linearization(torus1, base1, u, phi, eps)
                for eps in (8e-4, 4e-4)]
        slope = np.log2(errs[0] / errs[1])
        assert 1.6 <= slope <= 2.4

    def test_eps_range_enforced(self, torus1, base1):
        with pytest.raises(ValueError, match="eps"):
            dl.verify_linearization(torus1, base1, np.zeros(torus1.shape),
                                    cos_axis(torus1, 0), 1e-2)


def _identity_trajectory(geom, base, dt_s, delta=0.05, seed=11, n_steps=8):
    hat = dl.winding_hat_theta(geom, base.field())
    u0 = dl.bandlimited_noise(geom, 2, 1.0, seed)
    u0 *= delta / dl.tensor_norms(geom, u0).hess_sup
    return dl.run_fixed(geom, base, hat, u0, dt=dt_s, n_steps=n_steps, sample_every=1)


class TestEvolutionIdentities:
    def test_spatially_constant_exact(self, torus1, base1):
        # constant-in-space potential: only the mean drifts, central
        # differencing of u^2 is exact for the resulting quadratic-in-time
        hat = float(np.arctan(1.0)) + 0.3
        traj = dl.run_fixed(torus1, base1, hat, np.full(torus1.shape, 0.2),
                            dt=1e-3, n_steps=4, sample_every=1)
        rep = dl.verify_evolution_identity("u_sq", traj, list(traj.samples)[2].t)
        assert rep.residual_rel < 1e-12

    @pytest.mark.parametrize("which,tol", [("u_sq", 1e-4), ("grad_sq", 1e-4),
                                           ("Theta", 1e-3), ("ThetaP", 1e-3)])
    def test_flat_case_residuals_and_refinement(self, which, tol):
        geom = dl.build_torus(1, 64, [1.0])
        base = dl.BaseCurvature.proportional(geom, 1.0)
        res = []
        for dt_s in (1e-3, 5e-4):
            traj = _identity_trajectory(geom, base, dt_s)
            rep = dl.verify_evolution_identity(which, traj, list(traj.samples)[4].t)
            res.append(rep.residual_rel)
        assert res[0] <= tol
        slope = np.log2(res[0] / res[1])
        assert 1.6 <= slope <= 2.4

    def test_theta_refinement_n2(self, torus2):
        # n = 2 exercises the metric contractions of the Theta gradient terms
        # that n = 1 cannot tell apart
        base = dl.BaseCurvature.proportional(torus2, 1.0)
        res = []
        for dt_s in (1e-3, 5e-4):
            traj = _identity_trajectory(torus2, base, dt_s, seed=1, n_steps=2)
            rep = dl.verify_evolution_identity("Theta", traj, list(traj.samples)[1].t)
            res.append(rep.residual_rel)
        assert res[0] < 1e-7
        assert res[0] / res[1] >= 3.0

    @pytest.mark.parametrize("names,read", [
        (("u_sq",), []), (("grad_sq",), ["z"]), (("Theta",), ["zZ"]), (("ThetaP",), ["zz"]),
        (("u_sq", "grad_sq", "Theta", "ThetaP"), ["z", "zZ", "zz"])])
    def test_outer_samples_transform_only_read_words(self, names, read, monkeypatch):
        # the bracket's outer samples build the tensors of the named norms only:
        # never the Gamma tensor u_{i jbar k} ("zZz")
        geom = dl.build_torus(2, 8, NON_DIAGONAL_G)
        traj = _identity_trajectory(geom, psi_base(geom), 1e-3, n_steps=2)
        tensor_norms, word_planes = diagnostics.tensor_norms, dl.TorusGeometry.word_planes
        built, active = [], []  # the words of each tensor_norms call

        def spy_norms(geom, u, *args):
            built.append([])
            active.append(True)
            try:
                return tensor_norms(geom, u, *args)
            finally:
                active.pop()

        def spy_planes(geom, uh, word, *args):
            if active:
                built[-1].append(word)
            return word_planes(geom, uh, word, *args)

        monkeypatch.setattr(diagnostics, "tensor_norms", spy_norms)
        monkeypatch.setattr(dl.TorusGeometry, "word_planes", spy_planes)
        dl.verify_evolution_identities(traj, list(traj.samples)[1].t, names)
        assert built == ([read, read] if read else [])

    def test_theta_refinement_n2_non_diagonal_metric(self):
        # a conjugated frame index shows only under a metric that is not diagonal
        geom = dl.build_torus(2, 16, NON_DIAGONAL_G)
        base = dl.BaseCurvature.proportional(geom, 1.0)
        res = []
        for dt_s in (1e-3, 5e-4):
            traj = _identity_trajectory(geom, base, dt_s, seed=1, n_steps=2)
            rep = dl.verify_evolution_identity("Theta", traj, list(traj.samples)[1].t)
            res.append(rep.residual_rel)
        assert res[0] < 1e-7
        assert res[0] / res[1] >= 3.0

    def test_all_identities_non_diagonal_metric_n2(self):
        # the CLI's tolerances, on a base with a mixing potential
        geom = dl.build_torus(2, 16, NON_DIAGONAL_G)
        traj = _identity_trajectory(geom, psi_base(geom), 1e-3, n_steps=2)
        tolerances = {"u_sq": 1e-4, "grad_sq": 1e-4, "Theta": 1e-4, "ThetaP": 1e-3}
        for rep in dl.verify_evolution_identities(traj, list(traj.samples)[1].t):
            assert rep.residual_rel <= tolerances[rep.identity], rep.to_dict()

    def test_nonconstant_base_terms_retained(self):
        # a nonconstant background exercises the base-curvature derivative
        # terms of the Theta and Theta' identities
        geom = dl.build_torus(1, 64, [1.0])
        psi = 0.2 * cos_axis(geom, 0)
        base = dl.BaseCurvature(geometry=geom, F0=geom.g, psi=psi)
        for which in ("grad_sq", "Theta", "ThetaP"):
            traj = _identity_trajectory(geom, base, 1e-3)
            rep = dl.verify_evolution_identity(which, traj, list(traj.samples)[4].t)
            assert rep.residual_rel < 1e-4, which

    def test_shared_bracket_matches_single_identities(self):
        geom = dl.build_torus(2, 8, np.eye(2))
        traj = _identity_trajectory(geom, psi_base(geom), 1e-3, n_steps=2)
        t = list(traj.samples)[1].t
        together = dl.verify_evolution_identities(traj, t)
        assert [r.identity for r in together] == ["u_sq", "grad_sq", "Theta", "ThetaP"]
        for rep in together:
            alone = dl.verify_evolution_identities(traj, t, (rep.identity,))[0]
            assert rep.to_dict() == alone.to_dict()
            assert dl.verify_evolution_identity(rep.identity, traj, t) == alone

    def test_unknown_identity_rejected_before_any_transform(self, torus1, base1,
                                                            monkeypatch):
        traj = dl.run_fixed(torus1, base1, float(np.arctan(1.0)),
                            0.05 * cos_axis(torus1, 0), dt=1e-3, n_steps=2,
                            sample_every=1)

        def no_transform(self, f):
            raise AssertionError("transform before the names were checked")

        monkeypatch.setattr(dl.TorusGeometry, "fft", no_transform)
        t = list(traj.samples)[1].t
        with pytest.raises(ValueError, match="unknown evolution identity 'Gamma'"):
            dl.verify_evolution_identities(traj, t, ("u_sq", "Gamma"))
        with pytest.raises(ValueError, match="repeated evolution identity"):
            dl.verify_evolution_identities(traj, t, ("Theta", "Theta"))

    def test_insufficient_sampling(self, torus1, base1):
        traj = dl.run_fixed(torus1, base1, float(np.arctan(1.0)),
                            0.05 * cos_axis(torus1, 0), dt=1e-3, n_steps=2,
                            sample_every=1)
        with pytest.raises(ValueError, match="insufficient trajectory sampling"):
            dl.verify_evolution_identity("u_sq", traj, 0.0)


class TestDhymPointIdentities:
    def test_exact_trivial_point(self, torus1, base1):
        r1, r2 = dl.dhym_point_identities(torus1, base1, np.zeros(torus1.shape),
                                          hat_theta=float(np.arctan(1.0)))
        assert r1.residual_rel < 1e-14
        assert r2.residual_rel < 1e-14

    def test_converged_endpoint(self, torus1):
        psi = 0.2 * cos_axis(torus1, 0)
        base = dl.BaseCurvature(geometry=torus1, F0=torus1.g, psi=psi)
        hat = dl.winding_hat_theta(torus1, base.field())
        cfg = dl.FlowConfig(geometry=torus1, base=base, u0=np.zeros(torus1.shape),
                            hat_theta=hat, dt_safety=1.0, t_max=400.0,
                            residual_tol=1e-11, sample_every=1000, keep_fields=2)
        traj = dl.run_flow(cfg)
        assert traj.status == "converged"
        r1, r2 = dl.dhym_point_identities(torus1, base, traj.final.u, hat_theta=hat,
                                          residual_tol=1e-9)
        # (i) is the phase gradient, controlled by the convergence residual
        assert r1.residual_rel <= 10 * 1e-11 * (1 + torus1.N)
        assert r2.residual_rel <= 1e-6

    @pytest.mark.parametrize("n,transforms", [(2, 26), (3, 87)])
    def test_non_diagonal_metric_keeps_the_index_symmetry(self, n, transforms, monkeypatch):
        # d_i F_{p qbar} and d_i d_jbar F_{p qbar} are read with every index in
        # coordinates, so a metric costs no transforms: at n = 3 the Hessian takes 6,
        # d eta 27, dF 18 (not 27) and the second derivatives 36 (not 81), as at g = I
        rng = np.random.default_rng(n)
        B = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        geom = dl.build_torus(n, 8, B @ B.conj().T + 0.5 * np.eye(n))
        base, u = psi_base(geom), dl.bandlimited_noise(geom, 2, 0.01, 3)
        base.field()  # built before the count
        calls = []
        ifft = dl.TorusGeometry.ifft
        monkeypatch.setattr(dl.TorusGeometry, "ifft", lambda g, f: calls.append(1) or ifft(g, f))
        dl.dhym_point_identities(geom, base, u, hat_theta=0.0, residual_tol=1e9)
        assert len(calls) == transforms

    def test_nonconverged_state_rejected(self, torus1, base1):
        u = 0.5 * cos_axis(torus1, 0)  # residual around 1e-2
        with pytest.raises(ValueError, match="not a dHYM point"):
            dl.dhym_point_identities(torus1, base1, u, hat_theta=float(np.arctan(1.0)))


class TestMaximumPrinciple:
    def test_stationary_passes(self, torus1, base1):
        traj = dl.run_fixed(torus1, base1, float(np.arctan(1.0)),
                            np.zeros(torus1.shape), dt=1e-3, n_steps=4, sample_every=1)
        res = dl.maximum_principle_monitor(traj)
        assert res.passed
        assert res.worst_violation <= 0.0

    def test_small_data_run_passes(self, small_flow_run):
        assert dl.maximum_principle_monitor(small_flow_run).passed

    def test_constructed_violation_fails(self, small_flow_run):
        records = list(small_flow_run.records)
        bad = dataclasses.replace(records[3], theta_max=records[3].theta_max + 1e-3)
        records[3] = bad
        fake = SimpleNamespace(records=records, hat_theta=small_flow_run.hat_theta)
        res = dl.maximum_principle_monitor(fake)
        assert not res.passed
        assert res.location == pytest.approx(records[3].t)

    def test_needs_two_samples(self, torus1, base1):
        # a one-sample trajectory; run_fixed refuses n_steps=0
        hat = float(np.arctan(1.0))
        traj = dl.Trajectory(geometry=torus1, base=base1, hat_theta=hat)
        u = np.zeros(torus1.shape)
        traj.record(dl.LineBundleFlow(torus1, base1, hat).initial_state(u))
        with pytest.raises(ValueError, match="two samples"):
            dl.maximum_principle_monitor(traj)


class TestOscillationDecay:
    def test_constant_velocity_underflows(self, torus1, base1):
        # spatially constant du/dt has zero oscillation at every sample
        hat = float(np.arctan(1.0)) + 0.5
        traj = dl.run_fixed(torus1, base1, hat, np.zeros(torus1.shape),
                            dt=1e-3, n_steps=16, sample_every=1)
        with pytest.raises(RuntimeError, match="below floor"):
            dl.oscillation_decay(traj)

    def test_linearized_rate_recovered(self, torus1, base1):
        u0 = 0.01 * cos_axis(torus1, 0)
        cfg = dl.FlowConfig(geometry=torus1, base=base1, u0=u0,
                            hat_theta=float(np.arctan(1.0)), dt_safety=1.0,
                            t_max=60.0, residual_tol=1e-13, sample_every=64,
                            keep_fields=4)
        traj = dl.run_flow(cfg)
        fit = dl.oscillation_decay(traj)
        assert fit.rate == pytest.approx(0.125, rel=0.10)
        assert fit.r_squared > 0.99

    def test_monotone_contraction(self, small_flow_run):
        fit = dl.oscillation_decay(small_flow_run)
        assert fit.max_consecutive_ratio <= 1.0 + 1e-9


class TestHarnackMonitor:
    def test_stationary_degenerate(self, torus1, base1):
        traj = dl.run_fixed(torus1, base1, float(np.arctan(1.0)),
                            np.zeros(torus1.shape), dt=1.0 / 128, n_steps=256,
                            sample_every=16)
        with pytest.raises(ValueError, match="degenerate"):
            dl.harnack_monitor(traj, m=1)

    def test_small_data_quotients(self, small_flow_run):
        rep = dl.harnack_monitor(small_flow_run, m=1)
        assert rep.positive
        assert rep.monotone
        assert np.isfinite(rep.quotient_xi) and rep.quotient_xi >= 1.0
        assert np.isfinite(rep.quotient_psi) and rep.quotient_psi >= 1.0
        assert all(np.isfinite(c) for c in rep.fitted_constants)

    def test_corrupted_sample_flagged(self, small_flow_run):
        samples = list(small_flow_run.samples)
        k = len(samples) // 2
        bad_udot = samples[k].udot.copy()
        bad_udot[0, 0] = samples[0].udot.max() + 1.0  # breaks positivity of xi
        samples[k] = dl.FlowSample(t=samples[k].t, u=samples[k].u, udot=bad_udot)
        fake = SimpleNamespace(samples=samples, records=small_flow_run.records,
                               hat_theta=small_flow_run.hat_theta)
        rep = dl.harnack_monitor(fake, m=1)
        assert not rep.positive
        assert rep.fail_location is not None
        assert rep.fail_location[0] == pytest.approx(samples[k].t)
