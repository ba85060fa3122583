import dataclasses
import itertools
import math
from functools import reduce
from operator import add
from types import SimpleNamespace

import numpy as np
import pytest

import dhym_lab as dl
from conftest import cos_axis, run_sampled
from dhym_lab import diagnostics
from dhym_lab.config_io import modes_field, parse_config_data
from dhym_lab.diagnostics import TENSOR_COLUMNS, build_record
from dhym_lab.geometry import NORM_WORDS
from dhym_lab.phase import eta_pair
from spectral_oracle import base_field, complex_hessian, phase_fields


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
        traj, samples = run_sampled(dl.run_flow, cfg.flow_config())
        bound = {"grad_sq_sup": 2e-14, "Theta_sup": 5e-13, "ThetaP_sup": 5e-13,
                 "Gamma_sup": 5e-12, "hess_sup": 2e-13}
        for rec, sample in zip(traj.records, samples):
            exact = _sups_at_n1(traj.flow.geometry, sample.u, np.longdouble)
            full = _sups_at_n1(traj.flow.geometry, sample.u, np.float64)
            for name, tol in bound.items():
                assert abs(full[name] - exact[name]) <= tol * exact[name], (name, rec.t)
                assert abs(getattr(rec, name) - exact[name]) <= tol * exact[name], (name, rec.t)

    @pytest.mark.parametrize("n,N", [(1, 32), (2, 8)])
    def test_one_transform_gives_the_separately_built_fields(self, n, N):
        geom = dl.build_torus(n, N, np.eye(n))
        base = psi_base(geom)
        u = dl.bandlimited_noise(geom, 2, 0.05, 3)
        flow = dl.LineBundleFlow(base, 0.7)
        rec = build_record(flow.state(u, 0.25))
        tn = dl.tensor_norms(geom, u)
        # the phase is the flow's, bit for bit, and the full-spectrum path's within rounding
        pf = flow.phase_fields(geom.rfft(u))
        Z = dl.volume_integral(geom, pf.zeta)
        assert (rec.grad_sq_sup, rec.Theta_sup, rec.ThetaP_sup, rec.Gamma_sup,
                rec.hess_sup) == (tn.grad_sq_sup, tn.Theta_sup, tn.ThetaP_sup,
                                  tn.Gamma_sup, tn.hess_sup)
        assert (rec.Z_re, rec.Z_im) == (Z.real, Z.imag)
        assert (rec.theta_max, rec.theta_min) == (pf.theta.max(), pf.theta.min())
        full = phase_fields(geom, base_field(base) + complex_hessian(geom, u))
        assert abs(dl.volume_integral(geom, full.zeta) - Z) <= 1e-14 * abs(Z)
        assert np.abs(full.theta - pf.theta).max() <= 1e-14


    @pytest.mark.parametrize("n,N", [(1, 32), (1, 64), (2, 8)])
    def test_full_record_of_a_state_transforms(self, n, N, monkeypatch):
        # at n = 1 one inverse transform over all the norm words' 7 planes, or one per word
        # once the planes' stack passes 128 KiB (N >= 64); at n >= 2 one per distinct
        # entry; never a forward transform
        geom = dl.build_torus(n, N, np.eye(n))
        base = psi_base(geom)
        flow = dl.LineBundleFlow(base, 0.7)
        traj = dl.Trajectory(flow)
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
        state = dl.LineBundleFlow(base, 0.7).state(dl.bandlimited_noise(geom, 2, 0.05, 3), 0.25)
        full = build_record(state, u0_at_p=0.01)
        phase_only = build_record(state, u0_at_p=0.01, norms=False)
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
        flow = dl.LineBundleFlow(base1)
        assert dl.verify_linearization(flow, u, np.zeros(torus1.shape), 1e-5) == 0.0

    def test_analytic_at_flat_point(self, torus1, base1):
        # at u = 0 over F_hat = c omega the derivative is phi_hess/(1+c^2)
        phi = cos_axis(torus1, 0)
        err = dl.verify_linearization(dl.LineBundleFlow(base1), np.zeros(torus1.shape), phi, 1e-5)
        assert err < 1e-9

    @pytest.mark.parametrize("n,N,tol", [(1, 64, 1e-6), (2, 32, 1e-6)])
    def test_random_direction_small_error(self, n, N, tol):
        geom = dl.build_torus(n, N, np.eye(n))
        base = dl.BaseCurvature.proportional(geom, 1.0)
        u = dl.bandlimited_noise(geom, 2, 1.0, 31)
        u *= 0.2 / dl.tensor_norms(geom, u).hess_sup
        phi = dl.bandlimited_noise(geom, 2, 1.0, 32)
        assert dl.verify_linearization(dl.LineBundleFlow(base), u, phi, 1e-5) < tol

    def test_eps_refinement_order_two(self, torus1, base1):
        u = dl.bandlimited_noise(torus1, 2, 1.0, 41)
        u *= 0.3 / dl.tensor_norms(torus1, u).hess_sup
        phi = dl.bandlimited_noise(torus1, 2, 1.0, 42)
        errs = [dl.verify_linearization(dl.LineBundleFlow(base1), u, phi, eps)
                for eps in (8e-4, 4e-4)]
        slope = np.log2(errs[0] / errs[1])
        assert 1.6 <= slope <= 2.4

    def test_reads_the_flow_planes_only(self, monkeypatch):
        # the phases and eta^{-1} come from the flow's half spectra: no full-spectrum
        # transform, so no coordinate curvature field, under a potential and a metric
        geom = dl.build_torus(2, 8, NON_DIAGONAL_G)
        flow = dl.LineBundleFlow(psi_base(geom), 0.0)
        u, phi = (dl.bandlimited_noise(geom, 2, a, s) for a, s in ((0.05, 3), (1.0, 4)))
        for name in ("fft", "ifft"):
            monkeypatch.setattr(dl.TorusGeometry, name, fails_on_full_spectrum)
        assert dl.verify_linearization(flow, u, phi, 1e-5) < 1e-6

    def test_eps_range_enforced(self, torus1, base1):
        with pytest.raises(ValueError, match="eps"):
            dl.verify_linearization(dl.LineBundleFlow(base1), np.zeros(torus1.shape),
                                    cos_axis(torus1, 0), 1e-2)


def fails_on_full_spectrum(geom, f):
    raise AssertionError("a full-spectrum transform ran")


def _identity_samples(geom, base, dt_s, delta=0.05, seed=11, n_steps=8):
    """(flow, samples) of a fixed-step run that records every step."""
    u0 = dl.bandlimited_noise(geom, 2, 1.0, seed)
    u0 *= delta / dl.tensor_norms(geom, u0).hess_sup
    flow = dl.LineBundleFlow(base)
    return flow, run_sampled(dl.run_fixed, flow, u0, dt=dt_s, n_steps=n_steps,
                             sample_every=1)[1]


def _identity_reports(flow, samples, j) -> dict:
    """The four evolution identity reports on the bracket centred on sample j, by name."""
    return {rep.identity: rep
            for rep in dl.verify_evolution_identities(flow, samples[j - 1:j + 2])}


class TestEvolutionIdentities:
    def test_spatially_constant_exact(self, torus1, base1):
        # constant-in-space potential: only the mean drifts, central
        # differencing of u^2 is exact for the resulting quadratic-in-time
        hat = float(np.arctan(1.0)) + 0.3
        flow = dl.LineBundleFlow(base1, hat)
        _, samples = run_sampled(dl.run_fixed, flow, np.full(torus1.shape, 0.2),
                                 dt=1e-3, n_steps=4, sample_every=1)
        rep = _identity_reports(flow, samples, 2)["u_sq"]
        assert rep.residual_rel < 1e-12

    @pytest.mark.parametrize("which,tol", [("u_sq", 1e-4), ("grad_sq", 1e-4),
                                           ("Theta", 1e-3), ("ThetaP", 1e-3)])
    def test_flat_case_residuals_and_refinement(self, which, tol):
        geom = dl.build_torus(1, 64, [1.0])
        base = dl.BaseCurvature.proportional(geom, 1.0)
        res = []
        for dt_s in (1e-3, 5e-4):
            rep = _identity_reports(*_identity_samples(geom, base, dt_s), 4)[which]
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
            flow, samples = _identity_samples(torus2, base, dt_s, seed=1, n_steps=2)
            rep = _identity_reports(flow, samples, 1)["Theta"]
            res.append(rep.residual_rel)
        assert res[0] < 1e-7
        assert res[0] / res[1] >= 3.0

    def test_outer_samples_transform_only_read_words(self, monkeypatch):
        # the bracket's outer samples build the tensors of the three norms the
        # identities read: never the Gamma tensor u_{i jbar k} ("zZz")
        geom = dl.build_torus(2, 8, NON_DIAGONAL_G)
        flow, samples = _identity_samples(geom, psi_base(geom), 1e-3, n_steps=2)
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
        dl.verify_evolution_identities(flow, samples)
        assert built == [["z", "zZ", "zz"]] * 2

    def test_theta_refinement_n2_non_diagonal_metric(self):
        # a conjugated frame index shows only under a metric that is not diagonal
        geom = dl.build_torus(2, 16, NON_DIAGONAL_G)
        base = dl.BaseCurvature.proportional(geom, 1.0)
        res = []
        for dt_s in (1e-3, 5e-4):
            flow, samples = _identity_samples(geom, base, dt_s, seed=1, n_steps=2)
            rep = _identity_reports(flow, samples, 1)["Theta"]
            res.append(rep.residual_rel)
        assert res[0] < 1e-7
        assert res[0] / res[1] >= 3.0

    def test_all_identities_non_diagonal_metric_n2(self):
        # the CLI's tolerances, on a base with a mixing potential
        geom = dl.build_torus(2, 16, NON_DIAGONAL_G)
        flow, samples = _identity_samples(geom, psi_base(geom), 1e-3, n_steps=2)
        tolerances = {"u_sq": 1e-4, "grad_sq": 1e-4, "Theta": 1e-4, "ThetaP": 1e-3}
        for rep in dl.verify_evolution_identities(flow, samples):
            assert rep.residual_rel <= tolerances[rep.identity], rep.to_dict()

    def test_nonconstant_base_terms_retained(self):
        # a nonconstant background exercises the base-curvature derivative
        # terms of the Theta and Theta' identities
        geom = dl.build_torus(1, 64, [1.0])
        psi = 0.2 * cos_axis(geom, 0)
        base = dl.BaseCurvature(geometry=geom, F0=geom.g, psi=psi)
        reports = _identity_reports(*_identity_samples(geom, base, 1e-3), 4)
        for which in ("grad_sq", "Theta", "ThetaP"):
            assert reports[which].residual_rel < 1e-4, which

    def test_shared_bracket_matches_single_identities(self):
        # each report is the one its identity gets alone, from a fresh context of the
        # centre: the shared bracket and the drop schedule change no bit
        geom = dl.build_torus(2, 8, np.eye(2))
        flow, samples = _identity_samples(geom, psi_base(geom), 1e-3, n_steps=2)
        together = dl.verify_evolution_identities(flow, samples)
        assert [r.identity for r in together] == ["u_sq", "grad_sq", "Theta", "ThetaP"]
        prev, mid, nxt, dt_s = diagnostics._bracket(samples)
        outer = [dl.tensor_norms(geom, s.u) for s in (prev, nxt)]
        for rep in together:
            ctx = diagnostics._sample_context(flow, mid.u)
            if rep.identity == "u_sq":
                q_prev, q_mid, q_next = (np.asarray(s.u) ** 2 for s in (prev, mid, nxt))
            else:
                table = {"grad_sq": ctx.du, "Theta": ctx.H, "ThetaP": ctx.S}[rep.identity]
                q_mid = sum(x.real ** 2 + x.imag ** 2 for x in table.values())
                q_prev, q_next = (getattr(tn, rep.identity) for tn in outer)
            rhs = diagnostics._identity_rhs(geom, rep.identity, ctx, flow.hat_theta, mid.u)
            lap = diagnostics._eta_laplacian(ctx.eta_inv, geom.frame_hessian(geom.rfft(q_mid)))
            lhs = (q_next - q_prev) / (2.0 * dt_s) - lap
            assert rep == diagnostics._report(rep.identity, lhs, rhs, float(mid.t), dt_s, geom.N)

    def test_each_table_dropped_after_its_last_reader(self, monkeypatch):
        # theta goes after u_sq, du after grad_sq and H after Theta: each right side
        # finds only the context tables it and the later ones read
        geom = dl.build_torus(2, 8, np.eye(2))
        flow, samples = _identity_samples(geom, psi_base(geom), 1e-3, n_steps=2)
        identity_rhs, held = diagnostics._identity_rhs, {}
        tables = ("theta", "du", "H", "S", "T", "dF")

        def spy(geom, which, ctx, *args):
            held[which] = {k for k in tables if hasattr(ctx, k)}
            return identity_rhs(geom, which, ctx, *args)

        monkeypatch.setattr(diagnostics, "_identity_rhs", spy)
        dl.verify_evolution_identities(flow, samples)
        assert held == {"u_sq": set(tables), "grad_sq": set(tables) - {"theta"},
                        "Theta": {"H", "S", "T", "dF"}, "ThetaP": {"S", "T", "dF"}}

    def test_insufficient_sampling(self, torus1, base1):
        # a bracket is three samples at two positive, equal spacings
        flow = dl.LineBundleFlow(base1, float(np.arctan(1.0)))
        _, s = run_sampled(dl.run_fixed, flow, 0.05 * cos_axis(torus1, 0), dt=1e-3,
                           n_steps=3, sample_every=1)
        for bracket in (s[:2], s, [s[0], s[1], s[3]], s[2::-1], [s[1], s[1], s[1]]):
            with pytest.raises(ValueError, match="insufficient trajectory sampling"):
                dl.verify_evolution_identities(flow, bracket)


def sandwich(Hinv, Y):
    """W[x][y] = sum_{a,b} Hinv[..., b, x] Y[a][b] Hinv[..., y, a], the eta-inverse pair
    around an n x n table Y of fields, built whole: the oracle of `_mix`."""
    idx = range(Hinv.shape[-1])
    Z = [[reduce(add, (Y[a][b] * Hinv[..., b, x] for b in idx)) for x in idx] for a in idx]
    return [[reduce(add, (Hinv[..., y, a] * Z[a][x] for a in idx)) for y in idx] for x in idx]


class TestMix:
    @pytest.mark.parametrize("metric", [False, True], ids=["I", "g"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_streamed_mix_is_the_sandwich_form_bit_for_bit(self, n, metric):
        # `_mix` goes one free index x at a time; the oracle builds the whole eta-inverse
        # sandwich W first, then sums W[x][y] sum_i dF[i, x, y] c[i] in x-major, y-minor order
        rng = np.random.default_rng(10 * n + metric)
        idx = range(n)
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        geom = dl.build_torus(n, 8, B @ B.conj().T + np.eye(n) if metric else np.eye(n))

        def field(*shape):  # a batch of 64 points stands in for the grid
            return rng.standard_normal((64,) + shape) + 1j * rng.standard_normal((64,) + shape)

        X = field(n, n)
        _, Hinv = eta_pair(geom.to_frame(X + np.swapaxes(X.conj(), -1, -2), "zZ"))
        Y = [[field() for _ in idx] for _ in idx]
        dF = {}
        for i, x, y in itertools.product(idx, repeat=3):  # d_i F_{x ybar}: i and x commute
            dF[i, x, y] = dF[x, i, y] if (x, i, y) in dF else field()
        c = [field() for _ in idx]
        W = sandwich(Hinv, Y)

        def G(x, y):
            return reduce(add, (dF[i, x, y] * c[i] for i in idx))

        expect = reduce(add, (W[x][y] * G(x, y) for x in idx for y in idx))
        assert np.array_equal(diagnostics._mix(Hinv, lambda a, b: Y[a][b], G), expect)


class TestDhymPointIdentities:
    def test_exact_trivial_point(self, torus1, base1):
        r1, r2 = dl.dhym_point_identities(dl.LineBundleFlow(base1, float(np.arctan(1.0))),
                                          np.zeros(torus1.shape))
        assert r1.residual_rel < 1e-14
        assert r2.residual_rel < 1e-14

    def test_converged_endpoint(self, torus1):
        psi = 0.2 * cos_axis(torus1, 0)
        base = dl.BaseCurvature(geometry=torus1, F0=torus1.g, psi=psi)
        cfg = dl.FlowConfig(flow=dl.LineBundleFlow(base), u0=np.zeros(torus1.shape),
                            dt_safety=1.0, t_max=400.0, residual_tol=1e-11, sample_every=1000)
        traj = dl.run_flow(cfg)
        assert traj.status == "converged"
        r1, r2 = dl.dhym_point_identities(cfg.flow, traj.final.u, residual_tol=1e-9)
        # (i) is the phase gradient, controlled by the convergence residual
        assert r1.residual_rel <= 10 * 1e-11 * (1 + torus1.N)
        assert r2.residual_rel <= 1e-6

    @pytest.mark.parametrize("n,transforms,planes", [(2, 23, 3), (3, 81, 6)])
    def test_non_diagonal_metric_keeps_the_index_symmetry(self, n, transforms, planes,
                                                          monkeypatch):
        # d_i F_{p qbar} and d_i d_jbar F_{p qbar} are read with every index in
        # coordinates, so a metric costs no transforms: at n = 3 d eta takes 27 complex
        # inverse transforms, dF 18 (not 27) and the second derivatives 36 (not 81), as
        # at g = I; the n^2 real planes of the flow's curvature, the Hessian of u + psi,
        # take one irfft per entry on and above the diagonal, at u and once more in the
        # flow's build, whose check of the class's coefficients reads them at u = 0; no
        # base field is built
        rng = np.random.default_rng(n)
        B = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        geom = dl.build_torus(n, 8, B @ B.conj().T + 0.5 * np.eye(n))
        base, u = psi_base(geom), dl.bandlimited_noise(geom, 2, 0.01, 3)
        calls = {"ifft": [], "irfft": []}
        for name, calls_of in calls.items():
            method = getattr(dl.TorusGeometry, name)
            monkeypatch.setattr(dl.TorusGeometry, name,
                                lambda g, f, m=method, c=calls_of: c.append(1) or m(g, f))
        dl.dhym_point_identities(dl.LineBundleFlow(base, 0.0), u, residual_tol=1e9)
        assert (len(calls["ifft"]), len(calls["irfft"])) == (transforms, 2 * planes)

    def test_nonconverged_state_rejected(self, torus1, base1):
        u = 0.5 * cos_axis(torus1, 0)  # residual around 1e-2
        with pytest.raises(ValueError, match="not a dHYM point"):
            dl.dhym_point_identities(dl.LineBundleFlow(base1, float(np.arctan(1.0))), u)


class TestMaximumPrinciple:
    def test_stationary_passes(self, torus1, base1):
        traj = dl.run_fixed(dl.LineBundleFlow(base1, float(np.arctan(1.0))),
                            np.zeros(torus1.shape), dt=1e-3, n_steps=4, sample_every=1)
        res = dl.maximum_principle_monitor(traj)
        assert res.passed
        assert res.worst_violation <= 0.0

    def test_small_data_run_passes(self, small_flow_run):
        assert dl.maximum_principle_monitor(small_flow_run[0]).passed

    def test_constructed_violation_fails(self, small_flow_run):
        traj, _ = small_flow_run
        records = list(traj.records)
        bad = dataclasses.replace(records[3], theta_max=records[3].theta_max + 1e-3)
        records[3] = bad
        fake = SimpleNamespace(records=records, flow=traj.flow)
        res = dl.maximum_principle_monitor(fake)
        assert not res.passed
        assert res.location == pytest.approx(records[3].t)

    def test_needs_two_samples(self, torus1, base1):
        # a one-sample trajectory; run_fixed refuses n_steps=0
        flow = dl.LineBundleFlow(base1, float(np.arctan(1.0)))
        traj = dl.Trajectory(flow)
        traj.record(flow.initial_state(np.zeros(torus1.shape)))
        with pytest.raises(ValueError, match="two samples"):
            dl.maximum_principle_monitor(traj)


class TestOscillationDecay:
    def test_constant_velocity_underflows(self, torus1, base1):
        # spatially constant du/dt has zero oscillation at every sample
        hat = float(np.arctan(1.0)) + 0.5
        traj = dl.run_fixed(dl.LineBundleFlow(base1, hat), np.zeros(torus1.shape),
                            dt=1e-3, n_steps=16, sample_every=1)
        with pytest.raises(RuntimeError, match="below floor"):
            dl.oscillation_decay(traj)

    def test_linearized_rate_recovered(self, torus1, base1):
        u0 = 0.01 * cos_axis(torus1, 0)
        cfg = dl.FlowConfig(flow=dl.LineBundleFlow(base1, float(np.arctan(1.0))), u0=u0,
                            dt_safety=1.0, t_max=60.0, residual_tol=1e-13, sample_every=64)
        traj = dl.run_flow(cfg)
        fit = dl.oscillation_decay(traj)
        assert fit.rate == pytest.approx(0.125, rel=0.10)
        assert fit.r_squared > 0.99

    def test_monotone_contraction(self, small_flow_run):
        fit = dl.oscillation_decay(small_flow_run[0])
        assert fit.max_consecutive_ratio <= 1.0 + 1e-9


class TestHarnackMonitor:
    def test_stationary_degenerate(self, torus1, base1):
        flow = dl.LineBundleFlow(base1, float(np.arctan(1.0)))
        _, samples = run_sampled(dl.run_fixed, flow, np.zeros(torus1.shape), dt=1.0 / 128,
                                 n_steps=256, sample_every=16)
        with pytest.raises(ValueError, match="degenerate"):
            dl.harnack_monitor(flow, samples)

    def test_small_data_quotients(self, small_flow_run):
        traj, samples = small_flow_run
        rep = dl.harnack_monitor(traj.flow, samples)
        assert rep.positive
        assert rep.monotone
        assert np.isfinite(rep.quotient_xi) and rep.quotient_xi >= 1.0
        assert np.isfinite(rep.quotient_psi) and rep.quotient_psi >= 1.0

    def test_corrupted_sample_flagged(self, small_flow_run):
        traj, samples = small_flow_run
        samples = list(samples)
        k = len(samples) // 2
        # a unit cosine swings the phase of u past its range at t = 0: xi goes negative
        bad_u = samples[k].u + cos_axis(traj.flow.geometry, 0)
        samples[k] = dl.FlowSample(t=samples[k].t, u=bad_u)
        rep = dl.harnack_monitor(traj.flow, samples)
        assert not rep.positive
        assert rep.fail_location is not None
        assert rep.fail_location == (pytest.approx(samples[k].t), "xi")

    def test_psi_side_flagged(self, small_flow_run):
        # the unit cosine of either sign takes both xi and psi below zero, and xi is
        # named first; a tenth of it at t = 1/4 takes the phase below its infimum at
        # t = 0 (psi = -0.005) and keeps it below its supremum (xi = 0.0035)
        traj, samples = small_flow_run
        samples = list(samples)
        k = len(samples) // 8
        assert samples[k].t == 0.25
        bad_u = samples[k].u + 0.1 * cos_axis(traj.flow.geometry, 0)
        samples[k] = dl.FlowSample(t=samples[k].t, u=bad_u)
        rep = dl.harnack_monitor(traj.flow, samples)
        assert not rep.positive
        assert rep.fail_location == (0.25, "psi")

    @pytest.mark.parametrize("drop", ["t=0", "(0, 1]", "tau=1/2", "tau=1"])
    def test_insufficient_sampling_refused(self, small_flow_run, drop):
        traj, samples = small_flow_run
        keep = {"t=0": lambda t: t > 0.0,
                "(0, 1]": lambda t: t == 0.0 or t > 1.0,
                "tau=1/2": lambda t: t != 0.5,
                "tau=1": lambda t: t != 1.0}[drop]
        kept = [s for s in samples if keep(s.t)]
        assert len(kept) < len(samples)
        with pytest.raises(ValueError, match="insufficient trajectory sampling"):
            dl.harnack_monitor(traj.flow, kept)
