import dataclasses

import numpy as np
import pytest
import scipy.fft as sfft

import dhym_lab as dl
from conftest import cos_axis, fails_on_call
from dhym_lab import diagnostics
from dhym_lab.config_io import modes_field
from dhym_lab.flow import _CONTOUR_POINTS
from dhym_lab.phase import eta_pair, frame_characteristic


@pytest.fixture(scope="module")
def base1(torus1):
    return dl.BaseCurvature.proportional(torus1, 1.0)


class TestBaseCurvature:
    def test_field_is_hermitian(self, torus2):
        psi = dl.bandlimited_noise(torus2, 2, 0.5, 1)
        base = dl.BaseCurvature(geometry=torus2, F0=torus2.g, psi=psi)
        F = base.field()
        assert np.abs(F - F.conj().swapaxes(-1, -2)).max() < 1e-12

    def test_oscillatory_part_mean_free(self, torus1):
        psi = 0.3 * cos_axis(torus1, 0)
        base = dl.BaseCurvature(geometry=torus1, F0=torus1.g, psi=psi)
        dev = base.field() - torus1.g
        assert abs(dev[..., 0, 0].mean()) < 1e-15

    def test_non_hermitian_constant_rejected(self, torus2):
        with pytest.raises(ValueError, match="non-Hermitian"):
            dl.BaseCurvature(geometry=torus2, F0=np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestFlowRhs:
    def test_stationary_is_zero(self, torus1, base1):
        rhs = dl.LineBundleFlow(torus1, base1, np.arctan(1.0)).rhs(np.zeros(torus1.shape))
        assert np.abs(rhs).max() < 1e-15

    def test_single_mode_closed_form(self, torus1, base1):
        # lambda(x) = 1 + Lap(u)/4 = 1 - 0.025 cos(x)
        u = 0.1 * cos_axis(torus1, 0)
        rhs = dl.LineBundleFlow(torus1, base1, np.pi / 4).rhs(u)
        x = np.broadcast_to(np.cos(torus1.axis_coordinate(0)), torus1.shape)
        expect = np.arctan(1.0 - 0.025 * x) - np.pi / 4
        assert np.abs(rhs - expect).max() < 1e-14
        assert rhs.max() == pytest.approx(np.arctan(1.025) - np.pi / 4, abs=1e-13)

    def test_hat_theta_override_shifts_constant(self, torus1, base1):
        flow = dl.LineBundleFlow(torus1, base1, np.arctan(1.0) + np.pi)
        rhs = flow.rhs(np.zeros(torus1.shape))
        assert np.abs(rhs + np.pi).max() < 1e-14

    def test_matches_general_path(self, torus2):
        # the n>1 route and the eigenvalue arctan-sum of the oracle agree
        base = dl.BaseCurvature.proportional(torus2, 0.5)
        u = dl.bandlimited_noise(torus2, 2, 0.3, 5)
        rhs = dl.LineBundleFlow(torus2, base, 0.0).rhs(u)
        F = base.field() + dl.complex_hessian(torus2, u)
        lam = dl.pointwise_phase(F, torus2.g).lam
        assert np.abs(rhs - np.arctan(lam).sum(-1)).max() < 1e-13

    def test_own_curvature_is_not_checked(self, monkeypatch):
        # F_hat + ddbar u is Hermitian by construction: the n >= 2 phase runs
        # no Hermitian check, here under a non-diagonal metric
        geom = dl.build_torus(2, 8, np.array([[2.0, 0.3j], [-0.3j, 1.0]]))
        base = dl.BaseCurvature.proportional(geom, 0.5)
        flow = dl.LineBundleFlow(geom, base, 0.0)
        u = dl.bandlimited_noise(geom, 2, 0.3, 5)

        def refuse(*args, **kwargs):
            raise AssertionError("Hermitian check on the flow's own curvature")

        for module in (dl.geometry, dl.phase, dl.flow):
            monkeypatch.setattr(module, "check_hermitian_field", refuse, raising=False)
        theta = flow.phase(flow.spectrum(u))
        monkeypatch.undo()
        lam = dl.pointwise_phase(base.field() + dl.complex_hessian(geom, u), geom.g).lam
        assert np.abs(theta - np.arctan(lam).sum(-1)).max() < 1e-13


def full_spectrum_theta(geom, base, u):
    """Oracle: the n >= 2 phase from the full complex spectrum, the Hessian from
    `deriv` and theta from the complex zeta."""
    F = geom.to_frame(base.field(), "zZ") + geom.to_frame(geom.deriv(geom.fft(u), "zZ"), "zZ")
    pf = dl.PhaseFields(frame_characteristic(F))
    with np.errstate(divide="ignore"):
        theta = np.arctan(pf.zeta.imag / pf.zeta.real)
    np.add(theta, np.copysign(np.pi, pf.e[1]), out=theta, where=pf.zeta.real < 0)
    return theta


def scalar_multiplier(N):
    """The n = 1 Hessian symbol -(m^2 + l^2)/4 on the rfft2 grid."""
    return -np.add.outer((sfft.fftfreq(N) * N) ** 2, (sfft.rfftfreq(N) * N) ** 2) / 4.0


def scalar_theta(geom, base, u):
    """Oracle: the n = 1 phase arctan((F_hat + irfft2(mult * uh)) / g)."""
    lam = base.field()[..., 0, 0].real + sfft.irfft2(
        scalar_multiplier(geom.N) * sfft.rfft2(u), s=geom.shape)
    inv_g = float(1.0 / geom.g[0, 0].real)
    if inv_g != 1.0:
        lam *= inv_g
    return np.arctan(lam)


class TestOnePhasePath:
    """The half-spectrum phase of every n against the two paths it replaced."""

    @pytest.mark.parametrize("n,N,g", [
        (2, 8, np.eye(2)), (2, 8, np.array([[2.0, 0.3j], [-0.3j, 1.0]])),
        (2, 16, np.eye(2)), (2, 16, np.array([[2.0, 0.3j], [-0.3j, 1.0]])), (3, 8, np.eye(3)),
    ], ids=["n2-N8-I", "n2-N8-g", "n2-N16-I", "n2-N16-g", "n3-N8-I"])
    def test_matches_full_spectrum_path(self, n, N, g):
        geom = dl.build_torus(n, N, g)
        # the potential mixes x_1 with y_n, the half axis of the spectrum
        modes = [{"m": [1] + [0] * (2 * n - 2) + [1], "amplitude": 0.2},
                 {"m": [0, 1] + [0] * (2 * n - 3) + [1], "amplitude": 0.1, "phase": 0.3}]
        base = dl.BaseCurvature(geometry=geom, F0=np.diag([1.0, 0.5, 2.0][:n]),
                                psi=modes_field(geom, modes) if n == 2 else None)
        u = dl.bandlimited_noise(geom, 2, 0.3, 5)
        flow = dl.LineBundleFlow(geom, base, 0.0)
        assert flow.spectrum(u).shape == geom.shape[:-1] + (N // 2 + 1,)
        assert np.abs(flow.theta(u) - full_spectrum_theta(geom, base, u)).max() <= 1e-13

    @pytest.mark.parametrize("N", [32, 64, 256])
    def test_n1_is_the_scalar_formula_bit_for_bit(self, N):
        geom = dl.build_torus(1, N, [1.0])
        base = dl.BaseCurvature(geometry=geom, F0=geom.g, psi=0.2 * cos_axis(geom, 0))
        u = dl.bandlimited_noise(geom, 2, 0.3, 9)
        assert np.array_equal(dl.LineBundleFlow(geom, base, 0.0).theta(u),
                              scalar_theta(geom, base, u))

    @pytest.mark.parametrize("g", [0.6, 1.7])
    def test_n1_metric_within_rounding(self, g):
        geom = dl.build_torus(1, 32, [g])
        base = dl.BaseCurvature(geometry=geom, F0=1.3 * geom.g, psi=0.2 * cos_axis(geom, 0))
        u = dl.bandlimited_noise(geom, 2, 0.3, 9)
        theta, expect = dl.LineBundleFlow(geom, base, 0.0).theta(u), scalar_theta(geom, base, u)
        assert np.abs(theta - expect).max() <= 1e-14 * np.abs(expect).max()

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_n1_linear_symbol_bit_for_bit(self, c):
        geom = dl.build_torus(1, 32, [1.0])
        flow = dl.LineBundleFlow(geom, dl.BaseCurvature.proportional(geom, c), 0.0)
        _, eta_inv = eta_pair(np.array([[c + 0j]]))
        assert np.array_equal(flow.linear_symbol, eta_inv[0, 0].real * 1.0 * scalar_multiplier(32))


def complex_buffer_characteristic(geom, base, uh):
    """Oracle: e_0..e_n of the flow's curvature the way the flow built it before
    its real planes: the half-spectrum Hessian written entry by entry into a
    complex (grid, n, n) buffer, taken to the frame, plus F~_hat, then
    `frame_characteristic` of that matrix field.  Its mixed symbols are not even
    in k where k has a Nyquist wave number, so it is exact only for a spectrum
    uh without Nyquist modes."""
    n = geom.n
    mz, mZ = geom.half_symbols["z"], geom.half_symbols["Z"]
    H = np.empty(geom.shape + (n, n), dtype=np.complex128)
    for p in range(n):
        for q in range(p, n):
            s = mz[p] * mZ[q]
            H[..., p, q] = geom.irfft(s.real.copy() * uh)
            if p < q:
                H[..., p, q].imag = geom.irfft(s.imag.copy() * uh)
                H[..., q, p] = H[..., p, q].conj()
    F = geom.to_frame(H, "zZ")
    F += geom.to_frame(base.field(), "zZ")
    return frame_characteristic(F)


def without_nyquist(geom, uh):
    """The half spectrum uh with every mode at a Nyquist wave number set to zero."""
    uh = uh.copy()
    for axis in range(2 * geom.n):
        uh[(slice(None),) * axis + (geom.N // 2,)] = 0.0
    return uh


class TestPlanePhase:
    """The flow's phase from real Hessian planes against the complex-buffer path."""

    G2 = np.array([[2.0, 0.3j], [-0.3j, 1.0]])

    @staticmethod
    def phases(n, N, g, nyquist=True):
        geom = dl.build_torus(n, N, g)
        modes = ([{"m": [1, 1], "amplitude": 0.2}] if n == 1 else
                 [{"m": [1] + [0] * (2 * n - 2) + [1], "amplitude": 0.2},
                  {"m": [0, 1] + [0] * (2 * n - 3) + [1], "amplitude": 0.1, "phase": 0.3}])
        base = dl.BaseCurvature(geometry=geom, F0=np.diag([1.0, 0.5, 2.0][:n]),
                                psi=modes_field(geom, modes))
        uh = geom.rfft(dl.bandlimited_noise(geom, 2, 0.3, 5))
        if not nyquist:
            uh = without_nyquist(geom, uh)
        flow = dl.LineBundleFlow(geom, base, 0.0)
        return flow.phase_fields(uh), dl.PhaseFields(complex_buffer_characteristic(geom, base, uh))

    @pytest.mark.parametrize("n,N", [(1, 32), (2, 16)])
    def test_bit_for_bit_at_identity_metric(self, n, N):
        # rfft leaves rounding-sized Nyquist modes (5.7e-14 of 372 at n = 2), which
        # the old path mishandled: without them it is exact, and so bit for bit
        new, old = self.phases(n, N, np.eye(n), nyquist=False)
        assert np.array_equal(new.theta, old.theta)
        for k in range(n + 1):
            assert np.array_equal(new.e[k], old.e[k]), k

    @pytest.mark.parametrize("n,N,g", [(3, 8, np.eye(3)), (1, 32, np.array([[1.7]])), (2, 16, G2)],
                             ids=["n3-N8-I", "n1-N32-g", "n2-N16-g"])
    def test_within_rounding(self, n, N, g):
        new, old = self.phases(n, N, g)
        assert np.abs(new.theta - old.theta).max() <= 1e-14
        for k in range(1, n + 1):
            assert np.abs(new.e[k] - old.e[k]).max() <= 1e-14 * np.abs(old.e[k]).max(), k


class TestRecordsReuseFlowPhase:
    """A record of a flow state takes theta and Z from the state."""

    @pytest.mark.parametrize("norms", [False, True])
    def test_record_of_a_state_transforms_nothing_for_the_phase(self, norms, monkeypatch):
        geom = dl.build_torus(2, 8, np.array([[2.0, 0.3j], [-0.3j, 1.0]]))
        base = dl.BaseCurvature(geometry=geom, F0=np.diag([1.0, 0.5]),
                                psi=0.05 * dl.bandlimited_noise(geom, 2, 1.0, 2))
        state = dl.LineBundleFlow(geom, base, 0.0).initial_state(
            dl.bandlimited_noise(geom, 2, 0.05, 3))
        calls = []

        def spy(name):
            transform = getattr(dl.TorusGeometry, name)
            return lambda g, f: calls.append(name) or transform(g, f)

        for name in ("fft", "rfft"):  # the forward transforms
            monkeypatch.setattr(dl.TorusGeometry, name, spy(name))
        for module in (dl.diagnostics, dl.phase, dl.flow):
            monkeypatch.setattr(module, "frame_characteristic",
                                lambda *a: calls.append("frame_characteristic"))
        traj = dl.Trajectory(geometry=geom, base=base, hat_theta=0.0, norms=norms)
        traj.record(state)
        assert calls == []  # a full record's norms take the state's spectrum
        assert len(traj.records) == 1

    @pytest.mark.parametrize("n,N,g", [(1, 64, [1.0]), (2, 16, TestPlanePhase.G2),
                                       (2, 8, np.eye(2)), (2, 8, TestPlanePhase.G2)],
                             ids=["n1-N64", "n2-N16-g", "n2-N8", "n2-N8-g"])
    def test_run_records_match_rebuilt_hessian_records(self, n, N, g):
        # at N = 8 the flow fills the Nyquist modes, where a half-spectrum Hessian
        # that is not `deriv`'s breaks the invariance of Z
        geom = dl.build_torus(n, N, g)
        base = dl.BaseCurvature(geometry=geom, F0=np.diag([1.0, 0.5][:n]),
                                psi=0.1 * dl.bandlimited_noise(geom, 2, 1.0, 4))
        u0 = dl.bandlimited_noise(geom, 2, 0.02, 5)
        hat = dl.winding_hat_theta(geom, base.field())
        traj = dl.run_flow(dl.FlowConfig(geometry=geom, base=base, u0=u0, hat_theta=hat,
                                         t_max=0.5, sample_every=4, keep_fields=None))
        flow = traj.final.flow
        assert len(traj.records) >= 5
        for record, sample in zip(traj.records, traj.samples):
            # the oracle: the record rebuilt from u and the flow's theta, whose Z takes
            # the Hessian again
            oracle = diagnostics.build_record(geom, base, hat, sample.t, sample.u,
                                              theta=flow.theta(sample.u), u0_at_p=traj.u0_at_p)
            Z, Z_oracle = complex(record.Z_re, record.Z_im), complex(oracle.Z_re, oracle.Z_im)
            assert abs(record.Z_re - oracle.Z_re) <= 1e-14 * abs(Z_oracle)
            assert abs(record.Z_im - oracle.Z_im) <= 1e-14 * abs(Z_oracle)
            assert abs(Z - Z_oracle) <= 1e-14 * abs(Z_oracle)
            kept = dataclasses.replace(oracle, Z_re=record.Z_re, Z_im=record.Z_im)
            assert kept.csv_row() == record.csv_row()
        Z0 = complex(traj.records[0].Z_re, traj.records[0].Z_im)
        assert max(abs(complex(r.Z_re, r.Z_im) - Z0) for r in traj.records) <= 1e-15 * abs(Z0)


class TestRk4Step:
    def test_stationary_fixed(self, torus1, base1):
        flow = dl.LineBundleFlow(torus1, base1, float(np.arctan(1.0)))
        state = flow.initial_state(np.zeros(torus1.shape))
        new = dl.rk4_step(state, 1e-2)
        assert np.abs(new.u).max() < 1e-15
        assert new.t == pytest.approx(1e-2)

    def test_linearized_single_mode_decay(self):
        # mode cos(x) with c = 1 decays at rate 1/(4(1+c^2)) = 1/8; one RK4
        # step reproduces exp(-dt/8) to far below the dt^5 local error
        geom = dl.build_torus(1, 64, [1.0])
        base = dl.BaseCurvature.proportional(geom, 1.0)
        flow = dl.LineBundleFlow(geom, base, float(np.arctan(1.0)))
        delta, dt = 1e-4, 1e-3
        u0 = delta * cos_axis(geom, 0)
        state = flow.initial_state(u0)
        new = dl.rk4_step(state, dt)
        mode_amp = 2.0 * (geom.fft(new.u) / geom.num_points)[1, 0].real
        assert mode_amp / delta == pytest.approx(np.exp(-dt / 8.0), abs=1e-12)

    def test_grossly_large_step_diverges(self):
        geom = dl.build_torus(1, 64, [1.0])
        base = dl.BaseCurvature.proportional(geom, 1.0)
        u0 = dl.bandlimited_noise(geom, 2, 1.0, 7)
        u0 *= 0.05 / dl.tensor_norms(geom, u0).hess_sup
        flow = dl.LineBundleFlow(geom, base, float(np.arctan(1.0)))
        state = flow.initial_state(u0)
        dt = dl.stable_dt(geom, 1.0) * 100
        with pytest.raises(dl.FlowDiverged, match="step diverged"):
            for _ in range(50):
                state = dl.rk4_step(state, dt)

    def test_refusal_of_nonpositive_dt(self, torus1, base1):
        flow = dl.LineBundleFlow(torus1, base1, 0.0)
        state = flow.initial_state(np.zeros(torus1.shape))
        with pytest.raises(ValueError):
            dl.rk4_step(state, 0.0)


class TestStableDt:
    def test_formula(self):
        geom = dl.build_torus(1, 64, [1.0])
        assert dl.stable_dt(geom, 0.5) == pytest.approx(0.5 / 512)

    def test_metric_dependence(self):
        geom = dl.build_torus(1, 64, [0.5])  # lambda_max(g^-1) = 2
        assert dl.stable_dt(geom, 1.0) == pytest.approx(1.0 / 1024)


class TestRunFlow:
    def test_stationary_converges_immediately(self, torus1, base1):
        cfg = dl.FlowConfig(geometry=torus1, base=base1, u0=np.zeros(torus1.shape),
                            hat_theta=float(np.arctan(1.0)))
        traj = dl.run_flow(cfg)
        assert traj.status == "converged"
        assert traj.t_final == 0.0
        assert len(traj.records) == 1
        assert traj.steps == 0

    def test_single_mode_run_converges_at_linearized_rate(self, torus1, base1):
        u0 = 0.1 * cos_axis(torus1, 0)
        cfg = dl.FlowConfig(geometry=torus1, base=base1, u0=u0,
                            hat_theta=float(np.arctan(1.0)), dt_safety=1.0,
                            t_max=400.0, residual_tol=1e-10, sample_every=64,
                            keep_fields=4)
        traj = dl.run_flow(cfg)
        assert traj.status == "converged"
        assert traj.final.residual_sup < 1e-10
        # tail decay rate of sup|du/dt| within 10% of 1/8
        ts = np.array([r.t for r in traj.records])
        rs = np.array([r.residual_sup for r in traj.records])
        keep = (ts > ts[-1] / 2) & (rs > 1e-13)
        slope, _ = np.polyfit(ts[keep], np.log(rs[keep]), 1)
        assert -slope == pytest.approx(0.125, rel=0.10)

    def test_override_times_out_with_mean_drift(self, torus1, base1):
        u0 = 0.05 * cos_axis(torus1, 0)
        hat = float(np.arctan(1.0)) + np.pi
        cfg = dl.FlowConfig(geometry=torus1, base=base1, u0=u0, hat_theta=hat,
                            dt_safety=1.0, t_max=10.0, residual_tol=1e-10,
                            sample_every=128, keep_fields=4)
        traj = dl.run_flow(cfg)
        assert traj.status == "timeout"
        # the constant -pi velocity accumulates into the mean while the
        # oscillating part settles
        assert traj.records[-1].mean_u == pytest.approx(-np.pi * traj.t_final, rel=2e-3)
        assert traj.records[-1].osc_udot < 0.05

    def test_mean_drift_identity(self, torus1, base1):
        # d/dt integral(u) = integral(theta - hat_theta), via central
        # differences of stored samples
        u0 = 0.1 * cos_axis(torus1, 0) + 0.05 * cos_axis(torus1, 1)
        traj = dl.run_fixed(torus1, base1, float(np.arctan(1.0)), u0,
                            dt=5e-4, n_steps=8, sample_every=1)
        s = list(traj.samples)
        for k in (2, 4):
            lhs = (s[k + 1].u.mean() - s[k - 1].u.mean()) * torus1.vol / (s[k + 1].t - s[k - 1].t)
            rhs = dl.volume_integral(torus1, s[k].udot)
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_z_conserved_along_run(self, torus1, base1):
        u0 = dl.bandlimited_noise(torus1, 2, 1.0, 3)
        u0 *= 0.05 / dl.tensor_norms(torus1, u0).hess_sup
        cfg = dl.FlowConfig(geometry=torus1, base=base1, u0=u0,
                            hat_theta=float(np.arctan(1.0)), dt_safety=1.0,
                            t_max=5.0, residual_tol=1e-12, sample_every=64,
                            keep_fields=4)
        traj = dl.run_flow(cfg)
        Z0 = complex(traj.records[0].Z_re, traj.records[0].Z_im)
        drift = max(abs(complex(r.Z_re, r.Z_im) - Z0) for r in traj.records) / abs(Z0)
        assert drift < 1e-9

    def test_stationarity_drift_per_unit_time(self, torus1, base1):
        traj = dl.run_fixed(torus1, base1, float(np.arctan(1.0)),
                            np.zeros(torus1.shape), dt=dl.stable_dt(torus1, 1.0),
                            n_steps=200, sample_every=10**9)
        drift = np.abs(traj.final.u).max() / traj.final.t
        assert drift < 1e-14

    def test_rk4_global_order(self):
        geom = dl.build_torus(1, 16, [1.0])
        base = dl.BaseCurvature.proportional(geom, 1.0)
        hat = float(np.arctan(1.0))
        u0 = dl.bandlimited_noise(geom, 2, 1.0, 9)
        u0 *= 0.05 / dl.tensor_norms(geom, u0).hess_sup
        T = 0.5
        dt0 = dl.stable_dt(geom, 1.0)

        def final(dt):
            n = int(round(T / dt))
            return dl.run_fixed(geom, base, hat, u0, dt=dt, n_steps=n,
                                sample_every=10**9).final.u

        ref = final(dt0 / 8)
        e1 = np.abs(final(dt0) - ref).max()
        e2 = np.abs(final(dt0 / 2) - ref).max()
        assert 12.0 <= e1 / e2 <= 20.0

    def test_blowup_status_after_persistent_divergence(self, torus1, base1, monkeypatch):
        import dhym_lab.flow as flow_mod

        def always_diverges(state, h):
            raise flow_mod.FlowDiverged("step diverged: forced")

        monkeypatch.setattr(flow_mod, "etdrk4_step", always_diverges)
        u0 = 0.1 * cos_axis(torus1, 0)
        cfg = dl.FlowConfig(geometry=torus1, base=base1, u0=u0,
                            hat_theta=float(np.arctan(1.0)), t_max=1.0)
        traj = flow_mod.run_flow(cfg)
        assert traj.status == "blowup"
        assert np.array_equal(traj.final.u, u0)  # last valid state reported

    def test_forced_divergence_logs_halving_then_regrowth(self, torus1, base1, monkeypatch):
        import dhym_lab.flow as flow_mod

        step, calls = fails_on_call(flow_mod.etdrk4_step, 3)
        monkeypatch.setattr(flow_mod, "etdrk4_step", step)
        u0 = 0.1 * cos_axis(torus1, 0)
        cfg = dl.FlowConfig(geometry=torus1, base=base1, u0=u0,
                            hat_theta=float(np.arctan(1.0)), dt_safety=0.5,
                            t_max=0.25, sample_every=4)
        traj = flow_mod.run_flow(cfg)
        ds = 4 * dl.stable_dt(torus1, 0.5)
        assert traj.status == "timeout"
        assert traj.steps_rejected == 1
        assert traj.steps == 17  # sixteen sample intervals, the third in two halves
        assert traj.dt_changes == [
            (2 * ds, ds, ds / 2, "step diverged: forced"),
            (3 * ds, ds / 2, ds, "regrowth after a sample"),
        ]
        assert calls[2:5] == [ds, ds / 2, ds / 2]
        assert [r.t for r in traj.records] == [k * ds for k in range(17)]
        assert traj.dt_final == ds

    @pytest.mark.parametrize("n", [1, 2])
    def test_records_independent_of_thread_count(self, n, tmp_path, monkeypatch):
        geom = dl.build_torus(n, 32 if n == 1 else 8, np.eye(n))
        psi = 0.2 * cos_axis(geom, 0)
        base = dl.BaseCurvature(geometry=geom, F0=np.diag([1.0, 0.5][:n]), psi=psi)
        u0 = dl.bandlimited_noise(geom, 2, 1.0, 5)
        u0 *= 0.05 / dl.tensor_norms(geom, u0).hess_sup
        cfg = dl.FlowConfig(geometry=geom, base=base, u0=u0,
                            hat_theta=dl.winding_hat_theta(geom, base.field()),
                            t_max=0.5, sample_every=2)
        outputs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("DHYM_THREADS", threads)
            traj = dl.run_flow(cfg)
            path = tmp_path / f"diagnostics-{threads}.csv"
            dl.write_diagnostics(traj.records, path)
            outputs.append((path.read_bytes(), traj.final.u.tobytes()))
        assert outputs[0] == outputs[1]

    def test_config_validation(self, torus1, base1):
        with pytest.raises(ValueError, match="dt_safety"):
            dl.FlowConfig(geometry=torus1, base=base1, u0=np.zeros(torus1.shape),
                          hat_theta=0.0, dt_safety=1.5)
        with pytest.raises(ValueError, match="t_max"):
            dl.FlowConfig(geometry=torus1, base=base1, u0=np.zeros(torus1.shape),
                          hat_theta=0.0, t_max=-1.0)

    @pytest.mark.parametrize("field,value", [
        ("t_max", np.nan), ("t_max", np.inf), ("residual_tol", np.nan),
        ("residual_tol", np.inf), ("sample_every", 2.5), ("sample_every", 0),
        ("hat_theta", np.nan),
    ])
    def test_config_refuses_non_finite_or_fractional(self, torus1, base1, field, value):
        # constructing alone must refuse; t_max=nan used to run forever
        kwargs = dict(geometry=torus1, base=base1, u0=np.zeros(torus1.shape),
                      hat_theta=0.0)
        with pytest.raises(ValueError, match=field):
            dl.FlowConfig(**{**kwargs, field: value})

    @pytest.mark.parametrize("kwargs", [
        dict(dt=np.nan), dict(dt=np.inf), dict(dt=0.0), dict(dt=-1e-3, n_steps=0),
        dict(n_steps=-3), dict(n_steps=0), dict(n_steps=2.0),
        dict(sample_every=0), dict(sample_every=2.5),
    ], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_fixed_run_refuses_bad_arguments_up_front(self, torus1, base1, monkeypatch, kwargs):
        import dhym_lab.flow as flow_mod

        # refused before the flow is built: building it would raise TypeError
        monkeypatch.setattr(flow_mod, "LineBundleFlow", None)
        args = {"dt": 1e-3, "n_steps": 4, "sample_every": 1, **kwargs}
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            flow_mod.run_fixed(torus1, base1, 0.0, np.zeros(torus1.shape), **args)

    def test_fixed_run_halves_and_logs_a_rejected_rk4_step(self, torus1, base1, monkeypatch):
        import dhym_lab.flow as flow_mod

        monkeypatch.setattr(flow_mod, "rk4_step", fails_on_call(flow_mod.rk4_step, 3)[0])
        dt = dl.stable_dt(torus1, 0.5)
        traj = flow_mod.run_fixed(torus1, base1, float(np.arctan(1.0)),
                                  0.1 * cos_axis(torus1, 0), dt=dt, n_steps=8, sample_every=2)
        ds = 2 * dt
        assert traj.status == "timeout"
        assert traj.steps_rejected == 1
        assert traj.steps == 10  # the second sample interval in four half steps
        assert traj.dt_changes == [
            (ds, dt, dt / 2, "step diverged: forced"),
            (2 * ds, dt / 2, dt, "regrowth after a sample"),
        ]
        assert [r.t for r in traj.records] == [k * ds for k in range(5)]
        assert traj.dt_final == dt

    @pytest.mark.parametrize("n", [1, 2])
    def test_step_starts_from_the_state_spectrum(self, n, monkeypatch):
        # the state carries the spectrum its phase came from; the ETDRK4 step
        # starts from it instead of transforming u again
        geom = dl.build_torus(n, 16 if n == 1 else 8, np.eye(n))
        base = dl.BaseCurvature.proportional(geom, 1.0)
        flow = dl.LineBundleFlow(geom, base, n * float(np.arctan(1.0)))
        state = flow.initial_state(dl.bandlimited_noise(geom, 2, 0.01, 3))
        seen = []
        spectrum = flow.spectrum
        monkeypatch.setattr(flow, "spectrum", lambda f: seen.append(f) or spectrum(f))
        new = dl.etdrk4_step(state, 0.05)
        assert not any(f is state.u for f in seen)
        for s in (state, new):
            assert s.uh.tobytes() == spectrum(s.u).tobytes()
            assert s.theta.tobytes() == flow.phase(s.uh).tobytes()

    def test_phase_cache_matches_state(self, torus1, base1):
        flow = dl.LineBundleFlow(torus1, base1, float(np.arctan(1.0)))
        state = flow.initial_state(0.05 * cos_axis(torus1, 0))
        state = dl.rk4_step(state, 1e-3)
        assert np.abs(state.theta - flow.theta(state.u)).max() == 0.0


def per_point_coefficients(flow, h):
    """The ETDRK4 coefficients of step h from contour means at every half-grid point."""
    points = _CONTOUR_POINTS
    hL = h * flow.linear_symbol
    acc = [np.zeros_like(hL) for _ in range(4)]
    for k in range(points):
        z = hL + np.exp(1j * np.pi * (k + 0.5) / points)
        ez, z3 = np.exp(z), z ** 3
        acc[0] += ((np.exp(z / 2.0) - 1.0) / z).real
        acc[1] += ((-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z3).real
        acc[2] += ((2.0 + z + ez * (z - 2.0)) / z3).real
        acc[3] += ((-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z3).real
    Q, f1, f2, f3 = ((h / points) * a for a in acc)
    return np.exp(hL), np.exp(hL / 2.0), Q, f1, f2, f3


NON_DIAGONAL_F0 = np.array([[1.0, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])


class TestEtdrk4:
    """The ETDRK4 stepper of run_flow against fixed-step RK4, the oracle."""

    # exact: f1-f3 equal the per-point loop's bit for bit.  Elsewhere numpy's complex
    # kernels round by position in the array, which the cancellation in the contour
    # terms amplifies, so they agree within 1e-12 relative
    @pytest.mark.parametrize("n,N,g,F0,exact", [
        (1, 32, 1.0, 1.0, True), (1, 32, 2.0, 1.0, True), (1, 64, 1.0, 1.0, True),
        (1, 64, 2.0, 1.0, True), (1, 256, 1.0, 1.0, False), (1, 256, 2.0, 1.0, False),
        (2, 16, 1.0, np.diag([1.0, 0.5]), False),
        (2, 8, np.array([[2.0, 0.3j], [-0.3j, 1.0]]), NON_DIAGONAL_F0, True),
        (3, 8, 1.0, np.diag([1.0, 0.5, 0.2]), False),
    ], ids=["n1-32-g1", "n1-32-g2", "n1-64-g1", "n1-64-g2", "n1-256-g1", "n1-256-g2",
            "n2-16-diag", "n2-8-hermitian", "n3-8"])
    def test_coefficients_of_distinct_values_match_per_point_loop(self, n, N, g, F0, exact):
        geom = dl.build_torus(n, N, g)
        flow = dl.LineBundleFlow(geom, dl.BaseCurvature(geometry=geom, F0=F0), 0.0)
        for h in (4 * dl.stable_dt(geom, 0.5), 128 * dl.stable_dt(geom, 1.0)):
            got, expect = flow.etd_coefficients(h), per_point_coefficients(flow, h)
            for a, b in zip(got[:3], expect[:3]):
                assert np.array_equal(a, b)
            for a, b in zip(got[3:], expect[3:]):
                if exact:
                    assert np.array_equal(a, b)
                else:
                    np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)

    README_RUN = {
        "dimension": 1, "resolution": 64, "metric": [[1.0]],
        "base_curvature": {"constant": [[1.0]], "potential": {
            "modes": [{"m": [1, 0], "amplitude": 0.2, "phase": 0.0}]}},
        "initial": {"type": "noise", "k_band": 2, "seed": 7, "target_hess_sup": 0.05},
        "time": {"t_max": 1.0, "dt_safety": 0.5, "residual_tol": 1e-10, "sample_every": 100},
    }
    N2_RUN = {
        "dimension": 2, "resolution": 8, "metric": [[1.0, 0.0], [0.0, 1.0]],
        "base_curvature": {"constant": [[1.0, 0.0], [0.0, 0.5]], "potential": {"modes": [
            {"m": [1, 0, 0, 0], "amplitude": 0.2},
            {"m": [0, 1, 1, 0], "amplitude": 0.1, "phase": 0.3}]}},
        "initial": {"type": "noise", "k_band": 2, "seed": 7, "target_hess_sup": 0.05},
        "time": {"t_max": 0.5, "dt_safety": 0.5, "residual_tol": 1e-10, "sample_every": 2},
    }

    @pytest.mark.parametrize("doc", [README_RUN, N2_RUN], ids=["n1-readme", "n2-N8"])
    def test_samples_match_fine_rk4(self, doc):
        from dhym_lab.config_io import parse_config_data

        cfg = parse_config_data(doc).flow_config()
        traj = dl.run_flow(cfg)
        refine = 2  # RK4 at half the stable step, sampled at the same times
        dt = dl.stable_dt(cfg.geometry, cfg.dt_safety) / refine
        ref = dl.run_fixed(cfg.geometry, cfg.base, cfg.hat_theta, cfg.u0, dt=dt,
                           n_steps=int(round(cfg.t_max / dt)),
                           sample_every=cfg.sample_every * refine)
        etd, rk4 = list(traj.samples), list(ref.samples)
        assert traj.status == "timeout"
        assert ref.steps_rejected == 0  # a halved RK4 run is no fixed-step oracle
        assert len(etd) == len(rk4) >= 9
        for a, b in zip(etd, rk4):
            assert a.t == pytest.approx(b.t, rel=1e-12)
            d = a.u - b.u
            assert np.abs(d - d.mean()).max() <= 1e-9

    def test_fourth_order_with_remainder(self):
        geom = dl.build_torus(1, 16, [1.0])
        base = dl.BaseCurvature(geometry=geom, F0=geom.g, psi=0.2 * cos_axis(geom, 0))
        hat = dl.winding_hat_theta(geom, base.field())
        flow = dl.LineBundleFlow(geom, base, hat)
        zero = np.zeros(geom.shape)
        # the psi background leaves a remainder the linear part does not absorb
        assert np.abs(flow.remainder(flow.spectrum(zero), flow.theta(zero))).max() > 1e-3
        u0 = dl.bandlimited_noise(geom, 2, 1.0, 9)
        u0 *= 0.05 / dl.tensor_norms(geom, u0).hess_sup
        T = 2.0

        def final(h):
            state = flow.initial_state(u0)
            for _ in range(int(round(T / h))):
                state = dl.etdrk4_step(state, h)
            return state.u

        ref = final(T / 64)
        e1 = np.abs(final(0.5) - ref).max()
        e2 = np.abs(final(0.25) - ref).max()
        assert 12.0 <= e1 / e2 <= 20.0

    def test_records_at_sample_times_as_many_as_rk4(self, torus1, base1):
        u0 = dl.bandlimited_noise(torus1, 2, 1.0, 3)
        u0 *= 0.05 / dl.tensor_norms(torus1, u0).hess_sup
        dt = dl.stable_dt(torus1, 0.5)
        t_max = 131 * dt  # 16 sample intervals of 8 steps, then 3 steps to t_max
        cfg = dl.FlowConfig(geometry=torus1, base=base1, u0=u0,
                            hat_theta=float(np.arctan(1.0)), dt_safety=0.5,
                            t_max=t_max, sample_every=8)
        traj = dl.run_flow(cfg)
        rk4 = dl.run_fixed(torus1, base1, cfg.hat_theta, u0, dt=dt, n_steps=131,
                           sample_every=8)
        ds = 8 * dt
        assert traj.status == "timeout"
        assert len(traj.records) == len(rk4.records) == 18
        assert [r.t for r in traj.records] == [k * ds for k in range(17)] + [t_max]
        assert traj.steps == 17
        assert rk4.steps == 131 and rk4.steps_rejected == 0

    def test_step_refused_when_nonpositive(self, torus1, base1):
        state = dl.LineBundleFlow(torus1, base1, 0.0).initial_state(np.zeros(torus1.shape))
        with pytest.raises(ValueError):
            dl.etdrk4_step(state, 0.0)
