from functools import reduce
from operator import add

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import dhym_lab as dl
from conftest import cos_axis
from dhym_lab.phase import eta_pair, frame_characteristic, hermitian_planes
from spectral_oracle import characteristic_field, complex_hessian, phase_fields


def random_hermitian(rng, count, n, scale=3.0):
    A = rng.uniform(-scale, scale, (count, n, n)) + 1j * rng.uniform(-scale, scale, (count, n, n))
    return (A + A.conj().swapaxes(-1, -2)) / 2


def hermitian_with_eigenvalues(rng, lam):
    """U diag(lam) U^H for a random unitary U, one matrix per row of lam."""
    count, n = lam.shape
    X = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    U, _ = np.linalg.qr(X)
    F = U @ (lam[:, :, None] * U.conj().swapaxes(-1, -2))
    return (F + F.conj().swapaxes(-1, -2)) / 2


def full_product_characteristic(F):
    """e_0..e_n from power sums of the complex products A^k A over every entry:
    the form frame_characteristic took before it read only the upper triangle."""
    n = F.shape[-1]
    idx = range(n)
    A = [[F[..., i, j] for j in idx] for i in idx]
    Ak, p = A, [reduce(add, (A[i][i].real for i in idx))]
    for k in idx[1:]:
        p.append(reduce(add, (Ak[i][q] * A[q][i] for i in idx for q in idx)).real)
        Ak = [[reduce(add, (Ak[i][q] * A[q][j] for q in idx)) for j in idx] for i in idx]
    e = [np.float64(1.0), p[0]]
    for k in range(2, n + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i - 1] for i in range(1, k + 1)) / k)
    return e


def max_rel(new, old):
    """Largest error of each matrix against its largest oracle entry."""
    err = np.abs(new - old).max(axis=(-1, -2))
    return err / np.abs(old).max(axis=(-1, -2))


def random_metric(rng, count, n):
    B = rng.uniform(-1, 1, (count, n, n)) + 1j * rng.uniform(-1, 1, (count, n, n))
    return B @ B.conj().swapaxes(-1, -2) + 0.5 * np.eye(n)


class TestPointwisePhase:
    def test_zero_curvature(self):
        d = dl.pointwise_phase(np.zeros((2, 2)), np.eye(2))
        assert np.abs(d.lam).max() == 0.0
        assert float(d.theta) == 0.0
        assert complex(d.zeta) == 1.0 + 0.0j
        assert np.abs(d.eta - np.eye(2)).max() == 0.0

    def test_scalar_unit(self):
        d = dl.pointwise_phase(1.0, 1.0)
        assert float(d.theta) == pytest.approx(np.pi / 4, abs=1e-15)
        assert complex(d.zeta) == pytest.approx(1 + 1j, abs=1e-15)
        assert complex(d.eta.ravel()[0]) == pytest.approx(2.0, abs=1e-15)
        assert complex(d.eta_inv.ravel()[0]) == pytest.approx(0.5, abs=1e-15)

    def test_two_angles_add(self):
        d = dl.pointwise_phase(np.diag([1.0, np.sqrt(3.0)]), np.eye(2))
        assert float(d.theta) == pytest.approx(np.pi / 4 + np.pi / 3, abs=1e-14)
        expect = (1 - np.sqrt(3.0)) + 1j * (1 + np.sqrt(3.0))
        assert complex(d.zeta) == pytest.approx(expect, abs=1e-14)

    def test_non_pd_metric_rejected(self):
        with pytest.raises(ValueError, match="not positive definite"):
            dl.pointwise_phase(np.eye(2), np.diag([1.0, -1.0]))

    def test_non_hermitian_metric_rejected(self):
        with pytest.raises(ValueError, match="non-Hermitian metric"):
            dl.pointwise_phase(np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_non_hermitian_metric_batch_names_point(self):
        g = np.broadcast_to(np.eye(2), (5, 2, 2)).copy()
        g[3, 0, 1] = 0.5
        with pytest.raises(ValueError, match=r"non-Hermitian metric at grid point \(3,\)"):
            dl.pointwise_phase(np.zeros((5, 2, 2)), g)

    def test_non_hermitian_curvature_rejected(self):
        with pytest.raises(ValueError, match="non-Hermitian"):
            dl.pointwise_phase(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_invariants_on_ensemble(self, n):
        rng = np.random.default_rng(100 + n)
        F = random_hermitian(rng, 2000, n)
        g = random_metric(rng, 2000, n)
        d = dl.pointwise_phase(F, g)
        # theta strictly inside its branch
        assert np.abs(d.theta).max() < n * np.pi / 2
        # zeta = exp(i theta) sqrt(det eta / det g)
        det_eta = np.linalg.det(d.eta).real
        det_g = np.linalg.det(g).real
        rel = np.abs(d.zeta - np.exp(1j * d.theta) * np.sqrt(det_eta / det_g)) / np.abs(d.zeta)
        assert rel.max() < 1e-10
        # det eta = det g * prod(1 + lam^2)
        expect = det_g * np.prod(1 + d.lam**2, axis=-1)
        assert np.abs(det_eta - expect).max() < 1e-10 * np.abs(expect).max()
        # PSD order: eta >= g and g^-1 >= eta^-1
        eta_scale = np.abs(d.eta).max()
        assert np.linalg.eigvalsh(d.eta - g).min() > -1e-12 * eta_scale
        ginv = np.linalg.inv(g)
        assert np.linalg.eigvalsh(ginv - d.eta_inv).min() > -1e-12 * np.abs(ginv).max()

    @pytest.mark.parametrize("n", [2, 3])
    def test_generalized_eigenvalues_against_library(self, n):
        rng = np.random.default_rng(200 + n)
        F = random_hermitian(rng, 200, n)
        g = random_metric(rng, 200, n)
        d = dl.pointwise_phase(F, g)
        for k in range(200):
            lam_ref, V = scipy.linalg.eigh(F[k], g[k])
            assert np.abs(d.lam[k] - lam_ref).max() < 1e-10 * max(1.0, np.abs(F[k]).max())
            resid = np.abs(F[k] @ V - g[k] @ V @ np.diag(lam_ref)).max()
            assert resid < 1e-10 * max(1.0, np.abs(F[k]).max())

    def test_monotone_in_metric_shift(self):
        rng = np.random.default_rng(42)
        F = random_hermitian(rng, 500, 2)
        g = random_metric(rng, 500, 2)
        d0 = dl.pointwise_phase(F, g)
        d1 = dl.pointwise_phase(F + 0.5 * g, g)
        assert (d1.lam > d0.lam).all()
        assert (d1.theta > d0.theta).all()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**31 - 1))
    def test_branch_and_consistency_property(self, n, seed):
        rng = np.random.default_rng(seed)
        F = random_hermitian(rng, 1, n)[0]
        g = random_metric(rng, 1, n)[0]
        d = dl.pointwise_phase(F, g)
        assert abs(d.theta) < n * np.pi / 2
        mod = np.abs(d.zeta)
        assert complex(d.zeta) == pytest.approx(mod * np.exp(1j * float(d.theta)), rel=1e-10)


def proportional_phase(geom, c, u):
    """PhaseFields of c omega + ddbar u, the flow's."""
    flow = dl.LineBundleFlow(dl.BaseCurvature.proportional(geom, c), 0.0)
    return flow.phase_fields(flow.spectrum(u))


class TestPhaseFields:
    """The flow's PhaseFields (`LineBundleFlow.phase_fields`); the coordinate path of
    `spectral_oracle.phase_fields` for batches of matrices that are not a flow's."""

    def test_constant_proportional(self, torus1):
        pf = proportional_phase(torus1, 1.0, np.zeros(torus1.shape))
        assert np.abs(pf.theta - np.pi / 4).max() < 1e-15
        assert np.abs(pf.zeta - (1 + 1j)).max() < 1e-15

    def test_zero_field(self, torus1):
        pf = proportional_phase(torus1, 0.0, np.zeros(torus1.shape))
        assert np.abs(pf.theta).max() == 0.0
        assert np.abs(pf.zeta - 1.0).max() == 0.0

    @pytest.mark.parametrize("c,delta", [(1.0, 0.1), (0.5, 0.05)])
    def test_perturbation_phase_bound(self, torus1, c, delta):
        # eigenvalue perturbation plus the 1-Lipschitz arctan bound
        pf = proportional_phase(torus1, c, delta * cos_axis(torus1, 0))
        n = torus1.n
        assert np.abs(pf.theta - n * np.arctan(c)).max() <= n * delta / 4 * (1 + 1e-12)

    def test_matches_pointwise_brute_force(self):
        geom = dl.build_torus(2, 8, np.array([[2.0, 0.3j], [-0.3j, 1.0]]))
        u = dl.bandlimited_noise(geom, 2, 1.0, 17)
        F = np.broadcast_to(geom.g, geom.shape + (2, 2)) + complex_hessian(geom, u)
        pf = proportional_phase(geom, 1.0, u)
        flatF = F.reshape(-1, 2, 2)
        flat_theta = pf.theta.reshape(-1)
        for k in range(0, flatF.shape[0], 257):
            lam = scipy.linalg.eigh(flatF[k], geom.g, eigvals_only=True)
            assert np.arctan(lam).sum() == pytest.approx(flat_theta[k], abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**31 - 1),
           st.sampled_from([3.0, 30.0]), st.floats(-20.0, 20.0))
    def test_matches_eigenvalue_oracle_property(self, n, seed, scale, shift):
        # the characteristic-polynomial path against eigvalsh, on a batch of
        # points; a shift of +-20 g pushes |theta| past pi at n = 3
        rng = np.random.default_rng(seed)
        g = random_metric(rng, 1, n)[0]
        F = random_hermitian(rng, 32, n, scale) + shift * g
        pf = phase_fields(dl.build_torus(n, 8, g), F)
        d = dl.pointwise_phase(F, g)
        tol = 1e-14 * (1.0 + scale) ** 2
        assert np.abs(pf.theta - d.theta).max() <= tol
        assert (np.abs(pf.zeta - d.zeta) / np.abs(d.zeta)).max() <= tol

    def test_branch_beyond_pi_n3(self):
        rng = np.random.default_rng(3)
        g = random_metric(rng, 1, 3)[0]
        F = random_hermitian(rng, 64, 3, 3.0)
        for sign in (1.0, -1.0):
            Fs = F + sign * 20.0 * g
            theta = phase_fields(dl.build_torus(3, 8, g), Fs).theta
            expect = dl.pointwise_phase(Fs, g).theta
            assert (sign * expect > np.pi).all()
            assert np.abs(theta - expect).max() < 1e-13

    def test_characteristic_coefficients(self, torus2):
        # e_1 = tr(g^-1 F) and e_2 = det(g^-1 F) at n = 2
        g = np.array([[2.0, 0.3j], [-0.3j, 1.0]])
        geom = dl.build_torus(2, 8, g)
        F = random_hermitian(np.random.default_rng(5), 16, 2)
        e = characteristic_field(geom, F)
        A = np.linalg.inv(g) @ F
        assert e[0] == 1.0
        assert np.abs(e[1] - np.trace(A, axis1=-2, axis2=-1).real).max() < 1e-13
        assert np.abs(e[2] - np.linalg.det(A).real).max() < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_first_power_sum_is_the_trace(self, n):
        # e_1 = p_1 is summed from the diagonal fields, bit for bit the trace
        F = random_hermitian(np.random.default_rng(n), 512, n).reshape(8, 8, 8, n, n)
        e = frame_characteristic(hermitian_planes(F))
        assert np.array_equal(e[1], np.trace(F, axis1=-2, axis2=-1).real)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_theta_from_zeta_parts_matches_complex_zeta(self, n):
        # theta from the real sums Re zeta and Im zeta, bit for bit the formula
        # on the complex zeta; a shift of +-20 takes Re zeta < 0 at n >= 2
        rng = np.random.default_rng(40 + n)
        F = random_hermitian(rng, 512, n) + rng.choice([-20.0, 0.0, 20.0], (512, 1, 1)) * np.eye(n)
        pf = dl.PhaseFields(frame_characteristic(hermitian_planes(F)))
        zeta = pf.zeta
        with np.errstate(divide="ignore"):
            expect = np.arctan(zeta.imag / zeta.real)
        np.add(expect, np.copysign(np.pi, pf.e[1]), out=expect, where=zeta.real < 0)
        assert np.array_equal(pf.theta, expect)
        assert (zeta.real < 0).any() == (n > 1)
        if n == 1:
            assert np.array_equal(pf.theta, np.arctan(pf.e[1]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_power_sums_match_full_product_oracle(self, n):
        # p_2 and p_3 from the diagonal and the entries above it: theta bit for bit
        # at n = 1, within 1e-14 at n >= 2
        F = random_hermitian(np.random.default_rng(60 + n), 4096, n).reshape(8, 8, 8, 8, n, n)
        new, old = frame_characteristic(hermitian_planes(F)), full_product_characteristic(F)
        theta, expect = dl.PhaseFields(new).theta, dl.PhaseFields(old).theta
        if n == 1:
            assert np.array_equal(theta, expect)
        assert np.abs(theta - expect).max() <= 1e-14
        for k in range(1, n + 1):
            assert np.abs(new[k] - old[k]).max() <= 1e-13 * np.abs(old[k]).max(), k

    def test_pointwise_error_carries_grid_location(self, torus2):
        F = np.broadcast_to(torus2.g, torus2.shape + (2, 2)).copy()
        F[3, 1, 4, 2, 0, 1] += 1.0  # break Hermitian symmetry at one point
        with pytest.raises(ValueError, match=r"grid point \(3, 1, 4, 2\)"):
            dl.pointwise_phase(F, torus2.g)


class TestEtaPair:
    """The closed-form eta = I + F^2 and its adjugate inverse against
    np.linalg.inv(I + F @ F), kept here as the oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_grid_field_matches_inverse_oracle(self, n):
        F = random_hermitian(np.random.default_rng(70 + n), 512, n).reshape(8, 8, 8, n, n)
        eta, eta_inv = eta_pair(F)
        oracle = np.eye(n) + F @ F
        assert eta.shape == eta_inv.shape == F.shape
        assert max_rel(eta, oracle).max() <= 1e-13
        assert max_rel(eta_inv, np.linalg.inv(oracle)).max() <= 1e-13
        # each entry is a contiguous field, and both are Hermitian
        assert eta_inv[..., 0, n - 1].flags.c_contiguous
        for X in (eta, eta_inv):
            assert np.array_equal(X, X.conj().swapaxes(-1, -2))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_matrix(self, n):
        F = random_hermitian(np.random.default_rng(80 + n), 1, n)[0]
        eta, eta_inv = eta_pair(F)
        oracle = np.eye(n) + F @ F
        assert eta.shape == eta_inv.shape == (n, n)
        assert max_rel(eta_inv, np.linalg.inv(oracle)) <= 1e-13
        assert max_rel(eta_inv @ eta, np.eye(n)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_eigenvalues_up_to_1e3(self, n):
        # |lambda| from 1e-3 to 1e3 with random signs.  The oracle inverts eta
        # after its entries are rounded at eps |lambda_max|^2, so it is accurate
        # only to its condition number kappa = (1 + lambda_max^2) / (1 + lambda_min^2)
        # times rounding (the closed form takes its minors from F); up to
        # |lambda| = 10 the plain 1e-13 holds
        rng = np.random.default_rng(90 + n)
        for top in (10.0, 1e3):
            lam = rng.choice([-1.0, 1.0], (4096, n)) * 10.0 ** rng.uniform(-3, np.log10(top), (4096, n))
            F = hermitian_with_eigenvalues(rng, lam)
            _, eta_inv = eta_pair(F)
            err = max_rel(eta_inv, np.linalg.inv(np.eye(n) + F @ F))
            kappa = (1 + (lam ** 2).max(axis=-1)) / (1 + (lam ** 2).min(axis=-1))
            assert (err <= 1e-13 * (1.0 if top == 10.0 else kappa)).all(), top


class TestHypercriticalClassify:
    def test_hypercritical_n2(self):
        assert dl.hypercritical_classify(np.full(4, np.pi / 2 + 0.1), 2) == "hypercritical"

    def test_supercritical_n2(self):
        assert dl.hypercritical_classify(np.full(4, 0.1), 2) == "supercritical"

    def test_supercritical_n1_negative(self):
        assert dl.hypercritical_classify(np.full(4, -0.3), 1) == "supercritical"

    def test_none(self):
        assert dl.hypercritical_classify(np.full(4, -2.0), 1) == "none"
