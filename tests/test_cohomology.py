import numpy as np
import pytest

import dhym_lab as dl
from conftest import cos_axis
from dhym_lab import cohomology
from spectral_oracle import base_field, characteristic_field, complex_hessian, compute_Z


def proportional_field(geom, c):
    return c * np.broadcast_to(geom.g, geom.shape + (geom.n, geom.n)).copy()


def zero_flow(base):
    """The flow of a base at hat_theta 0: its planes, not its own winding, are read."""
    return dl.LineBundleFlow(base, 0.0)


def class_coefficients(base):
    """[e_0, ..., e_n] of the flow's planes at u = 0: those of F_hat's class."""
    flow = zero_flow(base)
    return flow.phase_fields(flow.spectrum(np.zeros(base.geometry.shape))).e


def proportional_coefficients(geom, c):
    return class_coefficients(dl.BaseCurvature.proportional(geom, c))


def winding_path_near_sqrt2():
    """The point of the winding path nearest sqrt(2) and the next one, for a curvature
    with 4 n Lambda below the least start: the module's constants fix the path then."""
    ts = np.geomspace(cohomology._T_START_MIN, 1.0, cohomology._N_POINTS)
    k = int(np.argmin(np.abs(ts - np.sqrt(2.0))))
    return ts[k], ts[k + 1]


def doubled_cosine_coefficients(geom, a):
    """[e_0, e_1, e_2] of lambda = (s, s), s = a cos(x_1), at n = 2."""
    s = a * cos_axis(geom, 0)
    F = s[..., np.newaxis, np.newaxis] * np.broadcast_to(np.eye(2), geom.shape + (2, 2))
    return characteristic_field(geom, F)


class TestComputeZ:
    """Z of a flow state (the integral of zeta over its planes) and the winding's Z."""

    def test_proportional(self, torus1):
        Z = dl.cohomology_invariants(torus1, proportional_coefficients(torus1, 1.0)).Z
        assert Z == pytest.approx((1 + 1j) * torus1.vol, rel=1e-15)

    def test_zero_curvature(self, torus1):
        Z = dl.cohomology_invariants(torus1, proportional_coefficients(torus1, 0.0)).Z
        assert Z == pytest.approx(torus1.vol, rel=1e-15)

    def test_hessian_invariance_with_quadrature_oracle(self):
        # Adding a complex Hessian must not move Z; cross-check the value by
        # sampling the analytic integrand on a 4x finer grid (trapezoid rule).
        c = 1.0
        geom = dl.build_torus(1, 64, [1.0])
        u = 0.1 * cos_axis(geom, 0)
        Z = zero_flow(dl.BaseCurvature.proportional(geom, c)).state(u).Z
        expect = (1 + 1j * c) * geom.vol
        assert abs(Z - expect) / abs(Z) < 1e-10

        fine = dl.build_torus(1, 256, [1.0])
        x = fine.axis_coordinate(0)
        lam = c - 0.025 * np.broadcast_to(np.cos(x), fine.shape)  # c + Lap(u)/4
        Z_oracle = (1 + 1j * lam).mean() * fine.vol
        assert abs(Z - Z_oracle) / abs(Z) < 1e-10

    def test_invariance_n2(self, torus2):
        u = dl.bandlimited_noise(torus2, 2, 0.2, 3)
        flow = zero_flow(dl.BaseCurvature.proportional(torus2, 0.7))
        Z0 = flow.state(np.zeros(torus2.shape)).Z
        Z1 = flow.state(u).Z
        assert abs(Z1 - Z0) / abs(Z0) < 1e-12


class TestWinding:
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n,N", [(1, 32), (2, 16)])
    def test_proportional_exact(self, c, n, N):
        geom = dl.build_torus(n, N, np.eye(n))
        lift = dl.winding_hat_theta(geom, proportional_coefficients(geom, c))
        assert lift == pytest.approx(n * np.arctan(c), abs=1e-10)

    def test_zero(self, torus1):
        lift = dl.winding_hat_theta(torus1, proportional_coefficients(torus1, 0.0))
        assert lift == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_principal_argument(self, torus1):
        # small oscillation: the lift must coincide with the principal branch
        base = dl.BaseCurvature(geometry=torus1, F0=0.8 * torus1.g,
                                psi=0.3 * cos_axis(torus1, 0))
        lift = dl.winding_hat_theta(torus1, class_coefficients(base))
        Z = zero_flow(base).state(np.zeros(torus1.shape)).Z
        assert lift == pytest.approx(np.angle(Z), abs=1e-9)

    def test_consistency_lift_is_argument(self, torus1):
        psi = 0.2 * cos_axis(torus1, 0) + 0.1 * cos_axis(torus1, 1)
        base = dl.BaseCurvature(geometry=torus1, F0=1.3 * torus1.g, psi=psi)
        inv = dl.cohomology_invariants(torus1, class_coefficients(base))
        assert abs(np.exp(1j * inv.hat_theta) - inv.Z / abs(inv.Z)) < 1e-9
        # Im(e^{-i hat_theta} Z) vanishes
        assert abs((np.exp(-1j * inv.hat_theta) * inv.Z).imag) <= 1e-9 * abs(inv.Z)

    def test_metric_scaling_moves_lift(self):
        # replacing g by s*g divides every eigenvalue by s
        s = 2.0
        g1 = dl.build_torus(1, 32, [1.0])
        g2 = dl.build_torus(1, 32, [s])
        psi = 0.2 * cos_axis(g1, 0)
        F = proportional_field(g1, 1.0) + complex_hessian(g1, psi)
        lam1 = dl.pointwise_phase(F, g1.g).lam
        lam2 = dl.pointwise_phase(F, g2.g).lam
        assert np.abs(lam2 - lam1 / s).max() < 1e-12
        lift1, lift2 = (dl.winding_hat_theta(geom, class_coefficients(
            dl.BaseCurvature(geometry=geom, F0=1.0, psi=psi))) for geom in (g1, g2))
        # pointwise recomputation of the expected lift on the rescaled torus
        expect = np.angle((1 + 1j * lam2[..., 0]).mean())
        assert lift2 == pytest.approx(expect, abs=1e-9)
        assert lift2 < lift1

    def test_large_curvature_keeps_branch_n3(self):
        # F = 1e5 omega at n = 3: arg Z(1e4) = 3 arctan(10) is already past pi,
        # so a start fixed at t = 1e4 unwraps onto the branch 2 pi below
        geom = dl.build_torus(3, 8, np.eye(3))
        e = proportional_coefficients(geom, 1e5)
        assert dl.winding_hat_theta(geom, e) == pytest.approx(3 * np.arctan(1e5), abs=1e-9)
        inv = dl.cohomology_invariants(geom, e)
        assert inv.hat_theta == pytest.approx(3 * np.arctan(1e5), abs=1e-9)

    def test_path_crossing_zero_raises(self):
        # eigenvalue pattern lambda = (s(x), s(x)) with s = a cos(x_1) gives the
        # real-valued path Z(t) = (t^2 - a^2 / 2) vol, which vanishes at the path
        # point nearest sqrt(2) for a = sqrt(2) times that point
        geom = dl.build_torus(2, 8, np.eye(2))
        t, _ = winding_path_near_sqrt2()
        with pytest.raises(RuntimeError, match="crosses zero"):
            dl.winding_hat_theta(geom, doubled_cosine_coefficients(geom, np.sqrt(2.0) * t))

    def test_under_resolved_raises(self):
        # the same path vanishing halfway (geometrically) between two of its points:
        # Z changes sign there, so its argument turns by pi in one step
        geom = dl.build_torus(2, 8, np.eye(2))
        t, t_next = winding_path_near_sqrt2()
        with pytest.raises(RuntimeError, match="under-resolved"):
            dl.winding_hat_theta(geom, doubled_cosine_coefficients(geom, np.sqrt(2.0 * t * t_next)))

    def test_curvature_field_refused(self, torus2):
        # the winding takes e_0..e_n, not a grid + (n, n) field of the curvature
        with pytest.raises(ValueError, match=r"expected the 3 coefficients e_0..e_2, got 16"):
            dl.cohomology_invariants(torus2, proportional_field(torus2, 1.0))

    def test_invariants_are_path_end_and_lift(self, torus2):
        # Z is the winding path at t = 1 and hat_theta its lift; no path is kept
        base = dl.BaseCurvature(geometry=torus2, F0=np.diag([1.0, 3.0]),
                                psi=0.3 * cos_axis(torus2, 0))
        e = class_coefficients(base)
        inv = dl.cohomology_invariants(torus2, e)
        assert inv.Z == pytest.approx(zero_flow(base).state(np.zeros(torus2.shape)).Z, rel=1e-12)
        assert inv.Z == pytest.approx(compute_Z(torus2, base_field(base)), rel=1e-12)
        assert inv.hat_theta == dl.winding_hat_theta(torus2, e)
        assert not hasattr(inv, "winding_samples")


def matmul_winding(geom, e, n_steps=4096):
    """(Z, hat_theta) with the winding path taken as one matrix-vector product of the
    powers of t and the coefficients: the form `_winding` summed before."""
    n = geom.n
    coeff = np.array([e[0]] + [geom.mean(ek) for ek in e[1:]]) * (1j ** np.arange(n + 1)) * geom.vol
    sum_sq = e[1] ** 2 - 2.0 * (e[2] if n > 1 else 0.0)
    t_start = max(1e4, 4.0 * n * float(np.sqrt(np.maximum(sum_sq, 0.0)).max()))
    ts = np.geomspace(t_start, 1.0, n_steps)
    Zs = ts[:, None] ** (n - np.arange(n + 1))[None, :] @ coeff
    return complex(Zs[-1]), float(np.unwrap(np.angle(Zs))[-1])


@pytest.mark.parametrize("psi", [False, True], ids=["F0", "psi"])
@pytest.mark.parametrize("metric", [False, True], ids=["I", "g"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_winding_sum_equals_the_matmul_form(n, metric, psi):
    # the path is summed over the powers of t without BLAS; Z(1) and the lift keep
    # the bits of the matrix-vector product on seeded bases
    rng = np.random.default_rng(100 * n + 10 * metric + psi)
    B = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    geom = dl.build_torus(n, 8, B @ B.conj().T + 0.5 * np.eye(n) if metric else np.eye(n))
    for seed in range(2):
        A = rng.uniform(-2, 2, (n, n)) + 1j * rng.uniform(-2, 2, (n, n))
        base = dl.BaseCurvature(geometry=geom, F0=A + A.conj().T,
                                psi=dl.bandlimited_noise(geom, 2, 0.3, seed) if psi else None)
        e = class_coefficients(base)
        inv = dl.cohomology_invariants(geom, e)  # winding_hat_theta is its lift
        assert (inv.Z, inv.hat_theta) == matmul_winding(geom, e)
