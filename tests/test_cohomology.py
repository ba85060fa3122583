import numpy as np
import pytest

import dhym_lab as dl
from conftest import cos_axis


def proportional_field(geom, c):
    return c * np.broadcast_to(geom.g, geom.shape + (geom.n, geom.n)).copy()


class TestComputeZ:
    def test_proportional(self, torus1):
        Z = dl.compute_Z(torus1, proportional_field(torus1, 1.0))
        assert Z == pytest.approx((1 + 1j) * torus1.vol, rel=1e-15)

    def test_zero_curvature(self, torus1):
        Z = dl.compute_Z(torus1, np.zeros(torus1.shape + (1, 1)))
        assert Z == pytest.approx(torus1.vol, rel=1e-15)

    def test_hessian_invariance_with_quadrature_oracle(self):
        # Adding a complex Hessian must not move Z; cross-check the value by
        # sampling the analytic integrand on a 4x finer grid (trapezoid rule).
        c = 1.0
        geom = dl.build_torus(1, 64, [1.0])
        u = 0.1 * cos_axis(geom, 0)
        F = proportional_field(geom, c) + dl.complex_hessian(geom, u)
        Z = dl.compute_Z(geom, F)
        expect = (1 + 1j * c) * geom.vol
        assert abs(Z - expect) / abs(Z) < 1e-10

        fine = dl.build_torus(1, 256, [1.0])
        x = fine.axis_coordinate(0)
        lam = c - 0.025 * np.broadcast_to(np.cos(x), fine.shape)  # c + Lap(u)/4
        Z_oracle = (1 + 1j * lam).mean() * fine.vol
        assert abs(Z - Z_oracle) / abs(Z) < 1e-10

    def test_invariance_n2(self, torus2):
        u = dl.bandlimited_noise(torus2, 2, 0.2, 3)
        F0 = proportional_field(torus2, 0.7)
        Z0 = dl.compute_Z(torus2, F0)
        Z1 = dl.compute_Z(torus2, F0 + dl.complex_hessian(torus2, u))
        assert abs(Z1 - Z0) / abs(Z0) < 1e-12


class TestWinding:
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n,N", [(1, 32), (2, 16)])
    def test_proportional_exact(self, c, n, N):
        geom = dl.build_torus(n, N, np.eye(n))
        lift = dl.winding_hat_theta(geom, proportional_field(geom, c))
        assert lift == pytest.approx(n * np.arctan(c), abs=1e-10)

    def test_zero(self, torus1):
        assert dl.winding_hat_theta(torus1, np.zeros(torus1.shape + (1, 1))) == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_principal_argument(self, torus1):
        # small oscillation: the lift must coincide with the principal branch
        psi = 0.3 * cos_axis(torus1, 0)
        F = proportional_field(torus1, 0.8) + dl.complex_hessian(torus1, psi)
        lift = dl.winding_hat_theta(torus1, F)
        Z = dl.compute_Z(torus1, F)
        assert lift == pytest.approx(np.angle(Z), abs=1e-9)

    def test_consistency_lift_is_argument(self, torus1):
        psi = 0.2 * cos_axis(torus1, 0) + 0.1 * cos_axis(torus1, 1)
        F = proportional_field(torus1, 1.3) + dl.complex_hessian(torus1, psi)
        inv = dl.cohomology_invariants(torus1, F)
        assert abs(np.exp(1j * inv.hat_theta) - inv.Z / abs(inv.Z)) < 1e-9
        # Im(e^{-i hat_theta} Z) vanishes
        assert abs((np.exp(-1j * inv.hat_theta) * inv.Z).imag) <= 1e-9 * abs(inv.Z)

    def test_metric_scaling_moves_lift(self):
        # replacing g by s*g divides every eigenvalue by s
        s = 2.0
        g1 = dl.build_torus(1, 32, [1.0])
        g2 = dl.build_torus(1, 32, [s])
        psi = 0.2 * cos_axis(g1, 0)
        F = proportional_field(g1, 1.0) + dl.complex_hessian(g1, psi)
        lam1 = dl.pointwise_phase(F, g1.g).lam
        lam2 = dl.pointwise_phase(F, g2.g).lam
        assert np.abs(lam2 - lam1 / s).max() < 1e-12
        lift1 = dl.winding_hat_theta(g1, F)
        lift2 = dl.winding_hat_theta(g2, F)
        # pointwise recomputation of the expected lift on the rescaled torus
        expect = np.angle((1 + 1j * lam2[..., 0]).mean())
        assert lift2 == pytest.approx(expect, abs=1e-9)
        assert lift2 < lift1

    def test_large_curvature_keeps_branch_n3(self):
        # F = 1e5 omega at n = 3: arg Z(1e4) = 3 arctan(10) is already past pi,
        # so a start fixed at t = 1e4 unwraps onto the branch 2 pi below
        geom = dl.build_torus(3, 8, np.eye(3))
        F = proportional_field(geom, 1e5)
        assert dl.winding_hat_theta(geom, F) == pytest.approx(3 * np.arctan(1e5), abs=1e-9)
        inv = dl.cohomology_invariants(geom, F, n_steps=64)
        assert inv.hat_theta == pytest.approx(3 * np.arctan(1e5), abs=1e-9)

    def test_explicit_start_below_branch_bound_raises(self):
        geom = dl.build_torus(3, 8, np.eye(3))
        with pytest.raises(RuntimeError, match="t_start=10000 too small"):
            dl.winding_hat_theta(geom, proportional_field(geom, 1e5), t_start=1e4)

    def test_path_crossing_zero_raises(self):
        # eigenvalue pattern lambda = (s(x), s(x)) with mean-zero s gives the
        # real-valued path Z(t) = (t^2 - mean(s^2)) vol, which vanishes at
        # t = sqrt(2) here; sampling down from t_start = 2 lands on the zero
        geom = dl.build_torus(2, 8, np.eye(2))
        s = 2.0 * cos_axis(geom, 0)
        F = s[..., np.newaxis, np.newaxis] * np.broadcast_to(np.eye(2), geom.shape + (2, 2))
        with pytest.raises(RuntimeError, match="crosses zero"):
            dl.winding_hat_theta(geom, F, t_start=2.0, n_steps=3)

    def test_under_resolved_raises(self):
        geom = dl.build_torus(2, 8, np.eye(2))
        with pytest.raises(RuntimeError, match="under-resolved"):
            dl.winding_hat_theta(geom, proportional_field(geom, 100.0), n_steps=4)

    def test_invariants_are_path_end_and_lift(self, torus2):
        # Z is the winding path at t = 1 and hat_theta its lift; no path is kept
        F = dl.BaseCurvature(geometry=torus2, F0=np.diag([1.0, 3.0]),
                             psi=0.3 * cos_axis(torus2, 0)).field()
        inv = dl.cohomology_invariants(torus2, F, n_steps=64)
        assert inv.Z == pytest.approx(dl.compute_Z(torus2, F), rel=1e-12)
        assert inv.hat_theta == dl.winding_hat_theta(torus2, F, n_steps=64)
        assert inv.vol == torus2.vol
        assert not hasattr(inv, "winding_samples")
