"""The g-orthonormal frame against the coordinate formulas it replaces.

The oracles below are the contractions the package used before it moved
every tensor to the frame: explicit g^{-1} and eta^{-1} operands in
einsums over coordinate derivative tensors, eta = g + F g^{-1} F, and the
power sums of A = g^{-1} F.  With a random complex positive-definite g the
frame results must agree with them to 1e-13 relative.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dhym_lab as dl
from dhym_lab import diagnostics
from dhym_lab.config_io import modes_field
from spectral_oracle import deriv

WORDS = ("z", "zZ", "zz", "zZz")


def einsum(*args):
    return np.einsum(*args, optimize=True)


def random_metric(rng, n):
    B = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return B @ B.conj().T + 0.5 * np.eye(n)


def oracle_tensor_norms(geom, u):
    G = np.linalg.inv(geom.g)
    du, H, S, T = (deriv(geom, geom.fft(u), word) for word in WORDS)
    return {
        "grad_sq": einsum("ji,...i,...j->...", G, du, du.conj()).real,
        "Theta": einsum("ji,lk,...il,...kj->...", G, G, H, H).real,
        "ThetaP": einsum("ji,qp,...ip,...jq->...", G, G, S, S.conj()).real,
        "Gamma": einsum("ai,jb,ck,...ijk,...abc->...", G, G, G, T, T.conj()).real,
    }


def oracle_eta_inv(geom, F):
    return np.linalg.inv(geom.g + F @ np.linalg.inv(geom.g) @ F)


def oracle_context(geom, base, u):
    """Coordinate derivative tensors of one sample, as the identities read them."""
    uh = geom.fft(u)
    du, H, S, T = (deriv(geom, uh, word) for word in WORDS)
    F = base.field() + H
    eta = geom.g + F @ np.linalg.inv(geom.g) @ F
    psi_hat = geom.fft(base.psi) if base.psi is not None else None
    dFhat = (deriv(geom, psi_hat, "zzZ") if psi_hat is not None
             else np.zeros(geom.shape + (geom.n,) * 3, dtype=np.complex128))
    return SimpleNamespace(
        uh=uh, du=du, H=H, S=S, T=T, psi_hat=psi_hat, dFhat=dFhat,
        dF=dFhat + np.moveaxis(T, -1, -3), eta=eta, eta_inv=np.linalg.inv(eta),
        theta=dl.pointwise_phase(F, geom.g).theta,
    )


def oracle_identity_rhs(geom, which, ctx, hat_theta, u):
    G, Hinv = np.linalg.inv(geom.g), ctx.eta_inv
    if which == "u_sq":
        lap_u = einsum("...qp,...pq->...", Hinv, ctx.H).real
        grad_part = einsum("...qp,...p,...q->...", Hinv, ctx.du, ctx.du.conj()).real
        return 2.0 * u * (ctx.theta - hat_theta - lap_u) - 2.0 * grad_part
    if which == "grad_sq":
        A = einsum("...qp,ji,...ip,...jq->...", Hinv, G, ctx.S, ctx.S.conj())
        B = einsum("...qp,ji,...iq,...pj->...", Hinv, G, ctx.H, ctx.H)
        C = einsum("...qp,ji,...ipq,...j->...", Hinv, G, ctx.dFhat, ctx.du.conj())
        return -(A + B).real + 2.0 * C.real
    dEta = deriv(geom, geom.fft(ctx.eta), "z")
    dEtaBar = np.conj(np.swapaxes(dEta, -1, -2))
    if which == "Theta":
        T1 = einsum("...qp,ji,lk,...ilp,...jkq->...", Hinv, G, G, ctx.T, ctx.T.conj())
        T2 = einsum("...qp,ji,lk,...liq,...kjp->...", Hinv, G, G, ctx.T.conj(), ctx.T)
        mix = einsum("ji,lk,...bp,...qa,...lab,...ipq,...kj->...",
                     G, G, Hinv, Hinv, dEtaBar, ctx.dF, ctx.H)
        rhs = -(T1 + T2).real - 2.0 * mix.real
        if ctx.psi_hat is not None:
            ddFh = deriv(geom, ctx.psi_hat, "zZzZ")
            rhs += 2.0 * einsum("ji,lk,...qp,...kj,...ilpq->...", G, G, Hinv, ctx.H, ddFh).real
        return rhs
    P = deriv(geom, ctx.uh, "zzz")
    e1 = einsum("...lk,ji,qp,...ipk,...jql->...", Hinv, G, G, P, P.conj())
    e2 = einsum("...lk,ji,qp,...ilp,...jkq->...", Hinv, G, G, ctx.T, ctx.T.conj())
    mix = einsum("ji,qp,...bk,...la,...pab,...ikl,...jq->...",
                 G, G, Hinv, Hinv, dEta, ctx.dF, ctx.S.conj())
    rhs = -(e1 + e2).real - 2.0 * mix.real
    if ctx.psi_hat is not None:
        ddFh = deriv(geom, ctx.psi_hat, "zzzZ")
        rhs += 2.0 * einsum("ji,qp,...lk,...ipkl,...jq->...", G, G, Hinv, ddFh, ctx.S.conj()).real
    return rhs


def oracle_point_identities(geom, ctx):
    """The two stationary-point contractions: (first, lhs, rhs) fields."""
    Hinv = ctx.eta_inv
    first = einsum("...qp,...ipq->...i", Hinv, ctx.dF)
    ddF = deriv(geom, ctx.uh if ctx.psi_hat is None else ctx.uh + ctx.psi_hat, "zZzZ")
    lhs = einsum("...qp,...ijpq->...ij", Hinv, ddF)
    dEta = deriv(geom, geom.fft(ctx.eta), "z")
    dFbar = np.conj(np.swapaxes(ctx.dF, -1, -2))
    rhs = einsum("...tp,...qs,...ist,...jpq->...ij", Hinv, Hinv, dEta, dFbar)
    return first, lhs, rhs


def at_minus_k(f):
    """f(-k) of a full-grid array f(k): index j to -j mod N on every axis."""
    return np.roll(f[(slice(None, None, -1),) * f.ndim], 1, axis=tuple(range(f.ndim)))


def oracle_linear_symbol(geom, F0, N):
    """The even part (L(k) + L(-k)) / 2 of sum_pq Re (eta0^{-1})_qp mz_p mZ_q: where k
    has a Nyquist wave number the mixed and frame products are not even in k."""
    eta_inv = oracle_eta_inv(geom, F0)
    symbol = sum((eta_inv[q, p] * geom.dz_multiplier(p) * geom.dzbar_multiplier(q)).real
                 for p in range(geom.n) for q in range(geom.n))
    symbol = np.broadcast_to(symbol, geom.shape)
    return (0.5 * (symbol + at_minus_k(symbol)))[..., : N // 2 + 1]  # the half grid


def oracle_characteristic(geom, F):
    A = np.linalg.inv(geom.g) @ F
    p = [np.trace(np.linalg.matrix_power(A, k), axis1=-2, axis2=-1).real
         for k in range(1, geom.n + 1)]
    e = [1.0]
    for k in range(1, geom.n + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i - 1] for i in range(1, k + 1)) / k)
    return e


def assert_rel(new, old, label, tol=1e-13):
    new, old = np.asarray(new), np.asarray(old)
    assert np.abs(new - old).max() <= tol * np.abs(old).max(), label


def random_case(n, N, seed):
    rng = np.random.default_rng(seed)
    geom = dl.build_torus(n, N, random_metric(rng, n))
    F0 = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    m = [1] + [0] * (2 * n - 2) + [1]  # psi = 0.1 cos(x_1 + y_n) mixes the axes
    # at n = 3 the base is constant: its fourth derivatives would hold 0.7 GB
    psi = modes_field(geom, [{"m": m, "amplitude": 0.1}]) if n < 3 else None
    base = dl.BaseCurvature(geometry=geom, F0=(F0 + F0.conj().T) / 2 + geom.g, psi=psi)
    u = dl.bandlimited_noise(geom, 2, 0.1, int(rng.integers(2**31)))
    return geom, base, u


class TestToFrame:
    def test_identity_metric_has_no_frame(self, torus2):
        X = np.ones(torus2.shape + (2, 2), dtype=complex)
        assert torus2.frame is None
        assert torus2.to_frame(X, "zZ") is X

    def test_matrix_word_is_congruence(self):
        rng = np.random.default_rng(3)
        g = random_metric(rng, 3)
        geom = dl.build_torus(3, 8, g)
        P = np.linalg.inv(np.linalg.cholesky(g))
        F = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        assert np.allclose(geom.frame, P, rtol=0, atol=1e-14)
        assert_rel(geom.to_frame(F, "zZ"), P @ F @ P.conj().T, "P F P^H")
        # each letter acts on its own axis; leading axes pass through
        assert_rel(geom.to_frame(F, "zz"), P @ F @ P.T, "P F P^T")
        assert_rel(geom.to_frame(F[..., 0], "Z"), F[..., 0] @ P.conj().T, "conj(P) v")

    def test_stable_dt_uses_smallest_metric_eigenvalue(self):
        g = np.array([[2.0, 0.3j], [-0.3j, 1.0]])
        geom = dl.build_torus(2, 8, g)
        lam_max = np.linalg.eigvalsh(np.linalg.inv(g)).max()
        assert dl.stable_dt(geom, 0.5) == pytest.approx(0.5 / (2 * lam_max * 16 / 2), rel=1e-14)


class TestCoordinateOracles:
    # n = 3 runs one example: its identity contractions take about half a minute
    @pytest.mark.parametrize("n,N,examples", [(1, 16, 8), (2, 8, 4), (3, 8, 1)])
    def test_frame_matches_coordinate_oracles(self, n, N, examples):
        @settings(max_examples=examples, deadline=None, database=None)
        @given(st.integers(0, 2**32 - 1))
        def check(seed):
            geom, base, u = random_case(n, N, seed)
            hat = 0.3
            tn = dl.tensor_norms(geom, u)
            for name, field in oracle_tensor_norms(geom, u).items():
                assert_rel(getattr(tn, name), field, name)
            del tn
            # the identities' right sides and the eta-Laplacian of their left sides,
            # one context at a time to bound the memory at n = 3
            ctx = diagnostics._sample_context(geom, base, u)
            names = ("u_sq", "grad_sq", "Theta", "ThetaP")
            rhs = [diagnostics._identity_rhs(geom, which, ctx, hat, u) for which in names]
            lap = np.einsum("...qp,...pq->...", ctx.eta_inv,
                            geom.to_frame(dl.complex_hessian(geom, u**2), "zZ")).real
            del ctx
            # the stationary-point reports, with the residual gate opened
            reps = dl.dhym_point_identities(geom, base, u, hat_theta=hat, residual_tol=1e9)
            octx = oracle_context(geom, base, u)
            for which, field in zip(names, rhs):
                assert_rel(field, oracle_identity_rhs(geom, which, octx, hat, u), which)
            assert_rel(lap, einsum("...qp,...pq->...", octx.eta_inv,
                                   dl.complex_hessian(geom, u**2)).real, "eta-Laplacian")
            first, lhs, rhs = oracle_point_identities(geom, octx)
            del octx
            rhs_norm = np.abs(rhs).max()
            expect = [(np.abs(first).max(), 0.0, np.abs(first).max()),
                      (np.abs(lhs).max(), rhs_norm, np.abs(lhs - rhs).max() / (1 + rhs_norm))]
            for rep, values in zip(reps, expect):
                got = (rep.lhs_norm, rep.rhs_norm, rep.residual_rel)
                assert got == pytest.approx(values, rel=1e-13, abs=1e-300), rep.identity
            # the analytic term of verify_linearization, through its returned error
            phi = dl.bandlimited_noise(geom, 2, 1.0, seed % 997)
            F = base.field()
            analytic = einsum("...qp,...pq->...",
                              oracle_eta_inv(geom, F + dl.complex_hessian(geom, u)),
                              dl.complex_hessian(geom, phi)).real
            eps = 1e-5
            tp, tm = (dl.phase_fields(geom, F + dl.complex_hessian(geom, u + s * phi)).theta
                      for s in (eps, -eps))
            err = np.abs((tp - tm) / (2 * eps) - analytic).max() / np.abs(analytic).max()
            assert abs(dl.verify_linearization(geom, base, u, phi, eps) - err) <= 1e-13
            # the linear symbol of the ETDRK4 stepper
            flow = dl.LineBundleFlow(geom, base, hat)
            assert_rel(flow.linear_symbol, oracle_linear_symbol(geom, base.F0, N), "symbol")
            for j in (0, N // 2):  # L(k) = L(-k) where both k and -k are on the half grid
                plane = flow.linear_symbol[..., j]
                assert_rel(plane, at_minus_k(plane), f"even symbol at last wave number {j}")
            # the characteristic polynomial of (F, g), from g^{-1} F
            F = F + dl.complex_hessian(geom, u)
            for k, (a, b) in enumerate(zip(dl.characteristic_field(geom, F)[1:],
                                           oracle_characteristic(geom, F)[1:]), 1):
                assert_rel(a, b, f"e_{k}")

        check()
