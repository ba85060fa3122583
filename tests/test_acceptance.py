"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy shared artifact is the delta-sweep at N = 64 (nine full flow runs
to residual 1e-10); it is built once and reused by the criteria that refer
to it.  Lines are written past pytest's capture so the per-criterion
verdicts always appear in the terminal output.
"""

import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import dhym_lab as dl
from conftest import cos_axis, run_sampled
from spectral_oracle import base_field, characteristic_field


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {verdict} {name}: {detail}", file=sys.__stdout__, flush=True)


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def sweep_report():
    geom = dl.build_torus(1, 64, [1.0])
    base = dl.BaseCurvature.proportional(geom, 1.0)
    cfg = dl.SweepConfig(flow=dl.LineBundleFlow(base), delta_list=[0.01, 0.05, 0.1],
                         seeds=3, k_band=2, dt_safety=1.0, t_max=200.0,
                         residual_tol=1e-10, sample_every=256)
    return dl.stability_sweep(cfg)


@pytest.fixture(scope="module")
def harnack_run():
    """(trajectory, samples) of a delta = 0.05 run at N = 64 sampled densely over [0, 2]."""
    geom = dl.build_torus(1, 64, [1.0])
    base = dl.BaseCurvature.proportional(geom, 1.0)
    u0 = dl.bandlimited_noise(geom, 2, 1.0, 7)
    u0 *= 0.05 / dl.tensor_norms(geom, u0).hess_sup
    return run_sampled(dl.run_fixed, dl.LineBundleFlow(base, float(np.arctan(1.0))), u0,
                       dt=1.0 / 512, n_steps=1024, sample_every=32)


def test_criterion_1_phase_algebra_suite():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst_arg = 0.0
    worst_psd = np.inf
    for n in (1, 2, 3):
        count = 100_000
        A = rng.uniform(-3, 3, (count, n, n)) + 1j * rng.uniform(-3, 3, (count, n, n))
        F = (A + A.conj().swapaxes(-1, -2)) / 2
        B = rng.uniform(-1, 1, (count, n, n)) + 1j * rng.uniform(-1, 1, (count, n, n))
        g = B @ B.conj().swapaxes(-1, -2) + 0.5 * np.eye(n)
        d = dl.pointwise_phase(F, g)
        det_eta = np.linalg.det(d.eta).real
        det_g = np.linalg.det(g).real
        rel = np.abs(d.zeta - np.exp(1j * d.theta) * np.sqrt(det_eta / det_g)) / np.abs(d.zeta)
        worst_arg = max(worst_arg, float(rel.max()))
        scale_eta = float(np.abs(d.eta).max())
        ginv = np.linalg.inv(g)
        m1 = float(np.linalg.eigvalsh(d.eta - g).min()) / scale_eta
        m2 = float(np.linalg.eigvalsh(ginv - d.eta_inv).min()) / float(np.abs(ginv).max())
        worst_psd = min(worst_psd, m1, m2)
    wall = time.perf_counter() - t0
    ok = worst_arg <= 1e-10 and worst_psd >= -1e-12 and wall < 30.0
    _criterion(1, "phase-algebra suite",
               ok, f"arg-consistency {worst_arg:.2e}, PSD margin {worst_psd:.2e}, {wall:.1f}s")
    assert worst_arg <= 1e-10
    assert worst_psd >= -1e-12
    assert wall < 30.0


def test_criterion_2_linearization():
    errs = {}
    for n, N in ((1, 64), (2, 32)):
        geom = dl.build_torus(n, N, np.eye(n))
        base = dl.BaseCurvature.proportional(geom, 1.0)
        u = dl.bandlimited_noise(geom, 2, 1.0, 31)
        u *= 0.2 / dl.tensor_norms(geom, u).hess_sup
        phi = dl.bandlimited_noise(geom, 2, 1.0, 32)
        errs[n] = dl.verify_linearization(dl.LineBundleFlow(base), u, phi, 1e-5)
    geom = dl.build_torus(1, 64, [1.0])
    base = dl.BaseCurvature.proportional(geom, 1.0)
    u = dl.bandlimited_noise(geom, 2, 1.0, 41)
    u *= 0.3 / dl.tensor_norms(geom, u).hess_sup
    phi = dl.bandlimited_noise(geom, 2, 1.0, 42)
    e_big = [dl.verify_linearization(dl.LineBundleFlow(base), u, phi, eps) for eps in (8e-4, 4e-4)]
    order = float(np.log2(e_big[0] / e_big[1]))
    ok = errs[1] <= 1e-6 and errs[2] <= 1e-6 and 1.6 <= order <= 2.4
    _criterion(2, "linearization",
               ok, f"rel err n=1 {errs[1]:.2e}, n=2 {errs[2]:.2e}, order {order:.2f}")
    assert errs[1] <= 1e-6 and errs[2] <= 1e-6
    assert 1.6 <= order <= 2.4


def test_criterion_3_cohomological_invariance(sweep_report):
    cell = next(c for c in sweep_report.cells if c.delta == 0.05 and c.seed == 0)
    recs = [r for r in cell.records if r.t <= 20.0]
    Z0 = complex(recs[0].Z_re, recs[0].Z_im)
    drift = max(abs(complex(r.Z_re, r.Z_im) - Z0) for r in recs) / abs(Z0)
    worst_wind = 0.0
    for n, N in ((1, 32), (2, 16)):
        geom = dl.build_torus(n, N, np.eye(n))
        for c in (0.5, 1.0, 2.0):
            F = c * np.broadcast_to(geom.g, geom.shape + (n, n)).copy()
            lift = dl.winding_hat_theta(geom, characteristic_field(geom, F))
            worst_wind = max(worst_wind, abs(lift - n * np.arctan(c)))
    ok = drift <= 1e-9 and worst_wind <= 1e-10
    _criterion(3, "cohomological invariance",
               ok, f"max Z drift {drift:.2e}, winding error {worst_wind:.2e}")
    assert drift <= 1e-9
    assert worst_wind <= 1e-10


def test_criterion_4_maximum_principle(sweep_report, harnack_run):
    worst = -np.inf
    for cell in sweep_report.cells:
        traj = SimpleNamespace(records=cell.records,
                               flow=SimpleNamespace(hat_theta=np.arctan(1.0)))
        res = dl.maximum_principle_monitor(traj)
        worst = max(worst, res.worst_violation)
    res = dl.maximum_principle_monitor(harnack_run[0])
    worst = max(worst, res.worst_violation)
    ok = worst <= 0.0
    _criterion(4, "maximum principle", ok, f"worst violation {worst:.2e} over 10 trajectories")
    assert ok


def test_criterion_5_evolution_identities():
    geom = dl.build_torus(1, 64, [1.0])
    base = dl.BaseCurvature.proportional(geom, 1.0)
    hat = float(np.arctan(1.0))
    u0 = dl.bandlimited_noise(geom, 2, 1.0, 11)
    u0 *= 0.05 / dl.tensor_norms(geom, u0).hess_sup

    def residuals(dt_s):
        flow = dl.LineBundleFlow(base, hat)
        _, samples = run_sampled(dl.run_fixed, flow, u0, dt=dt_s, n_steps=8, sample_every=1)
        reports = dl.verify_evolution_identities(flow, samples[3:6])  # centred on sample 4
        return {rep.identity: rep.residual_rel for rep in reports}

    r1 = residuals(1e-3)
    r2 = residuals(5e-4)
    tol = {"u_sq": 1e-4, "grad_sq": 1e-4, "Theta": 1e-3, "ThetaP": 1e-3}
    slopes = {w: float(np.log2(r1[w] / r2[w])) for w in r1}
    ok = all(r1[w] <= tol[w] for w in r1) and all(1.6 <= s <= 2.4 for s in slopes.values())
    detail = ", ".join(f"{w} {r1[w]:.1e} (slope {slopes[w]:.2f})" for w in r1)
    _criterion(5, "evolution identities", ok, detail)
    for w in r1:
        assert r1[w] <= tol[w], w
        assert 1.6 <= slopes[w] <= 2.4, w


def test_criterion_6_stationary_point_identities():
    worst_first = 0.0
    worst_second = 0.0
    # trivial stationary base at N = 64
    geom = dl.build_torus(1, 64, [1.0])
    base = dl.BaseCurvature.proportional(geom, 1.0)
    cfg = dl.FlowConfig(flow=dl.LineBundleFlow(base, float(np.arctan(1.0))),
                        u0=np.zeros(geom.shape), t_max=10.0)
    ref = dl.generate_reference(cfg)
    r1, r2 = ref.identities
    worst_first = max(worst_first, r1.residual_rel)
    worst_second = max(worst_second, r2.residual_rel)
    # oscillatory base at N = 32, driven to convergence
    geom = dl.build_torus(1, 32, [1.0])
    psi = 0.2 * cos_axis(geom, 0)
    base = dl.BaseCurvature(geometry=geom, F0=geom.g, psi=psi)
    hat = dl.winding_hat_theta(geom, characteristic_field(geom, base_field(base)))
    cfg = dl.FlowConfig(flow=dl.LineBundleFlow(base, hat), u0=np.zeros(geom.shape),
                        dt_safety=1.0, t_max=400.0, sample_every=1000)
    ref = dl.generate_reference(cfg)
    r1, r2 = ref.identities
    worst_first = max(worst_first, r1.residual_rel)
    worst_second = max(worst_second, r2.residual_rel)
    ok = worst_first <= 1e-8 and worst_second <= 1e-6
    _criterion(6, "stationary-point identities",
               ok, f"gradient sup {worst_first:.2e}, expansion residual {worst_second:.2e}")
    assert worst_first <= 1e-8
    assert worst_second <= 1e-6


def test_criterion_7_stability_theorem(sweep_report):
    cells = sweep_report.cells
    all_converged = all(c.status == "converged" and c.time_to_tol < 200.0 for c in cells)
    final_resid = max(c.records[-1].residual_sup for c in cells)
    ratio_max = max(c.hess_ratio_max for c in cells)
    small = [c for c in cells if c.delta == 0.01]
    rate_ok = all(abs(c.rate - 0.125) <= 0.1 * 0.125 and c.r_squared >= 0.99 for c in small)
    rates = ", ".join(f"{c.rate:.4f}" for c in small)
    ok = all_converged and final_resid <= 1e-10 and ratio_max <= 2.0 and rate_ok
    _criterion(7, "stability and exponential convergence",
               ok, f"9/9 converged={all_converged}, sup_t hess/delta {ratio_max:.3f}, "
                   f"rates(delta=0.01) [{rates}]")
    assert all_converged
    assert final_resid <= 1e-10
    assert ratio_max <= 2.0
    assert rate_ok


def test_criterion_8_harnack_and_oscillation(sweep_report, harnack_run):
    worst_ratio = 0.0
    for cell in sweep_report.cells:
        if cell.delta != 0.05:
            continue
        chis = [r.osc_udot for r in cell.records]
        ts = [r.t for r in cell.records]
        for (t0, a), (t1, b) in zip(zip(ts, chis), zip(ts[1:], chis[1:])):
            if a > 1e-14:
                worst_ratio = max(worst_ratio, b / a)
    traj, samples = harnack_run
    rep = dl.harnack_monitor(traj.flow, samples)
    finite = np.isfinite(rep.quotient_xi) and np.isfinite(rep.quotient_psi)
    ok = worst_ratio <= 1.0 + 1e-9 and rep.positive and rep.monotone and finite
    _criterion(8, "Harnack / oscillation",
               ok, f"max chi ratio {worst_ratio:.9f}, quotients "
                   f"({rep.quotient_xi:.3f}, {rep.quotient_psi:.3f}), "
                   f"positive={rep.positive}, monotone={rep.monotone}")
    assert worst_ratio <= 1.0 + 1e-9
    assert rep.positive and rep.monotone and finite


def test_criterion_9_integrator_order():
    geom = dl.build_torus(1, 16, [1.0])
    base = dl.BaseCurvature.proportional(geom, 1.0)
    hat = float(np.arctan(1.0))
    u0 = dl.bandlimited_noise(geom, 2, 1.0, 9)
    u0 *= 0.05 / dl.tensor_norms(geom, u0).hess_sup
    T = 0.5
    dt0 = dl.stable_dt(geom, 1.0)

    def final(dt):
        return dl.run_fixed(dl.LineBundleFlow(base, hat), u0, dt=dt,
                            n_steps=int(round(T / dt)), sample_every=10**9).final.u

    ref = final(dt0 / 8)
    e1 = float(np.abs(final(dt0) - ref).max())
    e2 = float(np.abs(final(dt0 / 2) - ref).max())
    ratio = e1 / e2

    stat = dl.run_fixed(dl.LineBundleFlow(base, hat), np.zeros(geom.shape),
                        dt=dt0, n_steps=int(round(1.0 / dt0)), sample_every=10**9)
    drift = float(np.abs(stat.final.u).max()) / stat.final.t
    ok = 12.0 <= ratio <= 20.0 and drift <= 1e-14
    _criterion(9, "integrator order",
               ok, f"refinement ratio {ratio:.2f}, stationary drift {drift:.1e}/unit time")
    assert 12.0 <= ratio <= 20.0
    assert drift <= 1e-14
