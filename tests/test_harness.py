import dataclasses
import math

import numpy as np
import pytest

import dhym_lab as dl
from conftest import cos_axis, fails_on_call
from dhym_lab.diagnostics import oscillation_decay
from spectral_oracle import base_field, complex_hessian, phase_fields


class TestGenerateReference:
    def test_trivial_base_returns_zero_immediately(self, torus1):
        base = dl.BaseCurvature.proportional(torus1, 1.0)
        cfg = dl.FlowConfig(flow=dl.LineBundleFlow(base, float(np.arctan(1.0))),
                            u0=np.zeros(torus1.shape), t_max=10.0)
        ref = dl.generate_reference(cfg)
        assert np.abs(ref.u_hat).max() == 0.0
        assert ref.trajectory.t_final == 0.0
        assert ref.residual_sup < 1e-11

    def test_oscillatory_base_reference(self, torus1):
        psi = 0.2 * cos_axis(torus1, 0)
        base = dl.BaseCurvature(geometry=torus1, F0=torus1.g, psi=psi)
        cfg = dl.FlowConfig(flow=dl.LineBundleFlow(base), u0=np.zeros(torus1.shape),
                            dt_safety=1.0, t_max=400.0, sample_every=1000)
        ref = dl.generate_reference(cfg)
        assert ref.residual_sup <= 1e-11
        # the endpoint realizes a spatially constant phase
        F = base_field(base) + complex_hessian(torus1, ref.u_hat)
        theta = phase_fields(torus1, F).theta
        assert theta.max() - theta.min() < 5e-11
        rep1, rep2 = ref.identities
        assert rep1.residual_rel < 1e-8
        assert rep2.residual_rel < 1e-6

    def test_far_from_solution_reports_failure(self, torus1):
        psi = 50.0 * cos_axis(torus1, 0)
        base = dl.BaseCurvature(geometry=torus1, F0=torus1.g, psi=psi)
        cfg = dl.FlowConfig(flow=dl.LineBundleFlow(base), u0=np.zeros(torus1.shape),
                            dt_safety=1.0, t_max=2.0, sample_every=1000)
        with pytest.raises(RuntimeError, match="no reference obtained"):
            dl.generate_reference(cfg)


def small_sweep(torus1, deltas, seeds=2):
    base = dl.BaseCurvature.proportional(torus1, 1.0)
    cfg = dl.SweepConfig(flow=dl.LineBundleFlow(base), delta_list=deltas,
                         seeds=seeds, k_band=2, dt_safety=1.0, t_max=250.0,
                         residual_tol=1e-10, sample_every=128)
    return dl.stability_sweep(cfg)


class TestStabilitySweep:
    def test_zero_delta_trivial(self, torus1):
        report = small_sweep(torus1, [0.0], seeds=2)
        assert all(c.status == "converged" for c in report.cells)
        assert all(c.time_to_tol == 0.0 for c in report.cells)

    def test_small_deltas_all_converge(self, torus1):
        report = small_sweep(torus1, [0.01, 0.05], seeds=2)
        assert all(c.status == "converged" for c in report.cells)
        for c in report.cells:
            assert c.hess_ratio_t0 == pytest.approx(1.0, abs=1e-12)
            assert c.hess_ratio_max <= 2.0
            assert c.rate == pytest.approx(0.125, rel=0.10)
            assert c.r_squared >= 0.99
        assert report.largest_delta_all_converged == 0.05
        assert report.warnings == []
        # time to tolerance grows with delta for a fixed seed
        by_seed = {}
        for c in report.cells:
            by_seed.setdefault(c.seed, []).append(c.time_to_tol)
        for times in by_seed.values():
            assert times == sorted(times)

    def test_deterministic_bit_for_bit(self, torus1):
        r1 = small_sweep(torus1, [0.02], seeds=2)
        r2 = small_sweep(torus1, [0.02], seeds=2)
        assert r1.to_dict() == r2.to_dict()

    def test_cell_failure_recorded_not_raised(self, torus1, monkeypatch):
        # a failure inside the cell is recorded in an error cell, and the sweep goes on
        import dhym_lab.harness as harness

        def refuse(*args, **kwargs):
            raise ValueError("no noise today")

        monkeypatch.setattr(harness, "bandlimited_noise", refuse)
        report = small_sweep(torus1, [0.0, 0.01], seeds=1)
        ok, failed = report.cells
        assert ok.status == "converged"
        assert failed.status == "error" and failed.error == "ValueError: no noise today"
        assert all(math.isnan(getattr(failed, name)) for name in (
            "time_to_tol", "hess_ratio_t0", "hess_ratio_max", "rate", "r_squared"))
        assert failed.records == [] and list(failed.summary()) == [
            "delta", "seed", "status", "time_to_tol", "hess_ratio_t0", "hess_ratio_max",
            "rate", "r_squared", "error"]
        assert report.largest_delta_all_converged == 0.0

    @pytest.mark.parametrize("field,value,match", [
        ("delta_list", [], "nonempty"), ("delta_list", [0.1, 0.01], "ascending"),
        ("delta_list", [-0.1], "nonnegative"),
        ("seeds", 0, "seed"), ("k_band", 0, "dealiasing"), ("k_band", 11, "dealiasing"),
        ("seed_base", -3, "seed_base"),
        # a float seeds escaped the sweep as a TypeError, and a float band made each cell an error
        ("seeds", 2.5, "^seeds must be an integer, got 2.5$"),
        ("seeds", True, "^seeds must be an integer, got True$"),
        ("k_band", 1.5, "^k_band must be an integer, got 1.5$"),
        ("seed_base", 0.0, "^seed_base must be an integer, got 0.0$"),
        # a string delta escaped as a TypeError, and a NaN one made each of its cells an error
        ("delta_list", ["0.1"], "finite numbers"), ("delta_list", [np.nan], "finite numbers"),
    ])
    def test_validation(self, torus1, field, value, match):
        # at N = 32 the band may be 1 to 10; every error is raised at construction
        base = dl.BaseCurvature.proportional(torus1, 1.0)
        with pytest.raises(ValueError, match=match):
            dl.SweepConfig(flow=dl.LineBundleFlow(base), **{"delta_list": [0.1], "seeds": 1,
                                                            field: value})

    @pytest.mark.parametrize("field,value", [
        ("t_max", np.nan), ("t_max", np.inf), ("t_max", 0.0), ("residual_tol", np.nan),
        ("residual_tol", -1e-10), ("dt_safety", 0.0), ("dt_safety", 1.5),
        ("dt_safety", np.nan), ("sample_every", 0), ("sample_every", 2.5),
    ])
    def test_refuses_time_parameters_before_any_cell(self, torus1, monkeypatch, field, value):
        # the errors FlowConfig raises, at construction: no noise drawn, no cell run
        import dhym_lab.harness as harness

        def refuse(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness, "bandlimited_noise", refuse)
        monkeypatch.setattr(harness, "_one_cell", refuse)
        base = dl.BaseCurvature.proportional(torus1, 1.0)
        with pytest.raises(ValueError, match=field):
            harness.stability_sweep(dl.SweepConfig(flow=dl.LineBundleFlow(base),
                                                   delta_list=[0.05], seeds=1, **{field: value}))

    def test_rate_table_structure(self, torus1):
        report = small_sweep(torus1, [0.02], seeds=2)
        assert set(report.rate_table) == {0.02}
        assert len(report.rate_table[0.02]) == 2
        assert all(not math.isnan(r) for r in report.rate_table[0.02])


class TestSharedFlow:
    """The cells of a sweep run on one flow and share its ETDRK4 coefficients."""

    @staticmethod
    def sweep_runs(sweep, monkeypatch):
        # the sweep's report and, per cell, its config, flow, trajectory and the step size
        # of the coefficients its flow holds when the cell ends
        import dhym_lab.harness as harness

        runs, run_flow = [], harness.run_flow

        def spy(cfg):
            traj = run_flow(cfg)
            runs.append((cfg, cfg.flow, traj, cfg.flow._etd[0]))
            return traj

        monkeypatch.setattr(harness, "run_flow", spy)
        report = dl.stability_sweep(sweep)
        monkeypatch.setattr(harness, "run_flow", run_flow)
        return report, runs

    def test_cells_match_standalone_runs_bit_for_bit(self, monkeypatch):
        import dhym_lab.flow as flow_mod

        geom = dl.build_torus(1, 16, [1.0])
        sweep = dl.SweepConfig(flow=dl.LineBundleFlow(dl.BaseCurvature.proportional(geom, 1.0)),
                               delta_list=[0.01, 0.05], seeds=2, dt_safety=1.0, t_max=250.0,
                               residual_tol=1e-10, sample_every=128)
        _, plain = self.sweep_runs(sweep, monkeypatch)
        # the first cell's last step fails and is retried in two halves, so the flow holds
        # the coefficients of half the step when the second cell starts
        last = plain[0][2].steps
        step = flow_mod.etdrk4_step
        monkeypatch.setattr(flow_mod, "etdrk4_step", fails_on_call(step, last)[0])
        report, runs = self.sweep_runs(sweep, monkeypatch)
        monkeypatch.setattr(flow_mod, "etdrk4_step", step)
        ds = 128 * dl.stable_dt(geom, 1.0)
        assert all(flow is sweep.flow for _, flow, _, _ in runs)
        assert runs[0][2].steps_rejected == 1 and runs[0][3] == ds / 2
        assert [h for *_, h in runs[1:]] == [ds] * 3
        for k, (cell, (cfg, _, traj, _)) in enumerate(zip(report.cells, runs)):
            if k == 0:
                monkeypatch.setattr(flow_mod, "etdrk4_step", fails_on_call(step, last)[0])
            # the standalone run gets a fresh flow, so nothing it holds comes from the sweep
            fresh = dl.LineBundleFlow(cfg.flow.base, cfg.flow.hat_theta)
            alone = dl.run_flow(dataclasses.replace(cfg, flow=fresh))
            monkeypatch.setattr(flow_mod, "etdrk4_step", step)
            assert cell.status == alone.status == "converged"
            assert [r.csv_row() for r in cell.records] == [r.csv_row() for r in alone.records]
            assert cell.rate == oscillation_decay(alone).rate
            # record 0's hess_sup is that of the two tensors alone, bit for bit
            t0 = dl.tensor_norms(geom, cfg.u0, ("Theta", "ThetaP")).hess_sup / cell.delta
            assert cell.hess_ratio_t0 == t0

    def test_sweep_builds_etdrk4_coefficients_once(self, torus1, monkeypatch):
        etd, built = dl.LineBundleFlow.etd_coefficients, []

        def spy(flow, h):
            coefficients = etd(flow, h)
            if not any(coefficients is c for c in built):
                built.append(coefficients)
            return coefficients

        monkeypatch.setattr(dl.LineBundleFlow, "etd_coefficients", spy)
        report = small_sweep(torus1, [0.01, 0.05], seeds=1)
        assert [c.status for c in report.cells] == ["converged"] * 2
        assert len(built) == 1
