import math

import numpy as np
import pytest

import dhym_lab as dl
from conftest import cos_axis, fails_on_call
from dhym_lab.diagnostics import oscillation_decay


class TestGenerateReference:
    def test_trivial_base_returns_zero_immediately(self, torus1):
        base = dl.BaseCurvature.proportional(torus1, 1.0)
        cfg = dl.FlowConfig(geometry=torus1, base=base, u0=np.zeros(torus1.shape),
                            hat_theta=float(np.arctan(1.0)), t_max=10.0)
        ref = dl.generate_reference(cfg)
        assert np.abs(ref.u_hat).max() == 0.0
        assert ref.trajectory.t_final == 0.0
        assert ref.residual_sup < 1e-11

    def test_oscillatory_base_reference(self, torus1):
        psi = 0.2 * cos_axis(torus1, 0)
        base = dl.BaseCurvature(geometry=torus1, F0=torus1.g, psi=psi)
        hat = dl.winding_hat_theta(torus1, base.field())
        cfg = dl.FlowConfig(geometry=torus1, base=base, u0=np.zeros(torus1.shape),
                            hat_theta=hat, dt_safety=1.0, t_max=400.0,
                            sample_every=1000)
        ref = dl.generate_reference(cfg)
        assert ref.residual_sup <= 1e-11
        # the endpoint realizes a spatially constant phase
        F = base.field() + dl.complex_hessian(torus1, ref.u_hat)
        theta = dl.phase_fields(torus1, F).theta
        assert theta.max() - theta.min() < 5e-11
        rep1, rep2 = ref.identities
        assert rep1.residual_rel < 1e-8
        assert rep2.residual_rel < 1e-6

    def test_far_from_solution_reports_failure(self, torus1):
        psi = 50.0 * cos_axis(torus1, 0)
        base = dl.BaseCurvature(geometry=torus1, F0=torus1.g, psi=psi)
        hat = dl.winding_hat_theta(torus1, base.field())
        cfg = dl.FlowConfig(geometry=torus1, base=base, u0=np.zeros(torus1.shape),
                            hat_theta=hat, dt_safety=1.0, t_max=2.0,
                            sample_every=1000)
        with pytest.raises(RuntimeError, match="no reference obtained"):
            dl.generate_reference(cfg)


def small_sweep(torus1, deltas, seeds=2, k_band=2):
    base = dl.BaseCurvature.proportional(torus1, 1.0)
    cfg = dl.SweepConfig(geometry=torus1, base=base, delta_list=deltas,
                         seeds=seeds, k_band=k_band, dt_safety=1.0, t_max=250.0,
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

    def test_cell_failure_recorded_not_raised(self, torus1):
        # an impossible noise band fails inside the cell and is recorded
        report = small_sweep(torus1, [0.01], seeds=1, k_band=torus1.N)
        assert report.cells[0].status == "error"
        assert "dealiasing" in report.cells[0].error
        assert report.largest_delta_all_converged == 0.0

    def test_validation(self, torus1):
        base = dl.BaseCurvature.proportional(torus1, 1.0)
        with pytest.raises(ValueError, match="ascending"):
            dl.SweepConfig(geometry=torus1, base=base, delta_list=[0.1, 0.01], seeds=1)
        with pytest.raises(ValueError, match="seed"):
            dl.SweepConfig(geometry=torus1, base=base, delta_list=[0.1], seeds=0)

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
            harness.stability_sweep(dl.SweepConfig(geometry=torus1, base=base,
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

        def spy(cfg, flow):
            traj = run_flow(cfg, flow)
            runs.append((cfg, flow, traj, flow._etd[0]))
            return traj

        monkeypatch.setattr(harness, "run_flow", spy)
        report = dl.stability_sweep(sweep)
        monkeypatch.setattr(harness, "run_flow", run_flow)
        return report, runs

    def test_cells_match_standalone_runs_bit_for_bit(self, monkeypatch):
        import dhym_lab.flow as flow_mod

        geom = dl.build_torus(1, 16, [1.0])
        sweep = dl.SweepConfig(geometry=geom, base=dl.BaseCurvature.proportional(geom, 1.0),
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
        assert len({id(flow) for _, flow, _, _ in runs}) == 1
        assert runs[0][2].steps_rejected == 1 and runs[0][3] == ds / 2
        assert [h for *_, h in runs[1:]] == [ds] * 3
        for k, (cell, (cfg, _, traj, _)) in enumerate(zip(report.cells, runs)):
            if k == 0:
                monkeypatch.setattr(flow_mod, "etdrk4_step", fails_on_call(step, last)[0])
            alone = dl.run_flow(cfg)
            monkeypatch.setattr(flow_mod, "etdrk4_step", step)
            assert cell.status == alone.status == "converged"
            assert [r.csv_row() for r in cell.records] == [r.csv_row() for r in alone.records]
            assert cell.rate == oscillation_decay(alone).rate

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

    def test_run_flow_refuses_a_flow_of_another_run(self, torus1):
        base = dl.BaseCurvature.proportional(torus1, 1.0)
        hat = float(np.arctan(1.0))
        cfg = dl.FlowConfig(geometry=torus1, base=base, u0=np.zeros(torus1.shape), hat_theta=hat)
        other_geom = dl.build_torus(1, 32, [1.0])
        for flow in (dl.LineBundleFlow(other_geom, base, hat),
                     dl.LineBundleFlow(torus1, dl.BaseCurvature.proportional(torus1, 1.0), hat),
                     dl.LineBundleFlow(torus1, base, hat + 1e-3)):
            with pytest.raises(ValueError, match="does not match"):
                dl.run_flow(cfg, flow)
        assert dl.run_flow(cfg, dl.LineBundleFlow(torus1, base, hat)).status == "converged"
