import dataclasses
import json
import shutil

import numpy as np
import pytest

import dhym_lab as dl
from dhym_lab import diagnostics
from dhym_lab.cli import main as cli_main
from dhym_lab.config_io import parse_config_data
from conftest import fails_on_call


def minimal_config(**overrides):
    doc = {
        "dimension": 1,
        "resolution": 32,
        "metric": [[1.0]],
        "base_curvature": {"constant": [[1.0]]},
    }
    doc.update(overrides)
    return doc


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config_data(minimal_config())
        assert cfg.dimension == 1
        assert cfg.resolution == 32
        assert cfg.time["dt_safety"] == 0.5
        assert cfg.time["residual_tol"] == 1e-10
        assert cfg.initial == {"type": "zero"}
        assert cfg.outputs["snapshots"] == "none"

    def test_non_hermitian_metric_named(self):
        doc = minimal_config(dimension=2, metric=[[1.0, [0.0, 0.5]], [[0.0, 0.4], 1.0]],
                             base_curvature={"constant": [[1.0, 0.0], [0.0, 1.0]]})
        with pytest.raises(dl.ConfigError, match="metric"):
            parse_config_data(doc)

    @pytest.mark.parametrize("key,name", [("metric", "metric"),
                                          ("base_curvature.constant", "constant curvature")])
    def test_non_hermitian_matrix_message(self, key, name):
        bad = [[1.0, [0.0, 0.5]], [[0.0, 0.4], 1.0]]
        doc = minimal_config(dimension=2, metric=[[1.0, 0.0], [0.0, 1.0]],
                             base_curvature={"constant": [[1.0, 0.0], [0.0, 1.0]]})
        if key == "metric":
            doc["metric"] = bad
        else:
            doc["base_curvature"]["constant"] = bad
        with pytest.raises(dl.ConfigError) as info:
            parse_config_data(doc)
        assert info.value.path == f"$.{key}"
        assert str(info.value) == f"config error at $.{key}: {name} matrix is not Hermitian"

    def test_non_pd_metric(self):
        with pytest.raises(dl.ConfigError, match="metric not positive definite"):
            parse_config_data(minimal_config(metric=[[-1.0]]))

    def test_unknown_key_named(self):
        doc = minimal_config(time={"t_max": 5.0})
        doc["integrater"] = "rk4"
        with pytest.raises(dl.ConfigError, match="integrater"):
            parse_config_data(doc)

    def test_unknown_nested_key_named(self):
        doc = minimal_config(time={"t_maxx": 5.0})
        with pytest.raises(dl.ConfigError, match=r"time.t_maxx"):
            parse_config_data(doc)

    @pytest.mark.parametrize("key,value", [("t_max", -1.0), ("residual_tol", 0.0),
                                           ("dt_safety", 1.5), ("sample_every", 0)])
    def test_time_block_refused_with_the_flow_checks(self, key, value):
        # the checks of FlowConfig and SweepConfig, as a ConfigError on the time block
        with pytest.raises(dl.ConfigError, match=rf"\$\.time: {key} must"):
            parse_config_data(minimal_config(time={key: value}))

    def test_non_hermitian_constant_named(self):
        doc = minimal_config(dimension=2, metric=[[1.0, 0.0], [0.0, 1.0]],
                             base_curvature={"constant": [[1.0, 1.0], [0.0, 1.0]]})
        with pytest.raises(dl.ConfigError, match="constant"):
            parse_config_data(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entry_named(self, value):
        doc = minimal_config(base_curvature={"constant": [[value]]})
        with pytest.raises(dl.ConfigError, match=r"base_curvature\.constant\[0\]\[0\]: "
                                                 "expected a finite number"):
            parse_config_data(doc)

    def test_sweep_config_invalid_json_at_root(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text('{"dimension": 1,')
        with pytest.raises(dl.ConfigError, match=r"at \$: invalid JSON"):
            dl.parse_sweep_config(path)

    def test_mode_band_limit(self):
        doc = minimal_config(initial={"type": "modes",
                                      "modes": [{"m": [20, 0], "amplitude": 0.1}]})
        with pytest.raises(dl.ConfigError, match="dealiasing"):
            parse_config_data(doc)

    def test_roundtrip(self, tmp_path):
        doc = minimal_config(
            hat_theta=0.7,
            base_curvature={
                "constant": [[1.0]],
                "potential": {"modes": [{"m": [1, 0], "amplitude": 0.2, "phase": 0.1}]},
            },
            initial={"type": "noise", "k_band": 2, "seed": 7, "target_hess_sup": 0.05},
            time={"t_max": 12.5, "dt_safety": 0.25, "residual_tol": 1e-9, "sample_every": 10},
            outputs={"dir": "out", "snapshots": "final"},
        )
        cfg = parse_config_data(doc)
        path = tmp_path / "cfg.json"
        dl.write_config(cfg, path)
        again = dl.parse_config(path)
        assert again == cfg

    def test_flow_config_construction(self):
        cfg = parse_config_data(minimal_config(hat_theta=0.7853981633974483))
        fc = cfg.flow_config()
        assert fc.geometry.n == 1
        assert fc.hat_theta == pytest.approx(np.arctan(1.0))
        assert (fc.u0 == 0).all()

    def test_modes_initial_field(self, torus1):
        cfg = parse_config_data(minimal_config(
            initial={"type": "modes", "modes": [{"m": [1, 0], "amplitude": 0.3}]}))
        geom = cfg.geometry()
        u0 = cfg.initial_field(geom)
        x = np.broadcast_to(geom.axis_coordinate(0), geom.shape)
        assert np.abs(u0 - 0.3 * np.cos(x)).max() < 1e-14

    def test_noise_initial_normalized(self):
        cfg = parse_config_data(minimal_config(
            initial={"type": "noise", "k_band": 2, "seed": 3, "target_hess_sup": 0.07}))
        geom = cfg.geometry()
        u0 = cfg.initial_field(geom)
        assert dl.tensor_norms(geom, u0).hess_sup == pytest.approx(0.07, rel=1e-12)


class TestDiagnosticsCsv:
    def test_single_record_two_lines(self, tmp_path, torus1):
        base = dl.BaseCurvature.proportional(torus1, 1.0)
        cfg = dl.FlowConfig(geometry=torus1, base=base, u0=np.zeros(torus1.shape),
                            hat_theta=float(np.arctan(1.0)))
        traj = dl.run_flow(cfg)
        path = tmp_path / "d.csv"
        dl.write_diagnostics(traj.records, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == dl.CSV_COLUMNS
        row = lines[1].split(",")
        assert len(row) == len(dl.CSV_COLUMNS.split(","))
        assert float(row[0]) == 0.0

    def test_phase_only_record_refused(self, tmp_path, torus1):
        base = dl.BaseCurvature.proportional(torus1, 1.0)
        u = dl.bandlimited_noise(torus1, 2, 0.05, 3)
        full = diagnostics.build_record(torus1, base, 0.7, 0.25, u)
        phase_only = diagnostics.build_record(torus1, base, 0.7, 0.5, u, norms=False)
        path = tmp_path / "d.csv"
        with pytest.raises(ValueError, match=r"t=0\.5 has no grad_sq_sup"):
            dl.write_diagnostics([full, phase_only], path)
        assert not path.exists()
        # one NaN column is enough
        partial = dataclasses.replace(full, Q_sup=float("nan"))
        with pytest.raises(ValueError, match=r"t=0\.25 has no Q_sup"):
            dl.write_diagnostics([partial], path)

    def test_empty_records_error(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to write"):
            dl.write_diagnostics([], tmp_path / "d.csv")

    def test_byte_stable(self, tmp_path, torus1):
        base = dl.BaseCurvature.proportional(torus1, 1.0)
        cfg = dl.FlowConfig(geometry=torus1, base=base, u0=np.zeros(torus1.shape),
                            hat_theta=float(np.arctan(1.0)))
        traj = dl.run_flow(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        dl.write_diagnostics(traj.records, p1)
        dl.write_diagnostics(traj.records, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSnapshots:
    def test_roundtrip_real(self, tmp_path, torus1):
        f = dl.bandlimited_noise(torus1, 2, 1.0, 5)
        path = tmp_path / "f.snap"
        dl.write_snapshot(f, "u", 1.25, torus1, path)
        values, header = dl.read_snapshot(path)
        assert (values == f).all()
        assert header["name"] == "u"
        assert header["t"] == 1.25
        assert header["dtype"] == "f64le"
        assert header["order"] == "row-major"

    def test_roundtrip_complex(self, tmp_path, torus1):
        f = dl.bandlimited_noise(torus1, 2, 1.0, 5) + 1j * dl.bandlimited_noise(torus1, 2, 1.0, 6)
        path = tmp_path / "f.snap"
        dl.write_snapshot(f, "zeta", 0.0, torus1, path)
        values, header = dl.read_snapshot(path)
        assert (values == f).all()
        assert header["dtype"] == "c128le"

    def test_unknown_dtype_rejected(self, tmp_path, torus1):
        path = tmp_path / "f.snap"
        dl.write_snapshot(np.zeros(torus1.shape), "u", 0.0, torus1, path)
        head, _, payload = path.read_bytes().partition(b"\n")
        path.write_bytes(head.replace(b'"f64le"', b'"f32le"') + b"\n" + payload)
        with pytest.raises(ValueError, match="f.snap: unknown dtype 'f32le'"):
            dl.read_snapshot(path)

    def test_truncated_payload_names_byte_counts(self, tmp_path, torus1):
        path = tmp_path / "f.snap"
        dl.write_snapshot(np.zeros(torus1.shape), "u", 0.0, torus1, path)
        path.write_bytes(path.read_bytes()[:-8])
        need = torus1.num_points * 8
        with pytest.raises(ValueError, match=f"f.snap: payload has {need - 8} bytes, "
                                             f"its header needs {need}"):
            dl.read_snapshot(path)

    def test_write_then_write_is_bit_identical(self, tmp_path, torus1):
        f = dl.bandlimited_noise(torus1, 2, 1.0, 9)
        p1, p2 = tmp_path / "a.snap", tmp_path / "b.snap"
        dl.write_snapshot(f, "u", 0.5, torus1, p1)
        dl.write_snapshot(f, "u", 0.5, torus1, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCli:
    def write_config(self, tmp_path, doc, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_simulate_stationary_run_dir(self, tmp_path):
        cfg = self.write_config(tmp_path, minimal_config(
            hat_theta=float(np.arctan(1.0)),
            outputs={"dir": str(tmp_path / "run"), "snapshots": "final"}))
        code = cli_main(["simulate", "--config", cfg])
        assert code == 0
        run = tmp_path / "run"
        for name in ("effective-config.json", "diagnostics.csv", "report.json", "u_final.snap"):
            assert (run / name).exists(), name
        report = json.loads((run / "report.json").read_text())
        assert report["status"] == "converged"
        assert report["steps_rejected"] == 0
        assert report["dt_changes"] == []

    def test_simulate_timeout_exit_code(self, tmp_path):
        cfg = self.write_config(tmp_path, minimal_config(
            hat_theta=float(np.arctan(1.0)) + np.pi,
            initial={"type": "modes", "modes": [{"m": [1, 0], "amplitude": 0.05}]},
            time={"t_max": 0.5},
            outputs={"dir": str(tmp_path / "run")}))
        assert cli_main(["simulate", "--config", cfg]) == 2

    def test_simulate_seed_override(self, tmp_path):
        doc = minimal_config(
            hat_theta=float(np.arctan(1.0)),
            initial={"type": "noise", "k_band": 2, "seed": 1, "target_hess_sup": 0.02},
            time={"t_max": 0.2},
            outputs={"dir": str(tmp_path / "run")})
        cfg = self.write_config(tmp_path, doc)
        cli_main(["simulate", "--config", cfg, "--seed-override", "9"])
        eff = json.loads((tmp_path / "run" / "effective-config.json").read_text())
        assert eff["initial"]["seed"] == 9

    def test_simulate_bad_config_exit_one(self, tmp_path):
        cfg = self.write_config(tmp_path, minimal_config(metric=[[-1.0]]))
        assert cli_main(["simulate", "--config", cfg]) == 1

    def test_verify_passes_on_small_run(self, tmp_path):
        cfg = self.write_config(tmp_path, minimal_config(
            initial={"type": "noise", "k_band": 2, "seed": 4, "target_hess_sup": 0.05}))
        out = str(tmp_path / "verify.jsonl")
        assert cli_main(["verify", "--config", cfg, "--out", out]) == 0
        lines = [json.loads(s) for s in open(out)]
        names = {l["identity"] for l in lines}
        assert {"u_sq", "grad_sq", "Theta", "ThetaP", "maximum_principle",
                "Z_invariance"} <= names
        assert all(l["pass"] for l in lines)

    def test_verify_config_refuses_a_rejected_rk4_step(self, tmp_path, monkeypatch, capsys):
        # the identities need the fixed RK4 step, so a rejected step fails the
        # run with an error line instead of being halved silently
        import dhym_lab.flow as flow_mod

        monkeypatch.setattr(flow_mod, "rk4_step", fails_on_call(flow_mod.rk4_step, 3)[0])
        cfg = self.write_config(tmp_path, minimal_config(
            initial={"type": "noise", "k_band": 2, "seed": 4, "target_hess_sup": 0.05}))
        out = tmp_path / "verify.jsonl"
        assert cli_main(["verify", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "step diverged: forced" in err
        assert not out.exists()

    def test_verify_run_dir_mode(self, tmp_path):
        cfg = self.write_config(tmp_path, minimal_config(
            hat_theta=float(np.arctan(1.0)),
            initial={"type": "modes", "modes": [{"m": [1, 0], "amplitude": 0.05}]},
            time={"t_max": 0.02, "sample_every": 1, "dt_safety": 0.128},
            outputs={"dir": str(tmp_path / "run"), "snapshots": "all-samples"}))
        assert cli_main(["simulate", "--config", cfg]) == 2  # tiny horizon: timeout
        out = str(tmp_path / "verify.jsonl")
        assert cli_main(["verify", "--run-dir", str(tmp_path / "run"), "--out", out]) == 0

    def test_outputs_independent_of_thread_count(self, tmp_path, monkeypatch):
        # the simulate run directory and both verify reports, byte for byte
        run_cfg = self.write_config(tmp_path, minimal_config(
            base_curvature={"constant": [[1.0]], "potential": {
                "modes": [{"m": [1, 0], "amplitude": 0.2}]}},
            initial={"type": "noise", "k_band": 2, "seed": 3, "target_hess_sup": 0.05},
            time={"t_max": 0.05, "sample_every": 2},
            outputs={"dir": str(tmp_path / "run"), "snapshots": "all-samples"}), "run.json")
        n2_cfg = self.write_config(tmp_path, minimal_config(
            dimension=2, resolution=8, metric=[[1.0, 0.0], [0.0, 1.0]],
            base_curvature={"constant": [[1.0, 0.0], [0.0, 0.5]], "potential": {
                "modes": [{"m": [1, 0, 0, 0], "amplitude": 0.2}]}},
            initial={"type": "noise", "k_band": 2, "seed": 4, "target_hess_sup": 0.05}), "n2.json")
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("DHYM_THREADS", threads)
            run = tmp_path / "run"
            shutil.rmtree(run, ignore_errors=True)
            assert cli_main(["simulate", "--config", run_cfg]) == 2
            assert cli_main(["verify", "--run-dir", str(run), "--out", str(tmp_path / "v1")]) == 0
            assert cli_main(["verify", "--config", n2_cfg, "--out", str(tmp_path / "v2")]) == 0
            files = {p.name: p.read_bytes() for p in sorted(run.iterdir())}
            outputs.append((files, (tmp_path / "v1").read_bytes(), (tmp_path / "v2").read_bytes()))
        assert len(outputs[0][0]) >= 5
        assert outputs[0] == outputs[1]

    def test_run_dir_records_equal_simulate_csv(self, tmp_path):
        from dhym_lab.cli import _load_run_trajectory

        cfg = self.write_config(tmp_path, minimal_config(
            base_curvature={"constant": [[1.0]], "potential": {
                "modes": [{"m": [1, 1], "amplitude": 0.1}]}},
            initial={"type": "noise", "k_band": 2, "seed": 3, "target_hess_sup": 0.05},
            time={"t_max": 0.05, "sample_every": 2},
            outputs={"dir": str(tmp_path / "run"), "snapshots": "all-samples"}))
        assert cli_main(["simulate", "--config", cfg]) == 2
        run = tmp_path / "run"
        rows = (run / "diagnostics.csv").read_text().splitlines()[1:]
        traj = _load_run_trajectory(run)
        assert len(rows) >= 3
        assert [r.csv_row() for r in traj.records] == rows

    @staticmethod
    def spy_records(monkeypatch, force_full):
        """Wrap build_record: collect each call's norms switch, and optionally
        force full records."""
        build_record, seen = diagnostics.build_record, []

        def spy(*args, norms=True, **kwargs):
            seen.append(norms)
            return build_record(*args, norms=norms or force_full, **kwargs)

        monkeypatch.setattr(diagnostics, "build_record", spy)
        return seen

    def test_verify_records_phase_only_with_unchanged_report(self, tmp_path, monkeypatch):
        # both verify paths record phase-only, and their reports are byte-identical
        # to the ones of runs forced to full records
        run_cfg = self.write_config(tmp_path, minimal_config(
            base_curvature={"constant": [[1.0]], "potential": {
                "modes": [{"m": [1, 0], "amplitude": 0.2}]}},
            initial={"type": "noise", "k_band": 2, "seed": 3, "target_hess_sup": 0.05},
            time={"t_max": 0.05, "sample_every": 2},
            outputs={"dir": str(tmp_path / "run"), "snapshots": "all-samples"}), "run.json")
        n2_cfg = self.write_config(tmp_path, minimal_config(
            dimension=2, resolution=8, metric=[[1.0, 0.0], [0.0, 1.0]],
            base_curvature={"constant": [[1.0, 0.0], [0.0, 0.5]], "potential": {
                "modes": [{"m": [1, 0, 0, 0], "amplitude": 0.2}]}},
            initial={"type": "noise", "k_band": 2, "seed": 4, "target_hess_sup": 0.05}), "n2.json")
        assert cli_main(["simulate", "--config", run_cfg]) == 2
        reports = []
        for force_full in (False, True):
            seen = self.spy_records(monkeypatch, force_full)
            out = []
            for source in (["--run-dir", str(tmp_path / "run")], ["--config", n2_cfg]):
                path = tmp_path / f"verify-{len(out)}.jsonl"
                assert cli_main(["verify", *source, "--out", str(path)]) == 0
                out.append(path.read_bytes())
            assert len(seen) >= 6 and not any(seen)
            reports.append(out)
        assert reports[0] == reports[1]

    def test_verify_config_builds_two_sets_of_tensor_norms(self, tmp_path, monkeypatch):
        # phase-only records need none; the bracket needs prev and nxt, and the
        # center's norms come from its identity context
        cfg = self.write_config(tmp_path, minimal_config(
            dimension=2, resolution=8, metric=[[1.0, 0.0], [0.0, 1.0]],
            base_curvature={"constant": [[1.0, 0.0], [0.0, 0.5]]},
            initial={"type": "modes", "modes": [{"m": [1, 0, 0, 1], "amplitude": 0.02}]}))
        tensor_norms, calls = diagnostics.tensor_norms, []

        def counted(geom, u, *names):
            calls.append(u)
            return tensor_norms(geom, u, *names)

        monkeypatch.setattr(diagnostics, "tensor_norms", counted)
        assert cli_main(["verify", "--config", cfg, "--out", str(tmp_path / "v.jsonl")]) == 0
        assert len(calls) == 2

    def test_sweep_cli(self, tmp_path):
        doc = {
            "dimension": 1, "resolution": 32, "metric": [[1.0]],
            "base_curvature": {"constant": [[1.0]]},
            "time": {"t_max": 250.0, "dt_safety": 1.0, "sample_every": 128},
            "sweep": {"delta_list": [0.02], "seeds": 1},
        }
        cfg = self.write_config(tmp_path, doc)
        out_dir = tmp_path / "sweep"
        code = cli_main(["sweep", "--config", cfg, "--out-dir", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["cells"][0]["status"] == "converged"
        assert (out_dir / "cell_d0.02_s0.csv").exists()

    def test_reference_cli(self, tmp_path):
        cfg = self.write_config(tmp_path, minimal_config(
            hat_theta=float(np.arctan(1.0)),
            outputs={"dir": str(tmp_path / "ref")}))
        assert cli_main(["reference", "--config", cfg]) == 0
        u_hat, header = dl.read_snapshot(tmp_path / "ref" / "u_hat.snap")
        assert header["name"] == "u_hat"
        assert np.abs(u_hat).max() == 0.0
        rep = json.loads((tmp_path / "ref" / "reference-report.json").read_text())
        assert rep["residual_sup"] < 1e-11

    def test_hat_theta_cli(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, minimal_config())
        assert cli_main(["hat-theta", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hat_theta"] == pytest.approx(np.arctan(1.0), abs=1e-10)
        assert doc["abs_Z"] == pytest.approx(np.sqrt(2) * 4 * np.pi**2, rel=1e-12)

    def test_phase_table_cli(self, tmp_path):
        inp = tmp_path / "mats.jsonl"
        inp.write_text("[[1.0]]\n[[0.0]]\n[[3.0]]\n")
        out = tmp_path / "table.csv"
        assert cli_main(["phase-table", "--input", str(inp), "--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "lambda_1,theta,zeta_re,zeta_im,det_eta"
        assert len(lines) == 4
        first = [float(v) for v in lines[1].split(",")]
        assert first == pytest.approx([1.0, np.pi / 4, 1.0, 1.0, 2.0])

    def test_phase_table_complex_entries_and_metric(self, tmp_path):
        inp = tmp_path / "mats.jsonl"
        inp.write_text("[[1.0, [0.0, -0.5]], [[0.0, 0.5], 2.0]]\n")
        metric = tmp_path / "g.json"
        metric.write_text("[[2.0, 0.0], [0.0, 2.0]]")
        out = tmp_path / "t.csv"
        assert cli_main(["phase-table", "--input", str(inp), "--output", str(out),
                         "--metric", str(metric)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "lambda_1,lambda_2,theta,zeta_re,zeta_im,det_eta"
        vals = [float(v) for v in lines[1].split(",")]
        lam = np.linalg.eigvalsh(np.array([[1.0, -0.5j], [0.5j, 2.0]])) / 2.0
        assert vals[0] == pytest.approx(lam[0])
        assert vals[1] == pytest.approx(lam[1])
        assert vals[2] == pytest.approx(np.arctan(lam).sum())

    def test_phase_table_boolean_entry_rejected(self, tmp_path):
        inp = tmp_path / "mats.jsonl"
        inp.write_text("[[1.0]]\n[[true]]\n")
        out = tmp_path / "t.csv"
        assert cli_main(["phase-table", "--input", str(inp), "--output", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("where", ["input", "metric"])
    @pytest.mark.parametrize("text", ["3", "[1.0]"])
    def test_phase_table_non_matrix_rejected(self, tmp_path, capsys, where, text):
        inp = tmp_path / "mats.jsonl"
        inp.write_text(text + "\n" if where == "input" else "[[1.0]]\n")
        metric = tmp_path / "g.json"
        metric.write_text(text if where == "metric" else "[[1.0]]")
        out = tmp_path / "t.csv"
        assert cli_main(["phase-table", "--input", str(inp), "--output", str(out),
                         "--metric", str(metric)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(inp if where == "input" else metric) in err
        assert not out.exists()

    def test_phase_table_size_mismatch_rejected(self, tmp_path):
        inp = tmp_path / "mats.jsonl"
        inp.write_text("[[1.0]]\n[[1.0, 0.0], [0.0, 1.0]]\n")
        out = tmp_path / "t.csv"
        assert cli_main(["phase-table", "--input", str(inp), "--output", str(out)]) == 1
