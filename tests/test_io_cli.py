import contextlib
import dataclasses
import io
import json
import re
import shutil
import threading
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dhym_lab as dl
import dhym_lab.flow as flow_mod
from dhym_lab import cli, diagnostics
from dhym_lab.cli import main as cli_main
from dhym_lab.config_io import parse_config, parse_config_data, read_snapshot, write_snapshot
from conftest import fails_on_call, run_sampled
from spectral_oracle import base_field, characteristic_field


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
        assert str(info.value) == f"config error at $.{key}: non-Hermitian {name}"

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

    def test_metric_within_the_hermitian_tolerance_builds(self):
        # the parser and build_torus share one Hermitian tolerance, so a metric 1e-13 off
        # Hermitian that the parser takes also builds
        doc = minimal_config(dimension=2, resolution=8, metric=[[1.0, [0.5, 1e-13]], [0.5, 1.0]],
                             base_curvature={"constant": [[1.0, 0.0], [0.0, 0.5]]})
        cfg = parse_config_data(doc)
        assert cfg.flow().geometry.g[0, 1] == 0.5 + 1e-13j

    @pytest.mark.parametrize("k_band", [0, 11])
    def test_noise_band_named_with_its_range(self, tmp_path, torus1, k_band):
        # one rule: both parsers, SweepConfig and bandlimited_noise (N = 32) say the same
        expect = re.escape(f"k_band must be in 1..N/3 = 10.6667 (the dealiasing limit), "
                           f"got {k_band}")
        with pytest.raises(dl.ConfigError, match=expect):
            parse_config_data(minimal_config(initial={"type": "noise", "k_band": k_band,
                                                      "seed": 1, "target_hess_sup": 0.05}))
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(minimal_config(sweep=dict(SWEEP, k_band=k_band))))
        with pytest.raises(dl.ConfigError, match=expect):
            dl.parse_sweep_config(path)
        with pytest.raises(ValueError, match=expect):
            dl.SweepConfig(flow=dl.LineBundleFlow(dl.BaseCurvature.proportional(torus1, 1.0)),
                           delta_list=[0.1], seeds=1, k_band=k_band)
        with pytest.raises(ValueError, match=expect):
            dl.bandlimited_noise(torus1, k_band, 1.0, 1)

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

    def test_readme_time_block_is_the_schedule(self):
        # the README's "Run configuration" document parses, and its time keys are
        # Schedule's, in order
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Run configuration", 1)[1].split("```json\n", 1)[1]
        doc = json.loads(block.split("```", 1)[0])
        assert list(doc["time"]) == [f.name for f in dataclasses.fields(dl.Schedule)]
        assert parse_config_data(doc).time == doc["time"]

    def test_sweep_without_time_block_is_the_default_sweep(self, tmp_path):
        # the JSON defaults of the sweep and time blocks are SweepConfig's
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(minimal_config(sweep=SWEEP)))
        parsed = dl.parse_sweep_config(path).sweep_config()
        built = dl.SweepConfig(parsed.flow, SWEEP["delta_list"], SWEEP["seeds"])
        assert parsed.schedule() == built.schedule() == dl.Schedule().schedule()
        for f in dataclasses.fields(dl.SweepConfig):
            if f.name != "flow":
                assert getattr(parsed, f.name) == getattr(built, f.name), f.name

    def test_flow_config_construction(self):
        cfg = parse_config_data(minimal_config(hat_theta=0.7853981633974483))
        fc = cfg.flow_config()
        assert fc.flow.geometry.n == 1
        assert fc.flow.hat_theta == pytest.approx(np.arctan(1.0))
        assert (fc.u0 == 0).all()

    def test_flow_takes_the_winding_lift_without_hat_theta(self):
        cfg = parse_config_data(minimal_config(base_curvature={
            "constant": [[1.3]],
            "potential": {"modes": [{"m": [1, 0], "amplitude": 0.2, "phase": 0.1}]}}))
        flow = cfg.flow()
        assert cfg.hat_theta is None
        e = characteristic_field(flow.geometry, base_field(flow.base))
        assert flow.hat_theta == dl.winding_hat_theta(flow.geometry, e)

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
        cfg = dl.FlowConfig(flow=dl.LineBundleFlow(base, float(np.arctan(1.0))),
                            u0=np.zeros(torus1.shape))
        traj = dl.run_flow(cfg)
        path = tmp_path / "d.csv"
        dl.write_diagnostics(traj.records, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == dl.CSV_COLUMNS == (  # the header is a file format: spelled out
            "t,residual_sup,theta_max,theta_min,grad_sq_sup,Theta_sup,ThetaP_sup,"
            "Gamma_sup,Q_sup,hess_sup,Z_re,Z_im,osc_udot,mean_u")
        row = lines[1].split(",")
        assert len(row) == len(dl.CSV_COLUMNS.split(","))
        assert float(row[0]) == 0.0

    def test_phase_only_record_refused(self, tmp_path, torus1):
        base = dl.BaseCurvature.proportional(torus1, 1.0)
        flow, u = dl.LineBundleFlow(base, 0.7), dl.bandlimited_noise(torus1, 2, 0.05, 3)
        full = diagnostics.build_record(flow.state(u, 0.25))
        phase_only = diagnostics.build_record(flow.state(u, 0.5), norms=False)
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
        cfg = dl.FlowConfig(flow=dl.LineBundleFlow(base, float(np.arctan(1.0))),
                            u0=np.zeros(torus1.shape))
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

    @pytest.mark.parametrize("header,message", [
        (b'{"name": "u", "dtype": "f64le", "shape": [32, 32]}', "header has no 't'"),
        (b'{"name": "u", "t": 0.0, "dtype": "f64le"}', "header has no 'shape'"),
        (b'[1, 2]', "header is not a JSON object"),
        (b'{"name": "u", "t": 0.0, "dtype"', "header is not a JSON line"),
        (b'{"name": "u", "t": "0", "dtype": "f64le", "shape": [32, 32]}',
         "header 't' has the wrong type: '0'"),
        (b'{"name": "u", "t": 0.0, "dtype": ["f64le"], "shape": [32, 32]}',
         "header 'dtype' has the wrong type"),
        (b'{"name": "u", "t": 0.0, "dtype": "f64le", "shape": [32, 32.0]}',
         r"header shape \[32, 32.0\] is not a list of sizes"),
    ], ids=["no-t", "no-shape", "list", "not-json", "t-string", "dtype-list", "shape-float"])
    def test_malformed_header_names_the_file(self, tmp_path, torus1, header, message):
        # a KeyError, an AttributeError or a bare JSON error before the check
        path = tmp_path / "f.snap"
        dl.write_snapshot(np.zeros(torus1.shape), "u", 0.0, torus1, path)
        payload = path.read_bytes().partition(b"\n")[2]
        path.write_bytes(header + b"\n" + payload)
        with pytest.raises(ValueError, match=f"^snapshot {re.escape(str(path))}: {message}"):
            dl.read_snapshot(path)

    def test_write_then_write_is_bit_identical(self, tmp_path, torus1):
        f = dl.bandlimited_noise(torus1, 2, 1.0, 9)
        p1, p2 = tmp_path / "a.snap", tmp_path / "b.snap"
        dl.write_snapshot(f, "u", 0.5, torus1, p1)
        dl.write_snapshot(f, "u", 0.5, torus1, p2)
        assert p1.read_bytes() == p2.read_bytes()


def near_hermitian(diagonal, off, deviation):
    """A 1x1 or 2x2 matrix document: Hermitian with this diagonal and upper entry
    off = [re, im], then `deviation` added to the imaginary part of its last upper entry."""
    if len(diagonal) == 1:
        return [[[diagonal[0], deviation]]]
    return [[diagonal[0], [off[0], off[1] + deviation]], [[off[0], -off[1]], diagonal[1]]]


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 2]), N=st.sampled_from([4, 8, 12, 16]),
       g_diag=st.lists(st.floats(1.0, 2.0), min_size=2, max_size=2),
       g_off=st.lists(st.floats(-0.4, 0.4), min_size=2, max_size=2),
       g_dev=st.sampled_from([0.0, 1e-13, 1e-11]),
       f_diag=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
       f_off=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
       f_dev=st.sampled_from([0.0, 1e-13, 1e-11]),
       k_band=st.integers(0, 6))
@example(n=2, N=8, g_diag=[1.0, 1.0], g_off=[0.5, 0.0], g_dev=1e-13, f_diag=[1.0, 0.5],
         f_off=[0.0, 0.0], f_dev=0.0, k_band=2)
def test_a_parsed_config_builds(n, N, g_diag, g_off, g_dev, f_diag, f_off, f_dev, k_band):
    # every document the parser takes builds its geometry, base and initial field, and
    # every one it refuses is refused with a ConfigError at a key's path
    doc = minimal_config(dimension=n, resolution=N,
                         metric=near_hermitian(g_diag[:n], g_off, g_dev),
                         base_curvature={"constant": near_hermitian(f_diag[:n], f_off, f_dev)},
                         initial={"type": "noise", "k_band": k_band, "seed": 5,
                                  "target_hess_sup": 0.05})
    try:
        cfg = parse_config_data(doc)
    except dl.ConfigError as exc:
        assert exc.path.startswith("$."), exc
        return
    geom = cfg.geometry()
    cfg.base(geom)
    assert cfg.initial_field(geom).shape == geom.shape


# a sweep document with every optional block, the start of the parser's contract test
FULL_SWEEP = minimal_config(
    dimension=2, resolution=8, metric=[[1.0, [0.1, 0.2]], [[0.1, -0.2], 2.0]],
    base_curvature={"constant": [[1.0, 0.0], [0.0, 0.5]], "potential": {
        "modes": [{"m": [1, 0, 0, 0], "amplitude": 0.2, "phase": 0.3}]}},
    hat_theta=0.9, time={"t_max": 5.0, "dt_safety": 0.5, "residual_tol": 1e-10,
                         "sample_every": 4},
    outputs={"dir": "runs/sweep", "snapshots": "none"},
    sweep={"delta_list": [0.01, 0.05], "seeds": 2, "k_band": 2, "seed_base": 3})
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


def _json_paths(doc, at=()):
    """The path of every key and list element of a JSON document, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield at + (key,)
        yield from _json_paths(value, at + (key,))


def _mutated(data, doc, values):
    """doc after one to three edits, each dropping a key or list element or replacing it,
    or the whole document, with a draw of values."""
    box = [json.loads(json.dumps(doc))]  # the document is box[0], so it can be replaced too
    for _ in range(data.draw(st.integers(1, 3))):
        *parent, key = data.draw(st.sampled_from(list(_json_paths(box))))
        target = box
        for k in parent:
            target = target[k]
        if parent and data.draw(st.booleans()):
            del target[key]
        else:
            target[key] = data.draw(values)
    return box[0]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_the_sweep_parser_takes_a_document_or_names_a_path(data, tmp_path_factory):
    # drop keys and replace values of a valid sweep document: the parser either takes
    # it or refuses it with a ConfigError at a path; it never raises anything else
    path = tmp_path_factory.mktemp("sweep") / "sweep.json"
    path.write_text(json.dumps(_mutated(data, FULL_SWEEP, JSON_VALUES)))
    try:
        dl.parse_sweep_config(path)
    except dl.ConfigError as exc:
        assert exc.path.startswith("$"), exc


class _Ran(BaseException):
    """Raised in place of a run's integration: the command took its input.  Not an
    Exception, so that a sweep does not record it as a failed cell."""


# JSON values whose numbers keep a document the CLI takes at n <= 2 and N <= 16, so no
# grid costs time or memory
CLI_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 16) | st.text(max_size=4)
    | st.just(0.0) | st.floats(5e-324, 4.0) | st.floats(-4.0, -5e-324),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
FULL_RUN = dict({k: v for k, v in FULL_SWEEP.items() if k != "sweep"},
                initial={"type": "noise", "k_band": 2, "seed": 1, "target_hess_sup": 0.05})
MATRIX = [[1.0, [0.0, -0.5]], [[0.0, 0.5], 2.0]]


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       command=st.sampled_from(["simulate", "verify", "sweep", "reference", "phase-table"]))
def test_the_cli_refuses_a_document_in_one_line_or_runs(data, command, tmp_path_factory):
    # a run document with keys dropped or values replaced, or a phase-table line or
    # metric file so edited: the command exits 1 with one error line and no traceback,
    # or it takes the input and runs, here up to its flow's integration, patched out
    tmp = tmp_path_factory.mktemp("cli")
    if command == "phase-table":
        text = json.dumps(_mutated(data, MATRIX, CLI_VALUES))
        edited = data.draw(st.sampled_from(["input", "metric"]))
        (tmp / "in.jsonl").write_text((text if edited == "input" else json.dumps(MATRIX)) + "\n")
        (tmp / "g.json").write_text(text if edited == "metric" else "[[1.0, 0.0], [0.0, 1.0]]")
        argv = [command, "--input", str(tmp / "in.jsonl"), "--output", str(tmp / "t.csv"),
                "--metric", str(tmp / "g.json")]
    else:
        doc = _mutated(data, FULL_SWEEP if command == "sweep" else FULL_RUN, CLI_VALUES)
        (tmp / "c.json").write_text(json.dumps(doc))
        argv = [command, "--config", str(tmp / "c.json"),
                "--out" if command == "verify" else "--out-dir", str(tmp / "out")]
    err = io.StringIO()
    with mock.patch.object(flow_mod, "_integrate", side_effect=_Ran), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except _Ran:
            return
    lines = err.getvalue().splitlines()
    if command == "phase-table" and code == 0:
        assert lines == []
        return
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), (code, lines)


SWEEP = {"delta_list": [0.01], "seeds": 1}
# (command, document, path of its ConfigError), covering every raise site of the parsers
CONFIG_ERRORS = [
    ("simulate", minimal_config(base_curvature=3), "$.base_curvature"),
    ("simulate", {k: v for k, v in minimal_config().items() if k != "metric"}, "$"),
    ("simulate", minimal_config(hat_theta="0.7"), "$.hat_theta"),
    ("simulate", minimal_config(dimension=1.0), "$.dimension"),
    ("simulate", minimal_config(dimension=4), "$.dimension"),
    ("simulate", minimal_config(resolution=12), "$.resolution"),
    ("simulate", minimal_config(metric=[[1.0], [1.0]]), "$.metric"),
    ("simulate", minimal_config(metric=[[1.0, 0.0]]), "$.metric[0]"),
    ("simulate", minimal_config(base_curvature={"constant": [[1.0]], "potential": {"modes": []}}),
     "$.base_curvature.potential.modes"),
    ("simulate", minimal_config(base_curvature={"constant": [[1.0]], "potential": {
        "modes": [{"m": [1], "amplitude": 0.1}]}}), "$.base_curvature.potential.modes[0].m"),
    ("simulate", minimal_config(initial={"type": "noise", "k_band": 11, "seed": 1,
                                         "target_hess_sup": 0.05}), "$.initial.k_band"),
    ("simulate", minimal_config(initial={"type": "noise", "k_band": 2, "seed": -1,
                                         "target_hess_sup": 0.05}), "$.initial.seed"),
    ("simulate", minimal_config(initial={"type": "noise", "k_band": 2, "seed": 1,
                                         "target_hess_sup": -0.05}), "$.initial.target_hess_sup"),
    ("simulate", minimal_config(initial={"type": "spikes"}), "$.initial.type"),
    ("simulate", minimal_config(time={"t_max": "5"}), "$.time.t_max"),
    ("simulate", minimal_config(time={"sample_every": 2.5}), "$.time.sample_every"),
    ("simulate", minimal_config(outputs={"snapshots": "some"}), "$.outputs.snapshots"),
    ("simulate", minimal_config(outputs={"dir": 3}), "$.outputs.dir"),
    ("simulate", minimal_config(outputs={"dir": None}), "$.outputs.dir"),
    # a key that would break the error line is named by its repr
    ("simulate", minimal_config(**{"x\ny": 1}), "$.'x\\ny'"),
    ("sweep", minimal_config(sweep=dict(SWEEP, delta_list=0.01)), "$.sweep.delta_list"),
    ("sweep", minimal_config(sweep=dict(SWEEP, delta_list=[])), "$.sweep.delta_list"),
    ("sweep", minimal_config(sweep=dict(SWEEP, delta_list=[-0.01])), "$.sweep.delta_list"),
    ("sweep", minimal_config(sweep=dict(SWEEP, delta_list=[0.1, 0.01])), "$.sweep.delta_list"),
    ("sweep", minimal_config(sweep=dict(SWEEP, seeds=0)), "$.sweep.seeds"),
    ("sweep", minimal_config(sweep=dict(SWEEP, k_band=50)), "$.sweep.k_band"),
    ("sweep", minimal_config(sweep=dict(SWEEP, k_band=0)), "$.sweep.k_band"),
    ("sweep", minimal_config(sweep=dict(SWEEP, seed_base=-3)), "$.sweep.seed_base"),
]
# a metric 1e-11 off Hermitian (one 1e-13 off builds), one whose inverse overflows (it
# passed the parser and hat-theta warned before its error), and the band's lower end,
# whose paths rows above already name
EDGE_ERRORS = [
    ("simulate", minimal_config(dimension=2, resolution=8,
                                metric=[[1.0, [0.5, 1e-11]], [0.5, 1.0]],
                                base_curvature={"constant": [[1.0, 0.0], [0.0, 0.5]]}),
     "$.metric"),
    ("hat-theta", minimal_config(resolution=8, metric=[[5e-324]]), "$.metric"),
    ("simulate", minimal_config(initial={"type": "noise", "k_band": 0, "seed": 1,
                                         "target_hess_sup": 0.05}), "$.initial.k_band"),
]
# the sweep counts of another type, which `harness._sweep_error` refuses for the parser too
TYPE_ERRORS = [
    ("sweep", minimal_config(sweep=dict(SWEEP, seeds=2.5)), "$.sweep.seeds"),
    ("sweep", minimal_config(sweep=dict(SWEEP, k_band=True)), "$.sweep.k_band"),
    ("sweep", minimal_config(sweep=dict(SWEEP, seed_base="1")), "$.sweep.seed_base"),
]


class TestCli:
    def write_config(self, tmp_path, doc, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("command,doc,path", CONFIG_ERRORS + TYPE_ERRORS + EDGE_ERRORS,
                             ids=[f"{c}-{p}" for c, _, p in CONFIG_ERRORS]
                             + [f"{c}-{p}-type" for c, _, p in TYPE_ERRORS]
                             + [f"{c}-{p}-edge" for c, _, p in EDGE_ERRORS])
    def test_config_error_named_before_any_output(self, tmp_path, capsys, command, doc, path):
        # the parser names the offending key; the command prints that one line and exits 1
        # before it writes anything, and before any sweep cell runs; a document's own
        # outputs.dir is kept, so that a bad one is the error
        out_dir = tmp_path / "out"
        doc = dict(doc, outputs={"dir": str(out_dir), **doc.get("outputs", {})})
        cfg = self.write_config(tmp_path, doc)
        with pytest.raises(dl.ConfigError) as info:
            (dl.parse_sweep_config if command == "sweep" else dl.parse_config)(cfg)
        assert info.value.path == path
        assert cli_main([command, "--config", cfg]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {info.value}"]
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("fault", ["grid", "header"])
    def test_verify_run_dir_refuses_a_bad_snapshot(self, tmp_path, capsys, fault):
        # an N = 8 snapshot in an N = 32 run failed in a broadcast deep in the checks, and
        # one without t in a KeyError traceback; both now name the file before any check
        cfg = self.write_config(tmp_path, minimal_config(
            hat_theta=float(np.arctan(1.0)),
            initial={"type": "modes", "modes": [{"m": [1, 0], "amplitude": 0.05}]},
            time={"t_max": 0.02, "sample_every": 1, "dt_safety": 0.128},
            outputs={"dir": str(tmp_path / "run"), "snapshots": "all-samples"}))
        assert cli_main(["simulate", "--config", cfg]) == 2
        snap = sorted((tmp_path / "run").glob("u_*.snap"))[1]
        if fault == "grid":
            dl.write_snapshot(np.zeros((8, 8)), "u", 0.01, dl.build_torus(1, 8, [1.0]), snap)
            message = f"snapshot {snap}: shape (8, 8) is not the run's grid (32, 32)"
        else:
            head, _, payload = snap.read_bytes().partition(b"\n")
            header = {k: v for k, v in json.loads(head).items() if k != "t"}
            snap.write_bytes(json.dumps(header).encode() + b"\n" + payload)
            message = f"snapshot {snap}: header has no 't'"
        capsys.readouterr()
        out = tmp_path / "verify.jsonl"
        assert cli_main(["verify", "--run-dir", str(tmp_path / "run"), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

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
        traj, _ = _load_run_trajectory(run)
        assert len(rows) >= 3
        assert [r.csv_row() for r in traj.records] == rows

    STREAMED_RUNS = {
        "n1_N16": minimal_config(
            resolution=16,
            base_curvature={"constant": [[1.0]], "potential": {
                "modes": [{"m": [1, 0], "amplitude": 0.2}]}},
            initial={"type": "noise", "k_band": 2, "seed": 3, "target_hess_sup": 0.05},
            time={"t_max": 0.25, "sample_every": 2}),
        "n2_N8": minimal_config(
            dimension=2, resolution=8, metric=[[1.0, 0.0], [0.0, 1.0]],
            base_curvature={"constant": [[1.0, 0.0], [0.0, 0.5]], "potential": {
                "modes": [{"m": [1, 0, 0, 0], "amplitude": 0.2}]}},
            initial={"type": "noise", "k_band": 2, "seed": 4, "target_hess_sup": 0.05},
            time={"t_max": 0.5, "sample_every": 2}),
    }

    @staticmethod
    def held_samples(monkeypatch):
        """Count, after each record, the sample fields a run hands out that are still held."""
        import dhym_lab.flow as flow_mod

        held, fields = [], []
        record = dl.Trajectory.record

        class Counted(dl.FlowSample):
            def __init__(self, t, u):
                super().__init__(t, u)
                fields.append(weakref.ref(u))

        def counted(self, state):
            record(self, state)
            held.append(sum(f() is not None for f in fields))

        monkeypatch.setattr(flow_mod, "FlowSample", Counted)
        monkeypatch.setattr(dl.Trajectory, "record", counted)
        return held

    @pytest.mark.parametrize("name", sorted(STREAMED_RUNS))
    def test_streamed_snapshots_equal_the_post_run_writer(self, tmp_path, monkeypatch, name):
        doc = dict(self.STREAMED_RUNS[name],
                   outputs={"dir": str(tmp_path / "run"), "snapshots": "all-samples"})
        path = self.write_config(tmp_path, doc)
        held = self.held_samples(monkeypatch)
        assert cli_main(["simulate", "--config", path]) == 2
        # the writes in flight, and at most one the writer has ended but not yet let go
        assert len(held) >= 5 and max(held) <= cli._PENDING_WRITES + 1  # not every sample
        monkeypatch.undo()
        # the oracle: every sample held to the end of the run, then written one by one
        cfg = parse_config(path)
        flow_cfg = cfg.flow_config()
        traj, samples = run_sampled(dl.run_flow, flow_cfg)
        oracle = tmp_path / "oracle"
        oracle.mkdir()
        for k, s in enumerate(samples):
            write_snapshot(s.u, "u", s.t, flow_cfg.flow.geometry, oracle / f"u_{k:06d}.snap")
        streamed = {p.name: p.read_bytes() for p in (tmp_path / "run").glob("u_*.snap")}
        assert len(streamed) == len(traj.records)
        assert streamed == {p.name: p.read_bytes() for p in oracle.iterdir()}

    def test_snapshot_write_error_stops_the_run_at_once(self, tmp_path, capsys):
        run = tmp_path / "run"
        doc = dict(self.STREAMED_RUNS["n1_N16"], time={"t_max": 20.0, "sample_every": 2},
                   outputs={"dir": str(run), "snapshots": "all-samples"})
        path = self.write_config(tmp_path, doc)
        (run / "u_000003.snap").mkdir(parents=True)  # opening it for writing fails
        assert cli_main(["simulate", "--config", path]) == 1
        err = capsys.readouterr().err
        assert f"failed to write snapshot {run / 'u_000003.snap'}" in err
        # about 640 records to t_max; the run stopped within the writes in flight
        written = sorted(p.name for p in run.glob("u_*.snap") if p.is_file())
        assert written[:3] == ["u_000000.snap", "u_000001.snap", "u_000002.snap"]
        assert len(written) <= 3 + cli._PENDING_WRITES
        assert not (run / "report.json").exists()
        assert not any(t.name.startswith("snapshot-writer") for t in threading.enumerate())

    def test_bad_thread_count_fails_before_any_output(self, tmp_path, monkeypatch, capsys):
        run = tmp_path / "run"
        path = self.write_config(tmp_path, minimal_config(
            outputs={"dir": str(run), "snapshots": "all-samples"}))
        monkeypatch.setenv("DHYM_THREADS", "abc")
        assert cli_main(["simulate", "--config", path]) == 1
        assert "DHYM_THREADS" in capsys.readouterr().err
        assert not run.exists()

    def test_verify_run_dir_holds_its_bracket_with_unchanged_report(self, tmp_path, monkeypatch):
        doc = dict(self.STREAMED_RUNS["n1_N16"],
                   outputs={"dir": str(tmp_path / "run"), "snapshots": "all-samples"})
        assert cli_main(["simulate", "--config", self.write_config(tmp_path, doc)]) == 2
        run = tmp_path / "run"
        snaps = sorted(run.glob("u_*.snap"))
        m = len(snaps) // 2
        held = self.held_samples(monkeypatch)
        traj, bracket = cli._load_run_trajectory(run, norms=False)
        monkeypatch.undo()
        assert len(traj.records) == len(snaps) >= 5
        assert max(held) <= 3
        assert [s.t for s in bracket] == [read_snapshot(snaps[k])[1]["t"]
                                          for k in (m - 1, m, m + 1)]
        # no reference cycle: the trajectory is freed with its last reference, not at
        # a later garbage collection, so repeated loads do not pile up
        gone = weakref.ref(traj)
        del traj
        assert gone() is None
        reports = []
        for loader in (cli._load_run_trajectory, self.load_every_sample):
            monkeypatch.setattr(cli, "_load_run_trajectory", loader)
            out = tmp_path / f"verify-{len(reports)}.jsonl"
            assert cli_main(["verify", "--run-dir", str(run), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @staticmethod
    def load_every_sample(run_dir, norms=True):
        """The run-directory loader that holds every sample: the oracle of the bracket."""
        flow = parse_config(run_dir / "effective-config.json").flow()
        samples = []
        traj = dl.Trajectory(flow, norms=norms, on_record=lambda k, s: samples.append(s))
        for snap in sorted(run_dir.glob("u_[0-9]*.snap")):
            u, header = read_snapshot(snap)
            traj.record(flow.state(u, header["t"]))
        m = len(samples) // 2
        return traj, samples[m - 1:m + 2]

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

    # the verify_n2 benchmark configuration at N = 8
    VERIFY_N2 = minimal_config(
        dimension=2, resolution=8, metric=[[1.0, 0.0], [0.0, 1.0]],
        base_curvature={"constant": [[1.0, 0.0], [0.0, 0.5]], "potential": {"modes": [
            {"m": [1, 0, 0, 0], "amplitude": 0.2},
            {"m": [0, 1, 1, 0], "amplitude": 0.1, "phase": 0.3}]}},
        initial={"type": "noise", "k_band": 2, "seed": 1, "target_hess_sup": 0.05})

    def test_verify_config_holds_its_bracket(self, tmp_path, monkeypatch):
        cfg = parse_config(self.write_config(tmp_path, self.VERIFY_N2))
        held = self.held_samples(monkeypatch)
        traj, bracket = cli._verify_config_trajectory(cfg)
        monkeypatch.undo()
        assert len(traj.records) == 9 and len(held) >= 9 and max(held) <= 3
        # the oracle: the same run with every sample held, whose middle `_cmd_verify` read
        flow = cfg.flow()
        geom = flow.geometry
        full, samples = run_sampled(
            dl.run_fixed, flow, cfg.initial_field(geom),
            dt=min(1e-3, dl.stable_dt(geom, cfg.time["dt_safety"])), n_steps=8, norms=False)
        assert len(bracket) == 3
        assert bracket[1].t == samples[len(samples) // 2].t
        for kept, s in zip(bracket, samples[3:6]):
            assert kept.t == s.t
            assert np.array_equal(kept.u, s.u)
        assert [r.csv_row() for r in traj.records] == [r.csv_row() for r in full.records]
        gone = weakref.ref(traj)  # no reference cycle through the keeper
        del traj
        assert gone() is None

    def test_verify_config_peak_memory(self, tmp_path):
        # verify --config holds three samples, drops eta once d eta is built and each
        # context table after its last reader, and streams the mix terms; its flow
        # holds no base curvature field, and its context takes the spectra of u and psi
        # where they are read: 64.8 complex grid fields at its traced peak here (the
        # bound is that + 10%), against 69.0 when the flow and the identity context held
        # a base field each and the context held both spectra, and 87 when it held all
        # nine samples, eta beside d eta, every table to the end and whole sandwiches
        path = self.write_config(tmp_path, self.VERIFY_N2)
        field_bytes = 8 ** 4 * 16
        tracemalloc.start()
        try:
            assert cli_main(["verify", "--config", path, "--out", str(tmp_path / "v.jsonl")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / field_bytes <= 71

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

    @pytest.mark.parametrize("where", ["input", "metric"])
    def test_phase_table_non_json_named_at_its_line(self, tmp_path, capsys, where):
        # a bare JSONDecodeError named neither the file nor the line before
        inp = tmp_path / "mats.jsonl"
        inp.write_text("[[1.0]]\n\n[[2.0], oops]\n" if where == "input" else "[[1.0]]\n")
        metric = tmp_path / "g.json"
        metric.write_text("[[1.0]" if where == "metric" else "[[1.0]]")
        out = tmp_path / "t.csv"
        assert cli_main(["phase-table", "--input", str(inp), "--output", str(out),
                         "--metric", str(metric)]) == 1
        at = f"{inp}:3" if where == "input" else str(metric)
        err = capsys.readouterr().err
        assert err.startswith(f"error: config error at {at}: invalid JSON: "), err
        assert not out.exists()

    def test_phase_table_metric_of_another_size_named(self, tmp_path, capsys):
        # it ended in a bare matmul error before
        inp = tmp_path / "mats.jsonl"
        inp.write_text("[[1.0, 0.0], [0.0, 2.0]]\n[[0.5, 0.0], [0.0, 1.0]]\n")
        metric = tmp_path / "g.json"
        metric.write_text("[[1]]")
        out = tmp_path / "t.csv"
        assert cli_main(["phase-table", "--input", str(inp), "--output", str(out),
                         "--metric", str(metric)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config error at {metric}: the metric is 1x1 but the input matrices "
            "are 2x2"]
        assert not out.exists()

    @pytest.mark.parametrize("where", ["input", "metric"])
    def test_phase_table_non_hermitian_named_at_its_line(self, tmp_path, capsys, where):
        # a non-Hermitian input line was named by no file or line before
        inp = tmp_path / "mats.jsonl"
        bad = "[[1.0, 2.0], [0.0, 1.0]]"
        inp.write_text(f"[[1.0, 0.0], [0.0, 2.0]]\n{bad}\n" if where == "input"
                       else "[[1.0, 0.0], [0.0, 2.0]]\n")
        metric = tmp_path / "g.json"
        metric.write_text(bad if where == "metric" else "[[1.0, 0.0], [0.0, 1.0]]")
        out = tmp_path / "t.csv"
        assert cli_main(["phase-table", "--input", str(inp), "--output", str(out),
                         "--metric", str(metric)]) == 1
        at, label = (f"{inp}:2", "curvature input") if where == "input" else (metric, "metric")
        assert capsys.readouterr().err.splitlines() == [
            f"error: config error at {at}: non-Hermitian {label}"]
        assert not out.exists()

    # the huge bases of one 8 x 8 torus, as config keys, whose e_1^2 - 2 e_2 overflows;
    # with a given hat_theta, which skips the winding, eta~0 = I + F~0 F~0 overflows at
    # n=1 and the class's coefficients at n=2
    HUGE_BASES = {"constant-1e200": {"base_curvature": {"constant": [[1e200]]}},
                  "constant-1e308": {"base_curvature": {"constant": [[1e308]]}},
                  "psi-1e300": {"base_curvature": {"constant": [[1.0]], "potential": {
                      "modes": [{"m": [1, 0], "amplitude": 1e300}]}}},
                  "n2-constant-1e200": {"dimension": 2, "metric": [[1.0, 0.0], [0.0, 1.0]],
                                        "base_curvature": {"constant": [[1e200, 0.0],
                                                                        [0.0, 1e200]]}},
                  "given-theta-constant-1e200": {"base_curvature": {"constant": [[1e200]]},
                                                 "hat_theta": 0.5},
                  "given-theta-n2-psi-1e300": {
                      "dimension": 2, "metric": [[1.0, 0.0], [0.0, 1.0]], "hat_theta": 0.5,
                      "base_curvature": {"constant": [[1.0, 0.0], [0.0, 1.0]], "potential": {
                          "modes": [{"m": [1, 0, 0, 0], "amplitude": 1e300}]}}}}

    @pytest.mark.filterwarnings("error")  # numpy's overflow warnings came before the error
    @pytest.mark.parametrize("command", ["hat-theta", "simulate", "reference", "verify"])
    @pytest.mark.parametrize("base", sorted(HUGE_BASES))
    def test_curvature_too_large_for_the_winding_refused(self, tmp_path, capsys, monkeypatch,
                                                         command, base):
        # hat-theta printed a NaN hat_theta and exited 0, simulate halved its step 11
        # times and ended as "blowup", and with a given hat_theta it warned and ran to a
        # timeout; now each ends with one error line before any step and before its
        # output directory or report is made
        monkeypatch.setattr(flow_mod, "_integrate", None)
        run, report = tmp_path / "run", tmp_path / "verify.jsonl"
        cfg = self.write_config(tmp_path, minimal_config(
            resolution=8, outputs={"dir": str(run)}, **self.HUGE_BASES[base]))
        out = ["--out", str(report)] if command == "verify" else []
        assert cli_main([command, "--config", cfg] + out) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: curvature too large for the winding: its eigenvalue bound or winding "
            "path is not finite"]
        assert not run.exists() and not report.exists()

    @pytest.mark.filterwarnings("error")  # [[5e-324]] warned and wrote a row of inf and nan
    @pytest.mark.parametrize("metric,message", [
        ("[[0]]", "metric not positive definite"),
        ("[[-1]]", "metric not positive definite"),
        ("[[5e-324]]", "metric too close to singular: its inverse is not finite")])
    def test_phase_table_metric_refused_at_its_file(self, tmp_path, capsys, metric, message):
        inp = tmp_path / "mats.jsonl"
        inp.write_text("[[1.0]]\n")
        g = tmp_path / "g.json"
        g.write_text(metric)
        out = tmp_path / "t.csv"
        assert cli_main(["phase-table", "--input", str(inp), "--output", str(out),
                         "--metric", str(g)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: config error at {g}: {message}"]
        assert not out.exists()

    def test_phase_table_size_mismatch_rejected(self, tmp_path, capsys):
        inp = tmp_path / "mats.jsonl"
        inp.write_text("[[1.0]]\n[[1.0, 0.0], [0.0, 1.0]]\n")
        out = tmp_path / "t.csv"
        assert cli_main(["phase-table", "--input", str(inp), "--output", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config error at {inp}:2: matrix size differs from the first line"]
        assert not out.exists()
