"""The CLI's file formats: run configurations and the matrices of `phase-table` in,
the effective config, JSON reports, snapshot files and diagnostics CSV out.

Configurations are JSON documents validated strictly: unknown keys are
rejected with the JSON path of the offender, matrices are Hermitian-checked
on load, and every parsed configuration is normalized so that
parse(write(config)) round-trips exactly.  Complex matrix entries are
written as [re, im] pairs; bare numbers are accepted on input and
normalized.  `phase-table` reads its matrices with the same reader.

Field snapshots are a single JSON header line followed by raw little-endian
bytes; time series go to CSV with full round-trip float formatting.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .diagnostics import CSV_COLUMNS, TENSOR_COLUMNS
from .flow import BaseCurvature, FlowConfig, LineBundleFlow, Schedule
from .geometry import (TorusGeometry, _band_error, _grid_error, _metric_error, build_torus,
                       check_hermitian_field)
from .harness import SweepConfig, _scaled_noise, _sweep_error

__all__ = [
    "ConfigError",
    "RunConfig",
    "SweepSpec",
    "parse_config",
    "parse_config_data",
    "parse_sweep_config",
    "write_config",
    "write_json",
    "write_diagnostics",
    "write_snapshot",
    "read_snapshot",
    "modes_field",
]

_OUTPUT_DEFAULTS = {"dir": ".", "snapshots": "none"}
_SNAPSHOT_MODES = ("none", "final", "all-samples")
_SNAPSHOT_DTYPES = {"f64le": np.dtype("<f8"), "c128le": np.dtype("<c16")}
# the header keys read_snapshot needs, with their JSON types
_SNAPSHOT_KEYS = {"name": str, "t": (int, float), "dtype": str, "shape": list}


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"config error at {path}: {message}")


def _require_keys(obj: dict, path: str, required: tuple, optional: tuple) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in required and key not in optional:  # repr keeps the message one line
            raise ConfigError(f"{path}.{key if key.isprintable() else repr(key)}", "unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(path, f"missing required key {key!r}")


def _number(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(obj).__name__}")
    if not math.isfinite(obj):
        raise ConfigError(path, f"expected a finite number, got {obj!r}")
    return float(obj)


def _integer(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(path, f"expected an integer, got {type(obj).__name__}")
    return obj


def _entry(obj, path: str) -> list:
    """Normalize a matrix entry to an [re, im] pair."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return [_number(obj, path), 0.0]
    if isinstance(obj, list) and len(obj) == 2:
        return [_number(obj[0], f"{path}[0]"), _number(obj[1], f"{path}[1]")]
    raise ConfigError(path, "matrix entry must be a number or an [re, im] pair")


def _matrix(obj, path: str, label: str, n: int | None = None) -> list:
    """A Hermitian matrix as rows of [re, im] pairs (`_entry`): n rows of n entries, or
    rows of any one square size when n is None.  A non-Hermitian one is refused with
    `check_hermitian_field`'s message for label."""
    if n is None:
        if not isinstance(obj, list) or not obj:
            raise ConfigError(path, "expected a square matrix as a nonempty list of rows")
        n, row_error = len(obj), f"expected a row of {len(obj)} entries"
    elif not isinstance(obj, list) or len(obj) != n:
        raise ConfigError(path, f"expected {n} rows")
    else:
        row_error = f"expected {n} entries"
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise ConfigError(f"{path}[{i}]", row_error)
        rows.append([_entry(e, f"{path}[{i}][{j}]") for j, e in enumerate(row)])
    try:
        check_hermitian_field(_as_complex(rows), label=label)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None
    return rows


def _metric(obj, path: str, n: int | None = None) -> list:
    """A metric matrix (`_matrix`) that the metric rule (`geometry._metric_error`) takes."""
    rows = _matrix(obj, path, "metric", n)
    error = _metric_error(_as_complex(rows))
    if error is not None:
        raise ConfigError(path, error)
    return rows


def _as_complex(rows: list) -> np.ndarray:
    return np.array([[complex(e[0], e[1]) for e in row] for row in rows])


def _modes(obj, n: int, N: int, path: str) -> list:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(path, "expected a nonempty list of modes")
    out = []
    for k, mode in enumerate(obj):
        p = f"{path}[{k}]"
        _require_keys(mode, p, ("m", "amplitude"), ("phase",))
        m = mode["m"]
        if not isinstance(m, list) or len(m) != 2 * n:
            raise ConfigError(f"{p}.m", f"expected {2 * n} integer components")
        m = [_integer(v, f"{p}.m[{a}]") for a, v in enumerate(m)]
        if max(abs(v) for v in m) > N // 3:
            raise ConfigError(f"{p}.m", f"mode exceeds dealiasing limit N/3 = {N // 3}")
        out.append({
            "m": m,
            "amplitude": _number(mode["amplitude"], f"{p}.amplitude"),
            "phase": _number(mode.get("phase", 0.0), f"{p}.phase"),
        })
    return out


def _initial(obj, n: int, N: int, path: str) -> dict:
    _require_keys(obj, path, ("type",), ("k_band", "seed", "target_hess_sup", "modes"))
    kind = obj["type"]
    if kind == "zero":
        _require_keys(obj, path, ("type",), ())
        return {"type": "zero"}
    if kind == "noise":
        _require_keys(obj, path, ("type", "k_band", "seed", "target_hess_sup"), ())
        k_band = _integer(obj["k_band"], f"{path}.k_band")
        error = _band_error(k_band, N)
        if error is not None:
            raise ConfigError(f"{path}.k_band", error)
        init = {"type": "noise", "k_band": k_band,
                "seed": _integer(obj["seed"], f"{path}.seed"),
                "target_hess_sup": _number(obj["target_hess_sup"], f"{path}.target_hess_sup")}
        for key in ("seed", "target_hess_sup"):
            if init[key] < 0:
                raise ConfigError(f"{path}.{key}", f"{key} must be nonnegative")
        return init
    if kind == "modes":
        _require_keys(obj, path, ("type", "modes"), ())
        return {"type": "modes", "modes": _modes(obj["modes"], n, N, f"{path}.modes")}
    raise ConfigError(f"{path}.type", f"unknown initial data type {kind!r}")


@dataclass
class RunConfig:
    """Validated, normalized run configuration (plain data, JSON-stable)."""

    dimension: int
    resolution: int
    metric: list
    constant: list
    potential_modes: list | None
    hat_theta: float | None
    initial: dict
    time: dict
    outputs: dict

    # -- construction of live objects ------------------------------------

    def geometry(self) -> TorusGeometry:
        return build_torus(self.dimension, self.resolution, _as_complex(self.metric))

    def base(self, geom: TorusGeometry) -> BaseCurvature:
        psi = None
        if self.potential_modes:
            psi = modes_field(geom, self.potential_modes)
        return BaseCurvature(geometry=geom, F0=_as_complex(self.constant), psi=psi)

    def initial_field(self, geom: TorusGeometry) -> np.ndarray:
        init = self.initial
        if init["type"] == "zero":
            return np.zeros(geom.shape)
        if init["type"] == "modes":
            return modes_field(geom, init["modes"])
        return _scaled_noise(geom, init["k_band"], init["seed"], init["target_hess_sup"])

    def flow(self) -> LineBundleFlow:
        """The configured flow; hat_theta is the winding lift when the config gives none."""
        return LineBundleFlow(self.base(self.geometry()), self.hat_theta)

    def flow_config(self) -> FlowConfig:
        flow = self.flow()
        return FlowConfig(flow=flow, u0=self.initial_field(flow.geometry), **self.time)

    def to_json_dict(self) -> dict:
        doc = {
            "dimension": self.dimension,
            "resolution": self.resolution,
            "metric": self.metric,
            "base_curvature": {"constant": self.constant},
            "initial": self.initial,
            "time": self.time,
            "outputs": self.outputs,
        }
        if self.potential_modes:
            doc["base_curvature"]["potential"] = {"modes": self.potential_modes}
        if self.hat_theta is not None:
            doc["hat_theta"] = self.hat_theta
        return doc


def modes_field(geom: TorusGeometry, modes: list) -> np.ndarray:
    """Real field sum of amplitude * cos(m . x + phase) over listed modes."""
    f = np.zeros(geom.shape)
    for mode in modes:
        arg = np.zeros(geom.shape)
        for axis, m_a in enumerate(mode["m"]):
            if m_a:
                arg = arg + m_a * geom.axis_coordinate(axis)
        f += mode["amplitude"] * np.cos(arg + mode.get("phase", 0.0))
    return f


def parse_config_data(data: dict, source: str = "$") -> RunConfig:
    _require_keys(
        data, source,
        ("dimension", "resolution", "metric", "base_curvature"),
        ("hat_theta", "initial", "time", "outputs"),
    )
    n = _integer(data["dimension"], f"{source}.dimension")
    N = _integer(data["resolution"], f"{source}.resolution")
    error = _grid_error(n, N)
    if error is not None:
        raise ConfigError(f"{source}.{error[0]}", error[1])
    metric = _metric(data["metric"], f"{source}.metric", n)

    bc = data["base_curvature"]
    _require_keys(bc, f"{source}.base_curvature", ("constant",), ("potential",))
    constant = _matrix(bc["constant"], f"{source}.base_curvature.constant",
                       "constant curvature", n)
    potential_modes = None
    if "potential" in bc:
        pot = bc["potential"]
        _require_keys(pot, f"{source}.base_curvature.potential", ("modes",), ())
        potential_modes = _modes(pot["modes"], n, N, f"{source}.base_curvature.potential.modes")

    hat_theta = None
    if "hat_theta" in data:
        hat_theta = _number(data["hat_theta"], f"{source}.hat_theta")

    initial = _initial(data.get("initial", {"type": "zero"}), n, N, f"{source}.initial")

    time = Schedule().schedule()  # the defaults, in the order of the keys
    _require_keys(data.get("time", {}), f"{source}.time", (), tuple(time))
    for key, val in data.get("time", {}).items():
        parse = _integer if isinstance(time[key], int) else _number
        time[key] = parse(val, f"{source}.time.{key}")
    try:
        Schedule(**time)  # the checks of FlowConfig and SweepConfig
    except ValueError as exc:
        raise ConfigError(f"{source}.time", str(exc)) from None

    outputs = dict(_OUTPUT_DEFAULTS)
    if "outputs" in data:
        _require_keys(data["outputs"], f"{source}.outputs", (), ("dir", "snapshots"))
        outputs.update(data["outputs"])
    if not isinstance(outputs["dir"], str):
        raise ConfigError(f"{source}.outputs.dir",
                          f"expected a string, got {type(outputs['dir']).__name__}")
    if outputs["snapshots"] not in _SNAPSHOT_MODES:
        raise ConfigError(f"{source}.outputs.snapshots",
                          f"must be one of {_SNAPSHOT_MODES}")

    return RunConfig(
        dimension=n, resolution=N, metric=metric, constant=constant,
        potential_modes=potential_modes, hat_theta=hat_theta,
        initial=initial, time=time, outputs=outputs,
    )


def _json_value(text: str, where: str):
    """The JSON value of a text, or a ConfigError at where."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(where, f"invalid JSON: {exc}") from None


def _load_json(path):
    with open(path) as fh:
        return _json_value(fh.read(), "$")


def parse_config(path) -> RunConfig:
    return parse_config_data(_load_json(path))


def write_json(doc, path) -> None:
    """A JSON document indented by 2, with a final newline: the effective config and the
    reports."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_config(config: RunConfig, path) -> None:
    write_json(config.to_json_dict(), path)


# ---------------------------------------------------------------------------
# sweep configuration


@dataclass
class SweepSpec:
    """Parsed sweep configuration: a run skeleton plus the sweep block (`SweepConfig`'s)."""

    run: RunConfig
    sweep: dict

    def sweep_config(self) -> SweepConfig:
        return SweepConfig(flow=self.run.flow(), **self.sweep, **self.run.time)


def parse_sweep_config(path) -> SweepSpec:
    data = _load_json(path)
    _require_keys(
        data, "$",
        ("dimension", "resolution", "metric", "base_curvature", "sweep"),
        ("hat_theta", "time", "outputs"),
    )
    block = data.pop("sweep")
    run = parse_config_data(data)
    # the keys are SweepConfig's fields but its flow and its schedule (run.time)
    keys = [f for f in fields(SweepConfig) if f.name != "flow" and f.name not in run.time]
    _require_keys(block, "$.sweep", tuple(f.name for f in keys if f.default is MISSING),
                  tuple(f.name for f in keys if f.default is not MISSING))
    sweep = {f.name: block.get(f.name, f.default) for f in keys}
    if not isinstance(sweep["delta_list"], list):
        raise ConfigError("$.sweep.delta_list", "expected a list")
    sweep["delta_list"] = [_number(d, f"$.sweep.delta_list[{i}]")
                           for i, d in enumerate(sweep["delta_list"])]
    error = _sweep_error(sweep, run.resolution)  # the checks of SweepConfig, integers too
    if error is not None:
        raise ConfigError(f"$.sweep.{error[0]}", error[1])
    return SweepSpec(run=run, sweep=sweep)


# ---------------------------------------------------------------------------
# diagnostics CSV and snapshots


def write_diagnostics(records, path) -> None:
    """Time-series CSV, one row per sample, round-trip float formatting."""
    if not records:
        raise ValueError("nothing to write: no diagnostics records")
    for r in records:
        for name in TENSOR_COLUMNS:
            if math.isnan(getattr(r, name)):
                raise ValueError(f"record at t={r.t!r} has no {name}: "
                                 "a phase-only record cannot be written")
    lines = [CSV_COLUMNS]
    lines.extend(r.csv_row() for r in records)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_snapshot(values: np.ndarray, name: str, t: float,
                   geom: TorusGeometry, path) -> None:
    """One JSON header line, then raw little-endian field bytes."""
    values = np.ascontiguousarray(values)
    dtype = "c128le" if np.iscomplexobj(values) else "f64le"
    raw = values.astype(_SNAPSHOT_DTYPES[dtype])
    header = {
        "name": name,
        "t": float(t),
        "n": geom.n,
        "N": geom.N,
        "dtype": dtype,
        "shape": list(values.shape),
        "order": "row-major",
    }
    try:
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            fh.write(raw.tobytes())
    except OSError as exc:
        raise OSError(f"failed to write snapshot {path}: {exc}") from exc


def read_snapshot(path):
    """Inverse of write_snapshot: returns (values, header dict).  A header that is not a
    JSON object with name, t, dtype and shape of their JSON types is a ValueError naming
    the file and the key."""
    try:
        with open(path, "rb") as fh:
            line = fh.readline()
            raw = fh.read()
    except OSError as exc:
        raise OSError(f"failed to read snapshot {path}: {exc}") from exc
    try:
        header = json.loads(line.decode())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"snapshot {path}: header is not a JSON line: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError(f"snapshot {path}: header is not a JSON object")
    for key, kind in _SNAPSHOT_KEYS.items():
        if key not in header:
            raise ValueError(f"snapshot {path}: header has no {key!r}")
        if isinstance(header[key], bool) or not isinstance(header[key], kind):
            raise ValueError(f"snapshot {path}: header {key!r} has the wrong type: "
                             f"{header[key]!r}")
    if not all(type(k) is int and k >= 0 for k in header["shape"]):
        raise ValueError(f"snapshot {path}: header shape {header['shape']!r} is not a list "
                         "of sizes")
    np_dtype = _SNAPSHOT_DTYPES.get(header["dtype"])
    if np_dtype is None:
        raise ValueError(f"snapshot {path}: unknown dtype {header['dtype']!r}")
    expected = math.prod(header["shape"]) * np_dtype.itemsize
    if len(raw) != expected:
        raise ValueError(f"snapshot {path}: payload has {len(raw)} bytes, "
                         f"its header needs {expected}")
    values = np.frombuffer(raw, dtype=np_dtype).reshape(header["shape"])
    return values.copy(), header
