"""Run-configuration schema, snapshot files, and diagnostics CSV.

Configurations are JSON documents validated strictly: unknown keys are
rejected with the JSON path of the offender, matrices are Hermitian-checked
on load, and every parsed configuration is normalized so that
parse(write(config)) round-trips exactly.  Complex matrix entries are
written as [re, im] pairs; bare numbers are accepted on input and
normalized.

Field snapshots are a single JSON header line followed by raw little-endian
bytes; time series go to CSV with full round-trip float formatting.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .diagnostics import CSV_COLUMNS, TENSOR_COLUMNS
from .flow import BaseCurvature, FlowConfig, _check_time
from .geometry import TorusGeometry, bandlimited_noise, build_torus, check_hermitian_field

__all__ = [
    "ConfigError",
    "RunConfig",
    "SweepSpec",
    "parse_config",
    "parse_config_data",
    "parse_sweep_config",
    "write_config",
    "write_diagnostics",
    "write_snapshot",
    "read_snapshot",
    "modes_field",
]

_TIME_DEFAULTS = {
    "t_max": 100.0,
    "dt_safety": 0.5,
    "residual_tol": 1e-10,
    "sample_every": 100,
}
_OUTPUT_DEFAULTS = {"dir": ".", "snapshots": "none"}
_SNAPSHOT_MODES = ("none", "final", "all-samples")
_SNAPSHOT_DTYPES = {"f64le": np.dtype("<f8"), "c128le": np.dtype("<c16")}


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"config error at {path}: {message}")


def _require_keys(obj: dict, path: str, required: tuple, optional: tuple) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}", "unknown key")
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


def _matrix(obj, n: int, path: str, hermitian_name: str) -> list:
    if not isinstance(obj, list) or len(obj) != n:
        raise ConfigError(path, f"expected {n} rows")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise ConfigError(f"{path}[{i}]", f"expected {n} entries")
        rows.append([_entry(row[j], f"{path}[{i}][{j}]") for j in range(n)])
    try:
        check_hermitian_field(_as_complex(rows))
    except ValueError:
        raise ConfigError(path, f"{hermitian_name} matrix is not Hermitian") from None
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
        if k_band < 1 or k_band > N / 3:
            raise ConfigError(f"{path}.k_band", f"band exceeds dealiasing limit N/3 = {N / 3:g}")
        return {
            "type": "noise",
            "k_band": k_band,
            "seed": _integer(obj["seed"], f"{path}.seed"),
            "target_hess_sup": _number(obj["target_hess_sup"], f"{path}.target_hess_sup"),
        }
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
        u0 = bandlimited_noise(geom, init["k_band"], 1.0, init["seed"])
        target = init["target_hess_sup"]
        if target == 0.0:
            return np.zeros(geom.shape)
        from .diagnostics import tensor_norms

        return u0 * (target / tensor_norms(geom, u0, ("Theta", "ThetaP")).hess_sup)

    def hat_theta_value(self, geom: TorusGeometry, base: BaseCurvature) -> float:
        if self.hat_theta is not None:
            return self.hat_theta
        from .cohomology import winding_hat_theta

        return winding_hat_theta(geom, base.field())

    def flow_config(self, keep_fields: int | None = None) -> FlowConfig:
        geom = self.geometry()
        base = self.base(geom)
        return FlowConfig(geometry=geom, base=base, u0=self.initial_field(geom),
                          hat_theta=self.hat_theta_value(geom, base),
                          keep_fields=keep_fields, **self.time)

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
    if n not in (1, 2, 3):
        raise ConfigError(f"{source}.dimension", "must be 1, 2 or 3")
    N = _integer(data["resolution"], f"{source}.resolution")
    if N < 8 or (N & (N - 1)) != 0:
        raise ConfigError(f"{source}.resolution", "must be a power of two >= 8")
    metric = _matrix(data["metric"], n, f"{source}.metric", "metric")
    if np.linalg.eigvalsh(_as_complex(metric)).min() <= 0:
        raise ConfigError(f"{source}.metric", "metric not positive definite")

    bc = data["base_curvature"]
    _require_keys(bc, f"{source}.base_curvature", ("constant",), ("potential",))
    constant = _matrix(bc["constant"], n, f"{source}.base_curvature.constant", "constant curvature")
    potential_modes = None
    if "potential" in bc:
        pot = bc["potential"]
        _require_keys(pot, f"{source}.base_curvature.potential", ("modes",), ())
        potential_modes = _modes(pot["modes"], n, N, f"{source}.base_curvature.potential.modes")

    hat_theta = None
    if "hat_theta" in data:
        hat_theta = _number(data["hat_theta"], f"{source}.hat_theta")

    initial = _initial(data.get("initial", {"type": "zero"}), n, N, f"{source}.initial")

    time = dict(_TIME_DEFAULTS)
    if "time" in data:
        _require_keys(data["time"], f"{source}.time", (), tuple(_TIME_DEFAULTS))
        for key, val in data["time"].items():
            parse = _integer if key == "sample_every" else _number
            time[key] = parse(val, f"{source}.time.{key}")
    try:
        _check_time(SimpleNamespace(**time))  # the checks of FlowConfig and SweepConfig
    except ValueError as exc:
        raise ConfigError(f"{source}.time", str(exc)) from None

    outputs = dict(_OUTPUT_DEFAULTS)
    if "outputs" in data:
        _require_keys(data["outputs"], f"{source}.outputs", (), ("dir", "snapshots"))
        outputs.update(data["outputs"])
    if outputs["snapshots"] not in _SNAPSHOT_MODES:
        raise ConfigError(f"{source}.outputs.snapshots",
                          f"must be one of {_SNAPSHOT_MODES}")

    return RunConfig(
        dimension=n, resolution=N, metric=metric, constant=constant,
        potential_modes=potential_modes, hat_theta=hat_theta,
        initial=initial, time=time, outputs=outputs,
    )


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("$", f"invalid JSON: {exc}") from exc


def parse_config(path) -> RunConfig:
    return parse_config_data(_load_json(path))


def write_config(config: RunConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config.to_json_dict(), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# sweep configuration


@dataclass
class SweepSpec:
    """Parsed sweep configuration: a run skeleton plus the sweep block."""

    run: RunConfig
    delta_list: list
    seeds: int
    k_band: int
    seed_base: int


def parse_sweep_config(path) -> SweepSpec:
    data = _load_json(path)
    _require_keys(
        data, "$",
        ("dimension", "resolution", "metric", "base_curvature", "sweep"),
        ("hat_theta", "time", "outputs"),
    )
    sweep = data.pop("sweep")
    run = parse_config_data(data)
    _require_keys(sweep, "$.sweep", ("delta_list", "seeds"), ("k_band", "seed_base"))
    deltas = sweep["delta_list"]
    if not isinstance(deltas, list) or not deltas:
        raise ConfigError("$.sweep.delta_list", "expected a nonempty list")
    deltas = [_number(d, f"$.sweep.delta_list[{i}]") for i, d in enumerate(deltas)]
    seeds = _integer(sweep["seeds"], "$.sweep.seeds")
    k_band = _integer(sweep.get("k_band", 2), "$.sweep.k_band")
    seed_base = _integer(sweep.get("seed_base", 0), "$.sweep.seed_base")
    return SweepSpec(run=run, delta_list=deltas, seeds=seeds, k_band=k_band,
                     seed_base=seed_base)


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
    """Inverse of write_snapshot: returns (values, header dict)."""
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode())
            raw = fh.read()
    except OSError as exc:
        raise OSError(f"failed to read snapshot {path}: {exc}") from exc
    np_dtype = _SNAPSHOT_DTYPES.get(header.get("dtype"))
    if np_dtype is None:
        raise ValueError(f"snapshot {path}: unknown dtype {header.get('dtype')!r}")
    expected = math.prod(header["shape"]) * np_dtype.itemsize
    if len(raw) != expected:
        raise ValueError(f"snapshot {path}: payload has {len(raw)} bytes, "
                         f"its header needs {expected}")
    values = np.frombuffer(raw, dtype=np_dtype).reshape(header["shape"])
    return values.copy(), header
