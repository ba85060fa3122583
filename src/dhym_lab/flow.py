"""Time integration of the line bundle mean curvature flow.

The state is the real potential u on the grid with its half spectrum
(`TorusGeometry.rfft`); the velocity is theta(F_hat + ddbar u) - hat_theta,
at every n from the real planes of `TorusGeometry.frame_hessian`; a state
keeps theta and Z = integral of zeta.  The base F_hat = F0 + ddbar psi
enters only through F0 + ddbar(u + psi), so psi is a shift of u within
F_hat's class (the flow of Jacob & Yau, Math. Ann. 369, 2017): the phase is
that of the frame Hessian of the spectrum uh + rfft(psi) plus the n^2
constant planes of the frame F0, and no curvature field is built, neither
along the flow nor for its base.

A `LineBundleFlow` carries the problem: the base curvature F_hat (and its
torus) and hat_theta, by default the winding lift of F_hat's class, from the
characteristic coefficients of the flow's planes at u = 0.
`FlowConfig`, `run_fixed`, `Trajectory` and `harness.SweepConfig` take a
flow, not copies of the problem that could disagree.

`run_flow` steps with ETDRK4 (Cox & Matthews, J. Comput. Phys. 176, 2002).
The velocity splits into the linearization L of the flow at the constant
background F0, whose Fourier symbol is sum_pq (eta0^{-1})_qp mz_p mZ_q with
eta0 = g + F0 g^{-1} F0 (mz, mZ the d/dz and d/dzbar multipliers), and the
remainder N(u) = theta(F_hat + ddbar u) - hat_theta - L u.  L is
integrated exactly, so the step is not bound by diffusion; without a
potential psi the scheme is exact for the linearized flow.  The
phi-function coefficients come from the contour-integral method of Kassam
& Trefethen (SIAM J. Sci. Comput. 26(4), 2005), once per distinct value of
L and step size of a flow; the cells of a sweep share one flow.

`run_flow` and `run_fixed` are front ends of one loop, `_integrate`: steps
of nominal size h0, each clipped to land on the next sample time k*ds (where
the records sit) and on the end time, with convergence checked after every
step.  Divergence (a non-finite stage or update, or a residual jump no
parabolic step can produce) halves the step and retries from the last
accepted state; the step doubles back toward h0 after each recorded sample,
and more than ten consecutive halvings classify the run as a suspected
blow-up.  Every step-size change is logged with its time and reason.

`run_flow` steps with ETDRK4 at h0 = ds = sample_every *
stable_dt(flow.geometry, dt_safety) until residual_tol or t_max.  `run_fixed` is the oracle the
ETDRK4 stepper is checked against: classical RK4 at h0 = dt and ds =
sample_every * dt that never stops on convergence, so a run that reaches
n_steps * dt is 'timeout'.  Its stable step comes from the diffusion bound
of the linearization: the eta-Laplacian has coefficients dominated by g^{-1}
(eta >= g pointwise), so

    dt = sigma / (n * lambda_max(g^{-1}) * (N/2)^2 / 2),  sigma in (0, 1].
"""

from __future__ import annotations

import numbers
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import diagnostics
from .cohomology import _TOO_LARGE, cohomology_invariants
from .geometry import TorusGeometry, check_hermitian_field, volume_integral
from .phase import PhaseFields, eta_pair, frame_characteristic, hermitian_planes

__all__ = [
    "BaseCurvature",
    "FlowConfig",
    "Schedule",
    "FlowState",
    "FlowSample",
    "Trajectory",
    "LineBundleFlow",
    "FlowDiverged",
    "stable_dt",
    "rk4_step",
    "etdrk4_step",
    "run_flow",
    "run_fixed",
]


def __getattr__(name):
    # `sfft`, the alias perfbench/tracer.py wraps the scipy.fft transforms at, imports
    # scipy.fft on first access: its package init is about 0.3 s of each CLI start
    if name == "sfft":
        import scipy.fft

        globals()["sfft"] = scipy.fft
        return scipy.fft
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class FlowDiverged(RuntimeError):
    """A time step produced non-finite values or unstable growth."""


@dataclass
class BaseCurvature:
    """Background curvature F_hat = F0 + ddbar psi.

    F0 is the constant (harmonic) part, an n x n Hermitian matrix; psi is an
    optional real periodic potential whose Hessian carries the oscillatory
    part, so the mean of F_hat - F0 vanishes entrywise by construction.  Both
    must be finite.  The flow reads psi as a shift of u (`LineBundleFlow`), so
    the field F_hat is never built.
    """

    geometry: TorusGeometry
    F0: np.ndarray
    psi: np.ndarray | None = None

    def __post_init__(self):
        n = self.geometry.n
        F0 = np.asarray(self.F0, dtype=np.complex128)
        if F0.ndim == 0:
            F0 = F0 * np.eye(n)
        if F0.shape != (n, n):
            raise ValueError(f"constant curvature must be {n}x{n}, got {F0.shape}")
        _check_finite("constant curvature F0", F0, "entry")
        check_hermitian_field(F0)
        self.F0 = F0
        if self.psi is not None:
            self.psi = _grid_field("potential psi", self.psi, self.geometry)

    @classmethod
    def proportional(cls, geometry: TorusGeometry, c: float) -> "BaseCurvature":
        """The trivially stationary base F_hat = c * omega."""
        return cls(geometry=geometry, F0=c * geometry.g, psi=None)


def _check_finite(name: str, a: np.ndarray, where: str) -> None:
    """Refuse an array with a non-finite entry, naming the index of the first one."""
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        at = tuple(int(i) for i in np.unravel_index(bad[0], a.shape))
        raise ValueError(f"{name} is not finite at {where} {at}")


def _grid_field(name: str, f, geom: TorusGeometry) -> np.ndarray:
    """f as a float64 grid field; a complex, misshapen or non-finite one is refused."""
    if np.iscomplexobj(f):
        raise ValueError(f"{name} must be real, got a complex field")
    f = np.asarray(f, dtype=np.float64)
    if f.shape != geom.shape:
        raise ValueError(f"{name} shape does not match the grid")
    _check_finite(name, f, "grid index")
    return f


def stable_dt(geom: TorusGeometry, sigma: float) -> float:
    """Explicit step from the diffusion bound of the linearization."""
    lam_max_ginv = 1.0 / geom.g_eig_min
    return sigma / (geom.n * lam_max_ginv * (geom.N / 2) ** 2 / 2.0)


_CONTOUR_POINTS = 32  # contour points of the ETDRK4 phi-functions


class LineBundleFlow:
    """The flow of a base curvature on its torus at the phase hat_theta, which defaults
    to the winding lift of the base's class (`cohomology.cohomology_invariants` of the
    characteristic coefficients `class_coefficients()`, kept as `class_invariants`).
    A base whose coefficients or frame eta~0 = I + F~0 F~0 are not finite is refused
    with the winding's RuntimeError, whether or not hat_theta is given.

    Right-hand side, one path at every n: the phase of the half spectrum uh of
    u is that of the frame curvature F~0 + frame_hessian(uh + psi_hat), plane by
    plane.  The base enters only through the n^2 planes of F~0, held as scalars,
    and psi_hat = rfft(psi) (None without a potential): psi is a shift of u within
    F_hat's class, so the flow holds no curvature field, and at most two half
    spectra.  The second is where uh + psi_hat is summed, so a flow with a
    potential takes one phase at a time."""

    def __init__(self, base: BaseCurvature, hat_theta: float | None = None):
        self.base = base
        self.geometry = geometry = base.geometry
        if hat_theta is not None and not np.isfinite(float(hat_theta)):
            raise ValueError(f"hat_theta must be finite, got {hat_theta!r}")
        self._etd = None  # (h, ETDRK4 coefficients) of the last step size
        # F~0 through two rows, so the product takes the bits it takes for a field of
        # them (one row takes a matrix-vector path, whose last bits differ); it and
        # eta~0 = I + F~0 F~0 overflow for a curvature too large for the winding
        with np.errstate(over="ignore", invalid="ignore"):
            F0 = geometry.to_frame(np.broadcast_to(base.F0, (2,) + base.F0.shape), "zZ")[0]
            eta0 = eta_pair(F0)
        self._f0 = [[float(c) for c in row] for row in hermitian_planes(F0)]
        self._psi_hat = None if base.psi is None else self.spectrum(base.psi)
        self._wh = None if base.psi is None else np.empty_like(self._psi_hat)
        e = self.class_coefficients()
        if not all(np.isfinite(a).all() for a in (*eta0, *e)):
            raise RuntimeError(_TOO_LARGE)
        self.class_invariants = None  # Z and lift of F_hat's class when hat_theta is the lift
        if hat_theta is None:
            self.class_invariants = cohomology_invariants(geometry, e)
            hat_theta = self.class_invariants.hat_theta
        self.hat_theta = float(hat_theta)

    def class_coefficients(self) -> list:
        """The characteristic coefficients e_0..e_n of F_hat's class: those of the planes
        at u = 0.  They overflow for a curvature too large for the winding, which the
        flow's build refuses, so they are taken under the winding's np.errstate."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.phase_fields(self.spectrum(np.zeros(self.geometry.shape))).e

    def spectrum(self, f: np.ndarray) -> np.ndarray:
        """Half spectrum of a real grid field."""
        return self.geometry.rfft(f)

    def curvature_planes(self, uh: np.ndarray) -> list:
        """The n x n real planes (`phase.hermitian_planes`) of the frame curvature
        F~0 + frame_hessian(uh + psi_hat) of F_hat + ddbar u, from the
        spectrum of u; uh + psi_hat is summed into the held half spectrum."""
        if self._psi_hat is not None:
            uh = np.add(uh, self._psi_hat, out=self._wh)
        T = self.geometry.frame_hessian(uh)
        for row, base_row in zip(T, self._f0):
            for plane, c in zip(row, base_row):
                plane += c  # Hermitian by construction, so unchecked
        return T

    def phase_fields(self, uh: np.ndarray) -> PhaseFields:
        """PhaseFields (e, theta and zeta) of F_hat + ddbar u from the spectrum of u."""
        return PhaseFields(frame_characteristic(self.curvature_planes(uh)))

    def phase(self, uh: np.ndarray) -> np.ndarray:
        """Phase field theta(F_hat + ddbar u) from the spectrum of u."""
        return self.phase_fields(uh).theta

    def theta(self, u: np.ndarray) -> np.ndarray:
        return self.phase(self.spectrum(u))

    def rhs(self, u: np.ndarray) -> np.ndarray:
        return self.theta(u) - self.hat_theta

    @cached_property
    def linear_symbol(self) -> np.ndarray:
        """Fourier symbol of the flow linearized at the constant background F0.

        Real, even in k and nonpositive, on the half grid of `spectrum`: the frame
        eta0^{-1} (eta0 = g + F0 g^{-1} F0) contracted with the real parts of the Hessian's
        plane symbols (`TorusGeometry.plane_symbols`), as the flow's phase reads them.
        """
        geom = self.geometry
        _, eta_inv = eta_pair(geom.to_frame(self.base.F0, "zZ"))
        T = [[0.0] * geom.n for _ in range(geom.n)]  # an imaginary plane with no symbol is 0
        for orbit, S in geom.plane_symbols:
            for (p, q), s in zip(orbit, S):
                T[p][q] = s.real
        return diagnostics._eta_laplacian(eta_inv, T)

    def etd_coefficients(self, h: float) -> tuple:
        """ETDRK4 coefficients (E, E2, Q, f1, f2, f3) of step h.

        The phi-functions are contour means over _CONTOUR_POINTS points of the
        upper unit half circle around each distinct value of h * L (L is real, so
        the real part of the half-circle mean is the full-circle mean), one point
        at a time, gathered onto L's half grid.  Only the last h's are kept.
        """
        if self._etd is not None and self._etd[0] == h:
            return self._etd[1]
        self._etd = None  # release the old coefficients before building new ones
        hL, at = np.unique(h * self.linear_symbol, return_inverse=True)
        acc = [np.zeros_like(hL) for _ in range(4)]
        for k in range(_CONTOUR_POINTS):
            z = hL + np.exp(1j * np.pi * (k + 0.5) / _CONTOUR_POINTS)
            ez, z3 = np.exp(z), z ** 3
            acc[0] += ((np.exp(z / 2.0) - 1.0) / z).real
            acc[1] += ((-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z3).real
            acc[2] += ((2.0 + z + ez * (z - 2.0)) / z3).real
            acc[3] += ((-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z3).real
        distinct = (np.exp(hL), np.exp(hL / 2.0)) + tuple((h / _CONTOUR_POINTS) * a for a in acc)
        coefficients = tuple(c[at].reshape(self.linear_symbol.shape) for c in distinct)
        self._etd = (h, coefficients)
        return coefficients

    def remainder(self, uh: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Spectrum of N(u) = theta - hat_theta - L u, from u's spectrum and phase."""
        return self.spectrum(theta - self.hat_theta) - self.linear_symbol * uh

    def state(self, u: np.ndarray, t: float = 0.0) -> "FlowState":
        """The flow state at a real field u: one transform, then the phase of it."""
        uh = self.spectrum(u)
        phase = self.phase_fields(uh)
        return FlowState(flow=self, t=t, u=u, uh=uh, theta=phase.theta,
                         Z=volume_integral(self.geometry, phase.zeta),
                         residual_sup=float(np.abs(phase.theta - self.hat_theta).max()))

    def initial_state(self, u0: np.ndarray) -> "FlowState":
        return self.state(_grid_field("initial potential u0", u0, self.geometry))


@dataclass(eq=False)
class FlowState:
    """One accepted point of the flow: u, its spectrum uh, and theta and Z from uh."""

    flow: LineBundleFlow = field(repr=False)
    t: float = 0.0
    u: np.ndarray = field(default=None, repr=False)
    uh: np.ndarray = field(default=None, repr=False)
    theta: np.ndarray = field(default=None, repr=False)
    Z: complex | None = None
    residual_sup: float = 0.0


@dataclass(frozen=True, eq=False)
class FlowSample:
    t: float
    u: np.ndarray


@dataclass
class Trajectory:
    """Diagnostics records and the final state of a run; it keeps no field samples.

    A caller that needs field samples, such as `simulate` writing all-samples
    snapshots or `verify` keeping its bracket, takes each one from
    on_record(k, sample) as it is recorded, with k the index of its record;
    the sample's u is its own copy, built only when on_record is set.

    Each record is `diagnostics.build_record` of the recorded `FlowState`.
    With norms=False every record is phase-only: its tensor columns are NaN
    and `write_diagnostics` refuses it.  `verify` records this way, because
    its checks read only t, theta, Z and the samples they are handed.
    """

    flow: LineBundleFlow
    records: list = field(default_factory=list)
    status: str = "running"
    steps: int = 0
    steps_rejected: int = 0
    dt_final: float = 0.0
    # each change of the step size: (t, h_old, h_new, reason)
    dt_changes: list = field(default_factory=list)
    final: FlowState | None = None
    # u at the Q base point of the first recorded sample (grid index 0)
    u0_at_p: float | None = field(default=None, init=False)
    norms: bool = True  # full records; False for phase-only ones
    on_record: Callable[[int, FlowSample], None] | None = None

    @property
    def t_final(self) -> float:
        return self.final.t if self.final is not None else 0.0

    def record(self, state: FlowState) -> None:
        """Store a flow state's record, and hand its field sample to on_record;
        a repeated t is skipped."""
        if self.records and self.records[-1].t == state.t:
            return
        if self.u0_at_p is None:
            self.u0_at_p = float(state.u[(0,) * (2 * self.flow.geometry.n)])
        self.records.append(diagnostics.build_record(state, self.u0_at_p, norms=self.norms))
        if self.on_record is not None:
            self.on_record(len(self.records) - 1, FlowSample(t=state.t, u=state.u.copy()))


def _accept(state: FlowState, h: float, u_new: np.ndarray) -> FlowState:
    """The state after a step to u_new, or FlowDiverged if it is not finite or
    its phase residual grew more than a parabolic step can produce."""
    if not np.isfinite(u_new).all():
        raise FlowDiverged("step diverged: non-finite update")
    flow = state.flow
    new = flow.state(u_new, state.t + h)
    if new.residual_sup > 2.0 * state.residual_sup + 1e-12 * (1.0 + abs(flow.hat_theta)):
        raise FlowDiverged(
            f"step diverged: residual grew {state.residual_sup:.3e} -> {new.residual_sup:.3e}"
        )
    return new


def rk4_step(state: FlowState, dt: float) -> FlowState:
    """One classical RK4 step; raises FlowDiverged on instability.

    The velocity is bounded by the phase range, so true overflow is rare;
    instability instead shows up as growth of the phase residual that no
    parabolic step can produce.  Both signals are checked.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    flow = state.flow
    u = state.u
    k1 = state.theta - flow.hat_theta
    stages = [k1]
    for stage_no, coeff in ((2, 0.5), (3, 0.5), (4, 1.0)):
        k = flow.rhs(u + (dt * coeff) * stages[-1])
        if not np.isfinite(k).all():
            raise FlowDiverged(f"step diverged: non-finite stage {stage_no}")
        stages.append(k)
    k1, k2, k3, k4 = stages
    return _accept(state, dt, u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def etdrk4_step(state: FlowState, h: float) -> FlowState:
    """One ETDRK4 step of size h (Cox & Matthews); raises FlowDiverged on
    instability, with the same checks as `rk4_step`."""
    if h <= 0:
        raise ValueError("h must be positive")
    flow = state.flow
    E, E2, Q, f1, f2, f3 = flow.etd_coefficients(h)

    def stage(wh, stage_no):
        theta = flow.phase(wh)
        if not np.isfinite(theta).all():
            raise FlowDiverged(f"step diverged: non-finite stage {stage_no}")
        return flow.remainder(wh, theta)

    v = state.uh
    Nv = flow.remainder(v, state.theta)
    a = E2 * v + Q * Nv
    Na = stage(a, 2)
    b = E2 * v + Q * Na
    Nb = stage(b, 3)
    c = E2 * a + Q * (2.0 * Nb - Nv)
    Nc = stage(c, 4)
    return _accept(state, h, flow.geometry.irfft(E * v + f1 * Nv + 2.0 * f2 * (Na + Nb) + f3 * Nc))


def _check_positive(name: str, value) -> None:
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(kw_only=True)
class Schedule:
    """The time settings of a run, keyword-only, with the keys, defaults, types and checks
    of `FlowConfig`, `harness.SweepConfig` and the JSON `time` block.  run_flow records a
    sample (and takes an ETDRK4 step) every sample_every * stable_dt(geometry, dt_safety)
    time units, and stops at residual_tol or t_max."""

    t_max: float = 100.0
    dt_safety: float = 0.5
    residual_tol: float = 1e-10
    sample_every: int = 100

    def __post_init__(self):
        if not 0.0 < self.dt_safety <= 1.0:
            raise ValueError("dt_safety must lie in (0, 1]")
        _check_positive("t_max", self.t_max)
        _check_positive("residual_tol", self.residual_tol)
        _check_count("sample_every", self.sample_every)

    def schedule(self) -> dict:
        """The time settings alone, as keywords of a `Schedule`, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(Schedule)}


@dataclass
class FlowConfig(Schedule):
    """A run of a flow from u0 on a `Schedule`."""

    flow: LineBundleFlow
    u0: np.ndarray


def _integrate(state: FlowState, traj: Trajectory, step_fn, h0: float, ds: float,
               t_end: float, residual_tol: float) -> Trajectory:
    """Step with step_fn at h0 to t_end, recording at k * ds (see the module docstring).

    Status is 'converged' (sup |theta - hat_theta| < residual_tol), 'timeout'
    (t reached t_end) or 'blowup' (more than ten consecutive step failures);
    the last accepted state is always reported."""
    h = h0
    k = 1  # the next sample time is k * ds
    traj.record(state)
    halvings = 0
    while True:
        if state.residual_sup < residual_tol:
            traj.status = "converged"
            break
        if state.t >= t_end * (1.0 - 1e-12):
            traj.status = "timeout"
            break
        target = min(k * ds, t_end)
        gap = target - state.t
        lands = gap <= h * (1.0 + 1e-9)
        # a landing step within rounding of h keeps h, so its coefficients are reused
        step = gap if lands and gap < h * (1.0 - 1e-9) else h
        try:
            new_state = step_fn(state, step)
        except FlowDiverged as exc:
            halvings += 1
            traj.steps_rejected += 1
            traj.dt_changes.append((state.t, h, 0.5 * step, str(exc)))
            h = 0.5 * step
            if halvings > 10:
                traj.status = "blowup"
                break
            continue
        halvings = 0
        state = new_state
        traj.steps += 1
        if not lands:
            continue
        state.t = target
        if target == k * ds:
            traj.record(state)
            k += 1
            if h < h0:
                grown = min(2.0 * h, h0)
                traj.dt_changes.append((state.t, h, grown, "regrowth after a sample"))
                h = grown
    traj.record(state)
    traj.final = state
    traj.dt_final = h
    return traj


def run_flow(config: FlowConfig,
             on_record: Callable[[int, FlowSample], None] | None = None) -> Trajectory:
    """ETDRK4 steps, one per sample interval (see `_integrate`), until the phase residual
    drops below tolerance or t reaches t_max.  on_record(k, sample) receives each
    recorded sample (see `Trajectory`)."""
    flow = config.flow
    state = flow.initial_state(config.u0)
    traj = Trajectory(flow, on_record=on_record)
    ds = config.sample_every * stable_dt(flow.geometry, config.dt_safety)
    return _integrate(state, traj, etdrk4_step, ds, ds, config.t_max, config.residual_tol)


def run_fixed(flow: LineBundleFlow, u0: np.ndarray, dt: float, n_steps: int,
              sample_every: int = 1, norms: bool = True,
              on_record: Callable[[int, FlowSample], None] | None = None) -> Trajectory:
    """n_steps classical RK4 steps of size dt, recorded every sample_every
    steps; never stops on convergence, so a full run is 'timeout'.
    norms=False records phase-only, and on_record(k, sample) receives each
    recorded sample (see `Trajectory`)."""
    _check_positive("dt", dt)
    _check_count("n_steps", n_steps)
    _check_count("sample_every", sample_every)
    state = flow.initial_state(u0)
    traj = Trajectory(flow, norms=norms, on_record=on_record)
    return _integrate(state, traj, rk4_step, dt, sample_every * dt, n_steps * dt, 0.0)
