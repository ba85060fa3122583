"""Time integration of the line bundle mean curvature flow.

The state is the real potential u on the grid with its half spectrum
(`TorusGeometry.rfft`); the velocity is theta(F_hat + complex_hessian(u)) -
hat_theta, at every n from the real planes of `TorusGeometry.frame_hessian`
plus those of F~_hat; a state keeps theta and Z = integral of zeta.

`run_flow` steps with ETDRK4 (Cox & Matthews, J. Comput. Phys. 176, 2002).
The velocity splits into the linearization L of the flow at the constant
background F0, whose Fourier symbol is sum_pq (eta0^{-1})_qp mz_p mZ_q with
eta0 = g + F0 g^{-1} F0 (mz, mZ the d/dz and d/dzbar multipliers), and the
remainder N(u) = theta(F_hat + complex_hessian(u)) - hat_theta - L u.  L is
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

`run_flow` steps with ETDRK4 at h0 = ds = sample_every * stable_dt(geometry,
dt_safety) until residual_tol or t_max.  `run_fixed` is the oracle the
ETDRK4 stepper is checked against: classical RK4 at h0 = dt and ds =
sample_every * dt that never stops on convergence, so a run that reaches
n_steps * dt is 'timeout'.  Its stable step comes from the diffusion bound
of the linearization: the eta-Laplacian has coefficients dominated by g^{-1}
(eta >= g pointwise), so

    dt = sigma / (n * lambda_max(g^{-1}) * (N/2)^2 / 2),  sigma in (0, 1].
"""

from __future__ import annotations

import numbers
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import diagnostics
from .geometry import TorusGeometry, check_hermitian_field, complex_hessian, volume_integral
from .phase import PhaseFields, eta_pair, frame_characteristic, hermitian_planes

__all__ = [
    "BaseCurvature",
    "FlowConfig",
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
    """Background curvature F_hat = F0 + complex_hessian(psi).

    F0 is the constant (harmonic) part, an n x n Hermitian matrix; psi is an
    optional real periodic potential whose Hessian carries the oscillatory
    part, so the mean of F_hat - F0 vanishes entrywise by construction.
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
        check_hermitian_field(F0)
        self.F0 = F0
        if self.psi is not None:
            psi = np.asarray(self.psi, dtype=np.float64)
            if psi.shape != self.geometry.shape:
                raise ValueError("potential shape does not match the grid")
            self.psi = psi

    @classmethod
    def proportional(cls, geometry: TorusGeometry, c: float) -> "BaseCurvature":
        """The trivially stationary base F_hat = c * omega."""
        return cls(geometry=geometry, F0=c * geometry.g, psi=None)

    @cached_property
    def _field(self) -> np.ndarray:
        geom = self.geometry
        out = np.broadcast_to(self.F0, geom.shape + self.F0.shape).copy()
        if self.psi is not None:
            out += complex_hessian(geom, self.psi)
        return out

    def field(self) -> np.ndarray:
        """Realized curvature field, shape grid + (n, n)."""
        return self._field


def stable_dt(geom: TorusGeometry, sigma: float) -> float:
    """Explicit step from the diffusion bound of the linearization."""
    lam_max_ginv = 1.0 / geom.g_eig_min
    return sigma / (geom.n * lam_max_ginv * (geom.N / 2) ** 2 / 2.0)


_CONTOUR_POINTS = 32  # contour points of the ETDRK4 phi-functions


class LineBundleFlow:
    """Right-hand side, one path at every n: the phase of the half spectrum uh of
    u is that of the frame curvature F~_hat + frame_hessian(uh), plane by plane."""

    def __init__(self, geometry: TorusGeometry, base: BaseCurvature, hat_theta: float):
        self.geometry = geometry
        self.base = base
        self.hat_theta = float(hat_theta)
        self._etd = None  # (h, ETDRK4 coefficients) of the last step size
        # the planes of F~_hat as views, so at g = I nothing beside base.field() is held
        self._fhat = hermitian_planes(geometry.to_frame(base.field(), "zZ"))

    def spectrum(self, f: np.ndarray) -> np.ndarray:
        """Half spectrum of a real grid field."""
        return self.geometry.rfft(f)

    def phase_fields(self, uh: np.ndarray) -> PhaseFields:
        """PhaseFields (theta and zeta) of F_hat + complex_hessian(u) from the spectrum of u."""
        T = self.geometry.frame_hessian(uh)
        for row, base_row in zip(T, self._fhat):
            for plane, base_plane in zip(row, base_row):
                plane += base_plane  # Hermitian by construction, so unchecked
        return PhaseFields(frame_characteristic(T))

    def phase(self, uh: np.ndarray) -> np.ndarray:
        """Phase field theta(F_hat + complex_hessian(u)) from the spectrum of u."""
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
        u0 = np.asarray(u0, dtype=np.float64)
        if u0.shape != self.geometry.shape:
            raise ValueError("initial potential shape does not match the grid")
        if not np.isfinite(u0).all():
            raise ValueError("initial potential contains non-finite entries")
        return self.state(u0)


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
    udot: np.ndarray


@dataclass
class Trajectory:
    """Diagnostics records plus a ring of full field samples.

    `record` keeps every record, but only the last samples a bounded
    `samples` ring holds (`FlowConfig.keep_fields`).  A caller that needs
    every sample, such as `simulate` writing all-samples snapshots, takes
    each one from on_record(k, sample) as it is recorded, with k the index
    of its record; the sample's u is its own copy.

    With norms=False every record is phase-only (`diagnostics.build_record`):
    its tensor columns are NaN and `write_diagnostics` refuses it.  `verify`
    records this way, because its checks read only t, theta, Z and the
    samples.
    """

    geometry: TorusGeometry
    base: BaseCurvature
    hat_theta: float
    records: list = field(default_factory=list)
    samples: deque = field(default_factory=deque)
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
        """Store a flow state's field sample and record, and hand the sample to
        on_record; a repeated t is skipped."""
        t, u = state.t, state.u
        if self.records and self.records[-1].t == t:
            return
        if self.u0_at_p is None:
            self.u0_at_p = float(u[(0,) * (2 * self.geometry.n)])
        sample = FlowSample(t=t, u=u.copy(), udot=state.theta - self.hat_theta)
        self.samples.append(sample)
        self.records.append(diagnostics.build_record(
            self.geometry, self.base, self.hat_theta, t, u,
            theta=state.theta, u0_at_p=self.u0_at_p, norms=self.norms, Z=state.Z, uh=state.uh,
        ))
        if self.on_record is not None:
            self.on_record(len(self.records) - 1, sample)


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


def _check_time(cfg) -> None:
    """Refuse the time parameters of a FlowConfig or a SweepConfig."""
    if not 0.0 < cfg.dt_safety <= 1.0:
        raise ValueError("dt_safety must lie in (0, 1]")
    _check_positive("t_max", cfg.t_max)
    _check_positive("residual_tol", cfg.residual_tol)
    _check_count("sample_every", cfg.sample_every)


@dataclass
class FlowConfig:
    """Flow run parameters; hat_theta is frozen for the whole run.

    run_flow records a sample every sample_every * stable_dt(geometry,
    dt_safety) time units, which is also its ETDRK4 step.  keep_fields is
    the capacity of the trajectory's ring of field samples, None for all of
    them; a caller that needs every sample but holds only a few takes each
    from run_flow's on_record, so its memory does not grow with the records.
    """

    geometry: TorusGeometry
    base: BaseCurvature
    u0: np.ndarray
    hat_theta: float
    dt_safety: float = 0.5
    t_max: float = 100.0
    residual_tol: float = 1e-10
    sample_every: int = 100
    keep_fields: int | None = None  # ring capacity for full field samples

    def __post_init__(self):
        _check_time(self)
        if not np.isfinite(self.hat_theta):
            raise ValueError(f"hat_theta must be finite, got {self.hat_theta!r}")


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


def run_flow(config: FlowConfig, flow: LineBundleFlow | None = None,
             on_record: Callable[[int, FlowSample], None] | None = None) -> Trajectory:
    """ETDRK4 steps, one per sample interval (see `_integrate`), until the phase residual
    drops below tolerance or t reaches t_max; a given flow must be of the config's run.
    on_record(k, sample) receives each recorded sample (see `Trajectory`)."""
    geom = config.geometry
    flow = flow or LineBundleFlow(geom, config.base, config.hat_theta)
    if not (flow.geometry is geom and flow.base is config.base
            and flow.hat_theta == config.hat_theta):
        raise ValueError("flow does not match the config's geometry, base and hat_theta")
    state = flow.initial_state(config.u0)
    traj = Trajectory(geometry=geom, base=config.base, hat_theta=config.hat_theta,
                      samples=deque(maxlen=config.keep_fields), on_record=on_record)
    ds = config.sample_every * stable_dt(geom, config.dt_safety)
    return _integrate(state, traj, etdrk4_step, ds, ds, config.t_max, config.residual_tol)


def run_fixed(geom: TorusGeometry, base: BaseCurvature, hat_theta: float,
              u0: np.ndarray, dt: float, n_steps: int, sample_every: int = 1,
              keep_fields: int | None = None, norms: bool = True) -> Trajectory:
    """n_steps classical RK4 steps of size dt, recorded every sample_every
    steps; never stops on convergence, so a full run is 'timeout'.
    norms=False records phase-only (see `Trajectory`)."""
    _check_positive("dt", dt)
    _check_count("n_steps", n_steps)
    _check_count("sample_every", sample_every)
    state = LineBundleFlow(geom, base, hat_theta).initial_state(u0)
    traj = Trajectory(geometry=geom, base=base, hat_theta=hat_theta,
                      samples=deque(maxlen=keep_fields), norms=norms)
    return _integrate(state, traj, rk4_step, dt, sample_every * dt, n_steps * dt, 0.0)
