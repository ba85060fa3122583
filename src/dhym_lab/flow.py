"""Time integration of the line bundle mean curvature flow.

The state is the real potential u on the grid; the velocity is
theta(F_hat + complex_hessian(u)) - hat_theta.  Stepping is classical
explicit RK4 with a time step fixed a priori from the diffusion bound of
the linearization: the eta-Laplacian has coefficients dominated by g^{-1}
(eta >= g pointwise), so

    dt = sigma / (n * lambda_max(g^{-1}) * (N/2)^2 / 2),  sigma in (0, 1].

Divergence (NaN in a stage, or a residual jump no parabolic step can
produce) triggers halving of dt and a retry from the last accepted state;
ten consecutive failures classify the run as a suspected blow-up.  The
target angle hat_theta is frozen for the whole run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.fft as sfft

from . import diagnostics
from .geometry import TorusGeometry, check_hermitian_field, complex_hessian
from .phase import eigenvalue_field

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
    "run_flow",
    "run_fixed",
]


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
    lam_max_ginv = float(np.linalg.eigvalsh(geom.g_inv).max())
    return sigma / (geom.n * lam_max_ginv * (geom.N / 2) ** 2 / 2.0)


class LineBundleFlow:
    """Right-hand-side evaluator with a fast scalar path for n = 1."""

    def __init__(self, geometry: TorusGeometry, base: BaseCurvature, hat_theta: float):
        self.geometry = geometry
        self.base = base
        self.hat_theta = float(hat_theta)
        if geometry.n == 1:
            N = geometry.N
            m2 = (sfft.fftfreq(N) * N) ** 2
            l2 = (sfft.rfftfreq(N) * N) ** 2
            self._mult = -np.add.outer(m2, l2) / 4.0
            self._fhat = base.field()[..., 0, 0].real.copy()
            self._inv_g = float(1.0 / geometry.g[0, 0].real)
        else:
            self._fhat = base.field()
            self._linv = geometry.chol_inv

    def theta(self, u: np.ndarray) -> np.ndarray:
        if self.geometry.n == 1:
            lam = self._fhat + sfft.irfft2(self._mult * sfft.rfft2(u), s=u.shape)
            if self._inv_g != 1.0:
                lam *= self._inv_g
            return np.arctan(lam)
        F = self._fhat + complex_hessian(self.geometry, u)
        lam = eigenvalue_field(self.geometry, F)
        return np.arctan(lam).sum(axis=-1)

    def rhs(self, u: np.ndarray) -> np.ndarray:
        return self.theta(u) - self.hat_theta

    def initial_state(self, u0: np.ndarray) -> "FlowState":
        u0 = np.asarray(u0, dtype=np.float64)
        if u0.shape != self.geometry.shape:
            raise ValueError("initial potential shape does not match the grid")
        if not np.isfinite(u0).all():
            raise ValueError("initial potential contains non-finite entries")
        theta = self.theta(u0)
        return FlowState(
            flow=self, t=0.0, u=u0, theta=theta,
            residual_sup=float(np.abs(theta - self.hat_theta).max()),
        )


@dataclass(eq=False)
class FlowState:
    """One accepted point of the flow with its cached phase field."""

    flow: LineBundleFlow = field(repr=False)
    t: float = 0.0
    u: np.ndarray = field(default=None, repr=False)
    theta: np.ndarray = field(default=None, repr=False)
    residual_sup: float = 0.0


@dataclass(frozen=True, eq=False)
class FlowSample:
    t: float
    u: np.ndarray
    udot: np.ndarray
    theta: np.ndarray


@dataclass
class Trajectory:
    """Diagnostics records plus a ring of full field samples."""

    geometry: TorusGeometry
    base: BaseCurvature
    hat_theta: float
    records: list = field(default_factory=list)
    samples: deque = field(default_factory=deque)
    status: str = "running"
    steps: int = 0
    dt_final: float = 0.0
    final: FlowState | None = None
    # u at the Q base point of the first recorded sample (grid index 0)
    u0_at_p: float | None = field(default=None, init=False)

    @property
    def t_final(self) -> float:
        return self.final.t if self.final is not None else 0.0

    def record(self, t: float, u: np.ndarray, theta: np.ndarray) -> None:
        """Store a field sample and its diagnostics record; a repeated t is skipped."""
        if self.records and self.records[-1].t == t:
            return
        if self.u0_at_p is None:
            self.u0_at_p = float(u[(0,) * (2 * self.geometry.n)])
        self.samples.append(FlowSample(
            t=t, u=u.copy(), udot=theta - self.hat_theta, theta=theta.copy(),
        ))
        self.records.append(diagnostics.build_record(
            self.geometry, self.base, self.hat_theta, t, u,
            theta=theta, u0_at_p=self.u0_at_p,
        ))


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
    u_new = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(u_new).all():
        raise FlowDiverged("step diverged: non-finite update")
    theta_new = flow.theta(u_new)
    residual_new = float(np.abs(theta_new - flow.hat_theta).max())
    if residual_new > 2.0 * state.residual_sup + 1e-12 * (1.0 + abs(flow.hat_theta)):
        raise FlowDiverged(
            f"step diverged: residual grew {state.residual_sup:.3e} -> {residual_new:.3e}"
        )
    return FlowState(flow=flow, t=state.t + dt, u=u_new, theta=theta_new,
                     residual_sup=residual_new)


@dataclass
class FlowConfig:
    """Flow run parameters; hat_theta is frozen for the whole run."""

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
        if not 0.0 < self.dt_safety <= 1.0:
            raise ValueError("dt_safety must lie in (0, 1]")
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")


def run_flow(config: FlowConfig) -> Trajectory:
    """Integrate until the phase residual drops below tolerance.

    Status is 'converged' (sup |theta - hat_theta| < residual_tol),
    'timeout' (t reached t_max) or 'blowup' (ten consecutive step failures);
    the last accepted state is always reported.
    """
    geom = config.geometry
    flow = LineBundleFlow(geom, config.base, config.hat_theta)
    state = flow.initial_state(config.u0)
    traj = Trajectory(
        geometry=geom, base=config.base, hat_theta=config.hat_theta,
        samples=deque(maxlen=config.keep_fields),
    )
    dt = stable_dt(geom, config.dt_safety)
    traj.record(state.t, state.u, state.theta)
    halvings = 0
    while True:
        if state.residual_sup < config.residual_tol:
            traj.status = "converged"
            break
        if state.t >= config.t_max * (1.0 - 1e-12):
            traj.status = "timeout"
            break
        try:
            new_state = rk4_step(state, min(dt, config.t_max - state.t))
        except FlowDiverged:
            halvings += 1
            dt *= 0.5
            if halvings > 10:
                traj.status = "blowup"
                break
            continue
        halvings = 0
        state = new_state
        traj.steps += 1
        if traj.steps % config.sample_every == 0:
            traj.record(state.t, state.u, state.theta)
    traj.record(state.t, state.u, state.theta)
    traj.final = state
    traj.dt_final = dt
    return traj


def run_fixed(geom: TorusGeometry, base: BaseCurvature, hat_theta: float,
              u0: np.ndarray, dt: float, n_steps: int, sample_every: int = 1,
              keep_fields: int | None = None) -> Trajectory:
    """Fixed-step integration with dense sampling, for verification runs."""
    flow = LineBundleFlow(geom, base, hat_theta)
    state = flow.initial_state(u0)
    traj = Trajectory(
        geometry=geom, base=base, hat_theta=hat_theta,
        samples=deque(maxlen=keep_fields), status="completed",
    )
    traj.record(state.t, state.u, state.theta)
    for k in range(n_steps):
        state = rk4_step(state, dt)
        traj.steps += 1
        if (k + 1) % sample_every == 0:
            traj.record(state.t, state.u, state.theta)
    traj.record(state.t, state.u, state.theta)
    traj.final = state
    traj.dt_final = dt
    return traj
