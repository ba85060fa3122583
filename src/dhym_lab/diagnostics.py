"""Derived quantities and numerical verification of the flow's identities.

This module computes the tensor norms tracked along the flow
(|grad u|^2, Theta = |del delbar u|^2, Theta' = |del del u|^2,
Gamma = |del delbar del u|^2, the auxiliary functional Q), checks the
linearization of the phase operator against finite differences, verifies
the evolution identities of u^2, |grad u|^2, Theta and Theta' specialized
to the flat torus (zero curvature tensor, base-curvature derivative terms
retained), certifies the first- and second-derivative identities at
stationary points, and monitors the convergence mechanisms: maximum
principle, oscillation contraction, and Harnack quotients.

Index conventions follow geometry.py: a matrix field M[..., p, q] holds the
coefficient with holomorphic index p and anti-holomorphic index q, and a
derivative tensor is a table {index tuple: field} of its complex entries
(`TorusGeometry.entries`, one shared array per orbit of commuting indices).
Every tensor is taken in the g-orthonormal frame, where the metric is the
identity: a g^{i jbar} contraction pairs index i of one factor with index j
of the other directly, a norm is the sum of |T|^2 over the index tuples, and
the only field left to contract is the frame eta-inverse, eta^{p qbar} at
eta_inv[..., q, p], with eta = I + F F for the frame curvature F.  The
Hessian of a real field, so every eta-Laplacian, comes from its real planes
(`TorusGeometry.frame_hessian`).  Only `dhym_point_identities`, whose
reports take a supremum over the components of free indices, works in
coordinates, with eta^{-1} = P^H eta~^{-1} P.

Each contraction is a sum of products of whole grid fields over the index
tables (`_eta_trace`, `_mix`), as in `phase.frame_characteristic`, and no
tensor is held whole: the fourth derivatives of the base potential are read
one distinct entry at a time (`_entry_sum`).  The evolution identities hold
only what they read: eta until d eta is built from it, each table of the
identity context until the last right side that reads it, and the
eta-inverse sandwich of a mix term one free index's row at a time (`_mix`).

The tensor norms sum the squared real planes of each distinct frame entry
(`TorusGeometry.norm_planes`) from u's half spectrum.  `build_record` takes
a flow state (`flow.FlowState`): its spectrum, theta, Z (the integral of
zeta) and residual, so a full record takes no forward transform.  With
norms=False it builds a phase-only record: the scalar columns of a full one
and NaN TENSOR_COLUMNS.  `verify` records this way, because none of its
checks reads a tensor column; `write_diagnostics` refuses such records.

The checks read the geometry, hat_theta, the base potential, the phase and
the frame curvature planes (`curvature_planes`) from the flow they are
given (a trajectory's own for its records) by attribute, so this module
imports no `flow`, and no check builds a coordinate curvature field: the
linearization check too takes its phases and eta^{-1} from the flow's planes.

Time derivatives for identity checks use second-order central differences
of the field samples they are handed (a run's on_record gives them), never
integrator internals, so the verifier is independent of the time stepper.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add
from types import SimpleNamespace

import numpy as np

from .geometry import NORM_WORDS, TorusGeometry
from .phase import PhaseFields, eta_pair, frame_characteristic

__all__ = [
    "DiagnosticsRecord",
    "TensorNorms",
    "IdentityReport",
    "CSV_COLUMNS",
    "TENSOR_COLUMNS",
    "tensor_norms",
    "q_functional",
    "build_record",
    "verify_linearization",
    "verify_evolution_identities",
    "dhym_point_identities",
    "maximum_principle_monitor",
    "oscillation_decay",
    "harnack_monitor",
]

# the columns built from the tensor norms: NaN in a phase-only record
TENSOR_COLUMNS = ("grad_sq_sup", "Theta_sup", "ThetaP_sup", "Gamma_sup", "Q_sup", "hess_sup")
_TAIL_FRACTION = 0.5  # the share of the records, the last ones, that `oscillation_decay` fits


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    residual_sup: float
    theta_max: float
    theta_min: float
    grad_sq_sup: float
    Theta_sup: float
    ThetaP_sup: float
    Gamma_sup: float
    Q_sup: float
    hess_sup: float
    Z_re: float
    Z_im: float
    osc_udot: float
    mean_u: float

    def csv_row(self) -> str:  # not dataclasses.astuple, which deep-copies every field
        return ",".join(repr(float(getattr(self, f.name))) for f in dataclasses.fields(self))


CSV_COLUMNS = ",".join(f.name for f in dataclasses.fields(DiagnosticsRecord))


@dataclass(frozen=True, eq=False)
class TensorNorms:
    grad_sq: np.ndarray | None
    Theta: np.ndarray | None
    ThetaP: np.ndarray | None
    Gamma: np.ndarray | None
    grad_sq_sup: float
    Theta_sup: float
    ThetaP_sup: float
    Gamma_sup: float
    hess_sup: float  # sup_x sqrt(Theta(x) + Theta'(x))


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    t: float
    lhs_norm: float
    rhs_norm: float
    residual_rel: float
    dt_used: float
    resolution: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _report(identity: str, lhs, rhs, t: float, dt_used: float, resolution: int) -> IdentityReport:
    """Sup norms of both sides and the residual sup |lhs - rhs| / (1 + sup |rhs|)."""
    rhs_norm = float(np.abs(rhs).max())
    return IdentityReport(identity, t, float(np.abs(lhs).max()), rhs_norm,
                          float(np.abs(lhs - rhs).max()) / (1.0 + rhs_norm), dt_used, resolution)


# the frame tensor each norm sums |.|^2 over: u_i, u_{i jbar}, u_{i p}, u_{i jbar k}
_NORM_WORDS = dict(zip(("grad_sq", "Theta", "ThetaP", "Gamma"), NORM_WORDS))


def tensor_norms(geom: TorusGeometry, u: np.ndarray, names=tuple(_NORM_WORDS),
                 uh: np.ndarray | None = None) -> TensorNorms:
    """The tensor norms of u and their sups, taken in the frame.

    Only the named norms are built, from uh = rfft(u), taken when not given: |D|^2 summed
    over the index tuples of the word's frame tensor D (`TorusGeometry.norm_planes`).  The
    others are None with NaN sups, and hess_sup is NaN without both Theta and ThetaP.
    """
    if uh is None:
        uh = geom.rfft(np.asarray(u, dtype=np.float64))
    f = {}
    for word, orbit, planes in geom.norm_planes(uh, dict.fromkeys(_NORM_WORDS[n] for n in names)):
        # a sum of the planes, not a reduction over their stack, which costs more
        sq = reduce(np.add, (np.square(plane, out=plane) for plane in planes))
        if len(orbit) > 1:
            sq *= len(orbit)
        f[word] = np.add(f[word], sq, out=f[word]) if word in f else sq
        del planes, sq  # before the next entry's transform: it bounds the peak memory
    f = {name: f[word] for name, word in _NORM_WORDS.items() if word in f}
    hess_sup = (float(np.sqrt((f["Theta"] + f["ThetaP"]).max()))
                if {"Theta", "ThetaP"} <= f.keys() else math.nan)
    return TensorNorms(**{name: f.get(name) for name in _NORM_WORDS},
                       **{f"{name}_sup": float(f[name].max()) if name in f else math.nan
                          for name in _NORM_WORDS}, hess_sup=hess_sup)


def _q_field(tn: TensorNorms, u: np.ndarray, u0_at_p: float) -> np.ndarray:
    return tn.Theta + tn.ThetaP + tn.grad_sq + 0.5 * (np.asarray(u) - u0_at_p) ** 2


def q_functional(geom: TorusGeometry, u: np.ndarray, u0_at_p: float):
    """Pointwise Q = Theta + Theta' + |grad u|^2 + (u - u0(p))^2 / 2."""
    Q = _q_field(tensor_norms(geom, u), u, u0_at_p)
    return Q, float(Q.max())


def build_record(state, u0_at_p: float = 0.0, norms: bool = True) -> DiagnosticsRecord:
    """The per-sample scalar diagnostics of a flow state (`flow.FlowState`).

    t, u, its half spectrum uh, theta, Z = volume_integral(zeta) and residual_sup are the
    state's, and the geometry and hat_theta its flow's, so a full record takes no forward
    transform.  norms=False leaves the TENSOR_COLUMNS NaN: the record then transforms
    nothing."""
    udot = state.theta - state.flow.hat_theta
    if norms:
        tn = tensor_norms(state.flow.geometry, state.u, uh=state.uh)
        tensor_sups = (tn.grad_sq_sup, tn.Theta_sup, tn.ThetaP_sup, tn.Gamma_sup,
                       float(_q_field(tn, state.u, u0_at_p).max()), tn.hess_sup)
    else:
        tensor_sups = (math.nan,) * len(TENSOR_COLUMNS)
    return DiagnosticsRecord(
        t=float(state.t),
        residual_sup=state.residual_sup,
        theta_max=float(state.theta.max()),
        theta_min=float(state.theta.min()),
        **dict(zip(TENSOR_COLUMNS, tensor_sups)),
        Z_re=float(state.Z.real),
        Z_im=float(state.Z.imag),
        osc_udot=float(udot.max() - udot.min()),
        mean_u=float(np.mean(state.u)),
    )


# ---------------------------------------------------------------------------
# linearization


def verify_linearization(flow, u: np.ndarray, phi: np.ndarray, eps: float) -> float:
    """Relative sup-norm error of the central-difference phase derivative of a flow.

    Compares (theta(F_{u + eps*phi}) - theta(F_{u - eps*phi})) / (2 eps), the flow's
    phases (`LineBundleFlow.theta`), against the analytic directional derivative
    eta^{p qbar} phi_{p qbar}, with eta^{-1} that of the flow's planes at u (`_phase_context`).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError("eps outside the supported range [1e-7, 1e-3]")
    geom = flow.geometry
    u, phi = (np.asarray(f, dtype=np.float64) for f in (u, phi))
    if not np.any(phi):
        return 0.0
    tp, tm = (flow.theta(u + step * phi) for step in (eps, -eps))
    numeric = (tp - tm) / (2.0 * eps)
    del tp, tm  # before the context's eta and its inverse
    eta_inv = _phase_context(flow, u).eta_inv
    analytic = _eta_laplacian(eta_inv, geom.frame_hessian(geom.rfft(phi)))
    scale = np.abs(analytic).max()
    return float(np.abs(numeric - analytic).max() / scale)


# ---------------------------------------------------------------------------
# evolution identities (flat case)


def _table(entries) -> dict:
    """{index tuple: field} of a derivative tensor from its `TorusGeometry.entries`:
    the index tuples of one orbit share one array."""
    return {idx: field for orbit, field in entries for idx in orbit}


class _SampleContext(SimpleNamespace):
    """What the identity right-hand sides read at one sample; see `_phase_context`
    and `_sample_context`."""

    def eta_derivative(self, coords: int = 0) -> dict:
        """{(a, b, i): d_i eta_{a bbar}}, i a coordinate index if coords = 1, else a
        frame one: one transform of each entry of eta, one inverse per index i."""
        geom, idx = self.geom, range(self.geom.n)
        return {(a, b) + i: field for a in idx for b in idx
                for (i,), field in geom.entries(geom.fft(self.eta[..., a, b]), "z", coords)}

    @cached_property
    def dEta(self) -> dict:
        # the frame d eta, built on first read, so only the identities that need it hold
        # it; eta is read for nothing else, so it is dropped then
        dEta = self.eta_derivative()
        del self.eta
        return dEta


def _phase_context(flow, u: np.ndarray) -> _SampleContext:
    """The phase part of a sample's context: what `dhym_point_identities` reads.

    theta, eta and eta_inv belong to the frame curvature F from the flow's own
    planes (`LineBundleFlow.curvature_planes`), so theta is the flow's phase bit
    for bit.  F's entries are held index first, so `eta_pair` reads each as a
    contiguous field, and no copy of the base curvature is made.  psi is the base
    potential (None without one); its spectrum, and u's, are taken where they are
    read, so no context holds them through the right sides.
    """
    geom, idx = flow.geometry, range(flow.geometry.n)
    u = np.asarray(u, dtype=np.float64)
    T = flow.curvature_planes(geom.rfft(u))
    F = np.empty((geom.n, geom.n) + geom.shape, dtype=np.complex128)
    for p in idx:
        F[p, p] = T[p][p]
        for q in idx[p + 1:]:
            F[p, q].real, F[p, q].imag = T[p][q], T[q][p]
            np.conjugate(F[p, q], out=F[q, p])
    theta = PhaseFields(frame_characteristic(T)).theta
    del T  # before eta and its inverse
    eta, eta_inv = eta_pair(np.moveaxis(F, (0, 1), (-2, -1)))
    return _SampleContext(geom=geom, eta=eta, eta_inv=eta_inv, psi=flow.base.psi, theta=theta)


def _sample_context(flow, u: np.ndarray) -> _SampleContext:
    """What the identity right-hand sides read at one sample.

    The phase context (`_phase_context`) plus the frame tensors du = u_i,
    H = {(p, q): u_{p qbar}} from u's real Hessian planes
    (`TorusGeometry.frame_hessian`), S = u_{i p}, T = u_{i jbar k} and
    dF = d_i F_{p qbar} = (psi + u)_{i p qbar} as tables (`_table`), one
    transform per orbit of commuting indices.
    """
    ctx = _phase_context(flow, u)
    geom, idx = ctx.geom, range(ctx.geom.n)
    T = geom.frame_hessian(geom.rfft(u))
    H = {(p, q): T[p][q] + 1j * T[q][p] if p < q else T[p][p] for p in idx for q in idx[p:]}
    H.update({(q, p): H[p, q].conj() for p, q in list(H) if p < q})
    ctx.H = H
    uh = geom.fft(u)
    ctx.du, ctx.S, ctx.T = (_table(geom.entries(uh, word)) for word in ("z", "zz", "zZz"))
    ctx.dF = _table(geom.entries(_potential_spectrum(ctx, uh), "zzZ"))
    return ctx


def _potential_spectrum(ctx: _SampleContext, uh: np.ndarray) -> np.ndarray:
    """The full spectrum of u + psi, from u's: F = F0 + ddbar(u + psi)."""
    return uh if ctx.psi is None else uh + ctx.geom.fft(ctx.psi)


def _eta_trace(Hinv: np.ndarray, M, hermitian: bool = False) -> np.ndarray:
    """sum_{p,q} eta^{p qbar} M(p, q) = sum Hinv[..., q, p] M(p, q) as a sum of field
    products, for a table M given by its entries M(p, q).

    A complex field; for a Hermitian M its real value, from the entries on and
    above the diagonal.
    """
    idx = range(Hinv.shape[-1])
    if not hermitian:
        return reduce(add, (Hinv[..., q, p] * M(p, q) for p in idx for q in idx))
    trace = reduce(add, (Hinv[..., p, p].real * M(p, p).real for p in idx))
    if len(idx) == 1:
        return trace
    return trace + 2.0 * reduce(add, (Hinv[..., q, p] * M(p, q)
                                      for p in idx for q in idx[p + 1:])).real


def _eta_laplacian(Hinv: np.ndarray, T: list) -> np.ndarray:
    """sum_{p,q} eta^{p qbar} X_{p qbar}, real, of a Hermitian X given by its real planes
    T (`phase.hermitian_planes`): Re Hinv_pp T_pp, and 2 (Re Hinv_qp T_pq - Im Hinv_qp T_qp)
    for p < q.  The eta-Laplacian of a real field f for T = `frame_hessian`(rfft(f))."""
    return _eta_trace(Hinv, lambda p, q: T[p][q] + 1j * T[q][p] if p < q else T[p][p],
                      hermitian=True)


def _mix(Hinv: np.ndarray, Y, G) -> np.ndarray:
    """sum_{x,y} W[x][y] G(x, y) for W[x][y] = sum_{a,b} Hinv[..., b, x] Y(a, b) Hinv[..., y, a],
    the eta-inverse pair around an n x n table Y of fields given by its entries Y(a, b).

    Streamed one x at a time: the n fields Z[a] = sum_b Y(a, b) Hinv[..., b, x], then each
    W[x][y] in turn, summed in x-major, y-minor order, so neither Z nor W is held whole.
    """
    idx = range(Hinv.shape[-1])

    def terms():
        for x in idx:
            Zx = [reduce(add, (Y(a, b) * Hinv[..., b, x] for b in idx)) for a in idx]
            for y in idx:
                yield reduce(add, (Hinv[..., y, a] * Zx[a] for a in idx)) * G(x, y)

    return reduce(add, terms())


def _entry_sum(geom: TorusGeometry, f_hat: np.ndarray, word: str, coeff) -> np.ndarray:
    """sum over the index tuples idx of coeff(idx) D[idx], D the frame derivative
    tensor of word, taken one distinct entry of D at a time (`TorusGeometry.entries`)."""
    return reduce(add, (reduce(add, (coeff(idx) for idx in orbit)) * field
                        for orbit, field in geom.entries(f_hat, word)))


def _identity_rhs(geom: TorusGeometry, which: str, ctx: _SampleContext,
                  hat_theta: float, u: np.ndarray) -> np.ndarray:
    """The right side of one evolution identity at the context's sample.

    Every contraction is a sum of products of whole fields over the index
    tables of the frame tensors; eta^{p qbar} is Hinv[..., q, p].
    """
    Hinv, idx = ctx.eta_inv, range(geom.n)
    # a product with a conjugate conjugates one entry at a time, so no conjugate
    # copy of T or of u_{i p k} is held
    if which == "u_sq":
        du, H = ctx.du, ctx.H
        lap_u = _eta_trace(Hinv, lambda p, q: H[p, q], hermitian=True)
        grad_part = _eta_trace(Hinv, lambda p, q: du[p,] * du[q,].conj(), hermitian=True)
        return 2.0 * np.asarray(u) * (ctx.theta - hat_theta - lap_u) - 2.0 * grad_part

    if which == "grad_sq":
        S, du, H = ctx.S, ctx.du, ctx.H
        A = _eta_trace(Hinv, lambda p, q: reduce(add, (S[i, p] * S[i, q].conj() for i in idx)),
                       hermitian=True)
        B = _eta_trace(Hinv, lambda p, q: reduce(add, (H[p, i] * H[i, q] for i in idx)),
                       hermitian=True)
        rhs = -(A + B)
        if ctx.psi is not None:
            # psi_{i p qbar} = dF[i, p, q] - u_{p qbar i}, one entry at a time
            dF, T = ctx.dF, ctx.T
            C = _eta_trace(Hinv, lambda p, q: reduce(add, ((dF[i, p, q] - T[p, q, i])
                                                           * du[i,].conj() for i in idx)))
            rhs += 2.0 * C.real
        return rhs

    dEta, T, dF = ctx.dEta, ctx.T, ctx.dF  # d_p eta_{a bbar} at (a, b, p)

    if which == "Theta":
        H = ctx.H
        # the sum of T Tbar against eta-inverse appears twice: once more after relabelling i, l
        T1 = _eta_trace(Hinv, lambda p, q: reduce(add, (T[i, l, p] * T[i, l, q].conj()
                                                        for i in idx for l in idx)),
                        hermitian=True)
        # (d/dzbar_l eta)_{a bbar} = conj((d/dz_l eta)_{b abar}) = conj(dEta[b, a, l])
        mix = reduce(add, (_mix(Hinv, lambda a, b: dEta[b, a, l].conj(),
                                lambda x, y: reduce(add, (dF[i, x, y] * H[l, i] for i in idx)))
                           for l in idx))
        rhs = -2.0 * T1 - 2.0 * mix.real
        if ctx.psi is not None:
            # psi_{i lbar p qbar} H_{l ibar} against eta-inverse, one entry of psi at a time
            hat = _entry_sum(geom, geom.fft(ctx.psi), "zZzZ",
                             lambda t: Hinv[..., t[3], t[2]] * H[t[1], t[0]])
            rhs += 2.0 * hat.real
        return rhs

    # ThetaP; u_{i p k} is symmetric, so P holds each distinct entry once
    P = _table(geom.entries(geom.fft(u), "zzz"))
    e1 = _eta_trace(Hinv, lambda k, l: reduce(add, (P[i, p, k] * P[i, p, l].conj()
                                                    for i in idx for p in idx)), hermitian=True)
    del P  # bounds the peak memory
    e2 = _eta_trace(Hinv, lambda k, l: reduce(add, (T[i, l, p] * T[i, k, p].conj()
                                                    for i in idx for p in idx)), hermitian=True)
    Sc = {(i, p): ctx.S[i, p].conj() for i in idx for p in idx[i:]}  # S is symmetric
    Sc.update({(p, i): Sc[i, p] for i, p in list(Sc)})
    mix = reduce(add, (_mix(Hinv, lambda a, b: dEta[a, b, p],
                            lambda x, y: reduce(add, (dF[i, x, y] * Sc[i, p] for i in idx)))
                       for p in idx))
    rhs = -(e1 + e2) - 2.0 * mix.real
    if ctx.psi is not None:
        # psi_{i p k lbar} Sbar_{i p} against eta-inverse, one entry of psi at a time
        hat = _entry_sum(geom, geom.fft(ctx.psi), "zzzZ",
                         lambda t: Hinv[..., t[3], t[2]] * Sc[t[0], t[1]])
        rhs += 2.0 * hat.real
    return rhs


def _bracket(bracket):
    """(prev, mid, next, spacing) of three samples at two positive, equal spacings."""
    if len(bracket) != 3:
        raise ValueError("insufficient trajectory sampling")
    prev, mid, nxt = bracket
    dt_m, dt_p = mid.t - prev.t, nxt.t - mid.t
    if not (dt_m > 0 and dt_p > 0) or abs(dt_p - dt_m) > 1e-9 * max(dt_p, dt_m):
        raise ValueError("insufficient trajectory sampling")
    return prev, mid, nxt, float(dt_p)


# the evolution identities in the order they are checked, each with the context tables
# no later right side reads (`_identity_rhs`), dropped once its own is built
_DROPS = {"u_sq": ("theta",), "grad_sq": ("du",), "Theta": ("H",),
          "ThetaP": ("S", "T", "dF", "dEta")}


def verify_evolution_identities(flow, bracket) -> list:
    """Check the flat-case evolution identities of u^2, |grad u|^2, Theta and Theta'
    of a flow on a bracket of three samples (prev, mid, next) at equal spacings.

    Returns one IdentityReport for each, in that order (u_sq, grad_sq, Theta,
    ThetaP).  The left side is the central time difference of the quantity
    minus its spectral eta-Laplacian at the center; the right side is
    assembled from the center's sample.  The tensor norms
    of its three samples and the center's derived fields are built once for
    all four; the center's derivative tensors serve both its norms and its
    right sides, and each is dropped after the last right side that reads it
    (`_DROPS`).  The discrepancy shrinks as O(dt^2) under sample-spacing
    refinement.
    """
    geom = flow.geometry
    prev, mid, nxt, dt_s = _bracket(bracket)
    # the outer samples build the three norms the identities read, never the Gamma tensor
    norm_names = ("grad_sq", "Theta", "ThetaP")

    def named(u, tn):
        # only these fields, not the whole TensorNorms: it bounds the peak memory
        return {"u_sq": np.asarray(u) ** 2, **{w: getattr(tn, w) for w in norm_names}}

    # prev and nxt before the context, so their derivative tensors are freed by then;
    # the center's norms come from the context's own du, H and S
    quantities = [named(s.u, tensor_norms(geom, s.u, norm_names)) for s in (prev, nxt)]
    ctx = _sample_context(flow, mid.u)
    quantities.insert(1, named(mid.u, SimpleNamespace(**{
        w: reduce(add, (x.real ** 2 + x.imag ** 2 for x in getattr(ctx, table).values()))
        for w, table in zip(norm_names, ("du", "H", "S"))})))
    reports = []
    for which, drops in _DROPS.items():
        rhs = _identity_rhs(geom, which, ctx, flow.hat_theta, mid.u)
        for table in drops:  # before the next right side
            delattr(ctx, table)
        q_prev, q_mid, q_next = (q.pop(which) for q in quantities)
        lap = _eta_laplacian(ctx.eta_inv, geom.frame_hessian(geom.rfft(q_mid)))
        lhs = (q_next - q_prev) / (2.0 * dt_s) - lap
        reports.append(_report(which, lhs, rhs, float(mid.t), dt_s, geom.N))
        del rhs, q_prev, q_mid, q_next, lap, lhs  # before the next right side
    return reports


# ---------------------------------------------------------------------------
# stationary-point identities


def dhym_point_identities(flow, u_hat: np.ndarray, residual_tol: float = 1e-9):
    """First- and second-derivative identities at a converged endpoint of a flow.

    Returns a pair of IdentityReports: the first records
    sup |eta^{p qbar} F_{p qbar, i}| (zero at an exact stationary metric),
    the second the relative residual of the second-derivative expansion
    eta^{p qbar} F_{p qbar, jbar i} = eta^{p tbar} eta^{s qbar}
    eta_{s tbar, i} F_{p qbar, jbar}.
    """
    geom = flow.geometry
    ctx = _phase_context(flow, u_hat)
    residual = float(np.abs(ctx.theta - flow.hat_theta).max())
    if residual > residual_tol:
        raise ValueError(
            f"not a dHYM point: residual {residual:.3e} exceeds {residual_tol:.1e}"
        )
    Hinv, idx = ctx.eta_inv, range(geom.n)
    P = np.eye(geom.n) if geom.frame is None else geom.frame
    # the reports take sups over components of the free indices i, j, so the
    # contractions are in coordinates, with eta^{-1} = C = P^H Hinv P: equal letters
    # of d_i F_{p qbar} and d_i d_jbar F_{p qbar} commute (`entries`)
    C = geom.to_frame(Hinv, "zZ", P.conj().T)
    pot_hat = _potential_spectrum(ctx, geom.fft(u_hat))
    dF = {t: field for orbit, field in geom.entries(pot_hat, "zzZ", coords=3) for t in orbit}
    # (i): the phase gradient contraction, one complex field per direction i
    first = np.stack([_eta_trace(C, lambda p, q: dF[i, p, q]) for i in idx], axis=-1)
    rep1 = _report("dhym_first_derivative", first, 0.0, math.nan, 0.0, geom.N)

    # (ii): second derivatives of the full curvature, contracted one distinct entry
    # d_i d_jbar F_{p qbar} at a time, so the n^4-field tensor is never held
    lhs = {}
    for orbit, field in geom.entries(pot_hat, "zZzZ", coords=4):
        for i, j, p, q in orbit:
            lhs[i, j] = lhs.get((i, j), 0.0) + C[..., q, p] * field
    lhs = np.stack([np.stack([lhs[i, j] for j in idx], axis=-1) for i in idx], axis=-2)
    # the right side pairs the eta-inverse pair W around d_i eta with d_jbar F_{p qbar} =
    # conj(dF[j, q, p]), taken to the frame indices of W: W[x][y] meets Fj[x][y]
    rhs, dEta = np.empty_like(lhs), ctx.eta_derivative(coords=1)
    for j in idx:
        Fj = [[reduce(add, (P[x, p] * P[y, q].conj() * dF[j, q, p].conj()
                            for p in idx for q in idx)) for y in idx] for x in idx]
        for i in idx:
            rhs[..., i, j] = _mix(Hinv, lambda a, b: dEta[a, b, i], lambda x, y: Fj[x][y])
    rep2 = _report("dhym_second_derivative", lhs, rhs, math.nan, 0.0, geom.N)
    return rep1, rep2


# ---------------------------------------------------------------------------
# monitors


@dataclass(frozen=True)
class MonitorResult:
    passed: bool
    worst_violation: float
    location: float | None  # sample time of the worst violation


def maximum_principle_monitor(trajectory) -> MonitorResult:
    """Check that max theta is nonincreasing and min theta nondecreasing.

    Allows slack 1e-9 * (1 + |hat_theta|) per unit time, hat_theta the trajectory's flow's.
    """
    records = trajectory.records
    if len(records) < 2:
        raise ValueError("need at least two samples")
    rate = 1e-9 * (1.0 + abs(trajectory.flow.hat_theta))
    worst = -np.inf
    where = None
    for a, b in zip(records, records[1:]):
        allow = rate * (b.t - a.t)
        for v in (b.theta_max - a.theta_max, a.theta_min - b.theta_min):
            if v - allow > worst:
                worst = v - allow
                where = b.t
    return MonitorResult(passed=worst <= 0.0, worst_violation=float(worst), location=where)


@dataclass(frozen=True)
class OscillationFit:
    rate: float
    r_squared: float
    max_consecutive_ratio: float


def oscillation_decay(trajectory) -> OscillationFit:
    """Fit the exponential decay rate of the oscillation of du/dt.

    chi(t) = sup - inf of the velocity field at each sample; the rate is the
    negative slope of a least-squares line through log chi over the tail, the
    last half of the records, and r_squared is that line's.  max_consecutive_ratio
    is the largest chi(t_{k+1}) / chi(t_k) over the records (0 when no chi exceeds
    the 1e-14 floor).
    """
    records = trajectory.records
    times = np.array([r.t for r in records])
    chi = np.array([r.osc_udot for r in records])
    k0 = int(math.floor(len(records) * (1.0 - _TAIL_FRACTION)))
    tail_t, tail_chi = times[k0:], chi[k0:]
    keep = tail_chi > 1e-14
    if keep.sum() < 8:
        raise RuntimeError("oscillation below floor; nothing to fit")
    tt, cc = tail_t[keep], np.log(tail_chi[keep])
    slope, intercept = np.polyfit(tt, cc, 1)
    pred = slope * tt + intercept
    ss_res = float(((cc - pred) ** 2).sum())
    ss_tot = float(((cc - cc.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    max_ratio = 0.0
    for a_t, a_c, b_t, b_c in zip(times[:-1], chi[:-1], times[1:], chi[1:]):
        if a_c > 1e-14 and b_c > 0 and b_t > a_t:
            max_ratio = max(max_ratio, b_c / a_c)
    return OscillationFit(rate=float(-slope), r_squared=float(r2),
                          max_consecutive_ratio=float(max_ratio))


@dataclass(frozen=True)
class HarnackReport:
    quotient_xi: float
    quotient_psi: float
    positive: bool
    monotone: bool
    fail_location: tuple | None  # (t, "xi" or "psi") of the first non-positive sample


def harnack_monitor(flow, samples) -> HarnackReport:
    """Harnack quotients of the positive caps/cups of du/dt over [0, 1] of a flow's
    samples, in time order.

    Builds xi(x, tau) = sup_y phi(y, 0) - phi(x, tau) and psi(x, tau) =
    phi(x, tau) - inf_y phi(y, 0) from phi = theta - hat_theta of each sample's u,
    checks their positivity for tau in (0, 1] and the maximum-principle
    monotonicity of their sup/inf, and reports the quotients
    sup(., 1/2) / inf(., 1).  Samples at t = 0, 1/2 and 1 and one in (0, 1] are
    needed ("insufficient trajectory sampling"), and a spatially constant phi at
    t = 0 is refused ("degenerate").
    """
    times = np.array([s.t for s in samples])
    j0 = int(np.argmin(np.abs(times)))
    if abs(times[j0]) > 1e-9:
        raise ValueError("insufficient trajectory sampling")
    phi0 = flow.rhs(samples[j0].u)
    osc0 = float(phi0.max() - phi0.min())
    if osc0 < 1e-14 * (1.0 + float(np.abs(phi0).max())):
        raise ValueError("degenerate: flow already spatially constant")
    sup0, inf0 = float(phi0.max()), float(phi0.min())

    taus, sup_xi, inf_xi, sup_psi, inf_psi = [], [], [], [], []
    positive = True
    fail = None
    for s in samples[j0 + 1:]:
        if s.t > 1.0 + 1e-9:
            break
        phi = flow.rhs(s.u)
        xi = sup0 - phi
        psi = phi - inf0
        taus.append(s.t)
        sup_xi.append(float(xi.max()))
        inf_xi.append(float(xi.min()))
        sup_psi.append(float(psi.max()))
        inf_psi.append(float(psi.min()))
        if positive and (xi.min() <= 0.0 or psi.min() <= 0.0):
            positive = False
            fail = (float(s.t), "xi" if xi.min() <= 0.0 else "psi")
    if not taus:
        raise ValueError("insufficient trajectory sampling")
    taus = np.array(taus)

    slack = 1e-9 * (1.0 + osc0)
    monotone = bool(
        (np.diff(sup_xi) <= slack).all() and (np.diff(inf_xi) >= -slack).all()
        and (np.diff(sup_psi) <= slack).all() and (np.diff(inf_psi) >= -slack).all()
    )

    def _at(values, tau):
        j = int(np.argmin(np.abs(taus - tau)))
        if abs(taus[j] - tau) > 1e-9:
            raise ValueError("insufficient trajectory sampling")
        return values[j]

    return HarnackReport(
        quotient_xi=_at(sup_xi, 0.5) / _at(inf_xi, 1.0),
        quotient_psi=_at(sup_psi, 0.5) / _at(inf_psi, 1.0),
        positive=positive, monotone=monotone, fail_location=fail,
    )
