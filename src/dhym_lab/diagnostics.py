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
tables (`_eta_trace`, `_sandwich`, `_mix`), as in `phase.frame_characteristic`,
and no tensor is held whole: the fourth derivatives of the base potential
are read one distinct entry at a time (`_entry_sum`).

The tensor norms sum the squared real planes of each distinct frame entry
(`TorusGeometry.norm_planes`) from u's half spectrum.  `build_record` takes
that spectrum, theta and Z (the integral of zeta) from a flow state, so a
full record of a state takes no forward transform.  With norms=False it
builds a phase-only record: the scalar columns of a full one and NaN
TENSOR_COLUMNS.  `verify` records this way, because none of its checks
reads a tensor column; `write_diagnostics` refuses such records.

Time derivatives for identity checks use second-order central differences
of stored trajectory samples, never integrator internals, so the verifier
is independent of the time stepper.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add
from types import SimpleNamespace

import numpy as np

from .geometry import NORM_WORDS, TorusGeometry, complex_hessian, volume_integral
from .phase import PhaseFields, eta_pair, frame_characteristic, phase_fields

__all__ = [
    "QConfig",
    "DiagnosticsRecord",
    "TensorNorms",
    "IdentityReport",
    "CSV_COLUMNS",
    "TENSOR_COLUMNS",
    "tensor_norms",
    "q_functional",
    "build_record",
    "verify_linearization",
    "verify_evolution_identity",
    "verify_evolution_identities",
    "dhym_point_identities",
    "maximum_principle_monitor",
    "oscillation_decay",
    "harnack_monitor",
]

CSV_COLUMNS = (
    "t,residual_sup,theta_max,theta_min,grad_sq_sup,Theta_sup,ThetaP_sup,"
    "Gamma_sup,Q_sup,hess_sup,Z_re,Z_im,osc_udot,mean_u"
)
# the columns built from the tensor norms: NaN in a phase-only record
TENSOR_COLUMNS = ("grad_sq_sup", "Theta_sup", "ThetaP_sup", "Gamma_sup", "Q_sup", "hess_sup")


@dataclass(frozen=True)
class QConfig:
    """Constants of the auxiliary functional Q; the base point is a grid index."""

    K1: float = 1.0
    K2: float = 1.0
    p: tuple = ()

    def __post_init__(self):
        if self.K1 <= 0 or self.K2 <= 0:
            raise ValueError("Q constants K1, K2 must be positive")


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


def _q_field(tn: TensorNorms, u: np.ndarray, u0_at_p: float,
             qcfg: QConfig | None) -> np.ndarray:
    qcfg = qcfg or QConfig()
    return (
        tn.Theta + tn.ThetaP + qcfg.K1 * tn.grad_sq
        + 0.5 * qcfg.K2 * (np.asarray(u) - u0_at_p) ** 2
    )


def q_functional(geom: TorusGeometry, u: np.ndarray, u0_at_p: float,
                 qcfg: QConfig | None = None):
    """Pointwise Q = Theta + Theta' + K1 |grad u|^2 + K2/2 (u - u0(p))^2."""
    Q = _q_field(tensor_norms(geom, u), u, u0_at_p, qcfg)
    return Q, float(Q.max())


def build_record(geom: TorusGeometry, base, hat_theta: float, t: float,
                 u: np.ndarray, theta: np.ndarray | None = None,
                 u0_at_p: float = 0.0, qcfg: QConfig | None = None,
                 norms: bool = True, Z: complex | None = None,
                 uh: np.ndarray | None = None) -> DiagnosticsRecord:
    """Assemble the per-sample scalar diagnostics from uh = rfft(u), taken when not given.

    uh, theta and Z = volume_integral(zeta) are a flow state's (`FlowState`); theta and
    Z not given are the flow's (`LineBundleFlow.phase_fields`).  norms=False leaves the
    TENSOR_COLUMNS NaN: given theta and Z, the record then transforms nothing."""
    if uh is None and (norms or theta is None or Z is None):
        uh = geom.rfft(np.asarray(u, dtype=np.float64))
    if norms:
        tn = tensor_norms(geom, u, uh=uh)
    if theta is None or Z is None:
        from .flow import LineBundleFlow

        pf = LineBundleFlow(geom, base, hat_theta).phase_fields(uh)
        theta = pf.theta if theta is None else theta
        Z = volume_integral(geom, pf.zeta) if Z is None else Z
    udot = theta - hat_theta
    if norms:
        tensor_sups = (tn.grad_sq_sup, tn.Theta_sup, tn.ThetaP_sup, tn.Gamma_sup,
                       float(_q_field(tn, u, u0_at_p, qcfg).max()), tn.hess_sup)
    else:
        tensor_sups = (math.nan,) * len(TENSOR_COLUMNS)
    return DiagnosticsRecord(
        t=float(t),
        residual_sup=float(np.abs(udot).max()),
        theta_max=float(theta.max()),
        theta_min=float(theta.min()),
        **dict(zip(TENSOR_COLUMNS, tensor_sups)),
        Z_re=float(Z.real),
        Z_im=float(Z.imag),
        osc_udot=float(udot.max() - udot.min()),
        mean_u=float(np.mean(u)),
    )


# ---------------------------------------------------------------------------
# linearization


def verify_linearization(geom: TorusGeometry, base, u: np.ndarray,
                         phi: np.ndarray, eps: float) -> float:
    """Relative sup-norm error of the central-difference phase derivative.

    Compares (theta(F_{u + eps*phi}) - theta(F_{u - eps*phi})) / (2 eps)
    against the analytic directional derivative eta^{p qbar} phi_{p qbar}.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError("eps outside the supported range [1e-7, 1e-3]")
    F_hat = base.field()
    phi = np.asarray(phi, dtype=np.float64)
    if not np.any(phi):
        return 0.0
    tp, tm = (phase_fields(geom, F_hat + complex_hessian(geom, u + step * phi)).theta
              for step in (eps, -eps))
    _, eta_inv = eta_pair(geom.to_frame(F_hat + complex_hessian(geom, u), "zZ"))
    numeric = (tp - tm) / (2.0 * eps)
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
        # the frame d eta, built on first read: only the identities that need it hold it,
        # and both of them read this one
        return self.eta_derivative()


def _phase_context(geom: TorusGeometry, base, u: np.ndarray) -> _SampleContext:
    """The phase part of a sample's context: what `dhym_point_identities` reads.

    uh and psi_hat are the full spectra of u and of the base potential (None
    without one), H = {(p, q): u_{p qbar}} the frame Hessian's entries from its
    real planes (`TorusGeometry.frame_hessian`), and theta, eta and eta_inv
    belong to the frame curvature F = Fhat + H.
    """
    u = np.asarray(u, dtype=np.float64)
    T, idx = geom.frame_hessian(geom.rfft(u)), range(geom.n)
    H = {(p, q): T[p][q] + 1j * T[q][p] if p < q else T[p][p] for p in idx for q in idx[p:]}
    H.update({(q, p): H[p, q].conj() for p, q in list(H) if p < q})
    F = geom.to_frame(base.field(), "zZ").copy()
    for (p, q), h in H.items():
        F[..., p, q] += h
    eta, eta_inv = eta_pair(F)
    return _SampleContext(geom=geom, uh=geom.fft(u), H=H, eta=eta, eta_inv=eta_inv,
                          psi_hat=None if base.psi is None else geom.fft(base.psi),
                          theta=PhaseFields(frame_characteristic(F)).theta)


def _sample_context(geom: TorusGeometry, base, u: np.ndarray) -> _SampleContext:
    """What the identity right-hand sides read at one sample.

    The phase context (`_phase_context`) plus the frame tensors du = u_i,
    S = u_{i p}, T = u_{i jbar k} and dF = d_i F_{p qbar} = (psi + u)_{i p qbar}
    as tables (`_table`), one transform per orbit of commuting indices.
    """
    ctx = _phase_context(geom, base, u)
    ctx.du, ctx.S, ctx.T = (_table(geom.entries(ctx.uh, word)) for word in ("z", "zz", "zZz"))
    pot_hat = ctx.uh if ctx.psi_hat is None else ctx.uh + ctx.psi_hat
    ctx.dF = _table(geom.entries(pot_hat, "zzZ"))
    return ctx


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


def _sandwich(Hinv: np.ndarray, Y: list) -> list:
    """W[x][y] = sum_{a,b} Hinv[..., b, x] Y[a][b] Hinv[..., y, a], the eta-inverse pair
    around one n x n table Y of fields: 2 n^3 field products."""
    idx = range(Hinv.shape[-1])
    Z = [[reduce(add, (Y[a][b] * Hinv[..., b, x] for b in idx)) for x in idx] for a in idx]
    return [[reduce(add, (Hinv[..., y, a] * Z[a][x] for a in idx)) for y in idx] for x in idx]


def _mix(Hinv: np.ndarray, Y: list, dF: dict, c: list) -> np.ndarray:
    """One free index's part of a mix term: sum_{x,y} W[x][y] sum_i dF[i, x, y] c[i]
    with W = `_sandwich`(Hinv, Y), so no n^3-field inner tensor is built."""
    W, idx = _sandwich(Hinv, Y), range(Hinv.shape[-1])
    return reduce(add, (W[x][y] * reduce(add, (dF[i, x, y] * c[i] for i in idx))
                        for x in idx for y in idx))


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
    Hinv, H, idx = ctx.eta_inv, ctx.H, range(geom.n)
    # a product with a conjugate conjugates one entry at a time, so no conjugate
    # copy of T or of u_{i p k} is held
    if which == "u_sq":
        du = ctx.du
        lap_u = _eta_trace(Hinv, lambda p, q: H[p, q], hermitian=True)
        grad_part = _eta_trace(Hinv, lambda p, q: du[p,] * du[q,].conj(), hermitian=True)
        return 2.0 * np.asarray(u) * (ctx.theta - hat_theta - lap_u) - 2.0 * grad_part

    if which == "grad_sq":
        S, du = ctx.S, ctx.du
        A = _eta_trace(Hinv, lambda p, q: reduce(add, (S[i, p] * S[i, q].conj() for i in idx)),
                       hermitian=True)
        B = _eta_trace(Hinv, lambda p, q: reduce(add, (H[p, i] * H[i, q] for i in idx)),
                       hermitian=True)
        rhs = -(A + B)
        if ctx.psi_hat is not None:
            # psi_{i p qbar} = dF[i, p, q] - u_{p qbar i}, one entry at a time
            dF, T = ctx.dF, ctx.T
            C = _eta_trace(Hinv, lambda p, q: reduce(add, ((dF[i, p, q] - T[p, q, i])
                                                           * du[i,].conj() for i in idx)))
            rhs += 2.0 * C.real
        return rhs

    dEta, T = ctx.dEta, ctx.T  # d_p eta_{a bbar} at (a, b, p)

    if which == "Theta":
        # the sum of T Tbar against eta-inverse appears twice: once more after relabelling i, l
        T1 = _eta_trace(Hinv, lambda p, q: reduce(add, (T[i, l, p] * T[i, l, q].conj()
                                                        for i in idx for l in idx)),
                        hermitian=True)
        # (d/dzbar_l eta)_{a bbar} = conj((d/dz_l eta)_{b abar}) = conj(dEta[b, a, l])
        mix = reduce(add, (_mix(Hinv, [[dEta[b, a, l].conj() for b in idx] for a in idx],
                                ctx.dF, [H[l, i] for i in idx]) for l in idx))
        rhs = -2.0 * T1 - 2.0 * mix.real
        if ctx.psi_hat is not None:
            # psi_{i lbar p qbar} H_{l ibar} against eta-inverse, one entry of psi at a time
            hat = _entry_sum(geom, ctx.psi_hat, "zZzZ",
                             lambda t: Hinv[..., t[3], t[2]] * H[t[1], t[0]])
            rhs += 2.0 * hat.real
        return rhs

    # ThetaP; u_{i p k} is symmetric, so P holds each distinct entry once
    P = _table(geom.entries(ctx.uh, "zzz"))
    e1 = _eta_trace(Hinv, lambda k, l: reduce(add, (P[i, p, k] * P[i, p, l].conj()
                                                    for i in idx for p in idx)), hermitian=True)
    del P  # bounds the peak memory
    e2 = _eta_trace(Hinv, lambda k, l: reduce(add, (T[i, l, p] * T[i, k, p].conj()
                                                    for i in idx for p in idx)), hermitian=True)
    Sc = [[ctx.S[i, p].conj() for p in idx] for i in idx]
    mix = reduce(add, (_mix(Hinv, [[dEta[a, b, p] for b in idx] for a in idx],
                            ctx.dF, [Sc[i][p] for i in idx]) for p in idx))
    rhs = -(e1 + e2) - 2.0 * mix.real
    if ctx.psi_hat is not None:
        # psi_{i p k lbar} Sbar_{i p} against eta-inverse, one entry of psi at a time
        hat = _entry_sum(geom, ctx.psi_hat, "zzzZ",
                         lambda t: Hinv[..., t[3], t[2]] * Sc[t[0]][t[1]])
        rhs += 2.0 * hat.real
    return rhs


def _bracket(trajectory, t: float):
    samples = list(trajectory.samples)
    if len(samples) < 3:
        raise ValueError("insufficient trajectory sampling")
    times = np.array([s.t for s in samples])
    j = int(np.argmin(np.abs(times - t)))
    if j == 0 or j == len(samples) - 1:
        raise ValueError("insufficient trajectory sampling")
    dt_m = times[j] - times[j - 1]
    dt_p = times[j + 1] - times[j]
    if abs(dt_p - dt_m) > 1e-9 * max(dt_p, dt_m):
        raise ValueError("insufficient trajectory sampling")
    return samples[j - 1], samples[j], samples[j + 1], float(dt_p)


_IDENTITY_NAMES = ("u_sq", "grad_sq", "Theta", "ThetaP")


def verify_evolution_identities(trajectory, t: float, names=_IDENTITY_NAMES) -> list:
    """Check flat-case evolution identities at trajectory time t.

    Returns one IdentityReport per name, in order.  The left side is the
    central time difference of the quantity minus its spectral
    eta-Laplacian at the bracketing center; the right side is assembled
    from the stored sample there.  The bracket, the tensor norms of its
    three samples and the center's derived fields are built once for all
    names; the center's derivative tensors serve both its norms and its
    right sides.  The discrepancy shrinks as O(dt^2) under sample-spacing
    refinement.
    """
    names = tuple(names)
    for which in names:
        if which not in _IDENTITY_NAMES:
            raise ValueError(f"unknown evolution identity {which!r}")
    if len(set(names)) < len(names):
        raise ValueError(f"repeated evolution identity in {names!r}")
    geom = trajectory.geometry
    prev, mid, nxt, dt_s = _bracket(trajectory, t)
    # the outer samples build only the norms the names read: the Gamma tensor u_{i jbar k} never
    norm_names = tuple(w for w in names if w != "u_sq")

    def named(u, tn):
        # only the named fields, not the whole TensorNorms: it bounds the peak memory
        return {w: np.asarray(u) ** 2 if w == "u_sq" else getattr(tn, w) for w in names}

    # prev and nxt before the context, so their derivative tensors are freed by then;
    # the center's norms come from the context's own du, H, S and T
    quantities = [named(s.u, tensor_norms(geom, s.u, norm_names) if norm_names else None)
                  for s in (prev, nxt)]
    ctx = _sample_context(geom, trajectory.base, mid.u)
    tensors = {"grad_sq": ctx.du, "Theta": ctx.H, "ThetaP": ctx.S}
    quantities.insert(1, named(mid.u, SimpleNamespace(**{
        w: reduce(add, (x.real ** 2 + x.imag ** 2 for x in X.values()))
        for w, X in tensors.items() if w in norm_names})))
    reports = []
    for which in names:
        q_prev, q_mid, q_next = (q.pop(which) for q in quantities)
        lap = _eta_laplacian(ctx.eta_inv, geom.frame_hessian(geom.rfft(q_mid)))
        lhs = (q_next - q_prev) / (2.0 * dt_s) - lap
        rhs = _identity_rhs(geom, which, ctx, trajectory.hat_theta, mid.u)
        reports.append(_report(which, lhs, rhs, float(mid.t), dt_s, geom.N))
    return reports


def verify_evolution_identity(which: str, trajectory, t: float) -> IdentityReport:
    """Check one flat-case evolution identity; see verify_evolution_identities."""
    return verify_evolution_identities(trajectory, t, (which,))[0]


# ---------------------------------------------------------------------------
# stationary-point identities


def dhym_point_identities(geom: TorusGeometry, base, u_hat: np.ndarray,
                          hat_theta: float | None = None,
                          residual_tol: float = 1e-9):
    """First- and second-derivative identities at a converged endpoint.

    Returns a pair of IdentityReports: the first records
    sup |eta^{p qbar} F_{p qbar, i}| (zero at an exact stationary metric),
    the second the relative residual of the second-derivative expansion
    eta^{p qbar} F_{p qbar, jbar i} = eta^{p tbar} eta^{s qbar}
    eta_{s tbar, i} F_{p qbar, jbar}.
    """
    from .cohomology import winding_hat_theta

    ctx = _phase_context(geom, base, u_hat)
    if hat_theta is None:
        hat_theta = winding_hat_theta(geom, base.field())
    residual = float(np.abs(ctx.theta - hat_theta).max())
    if residual > residual_tol:
        raise ValueError(
            f"not a dHYM point: residual {residual:.3e} exceeds {residual_tol:.1e}"
        )
    Hinv, idx, P = ctx.eta_inv, range(geom.n), geom.frame
    # the reports take sups over components of the free indices i, j, so the
    # contractions are in coordinates, with eta^{-1} = C = P^H Hinv P: equal letters
    # of d_i F_{p qbar} and d_i d_jbar F_{p qbar} commute (`entries`)
    C = Hinv if P is None else geom.to_frame(Hinv, "zZ", P.conj().T)
    pot_hat = ctx.uh if ctx.psi_hat is None else ctx.uh + ctx.psi_hat  # F = F0 + ddbar(psi + u)
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
    # the right side pairs the eta-inverse pair around d_i eta, taken to coordinates
    # (P^T W P-bar), with d_jbar F_{p qbar} = conj(dF[j, q, p])
    rhs, dEta = np.empty_like(lhs), ctx.eta_derivative(coords=1)
    for i in idx:
        W = _sandwich(Hinv, [[dEta[a, b, i] for b in idx] for a in idx])
        if P is not None:
            W = geom.to_frame(np.stack([np.stack(row, axis=-1) for row in W], axis=-2), "zZ", P.T)
            W = [[W[..., p, q] for q in idx] for p in idx]
        for j in idx:
            rhs[..., i, j] = reduce(add, (W[p][q] * dF[j, q, p].conj() for p in idx for q in idx))
    rep2 = _report("dhym_second_derivative", lhs, rhs, math.nan, 0.0, geom.N)
    return rep1, rep2


# ---------------------------------------------------------------------------
# monitors


@dataclass(frozen=True)
class MonitorResult:
    passed: bool
    worst_violation: float
    location: float | None  # sample time of the worst violation


def maximum_principle_monitor(trajectory, hat_theta: float | None = None) -> MonitorResult:
    """Check that max theta is nonincreasing and min theta nondecreasing.

    Allows slack 1e-9 * (1 + |hat_theta|) per unit time.
    """
    records = trajectory.records
    if len(records) < 2:
        raise ValueError("need at least two samples")
    if hat_theta is None:
        hat_theta = trajectory.hat_theta
    rate = 1e-9 * (1.0 + abs(hat_theta))
    worst = -np.inf
    where = None
    for a, b in zip(records, records[1:]):
        allow = rate * (b.t - a.t)
        for v in (b.theta_max - a.theta_max, a.theta_min - b.theta_min):
            if v - allow > worst:
                worst = v - allow
                where = b.t
    return MonitorResult(passed=worst <= 0.0, worst_violation=float(worst), location=where)


@dataclass(frozen=True, eq=False)
class OscillationFit:
    times: np.ndarray
    chi: np.ndarray
    rate: float
    r_squared: float
    contraction: list  # (t, per-unit-time ratio) pairs over consecutive samples
    max_consecutive_ratio: float


def oscillation_decay(trajectory, tail_fraction: float = 0.5) -> OscillationFit:
    """Fit the exponential decay rate of the oscillation of du/dt.

    chi(t) = sup - inf of the velocity field at each sample; the rate is the
    negative slope of a least-squares line through log chi over the tail.
    """
    records = trajectory.records
    times = np.array([r.t for r in records])
    chi = np.array([r.osc_udot for r in records])
    k0 = int(math.floor(len(records) * (1.0 - tail_fraction)))
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
    ratios = []
    max_ratio = 0.0
    for a_t, a_c, b_t, b_c in zip(times[:-1], chi[:-1], times[1:], chi[1:]):
        if a_c > 1e-14 and b_c > 0 and b_t > a_t:
            r = (b_c / a_c) ** (1.0 / (b_t - a_t))
            ratios.append((float(a_t), float(r)))
            max_ratio = max(max_ratio, b_c / a_c)
    return OscillationFit(
        times=tail_t[keep],
        chi=tail_chi[keep],
        rate=float(-slope),
        r_squared=float(r2),
        contraction=ratios,
        max_consecutive_ratio=float(max_ratio),
    )


@dataclass(frozen=True, eq=False)
class HarnackReport:
    m: int
    taus: np.ndarray
    sup_xi: np.ndarray
    inf_xi: np.ndarray
    sup_psi: np.ndarray
    inf_psi: np.ndarray
    quotient_xi: float
    quotient_psi: float
    positive: bool
    monotone: bool
    fail_location: tuple | None
    fitted_constants: tuple  # (C1, C2, C3), reported only, never asserted


def harnack_monitor(trajectory, m: int = 1) -> HarnackReport:
    """Harnack quotients of the positive caps/cups of du/dt over [m-1, m].

    Builds xi(x, tau) = sup_y phi(y, m-1) - phi(x, m-1+tau) and
    psi(x, tau) = phi(x, m-1+tau) - inf_y phi(y, m-1) from stored samples,
    checks their positivity for tau > 0 and the maximum-principle
    monotonicity of their sup/inf, and reports the quotients
    sup(., 1/2) / inf(., 1).  The Harnack constants are least-squares
    metadata only.
    """
    samples = list(trajectory.samples)
    times = np.array([s.t for s in samples])
    t0 = float(m - 1)
    j0 = int(np.argmin(np.abs(times - t0)))
    if abs(times[j0] - t0) > 1e-9 * (1.0 + abs(t0)):
        raise ValueError("insufficient trajectory sampling")
    phi0 = samples[j0].udot
    osc0 = float(phi0.max() - phi0.min())
    if osc0 < 1e-14 * (1.0 + float(np.abs(phi0).max())):
        raise ValueError("degenerate: flow already spatially constant")
    sup0, inf0 = float(phi0.max()), float(phi0.min())

    taus, sup_xi, inf_xi, sup_psi, inf_psi = [], [], [], [], []
    positive = True
    fail = None
    for s in samples[j0 + 1:]:
        tau = s.t - t0
        if tau > 1.0 + 1e-9:
            break
        xi = sup0 - s.udot
        psi = s.udot - inf0
        taus.append(tau)
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
    sup_xi, inf_xi = np.array(sup_xi), np.array(inf_xi)
    sup_psi, inf_psi = np.array(sup_psi), np.array(inf_psi)

    slack = 1e-9 * (1.0 + osc0)
    monotone = bool(
        (np.diff(sup_xi) <= slack).all() and (np.diff(inf_xi) >= -slack).all()
        and (np.diff(sup_psi) <= slack).all() and (np.diff(inf_psi) >= -slack).all()
    )

    def _at(arr, tau):
        j = int(np.argmin(np.abs(taus - tau)))
        if abs(taus[j] - tau) > 1e-9:
            raise ValueError("insufficient trajectory sampling")
        return float(arr[j])

    q_xi = _at(sup_xi, 0.5) / _at(inf_xi, 1.0)
    q_psi = _at(sup_psi, 0.5) / _at(inf_psi, 1.0)

    # Least-squares fit of log sup v(t1) - log inf v(t2) against the Harnack
    # form C1 (t2-t1) + C2 log(t2/t1) + C3/(t2-t1), over available pairs.
    rows, obs = [], []
    grid = [tau for tau in (0.25, 0.5, 0.75, 1.0)
            if np.abs(taus - tau).min() < 1e-9]
    for a in grid:
        for b in grid:
            if b <= a:
                continue
            for sup_arr, inf_arr in ((sup_xi, inf_xi), (sup_psi, inf_psi)):
                s_v, i_v = _at(sup_arr, a), _at(inf_arr, b)
                if s_v > 0 and i_v > 0:
                    rows.append([b - a, math.log(b / a), 1.0 / (b - a)])
                    obs.append(math.log(s_v / i_v))
    if rows:
        sol, *_ = np.linalg.lstsq(np.array(rows), np.array(obs), rcond=None)
        constants = tuple(float(c) for c in sol)
    else:
        constants = (math.nan, math.nan, math.nan)

    return HarnackReport(
        m=m, taus=taus, sup_xi=sup_xi, inf_xi=inf_xi,
        sup_psi=sup_psi, inf_psi=inf_psi,
        quotient_xi=float(q_xi), quotient_psi=float(q_psi),
        positive=positive, monotone=monotone, fail_location=fail,
        fitted_constants=constants,
    )
