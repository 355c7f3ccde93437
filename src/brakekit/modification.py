"""Convex quadratic T-modification of the magnetic Lagrangian.

The surgery follows the classical cutoff construction: with lambda above the
sampled max of L over the 2T-ball and phi a smooth increasing profile that is
the identity below 1 and constant above 2,

    L_1T = lambda phi(L / lambda),    L_T = L_1T + psi(|v|^2),

where psi vanishes below T^2 and is the affine mu s - 2 mu T^2 above 4 T^2.
The defining inequalities 4 T mu >= 1 and 2 T^2 mu >= 2T - C - min L_1T make
the linear growth floor L_T >= |v| - C hold, and mu is doubled until the
sampled fiber convexity certificate passes.  Inside |v| <= T with L <= lambda
the construction returns the original evaluations verbatim, so coincidence of
values and all partials there is exact to the last bit, which is what makes
orbit preservation and Hessian T-independence round-off statements.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import InfeasibleParams, SpeedTooHigh
from .index import morse_index
from .loopspace import SymmetricLoop, assemble_hessian, gradient_norm_w12, mean_action
from .model import HamiltonianSpec, LagrangianSpec, OneForm

__all__ = [
    "SmoothCap",
    "QuinticRamp",
    "ModificationParams",
    "compute_constants",
    "build_modification",
    "check_quadratic_growth",
    "verify_orbit_preservation",
    "hessian_T_independence",
    "speed_bound_report",
]


def _bump(u):
    """exp(-1/u) extended by zero; the standard C-infinity mollifier piece."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def _bump_d(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos]) / u[pos] ** 2
    return out


def _transition(u):
    """C-infinity monotone 0 -> 1 transition on [0, 1]."""
    a = _bump(u)
    b = _bump(1.0 - u)
    return a / (a + b)


def _transition_d(u):
    a = _bump(u)
    b = _bump(1.0 - u)
    da = _bump_d(u)
    db = _bump_d(1.0 - u)
    return (da * b + a * db) / (a + b) ** 2


class SmoothCap:
    """Profile phi: identity below 1, constant 3/2 above 2, C-infinity blend.

    phi'(s) = 1 - transition(s - 1); the value on (1, 2) is tabulated once by
    cumulative Simpson quadrature and interpolated, the derivatives are closed
    form.  phi(s) -> 3/2 because the transition integrates to 1/2 by symmetry.
    """

    _spline = None

    def __init__(self):
        if SmoothCap._spline is None:
            s = np.linspace(1.0, 2.0, 4097)
            d = 1.0 - _transition(s - 1.0)
            h = s[1] - s[0]
            # cumulative Simpson on the uniform grid
            cum = np.zeros_like(s)
            cum[2::2] = np.cumsum((d[0:-2:2] + 4 * d[1:-1:2] + d[2::2]) * h / 3.0)
            cum[1::2] = cum[0:-1:2] + (d[0:-1:2] + d[1::2]) * 0.5 * h
            SmoothCap._spline = CubicSpline(s, 1.0 + cum)
            SmoothCap._cap = float(1.0 + cum[-1])

    def value(self, s):
        s = np.asarray(s, dtype=float)
        out = np.where(s <= 1.0, s, 0.0)
        mid = (s > 1.0) & (s < 2.0)
        if np.any(mid):
            out = np.where(mid, SmoothCap._spline(np.clip(s, 1.0, 2.0)), out)
        return np.where(s >= 2.0, SmoothCap._cap, out)

    def d1(self, s):
        s = np.asarray(s, dtype=float)
        return 1.0 - _transition(s - 1.0)

    def d2(self, s):
        s = np.asarray(s, dtype=float)
        return -_transition_d(s - 1.0)


class QuinticRamp:
    """psi: zero below T^2, affine mu s - 2 mu T^2 above 4 T^2, C^2 quintic blend.

    The blend g(u) = 8u^3 - 9u^4 + 3u^5 on u = (s - T^2)/(3 T^2) matches value,
    slope and curvature at both ends and is strictly increasing inside.
    """

    def __init__(self, T: float, mu: float):
        self.T = float(T)
        self.mu = float(mu)
        self.lo = self.T ** 2
        self.hi = 4.0 * self.T ** 2

    def _u(self, s):
        return (np.asarray(s, dtype=float) - self.lo) / (3.0 * self.T ** 2)

    def value(self, s):
        s = np.asarray(s, dtype=float)
        u = np.clip(self._u(s), 0.0, 1.0)
        g = 8 * u ** 3 - 9 * u ** 4 + 3 * u ** 5
        blend = self.mu * self.T ** 2 * g
        tail = self.mu * s - 2.0 * self.mu * self.T ** 2
        return np.where(s <= self.lo, 0.0, np.where(s >= self.hi, tail, blend))

    def d1(self, s):
        s = np.asarray(s, dtype=float)
        u = np.clip(self._u(s), 0.0, 1.0)
        gp = 24 * u ** 2 - 36 * u ** 3 + 15 * u ** 4
        blend = self.mu * gp / 3.0
        return np.where(s <= self.lo, 0.0, np.where(s >= self.hi, self.mu, blend))

    def d2(self, s):
        s = np.asarray(s, dtype=float)
        u = np.clip(self._u(s), 0.0, 1.0)
        gpp = 48 * u - 108 * u ** 2 + 60 * u ** 3
        blend = self.mu * gpp / (9.0 * self.T ** 2)
        return np.where((s <= self.lo) | (s >= self.hi), 0.0, blend)


@dataclass(frozen=True)
class ModificationParams:
    T: float
    lam: float
    mu: float
    K: float
    C: float
    phi: SmoothCap
    psi: QuinticRamp
    min_L1T: float = 0.0
    convexity_min_eig: float = 0.0
    mu_doublings: int = 0

    def record(self):
        return {"T": self.T, "lambda": self.lam, "mu": self.mu, "K": self.K,
                "C": self.C, "min_L1T": self.min_L1T,
                "convexity_min_eig": self.convexity_min_eig}


def compute_constants(H: HamiltonianSpec, theta: OneForm, q_samples: int = 512,
                      p_dirs: int = 32, t_samples: int = 8, rng=None):
    """(K, C): K = max_q |theta(q)|, C = max H over the ball |p| <= K + 1.

    Both maxima are sampled on fixed seeded grids; on the flat torus the sup
    over unit v of theta(q)[v] is the Euclidean norm of theta(q), and the
    p-maximum of a fiberwise convex H sits on the sphere, sampled here in
    random directions plus interior radii for safety.
    """
    rng = np.random.default_rng(0 if rng is None else rng)
    torus = H.torus
    n = torus.dim
    q = rng.uniform(0, 1, size=(q_samples, n)) * torus.periods
    K = float(np.max(np.linalg.norm(theta.components(q), axis=-1)))
    dirs = rng.normal(size=(p_dirs, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.linspace(0.0, K + 1.0, 9)[1:]
    ts = np.linspace(0.0, 1.0, t_samples, endpoint=False)
    C = -np.inf
    for t in ts:
        for r in radii:
            vals = H.value(t, q[:, None, :].repeat(p_dirs, 1).reshape(-1, n),
                           np.tile(r * dirs, (q_samples, 1)))
            C = max(C, float(np.max(vals)))
    return K, float(C)


def _sample_grid(L: LagrangianSpec, v_max: float, q_samples: int, n_radii: int,
                 n_dirs: int, t_samples: int, rng):
    torus = L.torus
    n = torus.dim
    q = rng.uniform(0, 1, size=(q_samples, n)) * torus.periods
    dirs = rng.normal(size=(n_dirs, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.linspace(0.0, v_max, n_radii)
    ts = np.linspace(0.0, 1.0, t_samples, endpoint=False)
    tt, qq, vv = [], [], []
    for t in ts:
        for r in radii:
            tt.append(np.full(q_samples * n_dirs, t))
            qq.append(np.repeat(q, n_dirs, axis=0))
            vv.append(np.tile(r * dirs, (q_samples, 1)))
    return np.concatenate(tt), np.vstack(qq), np.vstack(vv)


MU_CAP = 1e8  # the largest mu the fiber-convexity doubling may reach


def build_modification(L_theta: LagrangianSpec, T: float, constants: tuple):
    """Assemble the convex quadratic T-modification of L_theta.

    constants is the pair (K, C) of compute_constants.  The sampled maxima
    and minima use 24 seeded base points and 8 directions per radius.
    Returns (LagrangianSpec, ModificationParams); InfeasibleParams when no
    mu <= MU_CAP certifies fiber convexity.

    A call with the same L_theta object and equal T, (K, C) and MU_CAP
    returns the pair an earlier call built, so both are shared: params is
    frozen, and the spec must not be altered.
    """
    return _build_modification(L_theta, float(T), tuple(float(c) for c in constants),
                               float(MU_CAP))


# A modify-check pass builds each (L, T, K, C) once for its certificates and
# again for every orbit it checks, over the two or three T it is given; eight
# entries hold them all, and few enough L_theta objects stay referenced.
@functools.lru_cache(maxsize=8)
def _build_modification(L_theta: LagrangianSpec, T: float, constants: tuple,
                        mu_cap: float):
    K, C = constants
    rng = np.random.default_rng(0)
    q_samples, n_dirs = 24, 8

    # lambda >= max of L over |v| <= 2T, with a 10% safety margin
    tt, qq, vv = _sample_grid(L_theta, 2.0 * T, q_samples, 33, n_dirs, 4, rng)
    mx = float(np.max(L_theta.value(tt, qq, vv)))
    lam = max(1.1 * mx, 1.0)

    phi = SmoothCap()

    # min of L_1T for the mu inequality (sampled over a generous ball)
    tt2, qq2, vv2 = _sample_grid(L_theta, 6.0 * T, q_samples, 49, n_dirs, 4, rng)
    L1T_vals = lam * phi.value(L_theta.value(tt2, qq2, vv2) / lam)
    min_L1T = float(np.min(L1T_vals))

    mu = max(1.0 / (4.0 * T),
             (2.0 * T - C - min_L1T) / (2.0 * T ** 2),
             1e-6)
    if mu > mu_cap:
        raise InfeasibleParams(
            f"mu lower bound {mu:.3e} already exceeds the cap {mu_cap:.1e}")
    # only psi depends on mu: the rest of the fiber Hessian is sampled once
    fixed = _fiber_hessian_fixed(L_theta, lam, phi, T, tt2, qq2, vv2)
    doublings = 0
    while True:
        psi = QuinticRamp(T, mu)
        hv = _fiber_hessian(fixed, psi)
        sym = 0.5 * (hv + np.swapaxes(hv, -1, -2))
        # a step is decided by the diagonal, which must be positive and
        # settles a 1x1 stack, then by one batched Cholesky; the eigenvalues,
        # which the record keeps, are computed only at a mu that passes both
        if np.min(np.diagonal(sym, axis1=-2, axis2=-1)) > 0.0:
            try:
                np.linalg.cholesky(sym)
            except np.linalg.LinAlgError:
                pass
            else:
                min_eig = float(np.min(np.linalg.eigvalsh(sym)))
                if min_eig > 0.0:
                    break
        mu *= 2.0
        doublings += 1
        if mu > mu_cap:
            min_eig = float(np.min(np.linalg.eigvalsh(sym)))
            raise InfeasibleParams(
                f"no mu <= {mu_cap:.1e} certifies fiber convexity (min eig {min_eig:.3e})")
    params = ModificationParams(T, lam, mu, K, C, phi, psi,
                                min_L1T=min_L1T, convexity_min_eig=min_eig,
                                mu_doublings=doublings)
    return _modified_spec(L_theta, lam, phi, psi, T), params


def _core_parts(L: LagrangianSpec, lam: float, T: float, t, q, v):
    """(v, L, L / lam, |v|^2, mask of the core where L_T returns L verbatim)."""
    v = np.asarray(v, dtype=float)
    base = np.asarray(L.value(t, q, v))
    s = base / lam
    w = np.sum(v * v, axis=-1)
    exact = (s <= 1.0) & (w <= T * T)
    return v, base, s, w, exact


def _fiber_hessian_fixed(L: LagrangianSpec, lam: float, phi: SmoothCap, T: float,
                         t, q, v):
    """The mu-independent part of the fiber Hessian of L_T at (t, q, v).

    Returns (v, |v|^2, core mask, L_vv, phi' L_vv + (phi'' / lam) L_v L_v^T),
    which _fiber_hessian completes with the psi terms.
    """
    v, _, s, w, exact = _core_parts(L, lam, T, t, q, v)
    gv = np.asarray(L.grad_v(t, q, v))
    hvv = np.asarray(L.hess_vv(t, q, v))
    cap = (phi.d1(s)[..., None, None] * hvv
           + (phi.d2(s) / lam)[..., None, None] * (gv[..., :, None] * gv[..., None, :]))
    return v, w, exact, hvv, cap


def _fiber_hessian(fixed, psi: QuinticRamp):
    """L_T's fiber Hessian from _fiber_hessian_fixed's parts and the ramp psi."""
    v, w, exact, hvv, cap = fixed
    generic = (cap
               + 2.0 * psi.d1(w)[..., None, None] * np.eye(v.shape[-1])
               + 4.0 * psi.d2(w)[..., None, None] * (v[..., :, None] * v[..., None, :]))
    return np.where(exact[..., None, None], hvv, generic)


def _modified_spec(L: LagrangianSpec, lam: float, phi: SmoothCap,
                   psi: QuinticRamp, T: float) -> LagrangianSpec:
    """L_T = lam phi(L / lam) + psi(|v|^2), exact passthrough in the core."""

    def parts(t, q, v):
        return _core_parts(L, lam, T, t, q, v)

    def value(t, q, v):
        v, base, s, w, exact = parts(t, q, v)
        return np.where(exact, base, lam * phi.value(s) + psi.value(w))

    def grad_q(t, q, v):
        v, base, s, w, exact = parts(t, q, v)
        gq = np.asarray(L.grad_q(t, q, v))
        return np.where(exact[..., None], gq, phi.d1(s)[..., None] * gq)

    def grad_v(t, q, v):
        v, base, s, w, exact = parts(t, q, v)
        gv = np.asarray(L.grad_v(t, q, v))
        generic = phi.d1(s)[..., None] * gv + 2.0 * psi.d1(w)[..., None] * v
        return np.where(exact[..., None], gv, generic)

    def hess_vv(t, q, v):
        return _fiber_hessian(_fiber_hessian_fixed(L, lam, phi, T, t, q, v), psi)

    def hess_qv(t, q, v):
        v, base, s, w, exact = parts(t, q, v)
        gq = np.asarray(L.grad_q(t, q, v))
        gv = np.asarray(L.grad_v(t, q, v))
        hqv = np.asarray(L.hess_qv(t, q, v))
        generic = (phi.d1(s)[..., None, None] * hqv
                   + (phi.d2(s) / lam)[..., None, None] * (gq[..., :, None] * gv[..., None, :]))
        return np.where(exact[..., None, None], hqv, generic)

    def hess_qq(t, q, v):
        v, base, s, w, exact = parts(t, q, v)
        gq = np.asarray(L.grad_q(t, q, v))
        hqq = np.asarray(L.hess_qq(t, q, v))
        generic = (phi.d1(s)[..., None, None] * hqq
                   + (phi.d2(s) / lam)[..., None, None] * (gq[..., :, None] * gq[..., None, :]))
        return np.where(exact[..., None, None], hqq, generic)

    return LagrangianSpec(L.torus, value, grad_q, grad_v, hess_vv, hess_qv, hess_qq,
                          reversible=L.reversible, name=f"mod[T={T}]({L.name})")


def check_quadratic_growth(L: LagrangianSpec, v_ref: float = 10.0,
                           v_hi: float = 40.0, rng=None) -> dict:
    """Sampled convex quadratic-growth certificate.

    The ladder is 16 seeded base points, 6 directions and 41 radii up to
    v_hi.  l1 is the least fiber-Hessian eigenvalue on the whole ladder; l2 is
    calibrated on |v| <= v_ref and the three bounds |L_vv| <= l2,
    |L_qv| <= l2 (1 + |v|), |L_qq| <= l2 (1 + |v|^2) are then verified out to
    |v| = v_hi.  A failure returns the witnessing sample.
    """
    rng = np.random.default_rng(0 if rng is None else rng)
    tt, qq, vv = _sample_grid(L, v_hi, 16, 41, 6, 4, rng)
    speed = np.linalg.norm(vv, axis=-1)
    hvv = np.asarray(L.hess_vv(tt, qq, vv))
    hqv = np.asarray(L.hess_qv(tt, qq, vv))
    hqq = np.asarray(L.hess_qq(tt, qq, vv))
    l1 = float(np.min(np.linalg.eigvalsh(0.5 * (hvv + np.swapaxes(hvv, -1, -2)))))
    nvv = np.linalg.norm(hvv, axis=(-2, -1))
    nqv = np.linalg.norm(hqv, axis=(-2, -1)) / (1.0 + speed)
    nqq = np.linalg.norm(hqq, axis=(-2, -1)) / (1.0 + speed ** 2)
    ref = speed <= v_ref
    l2 = float(max(np.max(nvv[ref]), np.max(nqv[ref]), np.max(nqq[ref]))) * 1.05
    report = {"l1": l1, "l2": l2, "positive_definite": l1 > 0.0, "passed": True,
              "witness": None}
    for name, vals in (("L_vv", nvv), ("L_qv", nqv), ("L_qq", nqq)):
        bad = np.where(vals > l2)[0]
        if bad.size:
            j = int(bad[np.argmax(vals[bad])])
            report["passed"] = False
            report["witness"] = {
                "bound": name, "value": float(vals[j]), "l2": l2,
                "t": float(tt[j]), "q": qq[j].tolist(), "v": vv[j].tolist(),
                "speed": float(speed[j]),
            }
            break
    report["passed"] = report["passed"] and l1 > 0.0
    return report


def verify_orbit_preservation(L_theta: LagrangianSpec, L_T: LagrangianSpec,
                              loop: SymmetricLoop, T: float) -> dict:
    """Critical loops slower than T stay critical for L_T with equal action:
    a W^{1,2} gradient norm below 1e-10 and the very same mean action."""
    speed = loop.max_speed()
    if speed >= T:
        raise SpeedTooHigh(f"orbit speed {speed:.3g} >= T = {T:.3g}")
    grad_T = gradient_norm_w12(L_T, loop)
    ea = mean_action(L_theta, loop)
    ea_T = mean_action(L_T, loop)
    return {
        "max_speed": speed,
        "gradient_norm_T": grad_T,
        "action": ea,
        "action_T": ea_T,
        "action_delta": abs(ea - ea_T),
        "preserved": grad_T < 1e-10 and ea == ea_T,
    }


def hessian_T_independence(L_theta: LagrangianSpec, loop: SymmetricLoop,
                           T1: float, T2: float, constants: tuple) -> dict:
    """Max entry deviation of the discretized k = 1 action Hessians under two T's.

    constants is the (K, C) pair both modifications are built with.
    Along an orbit slower than min(T1, T2) the modified integrands coincide
    exactly, so the assembled matrices agree to round-off and index pairs
    transfer verbatim.
    """
    speed = loop.max_speed()
    if speed >= min(T1, T2):
        raise SpeedTooHigh(f"orbit speed {speed:.3g} >= min(T1, T2)")
    ops = {}
    pairs = {}
    for T in (T1, T2):
        spec, _ = build_modification(L_theta, T, constants)
        full, even = morse_index(spec, loop)
        pairs[T] = {"full": full, "even": even}
        # the operators morse_index counts on, to the bit
        H = assemble_hessian(spec, loop)
        ops[T] = (H, H.even_fold())
    # the blocks hold every nonzero entry of the assembled matrices
    deviation = max(float(np.max(np.abs(getattr(a, part) - getattr(b, part))))
                    for a, b in zip(ops[T1], ops[T2]) for part in ("diag", "upper"))
    return {"max_entry_deviation": deviation,
            "index_pairs": {str(T): pairs[T] for T in (T1, T2)},
            "index_pairs_equal": pairs[T1] == pairs[T2]}


def speed_bound_report(orbits, alpha: float, m: int) -> dict:
    """Empirical a-priori speed table: T~(alpha, m) = max speed over the batch.

    orbits: iterables of dicts carrying mean_action, period, max_speed.  Only
    entries with action <= alpha and period <= m count.
    """
    rows = []
    for rec in orbits:
        if rec["mean_action"] <= alpha and rec["period"] <= m:
            rows.append({"period": rec["period"], "mean_action": rec["mean_action"],
                         "max_speed": rec["max_speed"]})
    t_tilde = max((r["max_speed"] for r in rows), default=0.0)
    return {"alpha": alpha, "m": m, "rows": rows, "T_tilde": t_tilde}
