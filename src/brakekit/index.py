"""Morse indices, Conley-Zehnder and L0 Maslov-type indices, and their identities.

The linearization along an orbit gives coefficient matrices P = L_vv,
Q = L_qv, R = L_qq, the linear Hamiltonian system udot = J B(t) u with
u = (momentum, position) and

    B = [[P^-1, -P^-1 Q^T], [-Q P^-1, Q P^-1 Q^T - R]],

and its fundamental solution Psi(0) = I.  Index counting follows the
crossing-form picture: crossings are instants where Psi(t) leaves a fixed
reference position (the identity for the periodic theory, the vertical
Lagrangian L0 = {(0, y)} for the brake theory), the crossing form is the
restriction of B(t) to the degenerate directions, and degeneracy is broken
by the monotone perturbation B -> B - eps I, whose counts realize the
lower-semicontinuous (left-limit) convention.  The L0 count runs over the
half window (0, k tau / 2], where the even variational problem lives, and
its additive normalization -N/2 at the start is calibrated, not assumed:
the anchor tests pin it through the Morse index identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq, minimize_scalar

from .errors import BlowUp, IllConditionedCrossing, SingularP
from .loopspace import (
    BlockTridiagonal,
    SymmetricLoop,
    _coefficients_along,
    assemble_gram,
    assemble_hessian,
)
from .model import LagrangianSpec

__all__ = [
    "LinearizedCoefficients",
    "SymplecticPath",
    "IndexPair",
    "linearize",
    "assemble_B",
    "fundamental_solution",
    "morse_index",
    "fourier_morse_index",
    "cz_index",
    "l0_index",
    "mean_index",
    "verify_relations",
    "constant_coefficients",
]


@dataclass
class LinearizedCoefficients:
    """P, Q, R sampled on the loop grid over one period, plus a smooth builder."""

    times: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    period: float
    symmetry_residuals: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.P.shape[-1]

    def B_callable(self, B_nodes: Optional[np.ndarray] = None) -> Callable[[float], np.ndarray]:
        """Periodic cubic interpolation of B(t); exact for constant coefficients.

        B_nodes, when given, is assemble_B(self), which is then not redone.
        """
        B = assemble_B(self) if B_nodes is None else B_nodes
        if np.max(np.abs(B - B[0])) < 1e-14:
            return constant_coefficients(B[0].copy())
        ts = np.append(self.times, self.period)
        Bx = np.concatenate([B, B[:1]])
        spline = CubicSpline(ts, Bx, bc_type="periodic", axis=0)

        def evaluate(t):
            return spline(np.mod(t, self.period))

        return evaluate


@dataclass(frozen=True)
class IndexPair:
    index: int
    nullity: int

    def as_tuple(self):
        return (self.index, self.nullity)


@dataclass
class SymplecticPath:
    """Sampled fundamental solution of udot = J B(t) u with Psi(0) = I."""

    N: int
    period: float
    total_time: float
    dense: Callable
    B: Callable
    symplecticity_defect: float

    def at(self, t):
        """Psi(t); a 1-D array of times gives shape (len(t), 2N, 2N)."""
        out = self.dense(np.asarray(t, dtype=float))
        return out.T.reshape(np.shape(t) + (2 * self.N, 2 * self.N))


def _J(n):
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def linearize(L: LagrangianSpec, loop: SymmetricLoop) -> LinearizedCoefficients:
    """Second partials of L along the lifted curve, in the global flat chart."""
    _, ts, P, Q, R = _coefficients_along(L, loop)
    # brake symmetry pattern: P(-t) = P(t), Q(-t) = -Q(t), R(-t) = R(t)
    rev = lambda A: A[np.r_[0, np.arange(len(ts) - 1, 0, -1)]]
    residuals = {
        "P_even": float(np.max(np.abs(rev(P) - P))),
        "Q_odd": float(np.max(np.abs(rev(Q) + Q))),
        "R_even": float(np.max(np.abs(rev(R) - R))),
    }
    return LinearizedCoefficients(ts, P, Q, R, float(loop.period), residuals)


def assemble_B(coeffs: LinearizedCoefficients) -> np.ndarray:
    """B(t) samples for the linear system udot = J B(t) u, u = (momentum, position)."""
    P, Q, R = coeffs.P, coeffs.Q, coeffs.R
    n = coeffs.dim
    conds = np.linalg.cond(P)
    if np.any(~np.isfinite(conds)) or np.max(conds) > 1e12:
        raise SingularP("P(t) is numerically singular at a grid node")
    Pinv = np.linalg.inv(P)
    QT = np.swapaxes(Q, -1, -2)
    top_right = -Pinv @ QT
    bottom_left = -Q @ Pinv
    bottom_right = Q @ Pinv @ QT - R
    M = P.shape[0]
    B = np.zeros((M, 2 * n, 2 * n))
    B[:, :n, :n] = Pinv
    B[:, :n, n:] = top_right
    B[:, n:, :n] = bottom_left
    B[:, n:, n:] = bottom_right
    return 0.5 * (B + np.swapaxes(B, -1, -2))


def constant_coefficients(B: np.ndarray) -> Callable:
    """B(t) provider for a constant symmetric matrix (test paths)."""
    B = np.asarray(B, dtype=float)

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return B
        return np.broadcast_to(B, t.shape + B.shape)

    return evaluate


def fundamental_solution(B_fn: Callable, total_time: float, tol: float = 1e-11,
                         period: float = 1.0) -> SymplecticPath:
    """Integrate Psidot = J B(t) Psi columnwise from Psi(0) = I.

    B_fn maps t to the (2N, 2N) matrix B(t).  The path is integrated over
    [0, total_time] directly rather than by monodromy powers, keeping
    symplecticity defects bounded; the defect is sampled at 257 nodes.
    """
    two_n = np.asarray(B_fn(0.0)).shape[0]
    J = _J(two_n // 2)

    def rhs(t, y):
        Psi = y.reshape(two_n, two_n)
        return (J @ B_fn(t) @ Psi).ravel()

    sol = solve_ivp(rhs, (0.0, total_time), np.eye(two_n).ravel(), method="DOP853",
                    rtol=tol, atol=tol, dense_output=True)
    if not sol.success:
        raise BlowUp(f"fundamental solution integration failed: {sol.message}")
    path = SymplecticPath(two_n // 2, period, total_time, sol.sol, B_fn, 0.0)
    mats = path.at(np.linspace(0.0, total_time, 257))
    # defect relative to |Psi|^2: hyperbolic paths grow exponentially and an
    # absolute bound would be dominated by float rounding alone
    raw = np.max(np.abs(np.swapaxes(mats, -1, -2) @ J @ mats - J), axis=(1, 2))
    scl = 1.0 + np.max(np.abs(mats), axis=(1, 2)) ** 2
    path.symplecticity_defect = float(np.max(raw / scl))
    return path


# ---------------------------------------------------------------------------
# Morse side
# ---------------------------------------------------------------------------

def _negative_count(A: BlockTridiagonal) -> int:
    """Number of strictly negative eigenvalues, from the operator's lower band."""
    ev = scipy.linalg.eig_banded(A.lower_band(), lower=True, eigvals_only=True,
                                 select="v", select_range=(-np.inf, 0.0))
    return int(np.sum(ev < 0.0))


def _hessian_scale(L: LagrangianSpec, loop: SymmetricLoop, k: int) -> float:
    """Upper estimate of the largest |generalized eigenvalue| of (Hess, Gram)."""
    _, _, P, Q, R = _coefficients_along(L, loop, k)
    norms = (np.linalg.norm(P, 2, axis=(1, 2)) + np.linalg.norm(R, 2, axis=(1, 2))
             + 2.0 * np.linalg.norm(Q, 2, axis=(1, 2)))
    return float(np.mean(norms)) / (k * loop.period)


def morse_index(L: LagrangianSpec, loop: SymmetricLoop, k: int = 1,
                symmetric: bool = False) -> IndexPair:
    """Morse index and nullity of the discretized action Hessian at the k-iterate.

    Counts of generalized eigenvalues of (Hessian, W^{1,2} Gram) below -eps_n
    and inside [-eps_n, eps_n] with eps_n = 100 h^2 scale, tracking
    the O(h^2) discretization error of the quadratic form.  Since the Gram is
    positive definite, the counts are Sylvester inertias of H + eps G and
    H - eps G, counted on their block-tridiagonal bands.
    """
    subspace = "even" if symmetric else "full"
    H = assemble_hessian(L, loop, k=k, subspace=subspace)
    G = assemble_gram(loop, k=k, subspace=subspace)
    h = loop.h
    eps = 100.0 * h * h * _hessian_scale(L, loop, k)
    neg = _negative_count(H + eps * G)
    below = _negative_count(H - eps * G)
    return IndexPair(neg, below - neg)


def fourier_morse_index(P, Q, R, k: int = 1, period: int = 1,
                        symmetric: bool = False, tol: float = 1e-9,
                        max_modes: int = 100000) -> IndexPair:
    """Closed-form Morse counts for constant coefficients via Fourier modes.

    Full space: mode 0 contributes eig(R); each j >= 1 contributes the block
    [[K, wA],[wA^T, K]]/1 with K = w^2 P + R, A = Q - Q^T, w = 2 pi j / (k m).
    Even subspace: cosine modes only, blocks K alone.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n = P.shape[0]
    tau = k * period
    neg = int(np.sum(np.linalg.eigvalsh(R) < -tol))
    null = int(np.sum(np.abs(np.linalg.eigvalsh(R)) <= tol))
    A = Q - Q.T
    pmin = float(np.min(np.linalg.eigvalsh(P)))
    j = 1
    while j < max_modes:
        w = 2.0 * np.pi * j / tau
        if w * w * pmin > np.linalg.norm(R, 2) + 2.0 * w * np.linalg.norm(Q, 2) + 1.0:
            break
        K = w * w * P + R
        if symmetric:
            ev = np.linalg.eigvalsh(K)
        else:
            M = np.block([[K, w * A], [w * A.T, K]])
            ev = np.linalg.eigvalsh(M)
        neg += int(np.sum(ev < -tol))
        null += int(np.sum(np.abs(ev) <= tol))
        j += 1
    return IndexPair(neg, null)


# ---------------------------------------------------------------------------
# crossing engine
# ---------------------------------------------------------------------------

def _signed_counts(ev, tol):
    pos = int(np.sum(ev > tol))
    neg = int(np.sum(ev < -tol))
    zero = len(ev) - pos - neg
    return pos, neg, zero


def _initial_contribution(B_fn, N, mode):
    """Half-signature of B(0) on the reference space, left-limit convention.

    Zero eigenvalues count as negative: under the monotone perturbation
    B -> B - eps I they leave through the negative side, which is the
    lower-semicontinuous value the Morse identities require.
    """
    B0 = np.asarray(B_fn(0.0))
    # the crossing-form tolerance of _kernel_form, at t = 0
    tol = 1e-7 * (1.0 + float(np.max(np.abs(B0))))
    if mode == "cz":
        ev = np.linalg.eigvalsh(0.5 * (B0 + B0.T))
        pos, neg, zero = _signed_counts(ev, tol)
        return 0.5 * (pos - neg - zero)
    D = B0[N:, N:]
    ev = np.linalg.eigvalsh(0.5 * (D + D.T))
    pos, neg, zero = _signed_counts(ev, tol)
    return 0.5 * ((pos - neg - zero) - N)


# relative width of the zone before a window end: crossings inside it belong
# to the endpoint, so they enter the nullity and not the index
_ZONE_REL = 2e-3


class _CrossingEngine:
    """Crossing bookkeeping for i(Psi, k) and i_L0(Psi, k), many k at once.

    All quantities come from the unperturbed path.  A single degeneracy scale
    deg_tol (relative to the local matrix norm) decides what counts as a
    crossing or a kernel direction; for paths linearized along discretized
    orbits the caller passes a deg_tol tracking the O(h^2) coefficient error,
    mirroring the null threshold of the Morse side.  Contributions follow the
    crossing-form signature with the left-limit rule for degenerate form
    directions: at a sign-definite touch they contribute nothing, at a
    transversal sign change they are unresolvable and raise.
    """

    def __init__(self, B_fn, period, k_max, deg_tol=1e-6):
        self.B_fn = B_fn
        self.period = period
        self.k_max = k_max
        probe = np.linspace(0.0, period, 33)
        norms = [np.linalg.norm(np.asarray(B_fn(t)), 2) for t in probe]
        self.b_scale = float(np.mean(norms))
        self.deg_tol = deg_tol
        self.total = k_max * period * (1.0 + 2.0 * _ZONE_REL) + 1e-6
        samples_per_unit = 160.0 * (1.0 + 0.5 * self.b_scale)
        self.n_scan = int(min(max(800, samples_per_unit * self.total), 120000))
        self.guard = min(0.02 * period, 0.2 / (1.0 + self.b_scale))
        self.path = fundamental_solution(B_fn, self.total, period=period)
        self.N = self.path.N
        self._events = {}
        self._plateau = {}

    # -- path evaluation helpers -------------------------------------------
    def _window(self, mode, k):
        return k * self.period if mode == "cz" else 0.5 * k * self.period

    def _target(self, t, mode):
        """Crossing target and Psi at t (or an array of times).

        The target is Psi - I for the periodic count and the block S12 for
        the L0 count; it is singular exactly at the crossings.
        """
        M = self.path.at(t)
        n = self.N
        return (M - np.eye(2 * n) if mode == "cz" else M[..., :n, n:]), M

    def _crossing_det(self, tgt, mats, mode):
        """det of the crossing target, in a cancellation-free form when possible.

        For Sp(2), det(Psi - I) = 2 - tr(Psi): the product form loses all
        precision on hyperbolic stretches where the entries explode, while the
        trace stays exact in the leading digits.
        """
        if mode == "cz" and self.N == 1:
            return 2.0 - np.trace(mats, axis1=-2, axis2=-1)
        return np.linalg.det(tgt)

    def _kernel_form(self, t, M, ker, mode):
        """Eigenvalues of the crossing form on the kernel ker at t, and their tolerance."""
        B_here = np.asarray(self.B_fn(t))
        if mode == "cz":
            Gamma = ker.T @ B_here @ ker
        else:
            W, _ = np.linalg.qr(M[self.N:, self.N:] @ ker)
            Gamma = W.T @ B_here[self.N:, self.N:] @ W
        ev = np.linalg.eigvalsh(0.5 * (Gamma + Gamma.T))
        return ev, 1e-7 * (1.0 + float(np.max(np.abs(B_here))))

    def _scan_arrays(self, mode):
        ts = np.linspace(self.guard, self.total, self.n_scan)
        tgt, mats = self._target(ts, mode)
        sv = np.linalg.svd(tgt, compute_uv=False)
        scale = 1.0 + sv[:, 0]
        g = sv[:, -1] / scale
        dets = self._crossing_det(tgt, mats, mode)
        return ts, g, sv[:, -1], dets

    def _classify(self, t_star, mode, det_before, det_after, nb_times):
        tgt, M = self._target(t_star, mode)
        u, s, vt = np.linalg.svd(tgt)
        scale = 1.0 + s[0]
        ker_tol = np.full_like(s, max(self.deg_tol * scale, 10.0 * s[-1]))
        # a singular value belongs to the kernel when it dips far below its
        # own size at the bracket edges; this keeps the count right when
        # the integration noise floor exceeds the nominal tolerance
        s_nb = np.max([np.linalg.svd(self._target(tn, mode)[0], compute_uv=False)
                       for tn in nb_times], axis=0)
        ker_tol = np.maximum(ker_tol, 0.05 * s_nb)
        ker = vt[s < ker_tol].T
        if ker.shape[1] == 0:
            ker = vt[-1:].T
        ev, form_tol = self._kernel_form(t_star, M, ker, mode)
        pos, neg, zero = _signed_counts(ev, form_tol)
        if zero:
            if det_before * det_after < 0:
                raise IllConditionedCrossing(
                    f"sign-changing crossing with singular form at t = {t_star:.6g} "
                    f"(mode {mode})")
            # definite-side touch: degenerate directions resolve off zero and
            # contribute nothing in the left limit
        return pos - neg, ker.shape[1]

    def events(self, mode):
        """Sorted (t, contribution) crossings over (guard, total)."""
        if mode in self._events:
            return self._events[mode]
        ts, g, g_abs, dets = self._scan_arrays(mode)
        # a plateau means the target is singular along whole segments; this is
        # an absolute statement (hyperbolic paths drive the relative smallest
        # singular value into the noise floor with no degeneracy at all)
        plateau = float(np.mean(g_abs < 1e-7)) > 0.3
        self._plateau[mode] = plateau
        events = []
        if plateau:
            # entire path degenerate (free-particle type): the kernel forms
            # must be sign-definite <= 0 after the left limit, contributing 0
            for t_probe in np.linspace(self.guard, self.total, 7):
                tgt, M = self._target(t_probe, mode)
                u, s, vt = np.linalg.svd(tgt)
                scale = 1.0 + s[0]
                ker = vt[s / scale < self.deg_tol].T
                if ker.shape[1] == 0:
                    continue
                ev, form_tol = self._kernel_form(t_probe, M, ker, mode)
                if np.any(ev > form_tol):
                    raise IllConditionedCrossing(
                        f"degenerate path segment with positive crossing form "
                        f"(mode {mode}, t = {t_probe:.4g})")
            self._events[mode] = []
            return self._events[mode]

        width = ts[1] - ts[0]
        candidates = []
        # transversal crossings: sign changes of the target determinant
        flips = np.where(np.sign(dets[:-1]) * np.sign(dets[1:]) < 0)[0]
        for i in flips:
            candidates.append((ts[i], ts[i + 1], None, None))
        # touches: local minima of the normalized smallest singular value; the
        # candidate gate is loose (the scan rarely lands near the touch), the
        # refined minimum is then held to deg_tol.  The contrast test against
        # nearby samples filters noise-floor wiggles of hyperbolic paths.
        cand_tol = max(20.0 * self.deg_tol, 4.0 * width * (1.0 + self.b_scale))
        interior = (g[1:-1] <= g[:-2]) & (g[1:-1] <= g[2:]) & (g[1:-1] < cand_tol)
        for i in np.where(interior)[0] + 1:
            lo_n, hi_n = max(i - 3, 0), min(i + 3, len(g) - 1)
            if g[i] > 0.3 * min(g[lo_n], g[hi_n]):
                continue
            candidates.append((ts[i - 1], ts[i + 1], g[lo_n], g[hi_n]))

        def sv_objective(t):
            s = np.linalg.svd(self._target(t, mode)[0], compute_uv=False)
            return float(s[-1] / (1.0 + s[0]))

        def sv_absolute(t):
            return float(np.linalg.svd(self._target(t, mode)[0], compute_uv=False)[-1])

        def det_objective(t):
            tgt, M = self._target(t, mode)
            return float(self._crossing_det(tgt[None], M[None], mode)[0])

        located = []
        for lo, hi, g_lo, g_hi in candidates:
            d_lo, d_hi = det_objective(lo), det_objective(hi)
            if d_lo * d_hi < 0:
                t_star = float(brentq(det_objective, lo, hi, xtol=1e-13 * self.total))
            else:
                res = minimize_scalar(sv_objective, bounds=(lo, hi), method="bounded",
                                      options={"xatol": 1e-13 * max(self.total, 1.0)})
                t_star = float(res.x)
                accept = min(self.deg_tol, 0.05 * max(g_lo, g_hi)) \
                    if g_lo is not None else self.deg_tol
                if float(res.fun) > accept:
                    continue
                # a fixed vector of a touch has unit scale, so the residual
                # must be small in absolute terms as well; exploding paths
                # drive the relative value into the noise floor without any
                # degeneracy
                if sv_absolute(t_star) > 10.0 * self.deg_tol:
                    continue
            if any(abs(t_star - t0) < 5e-9 * self.total for t0, _, _ in located):
                continue
            sig, kdim = self._classify(t_star, mode,
                                       det_objective(max(t_star - width, self.guard)),
                                       det_objective(t_star + width),
                                       nb_times=(lo, hi))
            located.append((t_star, sig, kdim))
        located.sort()
        self._events[mode] = located
        return located

    def index(self, mode, k):
        window = self._window(mode, k)
        zone = _ZONE_REL * window
        init = _initial_contribution(self.B_fn, self.N, mode)
        evs = self.events(mode)
        total = init + sum(s for t, s, _ in evs if t <= window - zone)
        if abs(total - round(total)) > 1e-9:
            raise IllConditionedCrossing(f"non-integer index {total} (mode {mode}, k={k})")
        return int(round(total))

    def nullity(self, mode, k):
        """Kernel dimension at the window end, read off the crossing events.

        A hyperbolic path makes sigma_min(Psi - I) small relative to the
        exploding matrix norm without any genuine degeneracy; only an actual
        crossing event inside the endpoint zone certifies a kernel.
        """
        window = self._window(mode, k)
        evs = self.events(mode)
        if self._plateau.get(mode):
            s = np.linalg.svd(self._target(window, mode)[0], compute_uv=False)
            return int(np.sum(s / (1.0 + s[0]) < self.deg_tol))
        zone = _ZONE_REL * window
        near = [kdim for t, _, kdim in evs if abs(t - window) <= zone]
        return max(near) if near else 0


def _path_pair(path: SymplecticPath, k: Optional[int], mode: str) -> IndexPair:
    """Index pair of the path in the given mode, from an engine covering its window."""
    if path.symplecticity_defect > 1e-8:
        raise ValueError(f"path symplecticity defect {path.symplecticity_defect:.2e}")
    if k is None:
        k = int(round(path.total_time / path.period))
    k_needed = max(1, int(np.ceil(path.total_time / path.period)))
    eng = _CrossingEngine(path.B, path.period, max(k_needed, k))
    return IndexPair(eng.index(mode, k), eng.nullity(mode, k))


def cz_index(path: SymplecticPath, k: Optional[int] = None) -> IndexPair:
    """Conley-Zehnder/Long index pair of the path over [0, k * period].

    Defaults to the path's own window.  Degenerate endpoints follow the
    left-limit convention: their crossings are excluded from the count and
    recorded in the nullity instead.
    """
    return _path_pair(path, k, "cz")


def l0_index(path: SymplecticPath, k: Optional[int] = None) -> IndexPair:
    """Maslov-type L0-index pair over the brake half window (0, k * period / 2].

    Crossings are the zeros of det S12(t); the sign convention and the -N/2
    normalization at t = 0 are the calibrated ones, pinned by the identity
    m^-(EA^{[k]}) = i_L0 + N in the anchor tests.
    """
    return _path_pair(path, k, "l0")


def mean_index(B, period: float = 1.0, k_max: int = 64, deg_tol: float = 1e-6) -> dict:
    """Mean indices by least-squares slope of i(Psi, k) over k in {1, 2, 4, ...}.

    B is a callable t -> B(t), or a crossing engine already built over the
    path, whose period and deg_tol then apply.
    Returns ihat, ihat_L0, the per-k values, and slope uncertainties from the
    fit residuals.
    """
    ks = []
    k = 1
    while k <= k_max:
        ks.append(k)
        k *= 2
    if isinstance(B, _CrossingEngine):
        eng = B
        if eng.k_max < ks[-1]:
            raise ValueError(f"engine horizon {eng.k_max} is short of k = {ks[-1]}")
    else:
        eng = _CrossingEngine(B, period, ks[-1], deg_tol=deg_tol)
    i_vals = np.array([eng.index("cz", kk) for kk in ks], dtype=float)
    l_vals = np.array([eng.index("l0", kk) for kk in ks], dtype=float)
    karr = np.array(ks, dtype=float)

    def slope(vals):
        A = np.vstack([karr, np.ones_like(karr)]).T
        coef, res, *_ = np.linalg.lstsq(A, vals, rcond=None)
        resid = vals - A @ coef
        dof = max(len(karr) - 2, 1)
        sigma = float(np.sqrt(np.sum(resid ** 2) / dof / np.sum((karr - karr.mean()) ** 2)))
        return float(coef[0]), sigma

    ihat, ihat_err = slope(i_vals)
    lhat, lhat_err = slope(l_vals)
    return {
        "ks": ks,
        "i": i_vals.astype(int).tolist(),
        "i_L0": l_vals.astype(int).tolist(),
        "ihat": ihat,
        "ihat_uncertainty": ihat_err,
        "ihat_L0": lhat,
        "ihat_L0_uncertainty": lhat_err,
    }


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------

def _stabilized_morse(L, loop, k, symmetric):
    """Morse pair accepted once two successive grid doublings agree.

    At most two doublings, and none that would pass 9000 degrees of freedom.
    """
    from .loopspace import refine

    current = loop
    pair = morse_index(L, current, k=k, symmetric=symmetric)
    for _ in range(2):
        if current.n * 2 * k * current.dim > 9000:
            break
        finer = refine(current)
        pair_f = morse_index(L, finer, k=k, symmetric=symmetric)
        if pair_f == pair:
            return pair_f, True
        current, pair = finer, pair_f
    return pair, False


def verify_relations(L: LagrangianSpec, loop: SymmetricLoop, ks=(1, 2, 4),
                     mean_k_max: int = 32) -> dict:
    """Check the index identities and inequalities at the given iterates.

    Per k: (m^-(A), m^0(A)) = (i, nu), (m^-(EA), m^0(EA)) = (i_L0 + N, nu_L0),
    the monotonicity inequalities, the iteration bound
    i + nu <= k ihat + N (within the slope-fit uncertainty), and, when the
    mean index vanishes, m^-(EA) + m^0(EA) <= N.

    Loops finer than 256 samples per unit period are coarsened first; high
    iterates on very fine grids cost cubically.
    """
    from .loopspace import coarsen

    while loop.n > 256 * loop.period and (loop.n // 2) % 2 == 0:
        loop = coarsen(loop)
    coeffs = linearize(L, loop)
    N = coeffs.dim
    # degeneracy scale for orbit-derived paths: the coefficients carry the
    # O(h^2) bias of the discrete orbit, amplified by the coefficient size;
    # this mirrors the eps_n null threshold on the Morse side
    B_nodes = assemble_B(coeffs)
    b_scale = float(np.mean(np.linalg.norm(B_nodes, 2, axis=(1, 2))))
    constant_B = float(np.max(np.abs(B_nodes - B_nodes[0]))) < 1e-12
    h = loop.h
    deg = 1e-6 if constant_B else min(0.05, max(1e-6, 50.0 * h * h * (1.0 + b_scale)))
    # one engine for the per-k pairs and the mean index
    eng = _CrossingEngine(coeffs.B_callable(B_nodes), coeffs.period, max(max(ks), mean_k_max),
                          deg_tol=deg)
    mi = mean_index(eng, k_max=mean_k_max)
    ihat = mi["ihat"]
    ihat_unc = max(mi["ihat_uncertainty"], 1e-9)

    report = {"ks": list(ks), "mean_index": mi, "per_k": {}, "all_pass": True,
              "symmetry_residuals": coeffs.symmetry_residuals}
    for k in ks:
        full, st_f = _stabilized_morse(L, loop, k, symmetric=False)
        even, st_e = _stabilized_morse(L, loop, k, symmetric=True)
        i_k = eng.index("cz", k)
        nu_k = eng.nullity("cz", k)
        il_k = eng.index("l0", k)
        nul_k = eng.nullity("l0", k)
        checks = {
            "morse_full_equals_cz": full.as_tuple() == (i_k, nu_k),
            "morse_even_equals_l0_plus_N": even.as_tuple() == (il_k + N, nul_k),
            "0_le_even_le_full_index": 0 <= even.index <= full.index,
            "even_nullity_le_full": even.nullity <= full.nullity,
            "full_nullity_le_2N": full.nullity <= 2 * N,
            "iteration_bound": i_k + nu_k
            <= k * (ihat + 3 * ihat_unc) + N + 1e-9,
            "grid_stable": st_f and st_e,
        }
        if abs(ihat) <= max(3 * ihat_unc, 1e-6):
            checks["zero_mean_index_bound"] = even.index + even.nullity <= N
        report["per_k"][k] = {
            "morse_full": full.as_tuple(),
            "morse_even": even.as_tuple(),
            "cz": (i_k, nu_k),
            "l0": (il_k, nul_k),
            "checks": checks,
        }
        report["all_pass"] &= all(checks.values())
    return report
