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

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Tuple

import numpy as np

from .cubic import cubic_spline
from .errors import BlowUp, IllConditionedCrossing, NonConvergence, NonSymplectic, SingularP
from .loopspace import (
    BlockTridiagonal,
    SymmetricLoop,
    assemble_gram,
    assemble_hessian,
    coarsen,
    coefficients_along,
    refine,
)
from .model import LagrangianSpec
from .ode import TOO_SMALL_STEP, dop853

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
    """P, Q, R and the B they assemble to, sampled on the loop grid over one
    period, plus a smooth builder."""

    times: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    B: np.ndarray
    period: float
    symmetry_residuals: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.P.shape[-1]

    def B_callable(self) -> Callable[[float], np.ndarray]:
        """Periodic cubic interpolation of B(t); exact for constant coefficients."""
        B = self.B
        if np.max(np.abs(B - B[0])) < 1e-14:
            return constant_coefficients(B[0].copy())
        ts = np.append(self.times, self.period)
        Bx = np.concatenate([B, B[:1]])
        spline = cubic_spline(ts, Bx, periodic=True)

        def evaluate(t):
            return spline(np.mod(t, self.period), 0)

        return evaluate


class IndexPair(NamedTuple):
    """(index, nullity) of a Morse form or a symplectic path."""

    index: int
    nullity: int

    # printed as the plain tuple, so report lines read (i, nu)
    __repr__ = tuple.__repr__


@dataclass
class SymplecticPath:
    """Fundamental solution of udot = J B(t) u with Psi(0) = I, for a
    tau-periodic B: one period of dense output and the monodromy powers.

    Psi(t + j tau) = Psi(t) M^j with M = Psi(tau), so the path at t is the
    one-period solution at t - j tau times powers[j], j = floor(t / tau)
    (held to the powers there are, past which the last period's dense output
    extrapolates).
    """

    N: int
    dense: Callable
    period: float
    powers: np.ndarray
    symplecticity_defect: float

    def at(self, t):
        """Psi(t); a 1-D array of times gives shape (len(t), 2N, 2N)."""
        t = np.asarray(t, dtype=float)
        two_n = 2 * self.N
        # ufuncs rather than np.clip, which costs several times more on the
        # 0-d t of the refinements
        j = np.minimum(np.maximum(np.floor(t / self.period), 0),
                       len(self.powers) - 1).astype(int)
        base = self.dense(t - j * self.period).reshape(t.shape + (two_n, two_n))
        # one power at a time, so that no batch-sized copy of the powers is
        # made.  A 0-d t takes the same code, and both operands of every
        # product are C-contiguous, so a time rounds alike alone and in a batch
        out = np.empty_like(base)
        for jj in np.unique(j):
            at_j = j == jj
            out[at_j] = base[at_j] @ self.powers[jj]
        return out


def _J(n):
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def linearize(L: LagrangianSpec, loop: SymmetricLoop) -> LinearizedCoefficients:
    """Second partials of L along the lifted curve, in the global flat chart."""
    _, ts, P, Q, R = coefficients_along(L, loop)
    # brake symmetry pattern: P(-t) = P(t), Q(-t) = -Q(t), R(-t) = R(t)
    rev = lambda A: A[np.r_[0, np.arange(len(ts) - 1, 0, -1)]]
    residuals = {
        "P_even": float(np.max(np.abs(rev(P) - P))),
        "Q_odd": float(np.max(np.abs(rev(Q) + Q))),
        "R_even": float(np.max(np.abs(rev(R) - R))),
    }
    return LinearizedCoefficients(ts, P, Q, R, assemble_B(P, Q, R), float(loop.period),
                                  residuals)


def assemble_B(P: np.ndarray, Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """B(t) samples for the linear system udot = J B(t) u, u = (momentum, position)."""
    n = P.shape[-1]
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
    """B(t) provider for a constant symmetric matrix, as B_callable gives at equilibria."""
    B = np.asarray(B, dtype=float)

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return B
        return np.broadcast_to(B, t.shape + B.shape)

    return evaluate


def fundamental_solution(B_fn: Callable, period: float,
                         total_time: float) -> SymplecticPath:
    """Integrate Psidot = J B(t) Psi columnwise from Psi(0) = I, for a B_fn of
    the given period, and extend the path to [0, total_time] by monodromy powers.

    B_fn maps t to the (2N, 2N) matrix B(t).  One period [0, period] is
    integrated with DOP853 at rtol = atol = 1e-11; later times are reached by
    Psi(t + j period) = Psi(t) M^j with M = Psi(period), for j up to
    floor(total_time / period).  The symplecticity defect is sampled on the
    composed path at 257 nodes of [0, total_time].
    """
    two_n = np.asarray(B_fn(0.0)).shape[0]
    J = _J(two_n // 2)

    def rhs(t, y):
        Psi = y.reshape(two_n, two_n)
        return (J @ B_fn(t) @ Psi).ravel()

    try:
        sol = dop853(rhs, (0.0, period), np.eye(two_n).ravel(), 1e-11)
    except NonConvergence:
        raise BlowUp(f"fundamental solution integration failed: {TOO_SMALL_STEP}") from None
    monodromy = sol.y[-1].reshape(two_n, two_n)
    powers = [np.eye(two_n)]
    for _ in range(int(np.floor(total_time / period))):
        powers.append(powers[-1] @ monodromy)
    path = SymplecticPath(two_n // 2, sol.dense, float(period), np.array(powers), 0.0)
    mats = path.at(np.linspace(0.0, total_time, 257))
    # defect relative to |Psi|^2: hyperbolic paths grow exponentially and an
    # absolute bound would be dominated by float rounding alone.  With each
    # sample scaled by its largest entry s, Phi = Psi / s, nothing overflows:
    # |Psi^T J Psi - J| / (1 + s^2) = |Phi^T J Phi - J / s^2| / (1 + 1 / s^2)
    inv = 1.0 / np.max(np.abs(mats), axis=(1, 2))
    Phi = mats * inv[:, None, None]
    raw = np.max(np.abs(np.swapaxes(Phi, -1, -2) @ J @ Phi - inv[:, None, None] ** 2 * J),
                 axis=(1, 2))
    path.symplecticity_defect = float(np.max(raw / (1.0 + inv ** 2)))
    return path


# ---------------------------------------------------------------------------
# Morse side
# ---------------------------------------------------------------------------

def _negative_count(A: BlockTridiagonal) -> int:
    """Number of negative eigenvalues, by block odd-even reduction in O(M N^3).

    Each level eliminates the interior odd nodes 1, 3, ... <= M - 2.  They are
    pairwise non-adjacent, so their pivot blocks are decoupled and, by
    Sylvester's law, inertia(A) = sum of the pivots' inertias + inertia of the
    Schur complement on the kept nodes, which is block-tridiagonal again (a
    wrap coupling joins kept nodes M - 1 and 0, so it is kept as is).  The
    last <= 3 nodes are counted densely.  Sign rule, as in LAPACK's Sturm
    counts: an eigenvalue within pivmin = 4 eps ||A|| of zero is set to
    -pivmin, i.e. counts as negative, so the count is that of A - pivmin I
    (||A|| bounded by 3 N times the largest entry).
    """
    d, u, M = A.diag, A.upper, A.nodes
    pivmin = 12.0 * A.dim * np.finfo(float).eps * max(np.max(np.abs(d)),
                                                       np.max(np.abs(u), initial=0.0))
    neg = 0
    while M > 3:
        odd = np.arange(1, M - 1, 2)
        w, V = np.linalg.eigh(d[odd])
        w = np.where(np.abs(w) < pivmin, -pivmin, w)
        neg += int(np.sum(w < 0.0))
        # pivot i = V diag(w) V^T joins kept nodes i - 1 and i + 1
        left = u[odd - 1] @ V
        right = np.swapaxes(u[odd], -1, -2) @ V
        left_w = left / w[:, None, :]
        n = len(odd)
        d = d[np.arange(0, M, 2) if M % 2 else np.r_[0:M:2, M - 1]]
        d[:n] -= left_w @ np.swapaxes(left, -1, -2)
        d[1:n + 1] -= (right / w[:, None, :]) @ np.swapaxes(right, -1, -2)
        # past the eliminated couplings: (M - 2, M - 1) when M is even, the wrap
        u = np.concatenate([-left_w @ np.swapaxes(right, -1, -2), u[M - 2 + M % 2:]])
        M = d.shape[0]
    w = np.linalg.eigvalsh(BlockTridiagonal(d, u, A.cyclic).dense())
    return neg + int(np.sum(w < pivmin))


def _nullity_eps(L: LagrangianSpec, loop: SymmetricLoop, k: int) -> float:
    """eps_n = 100 h^2 scale, scale an upper estimate of the largest
    |generalized eigenvalue| of (Hess, Gram)."""
    _, _, P, Q, R = coefficients_along(L, loop, k)
    norms = (np.linalg.norm(P, 2, axis=(1, 2)) + np.linalg.norm(R, 2, axis=(1, 2))
             + 2.0 * np.linalg.norm(Q, 2, axis=(1, 2)))
    h = loop.h
    return 100.0 * h * h * (float(np.mean(norms)) / (k * loop.period))


def morse_index(L: LagrangianSpec, loop: SymmetricLoop,
                k: int = 1) -> Tuple[IndexPair, IndexPair]:
    """Morse index and nullity of the discretized action Hessian at the k-iterate,
    as (full, even): on the full loop space and on the even subspace.

    Counts of generalized eigenvalues of (Hessian, W^{1,2} Gram) below -eps_n
    and inside [-eps_n, eps_n] with eps_n = 100 h^2 scale, tracking
    the O(h^2) discretization error of the quadratic form.  Since the Gram is
    positive definite, the counts are Sylvester inertias of H + eps G and
    H - eps G, counted by block odd-even reduction in O(M N^3).  The even
    pair is counted on the even folds of the same H and G, with the same eps_n.
    """
    H = assemble_hessian(L, loop, k)
    G = assemble_gram(loop, k)
    eps = _nullity_eps(L, loop, k)

    def pair(H, G):
        neg = _negative_count(H + eps * G)
        return IndexPair(neg, _negative_count(H - eps * G) - neg)

    return pair(H, G), pair(H.even_fold(), G.even_fold())


def fourier_morse_index(P, Q, R, k: int = 1, symmetric: bool = False) -> IndexPair:
    """Closed-form Morse counts for constant coefficients via Fourier modes.

    Full space: mode 0 contributes eig(R); each j >= 1 contributes the block
    [[K, wA],[wA^T, K]]/1 with K = w^2 P + R, A = Q - Q^T, w = 2 pi j / k,
    for the 1-periodic loop iterated k times.  Even subspace: cosine modes
    only, blocks K alone.  Eigenvalues within 1e-9 of zero are null.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    tol = 1e-9
    neg = int(np.sum(np.linalg.eigvalsh(R) < -tol))
    null = int(np.sum(np.abs(np.linalg.eigvalsh(R)) <= tol))
    A = Q - Q.T
    pmin = float(np.min(np.linalg.eigvalsh(P)))
    j = 1
    while j < 100000:
        w = 2.0 * np.pi * j / k
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

def _brent_root(f, a: float, b: float, xtol: float) -> float:
    """A root of f in the bracket [a, b], by Brent's method (R. P. Brent,
    *Algorithms for Minimization Without Derivatives*, 1973, Ch. 4).

    The iteration and its arithmetic are those of SciPy's brentq, so the root
    is bit-equal to it.  Stops when half the bracket is below
    (xtol + 4 eps |x|) / 2.  Raises ValueError when f(a) and f(b) have one
    sign or f is NaN, and NonConvergence after 100 iterations.
    """
    rtol, maxiter = 4 * np.finfo(float).eps, 100

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise NonConvergence(f"Brent root search did not converge in {maxiter} iterations")


def _brent_minimize(f, bounds, xatol: float):
    """(x, f(x)) at a local minimum of f on bounds = (lo, hi), by Brent's
    golden-section and parabolic search (Brent 1973, Ch. 5).

    The iteration and its arithmetic are those of SciPy's
    minimize_scalar(method="bounded"), so both are bit-equal to it.  Stops
    when x is within 2 (sqrt(2.2e-16) |x| + xatol / 3) of the bracket's
    middle less half its width, or after 500 evaluations.
    """
    maxiter = 500
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = bounds
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = f(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # a parabolic fit through the three best points
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return float(xf), float(fx)


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


def _crossing_target(mats, N, mode):
    """The matrix that is singular exactly at the crossings: Psi - I for the
    periodic count, the block S12 for the L0 count."""
    return mats - np.eye(2 * N) if mode == "cz" else mats[..., :N, N:]


def _crossing_det(tgt, mats, mode):
    """det of the crossing target, in a cancellation-free form when possible.

    For Sp(2), det(Psi - I) = 2 - tr(Psi): the product form loses all
    precision on hyperbolic stretches where the entries explode, while the
    trace stays exact in the leading digits.
    """
    if mode == "cz" and mats.shape[-1] == 2:
        return 2.0 - np.trace(mats, axis1=-2, axis2=-1)
    return np.linalg.det(tgt)


def _target_svs(tgt, mats, mode):
    """Largest and smallest singular values of the crossing target.

    For N = 1 in mode cz, where sigma_max > 2, the smallest is taken as
    |det(Psi - I)| / sigma_max with det(Psi - I) = 2 - tr(Psi).  The SVD's
    smallest value is off by about eps sigma_max, which on hyperbolic
    stretches is rounding noise with local minima everywhere; this route is
    off by about eps (2 + |tr Psi|) / sigma_max <= eps (2 + 4 / sigma_max),
    as |tr Psi| <= 2 + 2 sigma_max.  Past sigma_max = 2 that stays a few eps
    while the SVD's error grows; below it both are a few eps and the SVD
    value is kept.  A 1x1 target (the L0 block S12 for N = 1) has the single
    singular value |a|.
    """
    if tgt.shape[-1] == 1:
        s = np.abs(tgt[..., 0, 0])
        return s, s
    sv = np.linalg.svd(tgt, compute_uv=False)
    s_max, s_min = sv[..., 0], sv[..., -1]
    if mode == "cz" and mats.shape[-1] == 2:
        # np.where evaluates both branches: no division by a small sigma_max
        s_det = np.abs(_crossing_det(tgt, mats, mode)) / np.maximum(s_max, 2.0)
        s_min = np.where(s_max > 2.0, s_det, s_min)
    return s_max, s_min


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
    transversal sign change they are unresolvable and raise.  The path is
    integrated once, at construction, over one period and reaches the k_max
    periods (and the endpoint zone) by monodromy powers; a symplecticity
    defect above 1e-8 on that horizon raises NonSymplectic.

    Both modes are scanned in one streamed pass: Psi is evaluated once per
    sample, a period of samples at a time, and feeds both targets.  The L0
    scan covers only half the horizon, as far as its half windows reach, and
    for N = 1 its 1x1 target S12 = a has the singular value |a|.
    """

    def __init__(self, B_fn, period, k_max, deg_tol=1e-6):
        self.B_fn = B_fn
        self.period = period
        probe = np.linspace(0.0, period, 33)
        norms = [np.linalg.norm(np.asarray(B_fn(t)), 2) for t in probe]
        self.b_scale = float(np.mean(norms))
        self.deg_tol = deg_tol
        self.total = k_max * period * (1.0 + 2.0 * _ZONE_REL) + 1e-6
        samples_per_unit = 160.0 * (1.0 + 0.5 * self.b_scale)
        self.n_scan = int(min(max(800, samples_per_unit * self.total), 120000))
        self.guard = min(0.02 * period, 0.2 / (1.0 + self.b_scale))
        self.path = fundamental_solution(B_fn, period, self.total)
        # a NaN defect fails this test too
        if not self.path.symplecticity_defect <= 1e-8:
            raise NonSymplectic(f"path symplecticity defect "
                                f"{self.path.symplecticity_defect:.2e} exceeds 1e-8")
        self.N = self.path.N
        self._events = {}
        self._plateau = {}
        self._scans = {}

    # -- path evaluation helpers -------------------------------------------
    def _window(self, mode, k):
        return k * self.period if mode == "cz" else 0.5 * k * self.period

    def _horizon(self, mode):
        """Time past which no window of the mode reads a crossing: total covers
        k_max periods and their endpoint zone, half of it every L0 half window
        and its zone."""
        return self.total if mode == "cz" else 0.5 * self.total

    def _target(self, t, mode):
        """Crossing target and Psi at the time t."""
        M = self.path.at(t)
        return _crossing_target(M, self.N, mode), M

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
        """Per-sample (ts, g, g_abs, det) of the mode's scan, handed over once.

        One walk over the scan grid serves both modes: Psi is evaluated once
        per sample for both targets, a period of samples at a time, so only
        one period of matrices is alive at once.  The L0 scan stops 8 samples
        past its horizon, which keeps the neighbour and contrast tests
        (3 samples either side) of every L0 crossing up to the horizon as
        they are on the whole grid.
        """
        if mode not in self._scans:
            ts = np.linspace(self.guard, self.total, self.n_scan)
            chunk = int(np.ceil(self.period / (ts[1] - ts[0])))
            ends = {m: min(len(ts), int(np.searchsorted(ts, self._horizon(m), "right")) + 8)
                    for m in ("cz", "l0")}
            parts = {m: [] for m in ends}
            for start in range(0, len(ts), chunk):
                mats = self.path.at(ts[start:start + chunk])
                for m, end in ends.items():
                    if start < end:
                        M = mats[:end - start]
                        tgt = _crossing_target(M, self.N, m)
                        s_max, s_min = _target_svs(tgt, M, m)
                        parts[m].append((s_min / (1.0 + s_max), s_min, _crossing_det(tgt, M, m)))
            self._scans = {m: (ts[:end],) + tuple(np.concatenate(col) for col in zip(*parts[m]))
                           for m, end in ends.items()}
        return self._scans.pop(mode)

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
        """Sorted (t, contribution) crossings over (guard, horizon]."""
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
            candidates.append((i, i + 1, None, None))
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
            candidates.append((i - 1, i + 1, g[lo_n], g[hi_n]))

        def sv_objective(t):
            s_max, s_min = _target_svs(*self._target(t, mode), mode)
            return float(s_min / (1.0 + s_max))

        def sv_absolute(t):
            return float(_target_svs(*self._target(t, mode), mode)[1])

        def det_objective(t):
            tgt, M = self._target(t, mode)
            return float(_crossing_det(tgt[None], M[None], mode)[0])

        horizon = self._horizon(mode)
        located = []
        # a candidate's bracket ends are scan samples, whose det the scan holds
        for a, b, g_lo, g_hi in candidates:
            lo, hi = ts[a], ts[b]
            if dets[a] * dets[b] < 0:
                t_star = _brent_root(det_objective, lo, hi, xtol=1e-13 * self.total)
            else:
                t_star, g_star = _brent_minimize(sv_objective, bounds=(lo, hi),
                                                 xatol=1e-13 * max(self.total, 1.0))
                accept = min(self.deg_tol, 0.05 * max(g_lo, g_hi)) \
                    if g_lo is not None else self.deg_tol
                if g_star > accept:
                    continue
                # a fixed vector of a touch has unit scale, so the residual
                # must be small in absolute terms as well; exploding paths
                # drive the relative value into the noise floor without any
                # degeneracy
                if sv_absolute(t_star) > 10.0 * self.deg_tol:
                    continue
            if t_star > horizon or any(abs(t_star - t0) < 5e-9 * self.total
                                       for t0, _, _ in located):
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

    def pair(self, mode, k) -> IndexPair:
        return IndexPair(self.index(mode, k), self.nullity(mode, k))


def cz_index(B: Callable, k: int) -> IndexPair:
    """Conley-Zehnder/Long index pair of the path of the 1-periodic B over [0, k].

    Degenerate endpoints follow the left-limit convention: their crossings
    are excluded from the count and recorded in the nullity instead.
    """
    return _CrossingEngine(B, 1.0, k).pair("cz", k)


def l0_index(B: Callable, k: int) -> IndexPair:
    """Maslov-type L0-index pair of the path of the 1-periodic B over the brake
    half window (0, k / 2].

    Crossings are the zeros of det S12(t); the sign convention and the -N/2
    normalization at t = 0 are the calibrated ones, pinned by the identity
    m^-(EA^{[k]}) = i_L0 + N in the anchor tests.
    """
    return _CrossingEngine(B, 1.0, k).pair("l0", k)


def _mean_fit(eng: _CrossingEngine, k_max: int) -> dict:
    """Least-squares slopes of the engine's i(Psi, k) and i_L0(Psi, k) over
    k in {1, 2, 4, ...} up to k_max, with uncertainties from the fit residuals."""
    ks = [2 ** j for j in range(int(k_max).bit_length())]
    i_vals = np.array([eng.index("cz", kk) for kk in ks], dtype=float)
    l_vals = np.array([eng.index("l0", kk) for kk in ks], dtype=float)
    karr = np.array(ks, dtype=float)

    def slope(vals):
        A = np.vstack([karr, np.ones_like(karr)]).T
        coef = np.linalg.lstsq(A, vals, rcond=None)[0]
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


def mean_index(B: Callable, k_max: int = 64) -> dict:
    """Mean indices of the path of the 1-periodic B, by least-squares slope of
    i(Psi, k) over k in {1, 2, 4, ...} up to k_max.

    Returns ihat, ihat_L0, the per-k values, and slope uncertainties from the
    fit residuals.
    """
    # the engine reaches the largest power of two the fit uses
    return _mean_fit(_CrossingEngine(B, 1.0, 2 ** (int(k_max).bit_length() - 1)), k_max)


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------

def _stabilized_morse(L, loop, k):
    """Full and even Morse pairs, each with whether two successive grids agreed on it.

    Both pairs come from one morse_index call per grid.  The grid is doubled
    at most twice, never past 9000 degrees of freedom, and only while a pair
    is still unsettled; a settled pair keeps the value it settled at.
    Returns ((full, stable), (even, stable)).
    """
    pairs = morse_index(L, loop, k)
    settled = [None, None]
    for _ in range(2):
        if loop.n * 2 * k * loop.dim > 9000:
            break
        loop = refine(loop)
        finer = morse_index(L, loop, k)
        for s in (0, 1):
            if settled[s] is None and finer[s] == pairs[s]:
                settled[s] = (finer[s], True)
        if all(settled):
            break
        pairs = finer
    return tuple(got or (pair, False) for got, pair in zip(settled, pairs))


def verify_relations(L: LagrangianSpec, loop: SymmetricLoop, ks=(1, 2, 4),
                     mean_k_max: int = 32) -> dict:
    """Check the index identities and inequalities at the given iterates.

    Per k: (m^-(A), m^0(A)) = (i, nu), (m^-(EA), m^0(EA)) = (i_L0 + N, nu_L0),
    the monotonicity inequalities, the iteration bound
    i + nu <= k ihat + N (within the slope-fit uncertainty), and, when the
    mean index vanishes, m^-(EA) + m^0(EA) <= N.

    Loops finer than 256 samples per unit period are coarsened first; with
    the 9000-DOF cap on refinement, this fixes the grids each k visits.
    """
    while loop.n > 256 * loop.period and (loop.n // 2) % 2 == 0:
        loop = coarsen(loop)
    coeffs = linearize(L, loop)
    N = coeffs.dim
    # degeneracy scale for orbit-derived paths: the coefficients carry the
    # O(h^2) bias of the discrete orbit, amplified by the coefficient size;
    # this mirrors the eps_n null threshold on the Morse side
    B = coeffs.B
    b_scale = float(np.mean(np.linalg.norm(B, 2, axis=(1, 2))))
    constant_B = float(np.max(np.abs(B - B[0]))) < 1e-12
    h = loop.h
    deg = 1e-6 if constant_B else min(0.05, max(1e-6, 50.0 * h * h * (1.0 + b_scale)))
    # one engine for the per-k pairs and the mean index
    eng = _CrossingEngine(coeffs.B_callable(), coeffs.period, max(max(ks), mean_k_max),
                          deg_tol=deg)
    mi = _mean_fit(eng, mean_k_max)
    ihat = mi["ihat"]
    ihat_unc = max(mi["ihat_uncertainty"], 1e-9)

    report = {"ks": list(ks), "mean_index": mi, "per_k": {}, "all_pass": True,
              "symmetry_residuals": coeffs.symmetry_residuals}
    for k in ks:
        (full, st_f), (even, st_e) = _stabilized_morse(L, loop, k)
        cz, l0 = eng.pair("cz", k), eng.pair("l0", k)
        checks = {
            "morse_full_equals_cz": full == cz,
            "morse_even_equals_l0_plus_N": even == (l0.index + N, l0.nullity),
            "0_le_even_le_full_index": 0 <= even.index <= full.index,
            "even_nullity_le_full": even.nullity <= full.nullity,
            "full_nullity_le_2N": full.nullity <= 2 * N,
            "iteration_bound": cz.index + cz.nullity
            <= k * (ihat + 3 * ihat_unc) + N + 1e-9,
            "grid_stable": st_f and st_e,
        }
        if abs(ihat) <= max(3 * ihat_unc, 1e-6):
            checks["zero_mean_index_bound"] = even.index + even.nullity <= N
        report["per_k"][k] = {
            "morse_full": full,
            "morse_even": even,
            "cz": cz,
            "l0": l0,
            "checks": checks,
        }
        report["all_pass"] &= all(checks.values())
    return report
