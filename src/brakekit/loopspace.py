"""Discretized symmetric loop space: metric, mean action, gradients, search.

A symmetric loop gamma(-t) = gamma(t) of integer period m is stored on the
half grid t_j = j m / n, j = 0..n/2 (n even); the full grid is reconstructed
by reflection, so evenness is exact by construction rather than a penalty.
Loop values are continuous lifts in R^N; all system functions are lattice
periodic, so lifts are evaluated directly.

Velocities use centered differences and integrals the periodic trapezoid
rule, which makes every quantity here an O(h^2) discretization.  The action
gradient is the exact derivative of the discrete mean action, so line
searches and Newton refinement are mutually consistent.  The W^{1,2} Gram
of the scheme is circulant, so a real FFT inverts it in closed form and it
is never built; assemble_gram is another operator, the P1 Gram of the Morse
counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .cubic import PiecewiseCubic, cubic_spline
from .errors import GridMismatch
from .model import LagrangianSpec, TorusSpace

__all__ = [
    "SymmetricLoop",
    "LoopTangent",
    "CriticalPointReport",
    "w12_inner",
    "mean_action",
    "action_gradient_even",
    "iterate",
    "find_critical",
    "full_gradient_check",
    "BlockTridiagonal",
    "coefficients_along",
    "assemble_hessian",
    "assemble_gram",
    "loop_distance",
]

DEFAULT_GRID_PER_UNIT = 256


@dataclass(frozen=True)
class SymmetricLoop:
    """Even loop of integer period m sampled on the half grid [0, m/2]."""

    period: int
    half_values: np.ndarray  # (n/2 + 1, N) lift coordinates
    torus: TorusSpace

    def __post_init__(self):
        vals = np.asarray(self.half_values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        object.__setattr__(self, "half_values", vals)
        if self.period < 1:
            raise ValueError("period must be a positive integer")

    # -- grid bookkeeping ---------------------------------------------------
    @property
    def n(self) -> int:
        """Full grid size over one period."""
        return 2 * (self.half_values.shape[0] - 1)

    @property
    def dim(self) -> int:
        return self.half_values.shape[1]

    @property
    def h(self) -> float:
        return self.period / self.n

    def full_values(self) -> np.ndarray:
        """Assemble the full grid by reflection: gamma_{n-j} = gamma_j."""
        half = self.half_values
        return np.concatenate([half[:-1], half[::-1][:-1]])

    def full_times(self) -> np.ndarray:
        return np.arange(self.n) * self.h

    def velocities(self) -> np.ndarray:
        """Centered-difference velocities on the full grid."""
        g = self.full_values()
        return (np.roll(g, -1, axis=0) - np.roll(g, 1, axis=0)) / (2.0 * self.h)

    def max_speed(self) -> float:
        return float(np.max(np.linalg.norm(self.velocities(), axis=1)))

    def spline(self) -> PiecewiseCubic:
        """The periodic cubic spline through the full grid, of period m."""
        g = self.full_values()
        ts = np.append(self.full_times(), self.period)
        vals = np.vstack([g, g[:1]])
        return cubic_spline(ts, vals, periodic=True)

    def shifted_half_period(self) -> "SymmetricLoop":
        """The loop t -> gamma(t + m/2); still even for even loops."""
        g = np.roll(self.full_values(), -self.n // 2, axis=0)
        return SymmetricLoop(self.period, g[: self.n // 2 + 1], self.torus)

    def with_values(self, half_values) -> "SymmetricLoop":
        return SymmetricLoop(self.period, half_values, self.torus)

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def full_grid(period, n_per_unit) -> int:
        """n = n_per_unit * period; the half grid holds n/2 + 1 nodes, so n is even."""
        if (n_per_unit * period) % 2:
            raise GridMismatch("a symmetric loop needs an even grid n_per_unit * period, "
                               f"not {n_per_unit} * {period}")
        return n_per_unit * period

    @classmethod
    def constant(cls, q, period=1, torus=None, n_per_unit=DEFAULT_GRID_PER_UNIT):
        q = np.atleast_1d(np.asarray(q, dtype=float))
        torus = torus or TorusSpace(q.shape[0])
        n = cls.full_grid(period, n_per_unit)
        return cls(period, np.tile(q, (n // 2 + 1, 1)), torus)

    @classmethod
    def from_function(cls, fn, period=1, torus=None, n_per_unit=DEFAULT_GRID_PER_UNIT):
        """Sample an even function fn(t) -> lift point on the half grid.

        Raises ValueError when fn(-h) or fn(period - h) differs from fn(h)
        by more than 1e-12, and GridMismatch when n_per_unit * period is odd.
        """
        n = cls.full_grid(period, n_per_unit)
        ts = np.arange(n // 2 + 1) * (period / n)
        vals = np.stack([np.atleast_1d(np.asarray(fn(t), dtype=float)) for t in ts])
        torus = torus or TorusSpace(vals.shape[1])
        bad = max(np.max(np.abs(np.asarray(fn(-ts[1]), dtype=float) - vals[1])),
                  np.max(np.abs(np.asarray(fn(period - ts[1]), dtype=float) - vals[1])))
        if bad > 1e-12:
            raise ValueError(f"sampled function is not even (residual {bad:.2e})")
        return cls(period, vals, torus)


@dataclass(frozen=True)
class LoopTangent:
    """Even W^{1,2} section along a symmetric loop, on the same half grid."""

    period: int
    half_values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.half_values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        object.__setattr__(self, "half_values", vals)

    @property
    def n(self) -> int:
        return 2 * (self.half_values.shape[0] - 1)

    def full_values(self) -> np.ndarray:
        half = self.half_values
        return np.concatenate([half[:-1], half[::-1][:-1]])


@dataclass
class CriticalPointReport:
    """Result of find_critical and how it got there.

    newton_steps counts accepted steps along the banded Newton direction,
    lstsq_fallbacks the iterations whose banded solve was refused (singular
    or non-finite), so the dense least-squares direction was tried, and
    armijo_steps the accepted descent steps.  The step counts describe the
    run; no orbit record stores them.
    """

    loop: SymmetricLoop
    gradient_norm: float
    action: float
    converged: bool
    max_speed: float
    iterations: int
    newton_steps: int
    lstsq_fallbacks: int
    armijo_steps: int


# ---------------------------------------------------------------------------
# metric and action
# ---------------------------------------------------------------------------

def w12_inner(xi: LoopTangent, zeta: LoopTangent) -> float:
    """W^{1,2} inner product: trapezoid of xi.zeta + xi'.zeta' over the period."""
    if not (isinstance(xi, LoopTangent) and isinstance(zeta, LoopTangent)):
        raise GridMismatch("expected a LoopTangent")
    a, b = xi.full_values(), zeta.full_values()
    if a.shape != b.shape or xi.period != zeta.period:
        raise GridMismatch("tangents live on different grids")
    h = xi.period / a.shape[0]
    da = (np.roll(a, -1, axis=0) - np.roll(a, 1, axis=0)) / (2.0 * h)
    db = (np.roll(b, -1, axis=0) - np.roll(b, 1, axis=0)) / (2.0 * h)
    return float(h * (np.sum(a * b) + np.sum(da * db)))


def _eval_along(L: LagrangianSpec, loop: SymmetricLoop):
    ts = loop.full_times()
    g = loop.full_values()
    v = loop.velocities()
    return ts, g, v


def mean_action(L: LagrangianSpec, loop: SymmetricLoop) -> float:
    """(1/m) trapezoid of L(t, gamma, gamma') with centered-difference velocities."""
    ts, g, v = _eval_along(L, loop)
    return float(loop.h * np.sum(L.value(ts, g, v)) / loop.period)


def _gradient_full(L: LagrangianSpec, loop: SymmetricLoop) -> np.ndarray:
    """Exact gradient of the discrete mean action w.r.t. full-grid values."""
    ts, g, v = _eval_along(L, loop)
    c = loop.h / loop.period
    lq = np.asarray(L.grad_q(ts, g, v))
    lv = np.asarray(L.grad_v(ts, g, v))
    # d/d gamma_j of sum_k L(t_k, g_k, (g_{k+1}-g_{k-1})/2h)
    return c * (lq + (np.roll(lv, 1, axis=0) - np.roll(lv, -1, axis=0)) / (2.0 * loop.h))


def _fold_nodes(a: np.ndarray) -> np.ndarray:
    """Sum the full-grid nodes j and n - j onto the half grid.

    This is E^T a for the reflection embedding E of the even subspace, each
    half-grid entry the sum of at most two terms.
    """
    n = a.shape[0]
    out = a[: n // 2 + 1].copy()
    out[1: n // 2] += a[n // 2 + 1:][::-1]
    return out


def action_gradient_even(L: LagrangianSpec, loop: SymmetricLoop) -> np.ndarray:
    """Gradient of the discrete mean action w.r.t. the half-grid DOF, flattened."""
    return _fold_nodes(_gradient_full(L, loop)).ravel()


def _w12_solve(c: np.ndarray, period: float) -> np.ndarray:
    """G^-1 c along the node axis for the full-grid W^{1,2} Gram G.

    G = h (I + D^T D) for the centered difference D is circulant, and the DFT
    diagonalizes it with the eigenvalues h (1 + sin^2(2 pi j / n) / h^2) >= h.
    """
    n = c.shape[0]
    h = period / n
    lam = h * (1.0 + np.sin(2.0 * np.pi * np.arange(n // 2 + 1) / n) ** 2 / (h * h))
    return np.fft.irfft(np.fft.rfft(c, axis=0) / lam[:, None], n, axis=0)


def _riesz_solve(loop: SymmetricLoop, b: np.ndarray) -> np.ndarray:
    """Solve E^T G E g = b for the half-grid DOF g.

    Halving the interior entries of b and reflecting them gives the even c
    with E^T c = b; G commutes with the reflection, so G^-1 c is even and its
    half grid is g.
    """
    half = b.reshape(-1, loop.dim).copy()
    half[1:-1] *= 0.5
    c = LoopTangent(loop.period, half).full_values()
    return _w12_solve(c, loop.period)[: loop.n // 2 + 1].ravel()


def _gradient_and_norm(L: LagrangianSpec, loop: SymmetricLoop):
    """(b, g, norm): the even gradient, its Riesz representative, sqrt(b . g)."""
    b = action_gradient_even(L, loop)
    g = _riesz_solve(loop, b)
    return b, g, float(np.sqrt(max(b @ g, 0.0)))


def gradient_norm_w12(L: LagrangianSpec, loop: SymmetricLoop) -> float:
    """W^{1,2} norm of the even action gradient, sqrt(b . G^-1 b)."""
    return _gradient_and_norm(L, loop)[2]


def full_gradient_check(L: LagrangianSpec, loop: SymmetricLoop) -> float:
    """W^{1,2} norm of the unrestricted action gradient at an even loop.

    Symmetric criticality forces full criticality; discretely the reflection
    symmetry of the scheme makes the odd gradient part vanish to round-off,
    so this is a consistency check rather than new information.
    """
    b = _gradient_full(L, loop)
    return float(np.sqrt(max(np.sum(b * _w12_solve(b, loop.period)), 0.0)))


# ---------------------------------------------------------------------------
# iteration and grid changes
# ---------------------------------------------------------------------------

def iterate(loop: SymmetricLoop, k: int) -> SymmetricLoop:
    """Compose with the k-fold covering: same curve read as a (k m)-periodic loop."""
    if k < 1:
        raise ValueError("iteration order must be >= 1")
    if k == 1:
        return loop
    full = loop.full_values()
    tiled = np.tile(full, (k, 1))
    n_new = loop.n * k
    return SymmetricLoop(loop.period * k, tiled[: n_new // 2 + 1], loop.torus)


def coarsen(loop: SymmetricLoop) -> SymmetricLoop:
    """Drop every other sample (n/2 must be even)."""
    if (loop.n // 2) % 2:
        raise GridMismatch("coarsening needs an even half grid size")
    return SymmetricLoop(loop.period, loop.half_values[::2], loop.torus)


def refine(loop: SymmetricLoop) -> SymmetricLoop:
    """Resample on the doubled grid via the periodic cubic spline.

    The spline of even data is even, so evenness survives exactly.
    """
    sp = loop.spline()
    n_new = loop.n * 2
    ts = np.arange(n_new // 2 + 1) * (loop.period / n_new)
    return SymmetricLoop(loop.period, sp(ts, 0), loop.torus)


# ---------------------------------------------------------------------------
# Hessian assembly (shared with the index machinery)
# ---------------------------------------------------------------------------

def coefficients_along(L: LagrangianSpec, loop: SymmetricLoop, k: int = 1):
    """P, Q, R along the k-iterated lifted curve, sampled on the iterate grid.

    Returns (iterate, times, P, Q, R).
    """
    it = iterate(loop, k)
    ts, g, v = _eval_along(L, it)
    P = np.asarray(L.hess_vv(ts, g, v))
    Q = np.asarray(L.hess_qv(ts, g, v))
    R = np.asarray(L.hess_qq(ts, g, v))
    return it, ts, P, Q, R


@dataclass(frozen=True, eq=False)
class BlockTridiagonal:
    """Symmetric block-tridiagonal operator on node-major coordinates.

    diag[j] is the block A[j, j] and upper[j] the coupling A[j, j + 1]; the
    lower couplings are their transposes.  A cyclic operator has M couplings,
    the last one joining node M - 1 to node 0; an open one has M - 1.  An open
    operator is a band matrix with 2N - 1 sub- and superdiagonals, and solve()
    factors it on that band; dense() forms the full (M N)^2 matrix.
    """

    diag: np.ndarray  # (M, N, N)
    upper: np.ndarray  # (M, N, N) if cyclic else (M - 1, N, N)
    cyclic: bool

    __array_ufunc__ = None  # numpy scalars defer to __rmul__

    @property
    def nodes(self) -> int:
        return self.diag.shape[0]

    @property
    def dim(self) -> int:
        return self.diag.shape[1]

    def __add__(self, other: "BlockTridiagonal") -> "BlockTridiagonal":
        return BlockTridiagonal(self.diag + other.diag, self.upper + other.upper, self.cyclic)

    def __sub__(self, other: "BlockTridiagonal") -> "BlockTridiagonal":
        return BlockTridiagonal(self.diag - other.diag, self.upper - other.upper, self.cyclic)

    def __rmul__(self, c: float) -> "BlockTridiagonal":
        return BlockTridiagonal(c * self.diag, c * self.upper, self.cyclic)

    def dense(self) -> np.ndarray:
        """The (M N) x (M N) matrix."""
        M, N = self.nodes, self.dim
        A = np.zeros((M, N, M, N))
        j = np.arange(M)
        A[j, :, j, :] = self.diag
        i = j[: len(self.upper)]
        nxt = (i + 1) % M
        A[i, :, nxt, :] = self.upper
        A[nxt, :, i, :] += np.swapaxes(self.upper, -1, -2)
        return A.reshape(M * N, M * N)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b for an open operator, by a banded LU with partial pivoting.

        The symmetric operator may be indefinite, so the LU pivots rather than
        taking a Cholesky or block-Thomas factor.  Raises ValueError for a
        cyclic operator, whose wrap-around coupling is outside the band, and
        LinAlgError for an exactly singular one; non-finite entries give a
        non-finite solution.
        """
        if self.cyclic:
            raise ValueError("solve needs an open operator; a cyclic one is not banded")
        M, N = self.nodes, self.dim
        w = 2 * N - 1
        # band storage ab[w + i - j, j] = A[i, j], filled block by block
        ab = np.zeros((2 * w + 1, M * N))
        a = np.arange(N)[:, None]
        c = np.arange(N)[None, :]
        col = np.arange(M)[:, None, None] * N + c
        ab[w + a - c, col] = self.diag
        ab[w + a - c - N, col[1:]] = self.upper
        ab[w + a - c + N, col[:-1]] = np.swapaxes(self.upper, -1, -2)
        return solve_banded((w, w), ab, b, overwrite_ab=True, check_finite=False)

    def even_fold(self) -> "BlockTridiagonal":
        """The restriction E^T A E of a cyclic operator to the even subspace.

        Half-grid node p carries the full-grid nodes p and M - p, so the even
        restriction is open on M/2 + 1 nodes, with blocks D_p + D_{M-p} and
        couplings U_p + U_{M-p-1}^T.
        """
        M = self.nodes
        upper = self.upper[: M // 2] + np.swapaxes(self.upper[M // 2:][::-1], -1, -2)
        return BlockTridiagonal(_fold_nodes(self.diag), upper, cyclic=False)


def assemble_hessian(L: LagrangianSpec, loop: SymmetricLoop, k: int = 1) -> BlockTridiagonal:
    """P1 (FEM) Hessian of the mean action EA^{[k m]} at the iterated loop.

    The kinetic part is positive on every mode.  Returns the cyclic
    block-tridiagonal operator on the full grid; its even_fold() is the
    Hessian on the even subspace.  Each block adds up the element
    contributions in the order of an element-by-element dense assembly, so
    dense() equals that matrix to the last bit.
    """
    it, ts, P, Q, R = coefficients_along(L, loop, k)
    M = it.n
    h = it.h
    c = 1.0 / (k * loop.period)
    nxt = (np.arange(M) + 1) % M
    Pm = 0.5 * (P + P[nxt])
    Qm = 0.5 * (Q + Q[nxt])
    Rm = 0.5 * (R + R[nxt])
    kin = c * Pm / h
    mix = c * 0.5 * Qm
    mixT = np.swapaxes(mix, -1, -2)
    pot = c * h * 0.25 * Rm
    # element j = [node j, node j + 1]: kin + pot on both diagonal blocks,
    # pot - kin on both couplings, and the +-mix terms of the (q, v) part
    same = kin + pot
    cross = -kin + pot

    def prev(a):
        return np.roll(a, 1, axis=0)

    diag = ((((same + prev(same)) - mix) - mixT) + prev(mix)) + prev(mixT)
    upper = (cross + mix) - mixT
    lower = (cross + mixT) - mix
    return BlockTridiagonal(0.5 * (diag + np.swapaxes(diag, -1, -2)),
                            0.5 * (upper + np.swapaxes(lower, -1, -2)), cyclic=True)


def assemble_gram(loop: SymmetricLoop, k: int = 1) -> BlockTridiagonal:
    """Exact P1 W^{1,2} Gram (mass plus stiffness) on the iterated full grid,
    cyclic; its even_fold() is the Gram on the even subspace."""
    it = iterate(loop, k)
    M, dim = it.n, it.dim
    h = it.h
    eye = np.eye(dim)
    diag = np.broadcast_to((2.0 * h / 3.0 + 2.0 / h) * eye, (M, dim, dim))
    upper = np.broadcast_to((h / 6.0 - 1.0 / h) * eye, (M, dim, dim))
    return BlockTridiagonal(diag, upper, cyclic=True)


# ---------------------------------------------------------------------------
# critical point search
# ---------------------------------------------------------------------------

def find_critical(L: LagrangianSpec, loop0: SymmetricLoop, grad_tol: float = 1e-9,
                  max_iter: int = 200) -> CriticalPointReport:
    """Critical point search on the even subspace: Newton on the discrete
    gradient with a W^{1,2} gradient-descent fallback.

    Each iteration first tries a (damped) Newton step built from the P1 (FEM)
    Hessian of the action, which matches the Hessian of the discrete
    (trapezoid/centred) action only to O(h^2).  The step solves the even fold
    of that Hessian, an open block-tridiagonal operator, by a banded LU with
    partial pivoting; only when the LU finds it singular (or the step is not
    finite) is the dense matrix formed, for a least-squares step.  When the
    step fails to reduce the gradient norm (indefinite or singular Hessian
    far from a critical point), a descent step with Armijo line search on the
    action is taken instead.
    Newton is what makes saddle-type orbits reachable, so seeds converge to
    the nearest critical point rather than sliding to minima.
    """
    loop = loop0
    b, g, norm = _gradient_and_norm(L, loop)
    iters = newton_steps = lstsq_fallbacks = armijo_steps = 0

    for _ in range(max_iter):
        if norm <= grad_tol:
            break
        iters += 1
        improved = False
        # FEM Hessian: same O(h^2) operator, but with a positive kinetic
        # part on every mode, so steps cannot excite the checkerboard
        # null direction of a centered-difference Hessian.
        H = assemble_hessian(L, loop).even_fold()
        try:
            step = H.solve(-b)
        except np.linalg.LinAlgError:
            step = None
        banded = step is not None and bool(np.all(np.isfinite(step)))
        if not banded:
            lstsq_fallbacks += 1
            step, *_ = np.linalg.lstsq(H.dense(), -b, rcond=1e-12)
        alpha = 1.0
        for _ in range(25):
            trial = loop.with_values(loop.half_values + alpha * step.reshape(-1, loop.dim))
            b_t, g_t, n_t = _gradient_and_norm(L, trial)
            if n_t < norm:
                loop, b, g, norm = trial, b_t, g_t, n_t
                improved = True
                newton_steps += banded
                break
            alpha *= 0.5
        if not improved:
            # Armijo descent on the action along -grad
            action = mean_action(L, loop)
            step = -g.reshape(-1, loop.dim)
            alpha = 1.0
            for _ in range(40):
                trial = loop.with_values(loop.half_values + alpha * step)
                if mean_action(L, trial) < action - 1e-4 * alpha * norm ** 2:
                    loop = trial
                    b, g, norm = _gradient_and_norm(L, loop)
                    improved = True
                    armijo_steps += 1
                    break
                alpha *= 0.5
        if not improved:
            break

    return CriticalPointReport(loop, norm, mean_action(L, loop), norm <= grad_tol,
                               loop.max_speed(), iters, newton_steps, lstsq_fallbacks,
                               armijo_steps)


def loop_distance(a: SymmetricLoop, b: SymmetricLoop) -> float:
    """W^{1,2} distance after the best even-preserving time shift {0, m/2}.

    Loops are compared through minimal per-node lattice displacements, so the
    result does not depend on the chosen lifts.
    """
    if a.period != b.period or a.n != b.n:
        return float("inf")
    torus = a.torus

    def dist_to(bb):
        d = torus.displacement(a.full_values(), bb.full_values())
        t = LoopTangent(a.period, d[: a.n // 2 + 1])
        return float(np.sqrt(max(w12_inner(t, t), 0.0)))

    return min(dist_to(b), dist_to(b.shifted_half_period()))
