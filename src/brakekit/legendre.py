"""Fenchel/Legendre duality between Lagrangian and Hamiltonian specs.

The fiberwise conjugates are computed by a batched damped Newton iteration;
the Tonelli conditions make the fiber maps p = L_v and v = H_p mutually
inverse diffeomorphisms, so Newton with backtracking converges globally.
A solve at one point (as every twisted-field evaluation makes) runs the same
iteration without the batch's masks, and a 1x1 Newton step is one division,
the bits LAPACK's solve returns for it; results are equal to the last bit
to those of the same point solved inside a batch.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergence
from .model import HamiltonianSpec, LagrangianSpec

__all__ = [
    "dual_momentum",
    "dual_velocity",
    "lagrangian_from_hamiltonian",
    "hamiltonian_from_lagrangian",
]

TOL = 1e-12
MAXIT = 50


def _residual_norm(r):
    """Euclidean norm over the last axis, computed as np.linalg.norm(r, axis=-1) does."""
    return np.sqrt(np.add.reduce(r * r, axis=-1))


def _newton_fiber(grad, hess, t, q, target, label):
    """Solve grad(t, q, x) = target from x = 0 by damped Newton with monotone
    backtracking, to a residual of TOL in at most MAXIT steps.

    Works at one point or a batch (leading axis M).  Every point keeps its own
    step length (the line search halves only for points not yet accepted) and
    its own stop flag (a converged point leaves the batch), so its iterates are
    exactly those of a solve at that point alone.  A single point, given 1-D
    or as a batch of one row, runs the same iteration without masks.
    """
    target = np.asarray(target, dtype=float)
    y = np.atleast_2d(target)
    t = np.broadcast_to(np.asarray(t, dtype=float), y.shape[:1])
    q = np.broadcast_to(np.asarray(q, dtype=float), y.shape)
    solve = _newton_point if len(y) == 1 else _newton_batch
    out = solve(grad, hess, t, q, y, np.zeros_like(y), label)
    return out if target.ndim > 1 else out[0]


def _newton_step(h, r):
    """The Newton step solving h step = -r; a 1x1 system is one division,
    which is what LAPACK's LU solve computes for it, bit for bit."""
    if h.shape[-1] == 1:
        return -r / h[..., 0]
    return np.linalg.solve(h, -r[..., None])[..., 0]


def _newton_point(grad, hess, t, q, y, x, label):
    """_newton_fiber at one point: y, x of shape (1, N), t of shape (1,)."""
    r = np.asarray(grad(t, q, x)) - y
    norm = _residual_norm(r)
    for it in range(MAXIT + 1):
        if norm[0] <= TOL:
            return x
        if it == MAXIT:
            raise NonConvergence(f"{label}: residual {norm[0]:.3e} "
                                 f"after {MAXIT} iterations")
        step = _newton_step(np.asarray(hess(t, q, x)), r)
        alpha = 1.0
        for _ in range(40):
            trial = x + alpha * step
            r_trial = np.asarray(grad(t, q, trial)) - y
            n_trial = _residual_norm(r_trial)
            if n_trial[0] < norm[0]:
                x, r, norm = trial, r_trial, n_trial
                break
            alpha *= 0.5
        else:
            raise NonConvergence(f"{label}: line search stalled at residual "
                                 f"{norm[0]:.3e}")


def _newton_batch(grad, hess, t, q, y, x, label):
    """_newton_fiber on a batch of M points: y, x of shape (M, N), t of shape (M,)."""
    out, rows = x, np.arange(len(y))
    r = np.asarray(grad(t, q, x)) - y
    norm = _residual_norm(r)
    for it in range(MAXIT + 1):
        done = norm <= TOL
        if done.all():
            out[rows] = x
            return out
        if done.any():
            out[rows[done]] = x[done]
            rows, t, q, y, x, r, norm = (a[~done] for a in (rows, t, q, y, x, r, norm))
        if it == MAXIT:
            raise NonConvergence(f"{label}: residual {np.max(norm):.3e} "
                                 f"after {MAXIT} iterations")
        step = _newton_step(np.asarray(hess(t, q, x)), r)
        alpha, pending = 1.0, np.ones(len(x), dtype=bool)
        for _ in range(40):
            trial = x + alpha * step
            r_trial = np.asarray(grad(t, q, trial)) - y
            n_trial = _residual_norm(r_trial)
            ok = pending & (n_trial < norm)
            if ok.all():  # the common case, taken without masked copies
                x, r, norm = trial, r_trial, n_trial
                break
            x[ok], r[ok], norm[ok] = trial[ok], r_trial[ok], n_trial[ok]
            pending &= ~ok
            if not pending.any():
                break
            alpha *= 0.5
        else:
            raise NonConvergence(f"{label}: line search stalled at residual "
                                 f"{np.max(norm[pending]):.3e}")


def dual_momentum(H: HamiltonianSpec, t, q, v):
    """Solve H_p(t, q, p) = v for the unique momentum p, at a point or a batch."""
    return _newton_fiber(H.grad_p, H.hess_pp, t, q, v, "dual_momentum")


def dual_velocity(L: LagrangianSpec, t, q, p):
    """Solve L_v(t, q, v) = p for the unique velocity v, at a point or a batch."""
    return _newton_fiber(L.grad_v, L.hess_vv, t, q, p, "dual_velocity")


def _dual_spec(primal, solve, hess_yy, hess_qy, dual_cls):
    """Fenchel dual of ``primal`` with partials from the implicit function rule.

    With y* = solve(t, q, x) the fiber maximizer of x.y - primal(t, q, y):
        D_x = y*,   D_q = -P_q,   D_xx = P_yy^{-1},
        D_qx = -P_qy P_yy^{-1},   D_qq = -P_qq + P_qy P_yy^{-1} P_qy^T,
    all evaluated at (t, q, y*), where D is the dual and P the primal.

    The partials at one evaluation point share one fiber solve through a
    one-slot memo keyed on the exact bytes of (t, q, x).  The key and the
    solution are one tuple replaced in a single assignment, so a concurrent
    caller sees either the old pair or the new one, never a mix.

    The public builders pass a ``solve`` that looks up ``dual_momentum`` or
    ``dual_velocity`` when called, so a wrapper installed on the module
    attribute (as ``brakebench --trace 1`` installs) sees every solve.
    """
    slot = (None, None)

    def fiber(t, q, x):
        nonlocal slot
        key = (q.shape, t.tobytes(), q.tobytes(), x.tobytes())
        cached, ys = slot
        if cached != key:
            ys = solve(t, q, x)
            slot = (key, ys)
        return ys

    def partial(fn):
        def inner(t, q, x):
            q = np.asarray(q, dtype=float)
            x = np.asarray(x, dtype=float)
            t = np.asarray(t, dtype=float)
            if q.ndim == 1:  # one point: a batch of one row
                q, x, t = q[None], x.reshape(1, -1), t.reshape(1)
                return fn(t, q, x, fiber(t, q, x))[0]
            x, t = np.atleast_2d(x), np.broadcast_to(t, q.shape[:1])
            return fn(t, q, x, fiber(t, q, x))

        return inner

    def value(t, q, x, ys):
        return np.sum(ys * x, axis=-1) - primal.value(t, q, ys)

    def grad_q(t, q, x, ys):
        return -primal.grad_q(t, q, ys)

    def grad_x(t, q, x, ys):
        return ys.copy()

    def hess_xx(t, q, x, ys):
        return np.linalg.inv(hess_yy(t, q, ys))

    def hess_qx(t, q, x, ys):
        inv = np.linalg.inv(hess_yy(t, q, ys))
        return -np.einsum("...ik,...kj->...ij", hess_qy(t, q, ys), inv)

    def hess_qq(t, q, x, ys):
        hqy = hess_qy(t, q, ys)
        inv = np.linalg.inv(hess_yy(t, q, ys))
        return -primal.hess_qq(t, q, ys) + np.einsum(
            "...ik,...kl,...jl->...ij", hqy, inv, hqy)

    return dual_cls(
        primal.torus, partial(value), partial(grad_q), partial(grad_x),
        partial(hess_xx), partial(hess_qx), partial(hess_qq),
        reversible=primal.reversible, name=f"dual({primal.name})",
    )


def lagrangian_from_hamiltonian(H: HamiltonianSpec) -> LagrangianSpec:
    """Fenchel-dual LagrangianSpec of H, with p* = dual_momentum(H, t, q, v)."""
    return _dual_spec(H, lambda t, q, v: dual_momentum(H, t, q, v),
                      H.hess_pp, H.hess_qp, LagrangianSpec)


def hamiltonian_from_lagrangian(L: LagrangianSpec) -> HamiltonianSpec:
    """Fenchel-dual HamiltonianSpec of L, with v* = dual_velocity(L, t, q, p)."""
    return _dual_spec(L, lambda t, q, p: dual_velocity(L, t, q, p),
                      L.hess_vv, L.hess_qv, HamiltonianSpec)
