"""Fenchel/Legendre duality between Lagrangian and Hamiltonian specs.

The fiberwise conjugates are computed by a batched damped Newton iteration;
the Tonelli conditions make the fiber maps p = L_v and v = H_p mutually
inverse diffeomorphisms, so Newton with backtracking converges globally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence
from .model import HamiltonianSpec, LagrangianSpec

__all__ = [
    "dual_momentum",
    "dual_velocity",
    "fenchel_L_from_H",
    "fenchel_H_from_L",
    "lagrangian_from_hamiltonian",
    "hamiltonian_from_lagrangian",
    "DualPair",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAXIT = 50


def _newton_fiber(grad, hess, t, q, target, x0, tol, maxit, label):
    """Solve grad(t, q, x) = target by damped Newton with monotone backtracking.

    Works at one point or a batch (leading axis M).  Every point keeps its own
    step length (the line search halves only for points not yet accepted) and
    its own stop flag (a converged point leaves the batch), so its iterates are
    exactly those of a solve at that point alone.
    """
    target = np.asarray(target, dtype=float)
    y = np.atleast_2d(target)
    t = np.broadcast_to(np.asarray(t, dtype=float), y.shape[:1])
    q = np.broadcast_to(np.asarray(q, dtype=float), y.shape)
    x = np.zeros_like(y) if x0 is None else np.array(np.broadcast_to(x0, y.shape), dtype=float)
    out, rows = x, np.arange(len(y))
    r = np.asarray(grad(t, q, x)) - y
    norm = np.linalg.norm(r, axis=-1)
    for it in range(maxit + 1):
        done = norm <= tol
        if done.all():
            out[rows] = x
            return out if target.ndim > 1 else out[0]
        if done.any():
            out[rows[done]] = x[done]
            rows, t, q, y, x, r, norm = (a[~done] for a in (rows, t, q, y, x, r, norm))
        if it == maxit:
            raise NonConvergence(f"{label}: residual {np.max(norm):.3e} "
                                 f"after {maxit} iterations")
        step = np.linalg.solve(np.asarray(hess(t, q, x)), -r[..., None])[..., 0]
        alpha, pending = 1.0, np.ones(len(x), dtype=bool)
        for _ in range(40):
            trial = x + alpha * step
            r_trial = np.asarray(grad(t, q, trial)) - y
            n_trial = np.linalg.norm(r_trial, axis=-1)
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


def dual_momentum(H: HamiltonianSpec, t, q, v, p0=None,
                  tol=DEFAULT_TOL, maxit=DEFAULT_MAXIT):
    """Solve H_p(t, q, p) = v for the unique momentum p, at a point or a batch."""
    return _newton_fiber(H.grad_p, H.hess_pp, t, q, v, p0, tol, maxit, "dual_momentum")


def dual_velocity(L: LagrangianSpec, t, q, p, v0=None,
                  tol=DEFAULT_TOL, maxit=DEFAULT_MAXIT):
    """Solve L_v(t, q, v) = p for the unique velocity v, at a point or a batch."""
    return _newton_fiber(L.grad_v, L.hess_vv, t, q, p, v0, tol, maxit, "dual_velocity")


def fenchel_L_from_H(H: HamiltonianSpec, t, q, v, p0=None):
    """max_p { p.v - H(t,q,p) }; returns (L value, maximizing p)."""
    p_star = dual_momentum(H, t, q, v, p0=p0)
    val = float(np.dot(p_star, np.asarray(v, dtype=float)) - H.value(t, q, p_star))
    return val, p_star


def fenchel_H_from_L(L: LagrangianSpec, t, q, p, v0=None):
    """max_v { p.v - L(t,q,v) }; returns (H value, maximizing v)."""
    v_star = dual_velocity(L, t, q, p, v0=v0)
    val = float(np.dot(np.asarray(p, dtype=float), v_star) - L.value(t, q, v_star))
    return val, v_star


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
            q2 = np.atleast_2d(q)
            x2 = np.atleast_2d(np.asarray(x, dtype=float))
            tt = np.broadcast_to(np.asarray(t, dtype=float), (q2.shape[0],))
            out = fn(tt, q2, x2, fiber(tt, q2, x2))
            return out if q.ndim > 1 else out[0]

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


@dataclass
class DualPair:
    """A Lagrangian and its Fenchel-dual Hamiltonian."""

    lagrangian: LagrangianSpec
    hamiltonian: HamiltonianSpec

    def roundtrip_violation(self, samples=100, rng=None, v_scale=1.0) -> float:
        """Max |L(t,q,v) - (p*.v - H(t,q,p*))| at p* = L_v(t,q,v) over samples."""
        rng = np.random.default_rng(0 if rng is None else rng)
        torus = self.lagrangian.torus
        t = rng.uniform(0, 1, samples)
        q = rng.uniform(0, 1, (samples, torus.dim)) * torus.periods
        v = v_scale * rng.normal(size=(samples, torus.dim))
        p = np.asarray(self.lagrangian.grad_v(t, q, v))
        lhs = self.lagrangian.value(t, q, v)
        rhs = np.sum(p * v, axis=-1) - self.hamiltonian.value(t, q, p)
        return float(np.max(np.abs(lhs - rhs)))
