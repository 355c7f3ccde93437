"""Twisted Hamiltonian and Euler-Lagrange vector fields, integration, shooting.

Phase trajectories are integrated in lifted coordinates (q unwrapped in R^N);
all specs are lattice-periodic so this is harmless and keeps interpolation
smooth.  The twisted field on (T*M, omega0 - pi* d theta) reads

    qdot = H_p,   pdot_j = -H_q_j + sum_i sigma_ji qdot_i,
    sigma_ji = d theta_i / d q_j - d theta_j / d q_i,

the sign convention being pinned by the momentum-shift conjugacy test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BlowUp, NonConvergence, SingularMass, SymmetryViolation
from .model import HamiltonianSpec, LagrangianSpec, OneForm
from .ode import dop853
from .systems import shifted_hamiltonian

__all__ = [
    "twisted_field",
    "el_field",
    "integrate",
    "Trajectory",
    "BrakeOrbit",
    "verify_conjugacy",
    "brake_shoot",
    "brake_residual",
]

BLOWUP_CEILING = 1e6


def twisted_field(H: HamiltonianSpec, theta: Optional[OneForm], t, x):
    """Right-hand side (qdot, pdot) of the twisted Hamiltonian system at x = (q, p).

    x is one point or a batch of points as rows; the twist sigma(q) qdot is
    contracted row by row.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1] // 2
    q, p = x[..., :n], x[..., n:]
    qdot = np.asarray(H.grad_p(t, q, p))
    pdot = -np.asarray(H.grad_q(t, q, p))
    if theta is not None:
        pdot = pdot + (theta.sigma(q) @ qdot[..., None])[..., 0]
    return qdot, pdot


def el_field(L: LagrangianSpec, t, y):
    """Right-hand side (qdot, vdot) of the Euler-Lagrange system at (t, q, v).

    Solves L_vv vdot = L_q - L_qv^T v - d_t L_v; raises SingularMass when the
    fiber Hessian is numerically singular at the evaluation point.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[-1] // 2
    q, v = y[..., :n], y[..., n:]
    mass = np.asarray(L.hess_vv(t, q, v))
    rhs = (np.asarray(L.grad_q(t, q, v))
           - np.swapaxes(np.asarray(L.hess_qv(t, q, v)), -1, -2) @ v
           - np.asarray(L.grad_tv(t, q, v)))
    try:
        cond = np.linalg.cond(mass)
    except np.linalg.LinAlgError:
        raise SingularMass("fiber Hessian not diagonalizable") from None
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularMass(f"fiber Hessian condition number {cond:.2e}")
    vdot = np.linalg.solve(mass, rhs)
    return v, vdot


@dataclass
class Trajectory:
    """Sampled solution curve, with dense interpolation when it was built."""

    times: np.ndarray
    states: np.ndarray
    dense: Optional[Callable] = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory states must be finite")

    def at(self, t):
        """Interpolated state; vectorized over t, one row per time.  Needs the
        dense interpolant."""
        if self.dense is None:
            raise ValueError("trajectory was integrated without dense output")
        return self.dense(t)


def integrate(field, state0, t0, t1, tol=1e-10, dense_output=True) -> Trajectory:
    """Adaptive explicit Runge-Kutta (DOP853) integration of a first-order field.

    field(t, y) -> dy/dt on states of state0's shape.  A 2-D state0 stacks
    trajectories as rows, integrated together on one shared step sequence;
    the trajectory's states are then the flattened stacks.  Raises BlowUp
    when the norm of one row (of the state, for a 1-D state0) reaches
    BLOWUP_CEILING at a step end, signalling a non-global flow, and
    NonConvergence when the step size underflows.  With
    dense_output=False the trajectory has no interpolant, so the steps skip
    the three extra field evaluations of DOP853's order-7 interpolant; the
    steps and their end states are the same, and Trajectory.at refuses to
    interpolate.
    """
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    state0 = np.asarray(state0, dtype=float)
    shape = state0.shape

    def rhs(t, y):
        return np.asarray(field(t, y.reshape(shape)), dtype=float).ravel()

    def blowup(t, y):
        if np.max(np.linalg.norm(y.reshape(shape), axis=-1)) >= BLOWUP_CEILING:
            raise BlowUp(f"state norm reached {BLOWUP_CEILING:.1e} at t = {t:.6g}")

    sol = dop853(rhs, (t0, t1), state0.ravel(), tol, dense_output, step_check=blowup)
    return Trajectory(sol.t, sol.y, dense=sol.dense)


def hamiltonian_rhs(H: HamiltonianSpec, theta: Optional[OneForm]):
    """RHS for the (possibly twisted) Hamiltonian flow, at one state or a batch."""

    def rhs(t, y):
        qd, pd = twisted_field(H, theta, t, y)
        return np.concatenate([qd, pd], axis=-1)

    return rhs


def lagrangian_rhs(L: LagrangianSpec):
    def rhs(t, y):
        qd, vd = el_field(L, t, y)
        return np.concatenate([qd, vd])

    return rhs


def verify_conjugacy(H: HamiltonianSpec, theta: OneForm, samples=10) -> float:
    """Max deviation sup || Phi(Psi_{H_theta}^t(x)) - Psi_H^t(Phi(x)) || over t in (0, 1].

    Psi_H is the twisted flow of H, Psi_{H_theta} the standard flow of
    H_theta = H o Phi, with Phi(q, p) = (q, p - theta(q)); initial points are
    Phi-related by construction.  The starts are seeded (q uniform on the
    torus, p standard normal), both flows run at tolerance 1e-10, and the
    deviation is read at 32 equally spaced times.
    """
    rng = np.random.default_rng(0)
    torus = H.torus
    n = torus.dim
    H_th = shifted_hamiltonian(H, theta)
    rhs_twisted = hamiltonian_rhs(H, theta)
    rhs_standard = hamiltonian_rhs(H_th, None)
    worst = 0.0
    ts = np.linspace(0.0, 1.0, 33)[1:]
    for _ in range(samples):
        q = rng.uniform(0, 1, n) * torus.periods
        p = rng.normal(size=n)
        y_std = np.concatenate([q, p])                       # standard-side start
        th = theta.components(q)
        y_tw = np.concatenate([q, p - th])                   # Phi of it
        traj_std = integrate(rhs_standard, y_std, 0.0, 1.0)
        traj_tw = integrate(rhs_twisted, y_tw, 0.0, 1.0)
        std = traj_std.at(ts)
        tw = traj_tw.at(ts)
        phi_std = std.copy()
        phi_std[:, n:] -= theta.components(std[:, :n])
        worst = max(worst, float(np.max(np.abs(phi_std - tw))))
    return worst


@dataclass
class BrakeOrbit:
    """Periodic brake trajectory with its symmetry defect."""

    period: float
    trajectory: Trajectory
    symmetry_residual: float
    q0: np.ndarray


def brake_residual(theta: OneForm, traj: Trajectory, tau: float) -> float:
    """sup_t || R1(x(tau - t)) - x(t) || over 129 times in [0, tau] (x(-t) = x(tau - t)).

    R1(q, p) = (q, -p - 2 theta(q)) is the anti-symplectic involution.
    """
    torus = theta.torus
    n = torus.dim
    ts = np.linspace(0.0, tau, 129)
    x_t = traj.at(ts)
    x_rev = traj.at(tau - ts)
    q_rev, p_rev = x_rev[:, :n], x_rev[:, n:]
    q_ref = q_rev
    p_ref = -p_rev - 2.0 * theta.components(q_rev)
    dq = q_ref - x_t[:, :n]
    dq -= torus.periods * np.round(dq / torus.periods)
    dp = p_ref - x_t[:, n:]
    return float(np.max(np.sqrt(np.sum(dq * dq + dp * dp, axis=1))))


def brake_shoot(H: HamiltonianSpec, theta: OneForm, q0_guess, tau: float,
                tol: float = 1e-10) -> BrakeOrbit:
    """Newton shooting for a tau-periodic brake orbit of the twisted flow of H.

    The unknown is q0 only; the start point (q0, -theta(q0)) lies on Fix(R1)
    and the residual F(q0) = p(tau/2) + theta(q(tau/2)) demands that the half
    trajectory ends on Fix(R1) as well.  Newton runs on central-difference
    Jacobians (step 1e-6) with backtracking, for at most 40 iterations, until
    |F| <= 1e-9.  Each Newton trial is integrated together with its 2N
    neighbours q0 +- 1e-6 e_j on one shared step sequence (internal numerical
    differentiation), so one integration gives F and its Jacobian at the
    trial, and an accepted trial needs no further integration.  The full
    orbit is the reflected extension, whose defect against a direct
    integration is reported.
    """
    newton_tol, maxit, fd_step = 1e-9, 40, 1e-6
    torus = H.torus
    n = torus.dim
    rhs = hamiltonian_rhs(H, theta)
    # rows: q0, then q0 + fd_step e_j, then q0 - fd_step e_j
    offsets = np.concatenate([np.zeros((1, n)), fd_step * np.eye(n), -fd_step * np.eye(n)])

    def shoot(q0):
        # only the end states are read, so the half shot builds no interpolant
        qs = q0 + offsets
        y0 = np.concatenate([qs, -theta.components(qs)], axis=1)
        end = integrate(rhs, y0, 0.0, 0.5 * tau, tol=tol,
                        dense_output=False).states[-1].reshape(y0.shape)
        F = end[:, n:] + theta.components(end[:, :n])
        return F[0], (F[1:n + 1] - F[n + 1:]).T / (2 * fd_step)

    q0 = np.asarray(q0_guess, dtype=float).copy()
    F, jac = shoot(q0)
    norm = np.linalg.norm(F)
    for _ in range(maxit):
        if norm <= newton_tol:
            break
        try:
            step = np.linalg.solve(jac, -F)
        except np.linalg.LinAlgError:
            raise NonConvergence("singular shooting Jacobian") from None
        alpha = 1.0
        for _ in range(30):
            trial = q0 + alpha * step
            F_trial, jac_trial = shoot(trial)
            n_trial = np.linalg.norm(F_trial)
            if n_trial < norm:
                q0, F, jac, norm = trial, F_trial, jac_trial, n_trial
                break
            alpha *= 0.5
        else:
            raise NonConvergence(f"brake shooting stalled at |F| = {norm:.3e}")
    if norm > newton_tol:
        raise NonConvergence(f"brake shooting: |F| = {norm:.3e} after {maxit} iterations")

    q0 = torus.wrap(q0)
    y0 = np.concatenate([q0, -theta.components(q0)])
    traj = integrate(rhs, y0, 0.0, tau, tol=tol)
    resid = brake_residual(theta, traj, tau)
    if resid > max(1e-6, 10 * newton_tol * tau):
        raise SymmetryViolation(
            f"reflected extension fails the flow equations (residual {resid:.3e}); "
            "check the R1 symmetry of H")
    return BrakeOrbit(tau, traj, resid, q0)
