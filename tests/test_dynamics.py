import numpy as np
import pytest

from brakekit import dynamics
from brakekit.dynamics import (
    BLOWUP_CEILING,
    brake_residual,
    brake_shoot,
    el_field,
    hamiltonian_rhs,
    integrate,
    lagrangian_rhs,
    twisted_field,
    verify_conjugacy,
)
from brakekit.errors import BlowUp, NonConvergence, SymmetryViolation
from brakekit.legendre import lagrangian_from_hamiltonian
from brakekit.model import HamiltonianSpec, LagrangianSpec, OneForm, TorusSpace
from brakekit.modification import build_modification, compute_constants
from brakekit.systems import kinetic_hamiltonian, load_system, shifted_hamiltonian


def test_twisted_field_reduces_to_standard(torus1, mild_system):
    H = mild_system.H
    x = np.array([0.3, 0.2])
    qd0, pd0 = twisted_field(H, None, 0.0, x)
    qd1, pd1 = twisted_field(H, OneForm.constant(torus1, [0.0]), 0.0, x)
    # constant theta has d theta = 0, so the twist term vanishes as well
    qd2, pd2 = twisted_field(H, OneForm.constant(torus1, [0.3]), 0.0, x)
    assert np.allclose(qd0, qd1) and np.allclose(pd0, pd1)
    assert np.allclose(pd1, pd2)
    assert np.allclose(qd0, H.grad_p(0.0, x[:1], x[1:]))


@pytest.mark.parametrize("rows", [2, 3])
def test_twisted_field_contracts_a_batch_per_row(t2_magnetic, rows):
    # theta_2 = sin(2 pi q1)/(2 pi) twists; 2 rows on T^2 is the square case
    torus, H, theta = t2_magnetic
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(0, 1, (rows, 2)), rng.normal(size=(rows, 2))], axis=1)
    qd, pd = twisted_field(H, theta, 0.0, x)
    assert qd.shape == pd.shape == (rows, 2)
    assert np.max(np.abs(theta.sigma(x[:, :2]))) > 0.1
    for i in range(rows):
        qd_i, pd_i = twisted_field(H, theta, 0.0, x[i])
        assert np.array_equal(qd[i], qd_i) and np.array_equal(pd[i], pd_i)


def test_t2_energy_conservation(t2_magnetic):
    torus, H, theta = t2_magnetic
    rhs = hamiltonian_rhs(H, theta)
    traj = integrate(rhs, np.array([0.1, 0.2, 0.4, -0.3]), 0.0, 10.0, tol=1e-10)
    ts = np.linspace(0, 10, 101)
    states = traj.at(ts)
    energies = H.value(ts, states[:, :2], states[:, 2:])
    assert np.max(energies) - np.min(energies) < 1e-8


def test_el_field_free_and_pendulum(free_system, mild_system):
    qd, vd = el_field(free_system.L_theta, 0.0, np.array([0.3, 0.7]))
    assert np.allclose(qd, [0.7]) and np.allclose(vd, [0.0])
    # L = v^2/2 - cos(2 pi q)/(4 pi^2): EL gives qddot = sin(2 pi q)/(2 pi);
    # cross-checked against finite differences of L_q
    q = 0.23
    _, vd = el_field(mild_system.L_theta, 0.0, np.array([q, 0.1]))
    assert vd[0] == pytest.approx(np.sin(2 * np.pi * q) / (2 * np.pi), abs=1e-12)
    h = 1e-6
    lq_fd = (float(mild_system.L_theta.value(0, np.array([q + h]), np.array([0.1])))
             - float(mild_system.L_theta.value(0, np.array([q - h]), np.array([0.1])))) / (2 * h)
    assert vd[0] == pytest.approx(lq_fd, abs=1e-9)


def test_el_field_time_dependent_mass():
    # L = a(t)|v|^2/2 with a = 1 + 0.1 cos(2 pi t): d/dt (a v) = 0 gives
    # vdot = -a' v / a = 0.2 pi sin(2 pi t) v / a
    torus = TorusSpace(2)

    def a(t):
        return 1.0 + 0.1 * np.cos(2 * np.pi * np.asarray(t, dtype=float))

    def zeros(t, q, v):
        return np.zeros(np.shape(v) + (2,))

    L = LagrangianSpec(
        torus,
        lambda t, q, v: 0.5 * a(t) * np.sum(np.asarray(v) ** 2, axis=-1),
        lambda t, q, v: np.zeros(np.shape(v)),
        lambda t, q, v: a(t)[..., None] * np.asarray(v),
        lambda t, q, v: a(t)[..., None, None] * np.eye(2),
        zeros, zeros, name="a(t)|v|^2/2")
    v = np.array([0.7, -1.3])
    for t in (0.0, 0.1, 0.25, 0.6, 0.9):
        qd, vd = el_field(L, t, np.concatenate([[0.2, 0.4], v]))
        want = 0.2 * np.pi * np.sin(2 * np.pi * t) * v / a(t)
        assert np.array_equal(qd, v)
        assert np.max(np.abs(vd - want)) < 1e-8


def test_grad_tv_is_exactly_zero_without_time_dependence():
    rng = np.random.default_rng(5)
    docs = [("kinetic_potential", ["0.3"], "1.2*cos(2*pi*q1)"),
            ("quartic_kinetic", ["0.3"], "0.5*cos(2*pi*q1)"),
            ("kinetic_potential", ["0.3", "0.1"], "0.7*cos(2*pi*q1) + 0.5*cos(2*pi*q2)")]
    for kinetic, theta, potential in docs:
        system = load_system({"dim": len(theta), "theta": theta,
                              "lagrangian": {"builtin": kinetic, "potential": potential}})
        KC = compute_constants(system.H, system.theta, q_samples=32, p_dirs=8, t_samples=2)
        specs = [system.L_theta, system.L, lagrangian_from_hamiltonian(system.H),
                 build_modification(system.L_theta, 2.0, constants=KC)[0]]
        n = system.dim
        # speeds on both sides of the modification's core |v| <= T
        t = rng.uniform(0, 1, 16)
        q = rng.uniform(0, 1, (16, n))
        v = rng.normal(size=(16, n)) * np.linspace(0.1, 6.0, 16)[:, None]
        for spec in specs:
            assert np.array_equal(spec.grad_tv(t, q, v), np.zeros((16, n))), spec.name


def test_trajectory_without_dense_output_refuses_to_interpolate():
    traj = integrate(lambda t, y: -y, np.array([1.0]), 0.0, 1.0, dense_output=False)
    with pytest.raises(ValueError, match="dense output"):
        traj.at(0.5)


def test_el_twisted_conjugacy(stiff_system):
    # EL field of L_theta maps under p = d_v L to the twisted field of H
    rng = np.random.default_rng(2)
    L = stiff_system.L_theta
    H = stiff_system.H
    theta = stiff_system.theta
    for _ in range(100):
        t = rng.uniform(0, 1)
        q = rng.uniform(0, 1, 1)
        v = rng.normal(size=1) * 2
        p = np.asarray(L.grad_v(t, q, v)) - theta.components(q)
        qd_h, pd_h = twisted_field(H, theta, t, np.concatenate([q, p]))
        qd_l, vd_l = el_field(L, t, np.concatenate([q, v]))
        assert np.max(np.abs(qd_h - v)) < 1e-12
        # d/dt p = d/dt (L_v - theta) = L_vv vdot + L_qv^T v... - jac v
        hv = np.asarray(L.hess_vv(t, q, v))
        jac = theta.jacobian(q)
        pd_from_l = hv @ vd_l + np.swapaxes(np.asarray(L.hess_qv(t, q, v)), -1, -2) @ v \
            - jac.T @ v
        assert np.max(np.abs(pd_h - pd_from_l.ravel())) < 1e-9


def test_integrate_free_particle():
    rhs = lambda t, y: np.array([y[1], 0.0])
    traj = integrate(rhs, np.array([0.0, 0.5]), 0.0, 2.0, tol=1e-12)
    assert traj.at(2.0)[0] == pytest.approx(1.0, abs=1e-10)


def test_pendulum_small_oscillation_linear_oracle(mild_system):
    # center at q = 1/2 with unit frequency; amplitude 1e-3
    a = 1e-3
    rhs = lagrangian_rhs(mild_system.L_theta)
    traj = integrate(rhs, np.array([0.5 + a, 0.0]), 0.0, 5.0, tol=1e-12)
    ts = np.linspace(0, 5, 64)
    exact = 0.5 + a * np.cos(ts)
    assert np.max(np.abs(traj.at(ts)[:, 0] - exact)) < 1e-6


def test_integrate_without_dense_output_keeps_the_steps(t2_magnetic):
    # DOP853's interpolant costs three extra field calls per step, which the
    # step itself never reads: same steps, same end state, fewer calls
    torus, H, theta = t2_magnetic
    rhs = hamiltonian_rhs(H, theta)
    calls = [0]

    def counted(t, y):
        calls[0] += 1
        return rhs(t, y)

    y0 = np.array([0.1, 0.2, 0.4, -0.3])
    dense = integrate(counted, y0, 0.0, 3.0, tol=1e-10)
    dense_calls, calls[0] = calls[0], 0
    lean = integrate(counted, y0, 0.0, 3.0, tol=1e-10, dense_output=False)
    assert lean.dense is None
    assert np.array_equal(lean.times, dense.times)
    assert np.array_equal(lean.states, dense.states)
    assert dense_calls - calls[0] == 3 * (len(dense.times) - 1)


def test_blowup_detected():
    rhs = lambda t, y: y  # exponential growth
    for dense_output in (True, False):
        with pytest.raises(BlowUp):
            integrate(rhs, np.array([1.0]), 0.0, 20.0, tol=1e-8,
                      dense_output=dense_output)


def test_blowup_ceiling_is_per_row():
    rhs = lambda t, y: y  # each row grows by e^t
    # e^14 = 1.2e6: the first row reaches the ceiling, the others stay at 1.2e3
    y0 = np.array([[1.0, 0.0], [1e-3, 0.0], [0.0, 1e-3]])
    for dense_output in (True, False):
        with pytest.raises(BlowUp):
            integrate(rhs, y0, 0.0, 14.0, tol=1e-8, dense_output=dense_output)
    # five rows that each end at norm 0.9e6: the stack's norm, sqrt(5) * 0.9e6,
    # is over the ceiling, but no single trajectory is
    y0 = np.full((5, 2), 0.9e6 * np.exp(-14.0) / np.sqrt(2.0))
    end = integrate(rhs, y0, 0.0, 14.0, tol=1e-8).states[-1].reshape(5, 2)
    assert np.max(np.linalg.norm(end, axis=1)) < BLOWUP_CEILING < np.linalg.norm(end)


def test_verify_conjugacy_zero_theta(torus1):
    H = kinetic_hamiltonian(torus1, potential="cos(2*pi*q1)/(4*pi**2)")
    dev = verify_conjugacy(H, OneForm.constant(torus1, [0.0]), samples=4)
    assert dev < 1e-12


def test_verify_conjugacy_constant_theta_closed_form(torus1):
    # both flows integrable in closed form for H = p^2/2 and constant theta
    H = kinetic_hamiltonian(torus1)
    theta = OneForm.constant(torus1, [0.3])
    dev = verify_conjugacy(H, theta, samples=6)
    assert dev < 1e-7
    # closed-form check of the twisted flow itself: qdot = p + const after Phi
    H_th = shifted_hamiltonian(H, theta)
    rhs = hamiltonian_rhs(H_th, None)
    traj = integrate(rhs, np.array([0.2, 0.1]), 0.0, 1.0, tol=1e-12)
    assert traj.at(1.0)[0] == pytest.approx(0.2 + (0.1 - 0.3), abs=1e-10)


def test_verify_conjugacy_t2(t2_magnetic):
    torus, H, theta = t2_magnetic
    assert verify_conjugacy(H, theta, samples=4) < 1e-6


def test_brake_shoot_constant_loops(mild_system, free_system):
    orbit = brake_shoot(mild_system.H, mild_system.theta, np.array([0.05]), 1.0)
    assert mild_system.torus.distance(orbit.q0, np.array([0.0])) < 1e-8
    assert orbit.symmetry_residual < 1e-12
    orbit = brake_shoot(mild_system.H, mild_system.theta, np.array([0.45]), 1.0)
    assert mild_system.torus.distance(orbit.q0, np.array([0.5])) < 1e-8
    orbit = brake_shoot(free_system.H, free_system.theta, np.array([0.3]), 1.0)
    assert orbit.symmetry_residual < 1e-14


def test_brake_shoot_libration_even_projection(stiff_system):
    orbit = brake_shoot(stiff_system.H, stiff_system.theta, np.array([0.04]), 2.0)
    assert orbit.symmetry_residual < 1e-8
    ts = np.linspace(0, 1, 65)[1:]
    q_f = orbit.trajectory.at(ts)[:, 0]
    q_b = orbit.trajectory.at(2.0 - ts)[:, 0]
    assert np.max(np.abs(q_f - q_b)) < 1e-8  # Lagrangian projection even in t


def test_brake_residual_generic_trajectory(stiff_system):
    # a non-brake initial condition fails the symmetry by a visible margin
    rhs = hamiltonian_rhs(stiff_system.H, stiff_system.theta)
    traj = integrate(rhs, np.array([0.3, 0.2]), 0.0, 2.0, tol=1e-10)
    assert brake_residual(stiff_system.theta, traj, 2.0) > 0.01


def field_hamiltonian(grad_q, grad_p, dim=1):
    """A T^dim HamiltonianSpec with only the partials brake_shoot's flow reads."""
    def unread(*args):
        raise AssertionError("brake_shoot reads only grad_q and grad_p")

    return HamiltonianSpec(TorusSpace(dim), unread, grad_q, grad_p, unread, unread, unread)


def shooting_residual(F, dim=1):
    """H = V(q) with V' = -F: q stays at q0 and p(1) = F(q0), so with
    theta = 0 and tau = 2 brake_shoot's residual is F itself."""
    return field_hamiltonian(lambda t, q, p: -F(np.asarray(q, dtype=float)),
                             lambda t, q, p: np.zeros_like(np.asarray(p, dtype=float)),
                             dim)


def test_brake_shoot_integrates_once_per_newton_trial(stiff_system, monkeypatch):
    # every Newton step's trial is accepted on the libration, so the trials
    # are the Jacobian solves; each costs one integration of the trial and its
    # 2N neighbours, plus one for the guess and the dense full period
    calls, solves = [], [0]
    integrate_, solve_ = dynamics.integrate, np.linalg.solve

    def counted_integrate(field, state0, t0, t1, **kwargs):
        calls.append((np.shape(state0), t1, kwargs.get("dense_output", True)))
        return integrate_(field, state0, t0, t1, **kwargs)

    def counted_solve(a, b):
        solves[0] += 1
        return solve_(a, b)

    monkeypatch.setattr(dynamics, "integrate", counted_integrate)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    orbit = brake_shoot(stiff_system.H, stiff_system.theta, np.array([0.04]), 2.0)
    assert orbit.symmetry_residual < 1e-8
    assert solves[0] >= 2
    assert len(calls) == solves[0] + 2
    assert calls[:-1] == [((3, 2), 1.0, False)] * (solves[0] + 1)
    assert calls[-1] == ((2,), 2.0, True)


def test_shooting_jacobian_equals_the_slope_of_a_linear_residual(monkeypatch):
    # F(q) = A q + b on T^2, with A not symmetric so that a transposed
    # Jacobian shows; the first Newton step lands on the root (0.3, 0.6)
    A = np.array([[3.0, -1.0], [0.5, 2.0]])
    b = -A @ np.array([0.3, 0.6])
    H = shooting_residual(lambda q: q @ A.T + b, dim=2)
    jacs = []
    solve_ = np.linalg.solve

    def spy(a, rhs):
        jacs.append(np.array(a))
        return solve_(a, rhs)

    monkeypatch.setattr(np.linalg, "solve", spy)
    orbit = brake_shoot(H, OneForm.constant(H.torus, [0.0, 0.0]), np.array([0.1, 0.2]), 2.0)
    assert len(jacs) >= 1
    for jac in jacs:
        assert np.max(np.abs(jac - A)) < 1e-8
    assert np.max(np.abs(orbit.q0 @ A.T + b)) <= 1e-9


@pytest.mark.parametrize("F, q0, message", [
    # a residual that does not depend on q0
    (lambda q: 0.0 * q + 1.0, 0.3, "singular shooting Jacobian"),
    # at the kink of 1 + |q| + q/2 the central difference gives slope 1/2,
    # and every step back along it raises |F|
    (lambda q: 1.0 + np.abs(q) + 0.5 * q, 0.0, "stalled at"),
    # each damped Newton step on the cube root only halves q
    (np.cbrt, 1.0, "after 40 iterations"),
], ids=["singular", "stalled", "iteration-cap"])
def test_brake_shoot_refuses_a_residual_it_cannot_solve(F, q0, message):
    H = shooting_residual(F)
    with pytest.raises(NonConvergence, match=message):
        brake_shoot(H, OneForm.constant(H.torus, [0.0]), np.array([q0]), 2.0)


def test_brake_shoot_refuses_a_hamiltonian_without_r1_symmetry():
    # H = |p|^2/2 + p/10 has a term odd in p: the residual vanishes from every
    # start, but the drifting flow is no brake orbit
    H = field_hamiltonian(lambda t, q, p: np.zeros_like(np.asarray(q, dtype=float)),
                          lambda t, q, p: np.asarray(p, dtype=float) + 0.1)
    with pytest.raises(SymmetryViolation, match="R1 symmetry"):
        brake_shoot(H, OneForm.constant(H.torus, [0.0]), np.array([0.3]), 1.0)


# The benchmark's three workload documents, their campaigns, and the q0 of
# every brake_shoot the campaign makes, as central-difference shots from
# independently integrated neighbours found them (seed shots first, then the
# dynamic re-shoots of the accepted orbits)
WORKLOAD_SHOOTS = {
    "pendulum-k8": (
        {"dim": 1, "theta": ["0.3"], "numerics": {"grid": 1024},
         "lagrangian": {"builtin": "kinetic_potential", "potential": "1.2*cos(2*pi*q1)"}},
        1, {"n_seeds": 4, "seed": 2, "grid": 1024, "amplitudes": (0.0, 0.2)},
        [[0.3114968460738789], [0.311496845942383], [0.6885031539188807],
         [0.31149684607992145], [0.3114968458466064], [0.5000000000000004], [0.0]]),
    "quartic-dual": (
        {"dim": 1, "theta": ["0.3"], "numerics": {"grid": 256},
         "lagrangian": {"builtin": "quartic_kinetic", "potential": "0.5*cos(2*pi*q1)"}},
        2, {"n_seeds": 2, "seed": 1},
        [[0.4999999999634034], [0.7547641476179003], [0.5000000000000082],
         [0.7547641475875235], [0.0]]),
    "torus2-mixed": (
        {"dim": 2, "theta": ["0.3", "0.1"], "numerics": {"grid": 256},
         "lagrangian": {"builtin": "kinetic_potential",
                        "potential": "0.7*cos(2*pi*q1) + 0.5*cos(2*pi*q2)"}},
        1, {"n_seeds": 2, "seed": 7},
        [[0.5000000000000002, 0.499999999999998], [0.49999999999106015, 0.5000000000000002],
         [0.5000000000000002, 0.499999999999998], [0.5, 0.0], [0.0, 1.0],
         [0.9999999999999165, 0.5000000000002295]]),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_SHOOTS))
def test_campaign_shoots_converge_to_the_separate_shot_q0(name, monkeypatch):
    from brakekit import cli

    doc, period, campaign, want = WORKLOAD_SHOOTS[name]
    system = load_system(doc)
    found = []
    shoot = dynamics.brake_shoot

    def recorded(*args, **kwargs):
        orbit = shoot(*args, **kwargs)
        found.append(orbit.q0)
        return orbit

    monkeypatch.setattr(dynamics, "brake_shoot", recorded)
    cli.run_orbit_campaign(system, period, **campaign)
    assert len(found) == len(want)
    for q0, q0_want in zip(found, want):
        assert system.torus.distance(q0, np.array(q0_want)) < 1e-9
