import numpy as np
import pytest
from scipy.optimize import brentq

from brakekit.legendre import (
    DualPair,
    dual_momentum,
    dual_velocity,
    fenchel_H_from_L,
    fenchel_L_from_H,
    hamiltonian_from_lagrangian,
    lagrangian_from_hamiltonian,
    legendre_map,
)
from brakekit.model import HamiltonianSpec, LagrangianSpec, PhasePoint
from brakekit.systems import (
    kinetic_hamiltonian,
    kinetic_potential_lagrangian,
    load_system,
    shifted_hamiltonian,
)


def scalar_hamiltonian(torus, f, fp, fpp):
    """1-dof Hamiltonian H(p) from scalar callables."""
    def value(t, q, p):
        return f(np.asarray(p)[..., 0])

    def grad_q(t, q, p):
        q = np.asarray(q, dtype=float)
        return np.zeros_like(q)

    def grad_p(t, q, p):
        return fp(np.asarray(p))

    def hess_pp(t, q, p):
        return fpp(np.asarray(p))[..., None]

    def zero_mat(t, q, p):
        q = np.asarray(q, dtype=float)
        return np.zeros(q.shape[:-1] + (1, 1))

    return HamiltonianSpec(torus, value, grad_q, grad_p, hess_pp, zero_mat, zero_mat)


def grid_max(torus, H, v, grid=200001, p_range=(-5.0, 5.0)):
    """Independent oracle: brute-force Fenchel maximum over a dense p grid."""
    ps = np.linspace(*p_range, grid)
    vals = ps * v - np.array([H.value(0.0, np.array([0.0]), np.array([p])) for p in ps])
    j = int(np.argmax(vals))
    return float(vals[j]), float(ps[j])


def test_selfdual_quadratic(torus1):
    H = kinetic_hamiltonian(torus1)
    val, p = fenchel_L_from_H(H, 0.0, np.array([0.1]), np.array([0.7]))
    assert val == pytest.approx(0.245, abs=1e-12)
    assert p[0] == pytest.approx(0.7, abs=1e-12)


def test_shifted_quadratic_matches_grid_oracle(torus1):
    H = scalar_hamiltonian(torus1, lambda p: 0.5 * (p - 0.3) ** 2,
                           lambda p: p - 0.3, lambda p: np.ones_like(p))
    val, p = fenchel_L_from_H(H, 0.0, np.array([0.0]), np.array([1.0]))
    assert p[0] == pytest.approx(1.3, abs=1e-10)
    assert val == pytest.approx(0.8, abs=1e-10)
    oracle, p_oracle = grid_max(torus1, H, 1.0)
    assert val == pytest.approx(oracle, abs=1e-7)


def test_quartic_matches_grid_oracle(torus1):
    H = scalar_hamiltonian(torus1, lambda p: 0.25 * p ** 4,
                           lambda p: p ** 3, lambda p: 3 * p ** 2)
    val, p = fenchel_L_from_H(H, 0.0, np.array([0.0]), np.array([8.0]), p0=np.array([1.0]))
    assert p[0] == pytest.approx(2.0, abs=1e-9)
    assert val == pytest.approx(12.0, abs=1e-9)
    oracle, _ = grid_max(torus1, H, 8.0)
    assert val == pytest.approx(oracle, abs=1e-5)


def test_fenchel_H_from_L_examples(torus1):
    L = kinetic_potential_lagrangian(torus1)
    val, v = fenchel_H_from_L(L, 0.0, np.array([0.0]), np.array([0.7]))
    assert val == pytest.approx(0.245, abs=1e-12)

    def value(t, q, w):
        w = np.asarray(w)[..., 0]
        return 0.5 * w * w + 0.3 * w

    def grad_v(t, q, w):
        return np.asarray(w) + 0.3

    def hess(t, q, w):
        q = np.asarray(q, dtype=float)
        return np.ones(q.shape[:-1] + (1, 1))

    def grad_q(t, q, w):
        q = np.asarray(q, dtype=float)
        return np.zeros_like(q)

    def zero_mat(t, q, w):
        q = np.asarray(q, dtype=float)
        return np.zeros(q.shape[:-1] + (1, 1))

    Lshift = LagrangianSpec(torus1, value, grad_q, grad_v, hess, zero_mat, zero_mat)
    val, v_star = fenchel_H_from_L(Lshift, 0.0, np.array([0.0]), np.array([0.0]))
    assert v_star[0] == pytest.approx(-0.3, abs=1e-12)
    assert val == pytest.approx(0.045, abs=1e-12)


def test_biconjugation_roundtrip(stiff_system, quartic_system):
    rng = np.random.default_rng(7)
    for system in (stiff_system, quartic_system):
        L = system.L_theta
        H = hamiltonian_from_lagrangian(L)
        L2 = lagrangian_from_hamiltonian(H)
        for _ in range(100):
            t = rng.uniform(0, 1)
            q = rng.uniform(0, 1, 1)
            v = rng.normal(size=1) * 1.5
            assert abs(float(L2.value(t, q, v)) - float(L.value(t, q, v))) < 1e-9


def test_legendre_map_and_inverse(torus1):
    H = kinetic_hamiltonian(torus1)
    y = legendre_map(H, PhasePoint([0.1], [0.4], torus1), 0.0)
    assert np.allclose(y.v, [0.4])
    rng = np.random.default_rng(11)
    for _ in range(100):
        q = rng.uniform(0, 1, 1)
        p = rng.normal(size=1)
        v = np.asarray(H.grad_p(0.0, q, p))
        p_back = dual_momentum(H, 0.0, q, v)
        assert np.max(np.abs(p_back - p)) < 1e-10


def test_roundtrip_identity_on_dualpair(mild_system):
    pair = DualPair(mild_system.L_theta, mild_system.H_theta)
    assert pair.roundtrip_violation(100) < 1e-12


def test_magnetic_shift_duality(stiff_system):
    # dual Lagrangian of H o Phi equals L + theta[v]
    H_theta = shifted_hamiltonian(stiff_system.H, stiff_system.theta)
    L_num = lagrangian_from_hamiltonian(H_theta)
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = rng.uniform(0, 1)
        q = rng.uniform(0, 1, 1)
        v = rng.normal(size=1) * 2
        assert abs(float(L_num.value(t, q, v))
                   - float(stiff_system.L_theta.value(t, q, v))) < 1e-9


def test_gradient_duality(stiff_system):
    # p* = L_v and v* = H_p are mutually inverse fiber maps
    L, H = stiff_system.L, stiff_system.H
    rng = np.random.default_rng(9)
    for _ in range(50):
        t = rng.uniform(0, 1)
        q = rng.uniform(0, 1, 1)
        v = rng.normal(size=1) * 2
        p = np.asarray(L.grad_v(t, q, v))
        v_back = np.asarray(H.grad_p(t, q, p))
        assert np.max(np.abs(v_back - v)) < 1e-12


THETA = "0.3 + 0.1*sin(2*pi*q1)"


@pytest.fixture(scope="module")
def quartic_twisted():
    """Quartic kinetic energy with a q-dependent theta: H = dual of L_theta - theta[v]."""
    return load_system({"dim": 1, "theta": [THETA],
                        "lagrangian": {"builtin": "quartic_kinetic"}})


def quartic_batch():
    rng = np.random.default_rng(3)
    t = rng.uniform(0, 1, 400)
    q = rng.uniform(0, 1, (400, 1))
    p = rng.normal(size=(400, 1)) * 3
    # |p| ~ 40: the full Newton step from v = 0 lands near v = 40, where the
    # residual is ~40^3, so these points backtrack
    p[:40, 0] = rng.uniform(38.0, 42.0, 40) * rng.choice([-1.0, 1.0], 40)
    return t, q, p


def test_batched_dual_matches_root_oracle(quartic_twisted):
    # L_v = (v^2 + 1) v - theta(q), so H_p(q, p) is the real root of (v^2 + 1) v = p + theta(q)
    H = quartic_twisted.H
    t, q, p = quartic_batch()
    rhs = p[:, 0] + 0.3 + 0.1 * np.sin(2 * np.pi * q[:, 0])
    v = np.array([brentq(lambda w, c=c: (w * w + 1.0) * w - c, -10.0, 10.0, xtol=1e-14)
                  for c in rhs])
    assert np.max(np.abs(H.grad_p(t, q, p)[:, 0] - v)) < 1e-10
    assert np.max(np.abs(H.hess_pp(t, q, p)[:, 0, 0] - 1.0 / (3.0 * v * v + 1.0))) < 1e-10


def test_batched_dual_equals_pointwise(quartic_twisted):
    H = quartic_twisted.H
    t, q, p = quartic_batch()
    for name in ("value", "grad_q", "grad_p", "hess_pp", "hess_qp", "hess_qq"):
        fn = getattr(H, name)
        single = np.stack([fn(t[i], q[i], p[i]) for i in range(len(t))])
        assert np.array_equal(fn(t, q, p), single), name


def test_dual_memo_is_never_stale(quartic_twisted):
    H, L = quartic_twisted.H, quartic_twisted.L
    t, q, p = quartic_batch()
    first = H.grad_p(t, q, p)
    p[3, 0] += 1.0  # the caller's array changes in place between two calls
    second = H.grad_p(t, q, p)
    assert np.array_equal(second, dual_velocity(L, t, q, p))
    assert not np.array_equal(first[3], second[3])
    second[:] = 0.0  # nor may a caller's write to a result reach the memo
    assert np.array_equal(H.grad_p(t, q, p), dual_velocity(L, t, q, p))
