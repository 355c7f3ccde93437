import numpy as np
import pytest
from scipy.optimize import brentq

from brakekit import legendre
from brakekit.errors import NonConvergence
from brakekit.legendre import (
    _newton_step,
    dual_momentum,
    dual_velocity,
    hamiltonian_from_lagrangian,
    lagrangian_from_hamiltonian,
)
from brakekit.model import HamiltonianSpec, LagrangianSpec
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


def fenchel_value(spec, t, q, x, y):
    """x.y - spec(t, q, y): the Fenchel dual's value at x with the maximizer y."""
    return float(np.dot(x, y) - spec.value(t, q, y))


def test_selfdual_quadratic(torus1):
    H = kinetic_hamiltonian(torus1)
    q, v = np.array([0.1]), np.array([0.7])
    p = dual_momentum(H, 0.0, q, v)
    assert p[0] == pytest.approx(0.7, abs=1e-12)
    assert fenchel_value(H, 0.0, q, v, p) == pytest.approx(0.245, abs=1e-12)
    assert float(lagrangian_from_hamiltonian(H).value(0.0, q, v)) == pytest.approx(
        0.245, abs=1e-12)


def test_shifted_quadratic_matches_grid_oracle(torus1):
    H = scalar_hamiltonian(torus1, lambda p: 0.5 * (p - 0.3) ** 2,
                           lambda p: p - 0.3, lambda p: np.ones_like(p))
    q, v = np.array([0.0]), np.array([1.0])
    p = dual_momentum(H, 0.0, q, v)
    val = float(lagrangian_from_hamiltonian(H).value(0.0, q, v))
    assert p[0] == pytest.approx(1.3, abs=1e-10)
    assert val == pytest.approx(0.8, abs=1e-10)
    assert fenchel_value(H, 0.0, q, v, p) == pytest.approx(val, abs=1e-15)
    oracle, p_oracle = grid_max(torus1, H, 1.0)
    assert val == pytest.approx(oracle, abs=1e-7)


def test_quartic_matches_grid_oracle(torus1):
    # H_pp vanishes at p = 1, off the p = 0 where every solve starts
    H = scalar_hamiltonian(torus1, lambda p: 0.25 * (p - 1.0) ** 4,
                           lambda p: (p - 1.0) ** 3, lambda p: 3 * (p - 1.0) ** 2)
    q, v = np.array([0.0]), np.array([8.0])
    p = dual_momentum(H, 0.0, q, v)
    val = fenchel_value(H, 0.0, q, v, p)
    assert p[0] == pytest.approx(3.0, abs=1e-9)
    assert val == pytest.approx(20.0, abs=1e-9)
    oracle, _ = grid_max(torus1, H, 8.0)
    assert val == pytest.approx(oracle, abs=1e-5)


def test_fenchel_H_from_L_examples(torus1):
    L = kinetic_potential_lagrangian(torus1)
    q, p = np.array([0.0]), np.array([0.7])
    assert fenchel_value(L, 0.0, q, p, dual_velocity(L, 0.0, q, p)) == pytest.approx(
        0.245, abs=1e-12)
    assert float(hamiltonian_from_lagrangian(L).value(0.0, q, p)) == pytest.approx(
        0.245, abs=1e-12)

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
    p = np.array([0.0])
    v_star = dual_velocity(Lshift, 0.0, q, p)
    assert v_star[0] == pytest.approx(-0.3, abs=1e-12)
    assert fenchel_value(Lshift, 0.0, q, p, v_star) == pytest.approx(0.045, abs=1e-12)
    assert float(hamiltonian_from_lagrangian(Lshift).value(0.0, q, p)) == pytest.approx(
        0.045, abs=1e-12)


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
    # the Legendre map (q, p) -> (q, H_p(t, q, p)), inverted by dual_momentum
    H = kinetic_hamiltonian(torus1)
    assert np.allclose(H.grad_p(0.0, np.array([0.1]), np.array([0.4])), [0.4])
    rng = np.random.default_rng(11)
    for _ in range(100):
        q = rng.uniform(0, 1, 1)
        p = rng.normal(size=1)
        v = np.asarray(H.grad_p(0.0, q, p))
        p_back = dual_momentum(H, 0.0, q, v)
        assert np.max(np.abs(p_back - p)) < 1e-10


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


MAGNETIC_DOCS = {
    1: (["0.3*sin(2*pi*q1)"], "cos(2*pi*q1)/(4*pi**2)"),
    2: (["0.3*cos(2*pi*q2) + 0.1", "0.2*sin(2*pi*q1)*cos(2*pi*q2)"],
        "0.7*cos(2*pi*q1) + 0.5*cos(2*pi*q2)"),
}


@pytest.mark.parametrize("dim", sorted(MAGNETIC_DOCS))
def test_twisted_hamiltonian_matches_closed_form(dim):
    # independent oracle: H = |p + theta(q)|^2/(2m) + V(q) differentiated by sympy
    import sympy as sp

    theta, potential = MAGNETIC_DOCS[dim]
    mass = 0.7
    system = load_system({"dim": dim, "theta": theta,
                          "lagrangian": {"builtin": "kinetic_potential", "mass": mass,
                                         "potential": potential}})
    q = sp.symbols(" ".join(f"q{i + 1}" for i in range(dim)), real=True, seq=True)
    p = sp.symbols(" ".join(f"p{i + 1}" for i in range(dim)), real=True, seq=True)
    names = {"sin": sp.sin, "cos": sp.cos, "pi": sp.pi, **{str(a): a for a in q}}
    th = [sp.sympify(e, locals=names) for e in theta]
    H = (sum((p[i] + th[i]) ** 2 for i in range(dim)) / (2 * sp.Float(mass))
         + sp.sympify(potential, locals=names))
    closed = {
        "value": H,
        "grad_q": [sp.diff(H, a) for a in q],
        "grad_p": [sp.diff(H, a) for a in p],
        "hess_pp": [[sp.diff(H, a, b) for b in p] for a in p],
        "hess_qp": [[sp.diff(H, a, b) for b in p] for a in q],
        "hess_qq": [[sp.diff(H, a, b) for b in q] for a in q],
    }
    rng = np.random.default_rng(4)
    qs = rng.uniform(0, 1, (64, dim))
    ps = rng.normal(size=(64, dim)) * 2
    for name, expr in closed.items():
        fn = sp.lambdify([*q, *p], expr, modules="numpy")
        want = np.array([fn(*a, *b) for a, b in zip(qs, ps)], dtype=float)
        got = getattr(system.H, name)(0.0, qs, ps)
        assert np.max(np.abs(got - want)) < 1e-12, name


def test_quartic_load_builds_one_fenchel_dual(monkeypatch):
    import brakekit.legendre as legendre
    import brakekit.systems as systems

    duals, built = [], []
    dual_spec, from_lagrangian = legendre._dual_spec, systems.hamiltonian_from_lagrangian

    def counting_dual_spec(primal, *args):
        built.append(primal)
        return dual_spec(primal, *args)

    def counting_from_lagrangian(L):
        duals.append(L)
        return from_lagrangian(L)

    monkeypatch.setattr(legendre, "_dual_spec", counting_dual_spec)
    monkeypatch.setattr(systems, "hamiltonian_from_lagrangian", counting_from_lagrangian)
    system = load_system({"dim": 1, "theta": ["0.3 + 0.1*sin(2*pi*q1)"],
                          "lagrangian": {"builtin": "quartic_kinetic"}})
    assert duals == [system.L_theta] and built == [system.L_theta]


THETA = "0.3 + 0.1*sin(2*pi*q1)"
QUARTIC_DOCS = {
    1: {"dim": 1, "theta": [THETA], "lagrangian": {"builtin": "quartic_kinetic"}},
    2: {"dim": 2, "theta": MAGNETIC_DOCS[2][0],
        "lagrangian": {"builtin": "quartic_kinetic", "potential": MAGNETIC_DOCS[2][1]}},
}


@pytest.fixture(scope="module")
def quartic_twisted():
    """Quartic kinetic energy with a q-dependent theta: H = dual of L_theta - theta[v]."""
    return load_system(QUARTIC_DOCS[1])


@pytest.fixture(scope="module")
def quartic_t2():
    """The quartic twisted system on T^2, where fiber Hessians are 2x2."""
    return load_system(QUARTIC_DOCS[2])


@pytest.fixture(params=["quartic_twisted", "quartic_t2"])
def quartic_any(request):
    return request.getfixturevalue(request.param)


def quartic_batch(dim=1):
    rng = np.random.default_rng(3)
    t = rng.uniform(0, 1, 400)
    q = rng.uniform(0, 1, (400, dim))
    p = rng.normal(size=(400, dim)) * 3
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


def test_batched_dual_equals_pointwise(quartic_twisted, quartic_t2):
    for system in (quartic_twisted, quartic_t2):
        t, q, p = quartic_batch(system.dim)
        for name in ("value", "grad_q", "grad_p", "hess_pp", "hess_qp", "hess_qq"):
            fn = getattr(system.H, name)
            single = np.stack([fn(t[i], q[i], p[i]) for i in range(len(t))])
            assert np.array_equal(fn(t, q, p), single), (system.dim, name)


def test_dual_memo_is_never_stale(quartic_twisted):
    H, L_theta, theta = quartic_twisted.H, quartic_twisted.L_theta, quartic_twisted.theta

    def reference(t, q, p):  # H = H_theta o Phi^-1, H_theta the dual of L_theta
        return dual_velocity(L_theta, t, q, p + theta.components(q))

    t, q, p = quartic_batch()
    first = H.grad_p(t, q, p)
    p[3, 0] += 1.0  # the caller's array changes in place between two calls
    second = H.grad_p(t, q, p)
    assert np.array_equal(second, reference(t, q, p))
    assert not np.array_equal(first[3], second[3])
    second[:] = 0.0  # nor may a caller's write to a result reach the memo
    assert np.array_equal(H.grad_p(t, q, p), reference(t, q, p))


def test_point_solve_equals_batch_solve(quartic_any):
    # one-point solves skip the batch machinery; their iterates must not move
    L = quartic_any.L_theta
    t, q, p = quartic_batch(quartic_any.dim)
    batch = dual_velocity(L, t, q, p)
    single = np.stack([dual_velocity(L, t[i], q[i], p[i]) for i in range(len(t))])
    rows = np.concatenate([dual_velocity(L, t[i:i + 1], q[i:i + 1], p[i:i + 1])
                           for i in range(len(t))])
    assert np.array_equal(batch, single) and np.array_equal(batch, rows)


def test_point_and_batch_report_the_same_nonconvergence(quartic_any, monkeypatch):
    monkeypatch.setattr(legendre, "MAXIT", 1)
    L = quartic_any.L_theta
    t, q, p = quartic_batch(quartic_any.dim)
    messages = []
    for args in ((t[0], q[0], p[0]), (t[[0, 0]], q[[0, 0]], p[[0, 0]])):
        with pytest.raises(NonConvergence) as err:
            dual_velocity(L, *args)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("dual_velocity: residual")


def test_newton_step_division_matches_lapack_solve(quartic_twisted):
    # a 1x1 Newton step is taken as -r / h; it must be the bits LAPACK's
    # LU solve returns, on the fiber Hessians the quartic solves meet
    L = quartic_twisted.L_theta
    rng = np.random.default_rng(17)
    t = rng.uniform(0, 1, 20000)
    q = rng.uniform(0, 1, (20000, 1))
    v = rng.normal(size=(20000, 1)) * rng.choice([0.1, 1.0, 10.0, 40.0], (20000, 1))
    h = np.asarray(L.hess_vv(t, q, v))
    r = rng.normal(size=v.shape) * 10.0 ** rng.uniform(-13, 5, (20000, 1))
    want = np.linalg.solve(h, -r[..., None])[..., 0]
    assert np.array_equal(_newton_step(h, r), want)
    assert all(np.array_equal(_newton_step(h[i:i + 1], r[i:i + 1]), want[i:i + 1])
               for i in range(0, 20000, 97))
