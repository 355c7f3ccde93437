import dataclasses

import numpy as np
import pytest

from brakekit.errors import InfeasibleParams, SpeedTooHigh
from brakekit.index import morse_index
from brakekit.loopspace import SymmetricLoop
from brakekit.model import LagrangianSpec, OneForm
from brakekit.modification import (
    _sample_grid,
    build_modification,
    check_quadratic_growth,
    compute_constants,
    hessian_T_independence,
    speed_bound_report,
    verify_orbit_preservation,
)
from brakekit.systems import kinetic_hamiltonian, load_system


def test_compute_constants_examples(free_system, stiff_system, torus1):
    K, C = compute_constants(free_system.H, free_system.theta)
    assert K == pytest.approx(0.0, abs=1e-12)
    assert C == pytest.approx(0.5, abs=1e-6)
    # constant form 0.3 against a plain kinetic Hamiltonian: C = (1.3)^2/2
    H = kinetic_hamiltonian(torus1)
    theta = OneForm.constant(torus1, [0.3])
    K, C = compute_constants(H, theta)
    assert K == pytest.approx(0.3, abs=1e-12)
    assert C == pytest.approx(0.845, abs=1e-6)


@pytest.fixture(scope="module")
def stiff_mod(stiff_system):
    KC = compute_constants(stiff_system.H, stiff_system.theta)
    spec, params = build_modification(stiff_system.L_theta, 4.0, constants=KC)
    return stiff_system, spec, params


def test_m1_exact_coincidence(stiff_mod):
    system, spec, params = stiff_mod
    L = system.L_theta
    rng = np.random.default_rng(0)
    t = rng.uniform(0, 1, 400)
    q = rng.uniform(0, 1, (400, 1))
    v = rng.uniform(-params.T, params.T, (400, 1)) * 0.999
    assert np.all(spec.value(t, q, v) == L.value(t, q, v))
    assert np.all(spec.grad_q(t, q, v) == L.grad_q(t, q, v))
    assert np.all(spec.grad_v(t, q, v) == L.grad_v(t, q, v))
    assert np.all(spec.hess_vv(t, q, v) == L.hess_vv(t, q, v))
    assert np.all(spec.hess_qv(t, q, v) == L.hess_qv(t, q, v))
    assert np.all(spec.hess_qq(t, q, v) == L.hess_qq(t, q, v))


def test_psi_profile_values(stiff_mod):
    _, _, params = stiff_mod
    T, mu = params.T, params.mu
    psi = params.psi
    assert psi.value(np.array([T * T / 2]))[0] == 0.0
    assert psi.value(np.array([5 * T * T]))[0] == pytest.approx(
        mu * 5 * T * T - 2 * mu * T * T, rel=1e-12)
    # monotone on the blend
    s = np.linspace(T * T, 4 * T * T, 200)
    assert np.all(np.diff(psi.value(s)) >= 0.0)


def test_mu_inequalities(stiff_mod):
    _, _, p = stiff_mod
    assert 4 * p.T * p.mu >= 1.0
    assert 2 * p.T ** 2 * p.mu >= 2 * p.T - p.C - p.min_L1T - 1e-9
    assert p.convexity_min_eig > 0.0


def test_m3_growth_floor(stiff_mod):
    _, spec, params = stiff_mod
    rng = np.random.default_rng(1)
    t = rng.uniform(0, 1, 10000)
    q = rng.uniform(0, 1, (10000, 1))
    v = rng.normal(size=(10000, 1)) * 4 * params.T
    margin = spec.value(t, q, v) - (np.abs(v[:, 0]) - params.C)
    assert float(np.min(margin)) >= 0.0


def test_reversibility_inherited(stiff_mod):
    _, spec, _ = stiff_mod
    rng = np.random.default_rng(2)
    t = rng.uniform(-1, 1, 300)
    q = rng.uniform(0, 1, (300, 1))
    v = rng.normal(size=(300, 1)) * 6
    assert np.max(np.abs(spec.value(-t, q, -v) - spec.value(t, q, v))) < 1e-14


def test_growth_certificates(free_system, quartic_system, stiff_mod):
    rep = check_quadratic_growth(free_system.L_theta)
    assert rep["passed"]
    assert rep["l1"] == pytest.approx(1.0, abs=1e-12)
    assert 1.0 <= rep["l2"] <= 1.1
    _, spec, _ = stiff_mod
    assert check_quadratic_growth(spec)["passed"]
    rep = check_quadratic_growth(quartic_system.L_theta)
    assert not rep["passed"]
    assert rep["witness"]["bound"] == "L_vv"
    assert rep["witness"]["speed"] > 10.0


def test_orbit_preservation_constant(stiff_system):
    KC = compute_constants(stiff_system.H, stiff_system.theta)
    loop = SymmetricLoop.constant([0.5], 1)
    for T in (1.0, 4.0):
        spec, _ = build_modification(stiff_system.L_theta, T, constants=KC)
        out = verify_orbit_preservation(stiff_system.L_theta, spec, loop, T)
        assert out["preserved"] and out["action_delta"] == 0.0


def test_orbit_preservation_libration(stiff_system, libration):
    KC = compute_constants(stiff_system.H, stiff_system.theta)
    U = libration.max_speed()
    for T in (2 * U, 4 * U):
        spec, _ = build_modification(stiff_system.L_theta, T, constants=KC)
        out = verify_orbit_preservation(stiff_system.L_theta, spec, libration, T)
        assert out["preserved"], out
    with pytest.raises(SpeedTooHigh):
        spec, _ = build_modification(stiff_system.L_theta, 0.5, constants=KC)
        verify_orbit_preservation(stiff_system.L_theta, spec, libration, 0.5)


def test_hessian_T_independence(stiff_system, libration):
    KC = compute_constants(stiff_system.H, stiff_system.theta)
    const = SymmetricLoop.constant([0.5], 1)
    out = hessian_T_independence(stiff_system.L_theta, const, 1.0, 10.0, constants=KC)
    assert out["max_entry_deviation"] == 0.0
    assert out["index_pairs_equal"]
    out = hessian_T_independence(stiff_system.L_theta, libration, 4.0, 8.0,
                                 constants=KC)
    assert out["max_entry_deviation"] < 1e-13
    assert out["index_pairs_equal"]


def test_hessian_T_independence_takes_morse_index_pairs_and_one_assembly_per_T(
        stiff_system, libration, monkeypatch):
    from brakekit import loopspace, modification

    KC = compute_constants(stiff_system.H, stiff_system.theta)
    want, specs = {}, []
    for T in (4.0, 8.0):
        spec, _ = build_modification(stiff_system.L_theta, T, constants=KC)
        full, even = morse_index(spec, libration)
        want[str(T)] = {"full": full, "even": even}
        specs.append(spec)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return loopspace.assemble_hessian(*args, **kwargs)

    monkeypatch.setattr(modification, "assemble_hessian", counted)
    out = hessian_T_independence(stiff_system.L_theta, libration, 4.0, 8.0,
                                 constants=KC)
    assert out["index_pairs"] == want
    # one deviation assembly per T, folded for the even part; morse_index
    # assembles its own through the index module
    assert calls == specs


def test_mu_doublings_are_decided_without_eigenvalues(monkeypatch):
    # the diagonal and a batched Cholesky decide each mu step; the
    # eigenvalues the record keeps are computed once, at the accepted mu
    system = load_system({"dim": 1, "theta": ["0.3"],
                          "lagrangian": {"builtin": "kinetic_potential",
                                         "potential": "cos(2*pi*q1)"}})
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    _, params = build_modification(system.L_theta, 4.0, constants=(0.3, 2.3))
    assert params.mu_doublings > 0
    assert len(calls) == 1 and params.convexity_min_eig > 0.0


def test_infeasible_mu_raises(stiff_system, monkeypatch):
    from brakekit import modification

    monkeypatch.setattr(modification, "MU_CAP", 1e-9)
    for _ in range(2):  # a failed build is not cached: the repeat raises too
        with pytest.raises(InfeasibleParams):
            build_modification(stiff_system.L_theta, 4.0, constants=(0.3, 2.3))


def test_speed_bound_report():
    consts = [{"period": 1, "mean_action": 0.0, "max_speed": 0.0} for _ in range(3)]
    rep = speed_bound_report(consts, alpha=1.0, m=2)
    assert rep["T_tilde"] == 0.0
    batch = consts + [{"period": 2, "mean_action": 0.5, "max_speed": 1.7}]
    rep2 = speed_bound_report(batch, alpha=1.0, m=2)
    assert rep2["T_tilde"] == 1.7 >= rep["T_tilde"]
    # entries above alpha or m do not count
    over = batch + [{"period": 3, "mean_action": 0.1, "max_speed": 9.0},
                    {"period": 1, "mean_action": 1.5, "max_speed": 9.0}]
    assert speed_bound_report(over, alpha=1.0, m=2) == rep2


@pytest.fixture(scope="module")
def torus2_system():
    from brakekit.systems import load_system

    return load_system({
        "dim": 2, "theta": ["0.3", "0.1"],
        "lagrangian": {"builtin": "kinetic_potential",
                       "potential": "0.7*cos(2*pi*q1) + 0.5*cos(2*pi*q2)"},
    })


def test_build_modification_is_shared(stiff_mod, monkeypatch):
    from brakekit import modification

    system, _, params = stiff_mod
    L = system.L_theta
    K, C = params.K, params.C
    spec, prm = build_modification(L, 5.0, constants=(K, C))
    # positional constants, an int T and numpy scalars find the same build
    for again in (build_modification(L, 5.0, (K, C)),
                  build_modification(L, 5, [np.float64(K), np.float64(C)])):
        assert again[0] is spec and again[1] is prm
    # an equal copy of L is another object, so it gets its own build
    copy = LagrangianSpec(L.torus, L.value, L.grad_q, L.grad_v, L.hess_vv, L.hess_qv,
                          L.hess_qq, reversible=L.reversible, name=L.name)
    other = build_modification(copy, 5.0, (K, C))
    assert other[0] is not spec and other[1] is not prm
    assert other[1].record() == prm.record()
    for args in ((L, 4.5, (K, C)), (L, 5.0, (K + 0.01, C)), (L, 5.0, (K, C + 0.01))):
        spec2, prm2 = build_modification(*args)
        assert spec2 is not spec and prm2 is not prm
    # nor is a build cached under one cap returned under another
    monkeypatch.setattr(modification, "MU_CAP", 1e9)
    spec2, prm2 = build_modification(L, 5.0, (K, C))
    assert spec2 is not spec and prm2 is not prm


def test_params_are_frozen(stiff_mod):
    _, _, params = stiff_mod
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.mu = 1.0


def _inline_hess_vv(L, params, t, q, v):
    """The fiber Hessian of L_T written out in one expression."""
    lam, phi, psi, T = params.lam, params.phi, params.psi, params.T
    v = np.asarray(v, dtype=float)
    s = np.asarray(L.value(t, q, v)) / lam
    w = np.sum(v * v, axis=-1)
    exact = (s <= 1.0) & (w <= T * T)
    gv = np.asarray(L.grad_v(t, q, v))
    hvv = np.asarray(L.hess_vv(t, q, v))
    generic = (phi.d1(s)[..., None, None] * hvv
               + (phi.d2(s) / lam)[..., None, None] * (gv[..., :, None] * gv[..., None, :])
               + 2.0 * psi.d1(w)[..., None, None] * np.eye(v.shape[-1])
               + 4.0 * psi.d2(w)[..., None, None] * (v[..., :, None] * v[..., None, :]))
    return np.where(exact[..., None, None], hvv, generic)


@pytest.mark.parametrize("which", ["stiff", "torus2"])
def test_hess_vv_matches_inline_formula(which, stiff_system, torus2_system):
    system = stiff_system if which == "stiff" else torus2_system
    L = system.L_theta
    KC = compute_constants(system.H, system.theta, q_samples=32, p_dirs=8, t_samples=2)
    spec, params = build_modification(L, 2.0, KC)
    T, n = params.T, system.dim
    rng = np.random.default_rng(3)
    dirs = rng.normal(size=(600, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # a third each in the core |v| < T, the blend band and past |v| = 2T
    speed = np.concatenate([rng.uniform(0, T, 200), rng.uniform(T, 2 * T, 200),
                            rng.uniform(2 * T, 6 * T, 200)])
    t = rng.uniform(0, 1, 600)
    q = rng.uniform(0, 1, (600, n))
    v = speed[:, None] * dirs
    assert np.array_equal(spec.hess_vv(t, q, v), _inline_hess_vv(L, params, t, q, v))
    for j in (0, 300, 599):  # single points
        assert np.array_equal(spec.hess_vv(t[j], q[j], v[j]),
                              _inline_hess_vv(L, params, t[j], q[j], v[j]))
    # the certificate inside build_modification saw the same matrices
    rng = np.random.default_rng(0)
    _sample_grid(L, [2.0 * T], 24, 8, 4, rng)
    tt, qq, vv = _sample_grid(L, np.linspace(0.0, 6.0 * T, 49), 24, 8, 4, rng)
    hv = _inline_hess_vv(L, params, tt, qq, vv)
    assert float(np.min(np.linalg.eigvalsh(0.5 * (hv + np.swapaxes(hv, -1, -2))))) \
        == params.convexity_min_eig


# the benchmark's three workload documents
WORKLOAD_DOCUMENTS = {
    "pendulum-k8": {"dim": 1, "theta": ["0.3"],
                    "lagrangian": {"builtin": "kinetic_potential",
                                   "potential": "1.2*cos(2*pi*q1)"}},
    "quartic-dual": {"dim": 1, "theta": ["0.3"],
                     "lagrangian": {"builtin": "quartic_kinetic",
                                    "potential": "0.5*cos(2*pi*q1)"}},
    "torus2-mixed": {"dim": 2, "theta": ["0.3", "0.1"],
                     "lagrangian": {"builtin": "kinetic_potential",
                                    "potential": "0.7*cos(2*pi*q1) + 0.5*cos(2*pi*q2)"}},
}


def _ball_constants(H, theta, q_samples, p_dirs, t_samples, rng):
    """compute_constants as it sampled the whole ball: 8 radii on each drawn ray."""
    rng = np.random.default_rng(rng)
    n = H.torus.dim
    q = rng.uniform(0, 1, size=(q_samples, n)) * H.torus.periods
    K = float(np.max(np.linalg.norm(theta.components(q), axis=-1)))
    dirs = rng.normal(size=(p_dirs, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    C = -np.inf
    for t in np.linspace(0.0, 1.0, t_samples, endpoint=False):
        for r in np.linspace(0.0, K + 1.0, 9)[1:]:
            vals = H.value(t, q[:, None, :].repeat(p_dirs, 1).reshape(-1, n),
                           np.tile(r * dirs, (q_samples, 1)))
            C = max(C, float(np.max(vals)))
    return K, C


def _loop_grid(L, radii, q_samples, n_dirs, t_samples, rng):
    """_sample_grid as one block per (t, r), stacked in loop order."""
    n = L.torus.dim
    q = rng.uniform(0, 1, size=(q_samples, n)) * L.torus.periods
    dirs = rng.normal(size=(n_dirs, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    tt, qq, vv = [], [], []
    for t in np.linspace(0.0, 1.0, t_samples, endpoint=False):
        for r in radii:
            tt.append(np.full(q_samples * n_dirs, t))
            qq.append(np.repeat(q, n_dirs, axis=0))
            vv.append(np.tile(r * dirs, (q_samples, 1)))
    return np.concatenate(tt), np.vstack(qq), np.vstack(vv)


def test_c_takes_both_ends_of_a_one_sided_draw():
    # in 1-D the drawn directions are +-1, and this seed draws -1 eight times:
    # sampled along the drawn directions only, C misses the side p > 0
    system = load_system(WORKLOAD_DOCUMENTS["quartic-dual"])
    seed = 721961931
    K, C = compute_constants(system.H, system.theta, q_samples=32, p_dirs=8,
                             t_samples=2, rng=seed)
    rng = np.random.default_rng(seed)
    q = rng.uniform(0, 1, size=(32, 1))
    assert np.all(rng.normal(size=8) < 0.0)
    ends = np.tile([[K + 1.0], [-(K + 1.0)]], (32, 1))
    assert C == max(float(np.max(system.H.value(t, np.repeat(q, 2, axis=0), ends)))
                    for t in (0.0, 0.5))
    assert C > _ball_constants(system.H, system.theta, 32, 8, 2, seed)[1]
    rng = np.random.default_rng(37)
    for T in (4.0, 8.0):
        spec, params = build_modification(system.L_theta, T, (K, C))
        t = rng.uniform(0, 1, 10000)
        q = rng.uniform(0, 1, (10000, 1))
        v = rng.normal(size=(10000, 1)) * 4 * T
        assert float(np.min(spec.value(t, q, v) - (np.abs(v[:, 0]) - params.C))) >= 0.0


@pytest.mark.parametrize("name", sorted(WORKLOAD_DOCUMENTS))
def test_c_is_never_below_the_ball_sample(name):
    # H is convex in p, so the ends of each drawn line bound the 8 radii on it
    system = load_system(WORKLOAD_DOCUMENTS[name])
    for seed in range(100):
        K, C = compute_constants(system.H, system.theta, q_samples=32, p_dirs=8,
                                 t_samples=2, rng=seed)
        K_ball, C_ball = _ball_constants(system.H, system.theta, 32, 8, 2, seed)
        assert K == K_ball and C >= C_ball, seed


@pytest.mark.parametrize("name", sorted(WORKLOAD_DOCUMENTS))
def test_lambda_equals_the_33_radius_sweep(name, monkeypatch):
    # L is even and convex in v, so over 33 radii up to 2T the max is at 2T
    system = load_system(WORKLOAD_DOCUMENTS[name])
    L = system.L_theta
    calls = []

    def value(t, q, v):
        calls.append(len(v))
        return L.value(t, q, v)

    counted = LagrangianSpec(L.torus, value, L.grad_q, L.grad_v, L.hess_vv, L.hess_qv,
                             L.hess_qq, reversible=L.reversible, name=L.name)
    for T in (1.0, 4.0, 8.0):
        calls.clear()
        _, params = build_modification(counted, T, (0.3, 2.5))
        rng = np.random.default_rng(0)
        sweep = _loop_grid(L, np.linspace(0.0, 2.0 * T, 33), 24, 8, 4, rng)
        assert params.lam == max(1.1 * float(np.max(L.value(*sweep))), 1.0)
        # the convexity grid is the loop's to the bit, and L is evaluated
        # once on it: min L_1T and the fiber Hessian share that evaluation
        grid = _loop_grid(L, np.linspace(0.0, 6.0 * T, 49), 24, 8, 4, rng)
        rng = np.random.default_rng(0)
        _sample_grid(L, [2.0 * T], 24, 8, 4, rng)
        for a, b in zip(grid, _sample_grid(L, np.linspace(0.0, 6.0 * T, 49), 24, 8, 4, rng)):
            assert np.array_equal(a, b)
        assert calls == [24 * 8 * 4, len(grid[0])]
