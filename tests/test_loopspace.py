import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from brakekit.errors import GridMismatch
from brakekit.loopspace import (
    BlockTridiagonal,
    LoopTangent,
    SymmetricLoop,
    _riesz_solve,
    _w12_solve,
    action_gradient_even,
    assemble_gram,
    assemble_hessian,
    find_critical,
    full_gradient_check,
    gradient_norm_w12,
    iterate,
    loop_distance,
    mean_action,
    refine,
    w12_inner,
)
from brakekit.model import TorusSpace
from brakekit.systems import load_system


def cosine_loop(a=0.1, period=1, n_per_unit=256, center=0.0):
    return SymmetricLoop.from_function(
        lambda t: np.array([center + a * np.cos(2 * np.pi * t / period)]),
        period, n_per_unit=n_per_unit)


def unit_tangent(n_per_unit=256):
    return LoopTangent(1, np.ones((n_per_unit // 2 + 1, 1)))


def test_w12_constant_section():
    xi = unit_tangent()
    assert w12_inner(xi, xi) == pytest.approx(1.0, abs=1e-12)


def test_w12_cosine_value_and_order():
    def at(n):
        ts = np.arange(n // 2 + 1) / n
        return LoopTangent(1, np.cos(2 * np.pi * ts)[:, None])

    exact = 0.5 + (2 * np.pi) ** 2 / 2
    err_c = abs(w12_inner(at(256), at(256)) - exact)
    err_f = abs(w12_inner(at(512), at(512)) - exact)
    assert err_c < 0.01
    assert err_c / err_f >= 3.5


def test_w12_bilinear_and_grid_mismatch():
    xi = unit_tangent()
    rng = np.random.default_rng(0)
    zeta = LoopTangent(1, rng.normal(size=(129, 1)))
    assert w12_inner(LoopTangent(1, 3.0 * xi.half_values), zeta) == pytest.approx(
        3.0 * w12_inner(xi, zeta), abs=1e-14)
    with pytest.raises(GridMismatch):
        w12_inner(xi, LoopTangent(1, np.ones((65, 1))))


def test_mean_action_examples(free_system):
    const = SymmetricLoop.constant([0.4], 1)
    assert mean_action(free_system.L_theta, const) == 0.0
    loop = cosine_loop(0.1)
    exact = np.pi ** 2 * 0.01
    assert mean_action(free_system.L_theta, loop) == pytest.approx(exact, abs=2e-4)
    err_c = abs(mean_action(free_system.L_theta, loop) - exact)
    err_f = abs(mean_action(free_system.L_theta, refine(loop)) - exact)
    assert err_c / err_f >= 3.5


def test_iterate_preserves_mean_action(mild_system):
    loop = cosine_loop(0.07, center=0.3)
    base = mean_action(mild_system.L_theta, loop)
    for k in (1, 2, 3, 4):
        assert abs(mean_action(mild_system.L_theta, iterate(loop, k)) - base) < 1e-12


def action_differential(L, loop, xi):
    """dEA(gamma)[xi] for an even variation xi: the even gradient paired with it."""
    return float(action_gradient_even(L, loop) @ xi.half_values.ravel())


def riesz_gradient(L, loop):
    """The W^{1,2} Riesz representative of the even action gradient."""
    g = _riesz_solve(loop, action_gradient_even(L, loop))
    return LoopTangent(loop.period, g.reshape(-1, loop.dim))


def test_action_differential_matches_finite_differences(mild_system):
    rng = np.random.default_rng(1)
    h = 1e-7
    for _ in range(50):
        loop = cosine_loop(rng.uniform(0.02, 0.1), center=rng.uniform(0, 1),
                           n_per_unit=64)
        tan = LoopTangent(1, 0.1 * rng.normal(size=(33, 1)))
        d = action_differential(mild_system.L_theta, loop, tan)
        up = mean_action(mild_system.L_theta, loop.with_values(
            loop.half_values + h * tan.half_values))
        dn = mean_action(mild_system.L_theta, loop.with_values(
            loop.half_values - h * tan.half_values))
        assert d == pytest.approx((up - dn) / (2 * h), abs=1e-6)
    # linearity
    d2 = action_differential(mild_system.L_theta, loop,
                             LoopTangent(1, 2.0 * tan.half_values))
    assert d2 == pytest.approx(2.0 * d, abs=1e-14)


def test_differential_vanishes_at_critical_loop(mild_system):
    loop = SymmetricLoop.constant([0.5], 1)
    b = action_gradient_even(mild_system.L_theta, loop)
    assert np.max(np.abs(b)) < 1e-10


def test_riesz_pairing_identity(mild_system):
    loop = cosine_loop(0.07, center=0.3, n_per_unit=128)
    g = riesz_gradient(mild_system.L_theta, loop)
    rng = np.random.default_rng(4)
    for _ in range(5):
        e = np.zeros((65, 1))
        e[rng.integers(0, 65), 0] = 1.0
        et = LoopTangent(1, e)
        lhs = action_differential(mild_system.L_theta, loop, et)
        assert abs(lhs - w12_inner(g, et)) < 1e-10


def test_descent_direction_decreases_action(mild_system):
    loop = cosine_loop(0.07, center=0.3, n_per_unit=128)
    g = riesz_gradient(mild_system.L_theta, loop)
    a0 = mean_action(mild_system.L_theta, loop)
    trial = loop.with_values(loop.half_values - 1e-3 * g.half_values)
    assert mean_action(mild_system.L_theta, trial) < a0


def test_find_critical_examples(mild_system, free_system, stiff_system):
    near_half = cosine_loop(0.02, center=0.45)
    rep = find_critical(mild_system.L_theta, near_half)
    assert rep.converged
    assert np.max(np.abs(rep.loop.half_values - 0.5)) < 1e-8

    wiggly = SymmetricLoop.from_function(
        lambda t: np.array([0.3 + 0.1 * np.cos(2 * np.pi * t)
                            + 0.05 * np.cos(4 * np.pi * t)]), 1)
    repf = find_critical(free_system.L_theta, wiggly)
    assert repf.converged and abs(repf.action) < 1e-12
    assert np.ptp(repf.loop.half_values) < 1e-8


def test_find_critical_falls_back_to_armijo_descent(mild_system, monkeypatch):
    import brakekit.loopspace as ls

    # a zero Hessian gives a zero Newton step, which never lowers the gradient
    # norm, so each iteration has to take the Armijo descent step on the action
    hessian, actions = ls.assemble_hessian, []
    monkeypatch.setattr(ls, "assemble_hessian",
                        lambda L, loop, k=1: 0.0 * hessian(L, loop, k))

    def logged(L, loop):
        actions.append(mean_action(L, loop))
        return actions[-1]

    monkeypatch.setattr(ls, "mean_action", logged)
    seed = cosine_loop(0.07, center=0.3, n_per_unit=64)
    a0 = mean_action(mild_system.L_theta, seed)
    rep = find_critical(mild_system.L_theta, seed, max_iter=3)
    assert rep.iterations == 3
    # per iteration one action at the current loop and at least one trial,
    # then the report's
    assert len(actions) >= 2 * rep.iterations + 1
    assert rep.action == actions[-1] < a0
    # the zero Hessian is singular, so every direction came from lstsq
    assert (rep.newton_steps, rep.lstsq_fallbacks, rep.armijo_steps) == (0, 3, 3)


def test_find_critical_newton_steps_form_no_dense_matrix(stiff_system, libration,
                                                          monkeypatch):
    calls, dense = [], BlockTridiagonal.dense
    monkeypatch.setattr(BlockTridiagonal, "dense", lambda A: calls.append(A.nodes) or dense(A))
    bump = 0.01 * np.cos(2 * np.pi * libration.full_times()[: libration.n // 2 + 1])
    seed = libration.with_values(libration.half_values + bump[:, None])
    rep = find_critical(stiff_system.L_theta, seed, grad_tol=1e-10)
    assert rep.converged and loop_distance(rep.loop, libration) < 1e-8
    assert rep.iterations >= 2
    assert (rep.newton_steps, rep.lstsq_fallbacks, rep.armijo_steps) == (rep.iterations, 0, 0)
    assert calls == []


def test_find_critical_newton_step_memory_is_linear(twisted_systems):
    # the even Hessian of this loop has order 2 * 8193, so dense it takes 2.1 GB
    import tracemalloc

    L = twisted_systems[1][0]
    loop = SymmetricLoop.from_function(
        lambda t: np.array([0.1 + 0.05 * np.cos(2 * np.pi * t), 0.2]), 1,
        n_per_unit=2 ** 14)
    tracemalloc.start()
    try:
        rep = find_critical(L, loop, max_iter=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.iterations, rep.newton_steps) == (1, 1)
    assert peak < 64 * 2 ** 20


def test_find_critical_agrees_with_shooting(stiff_system, libration):
    from brakekit.dynamics import brake_shoot

    orbit = brake_shoot(stiff_system.H, stiff_system.theta, np.array([0.04]), 2.0)
    fine = find_critical(stiff_system.L_theta, refine(libration), grad_tol=1e-12).loop
    qs = orbit.trajectory.at(fine.full_times())[:, 0]
    assert np.max(np.abs(qs - fine.full_values()[:, 0])) < 1e-5


def test_full_gradient_check(mild_system, stiff_system, libration):
    for loop in (SymmetricLoop.constant([0.0], 1), SymmetricLoop.constant([0.5], 1)):
        assert full_gradient_check(mild_system.L_theta, loop) < 1e-10
    even_norm = gradient_norm_w12(stiff_system.L_theta, libration)
    full_norm = full_gradient_check(stiff_system.L_theta, libration)
    assert full_norm < max(10 * even_norm, 1e-10)


def test_loop_distance_shift_invariance(libration):
    shifted = libration.shifted_half_period()
    assert loop_distance(libration, shifted) < 1e-10
    other = libration.with_values(libration.half_values + 0.01)
    assert loop_distance(libration, other) > 1e-3


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("lattice_shift", [False, True])
def test_loop_distance_equals_per_node_displacements(dim, lattice_shift):
    # the per-node loop the distance used to run, as the reference: the
    # displacement is element-wise, so the batched call gives the same floats
    rng = np.random.default_rng(dim + 2 * lattice_shift)
    torus = TorusSpace(dim, np.array([1.0, 0.7][:dim]))

    def random_loop():
        vals = rng.uniform(-0.6, 0.6, (33, dim))
        if lattice_shift:
            vals += torus.periods * rng.integers(-3, 4, (33, dim))
        return SymmetricLoop(1, vals, torus)

    def per_node(a, b):
        def dist_to(bb):
            d = np.array([torus.displacement(av, bv)
                          for av, bv in zip(a.full_values(), bb.full_values())])
            t = LoopTangent(a.period, d[: a.n // 2 + 1])
            return float(np.sqrt(max(w12_inner(t, t), 0.0)))

        return min(dist_to(b), dist_to(b.shifted_half_period()))

    for _ in range(5):
        a, b = random_loop(), random_loop()
        assert loop_distance(a, b) == per_node(a, b)
        assert loop_distance(a, a.shifted_half_period()) == per_node(a, a.shifted_half_period())


def test_evenness_is_structural(libration):
    full = libration.full_values()
    assert np.max(np.abs(full[1:] - full[1:][::-1])) == 0.0
    it = iterate(libration, 3)
    full3 = it.full_values()
    assert np.max(np.abs(full3[1:] - full3[1:][::-1])) == 0.0


# ---------------------------------------------------------------------------
# block operators against the dense np.add.at assembly they replaced
# ---------------------------------------------------------------------------

def _scatter_blocks_reference(H, rows, cols, vals, dim):
    for a in range(dim):
        for b in range(dim):
            np.add.at(H, (rows * dim + a, cols * dim + b), vals[:, a, b])


def _fold_even_reference(H, M, dim):
    n_half = M // 2 + 1
    dof = np.minimum(np.arange(M), M - np.arange(M))
    row_map = (dof[:, None] * dim + np.arange(dim)[None, :]).ravel()
    folded = np.zeros((n_half * dim, H.shape[1]))
    np.add.at(folded, row_map, H)
    out = np.zeros((n_half * dim, n_half * dim))
    np.add.at(out.T, row_map, folded.T)
    return out


def _hessian_reference(L, loop, k, subspace):
    """Element-by-element P1 assembly into a dense matrix."""
    it = iterate(loop, k)
    ts, g, v = it.full_times(), it.full_values(), it.velocities()
    P = np.asarray(L.hess_vv(ts, g, v))
    Q = np.asarray(L.hess_qv(ts, g, v))
    R = np.asarray(L.hess_qq(ts, g, v))
    M, dim, h = it.n, it.dim, it.h
    c = 1.0 / (k * loop.period)
    H = np.zeros((M * dim, M * dim))
    idx = np.arange(M)
    nxt = (idx + 1) % M
    kin = c * (0.5 * (P + P[nxt])) / h
    mix = c * 0.5 * (0.5 * (Q + Q[nxt]))
    mixT = np.swapaxes(mix, -1, -2)
    pot = c * h * 0.25 * (0.5 * (R + R[nxt]))
    for r, sr in ((idx, -1.0), (nxt, 1.0)):
        for s, ss in ((idx, -1.0), (nxt, 1.0)):
            _scatter_blocks_reference(H, r, s, sr * ss * kin + pot, dim)
    for r in (idx, nxt):
        _scatter_blocks_reference(H, r, nxt, mix, dim)
        _scatter_blocks_reference(H, r, idx, -mix, dim)
        _scatter_blocks_reference(H, nxt, r, mixT, dim)
        _scatter_blocks_reference(H, idx, r, -mixT, dim)
    H = 0.5 * (H + H.T)
    return H if subspace == "full" else _fold_even_reference(H, M, dim)


def _gram_reference(loop, k, subspace):
    it = iterate(loop, k)
    M, dim, h = it.n, it.dim, it.h
    base = np.zeros((M, M))
    i = np.arange(M)
    base[i, i] = 2.0 * h / 3.0 + 2.0 / h
    base[i, (i + 1) % M] = h / 6.0 - 1.0 / h
    base[i, (i - 1) % M] = h / 6.0 - 1.0 / h
    G = np.kron(base, np.eye(dim)) if dim > 1 else base
    return G if subspace == "full" else _fold_even_reference(G, M, dim)


def _even_embedding_reference(n_full, dim):
    E = np.zeros((n_full, n_full // 2 + 1))
    for j in range(n_full):
        E[j, min(j, n_full - j)] = 1.0
    return np.kron(E, np.eye(dim))


@pytest.fixture(scope="module")
def twisted_systems():
    """N = 1 and N = 2 systems whose non-constant theta makes Q = L_qv nonzero."""
    t1 = load_system({
        "dim": 1, "theta": ["0.3 + 0.2*sin(2*pi*q1)"],
        "lagrangian": {"builtin": "kinetic_potential", "potential": "cos(2*pi*q1)"},
    })
    t2 = load_system({
        "dim": 2, "theta": ["0.1*cos(2*pi*q2)", "sin(2*pi*q1)/(2*pi)"],
        "lagrangian": {"builtin": "kinetic_potential",
                       "potential": "0.7*cos(2*pi*q1) + 0.5*cos(2*pi*q2)"},
    })
    loop1 = SymmetricLoop.from_function(
        lambda t: np.array([0.2 + 0.15 * np.cos(2 * np.pi * t)
                            + 0.05 * np.cos(6 * np.pi * t)]), 1, n_per_unit=24)
    loop2 = SymmetricLoop.from_function(
        lambda t: np.array([0.1 + 0.2 * np.cos(np.pi * t),
                            0.4 - 0.1 * np.cos(2 * np.pi * t)]), 2, n_per_unit=12)
    return [(t1.L, loop1), (t2.L, loop2)]


@pytest.mark.parametrize("subspace", ["full", "even"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_block_assembly_matches_dense_reference(twisted_systems, k, subspace):
    for L, loop in twisted_systems:
        ts, g, v = loop.full_times(), loop.full_values(), loop.velocities()
        assert np.max(np.abs(L.hess_qv(ts, g, v))) > 0.1
        H, G = assemble_hessian(L, loop, k=k), assemble_gram(loop, k=k)
        if subspace == "even":
            H, G = H.even_fold(), G.even_fold()
        assert H.cyclic == G.cyclic == (subspace == "full")
        assert np.array_equal(H.dense(), _hessian_reference(L, loop, k, subspace))
        assert np.array_equal(G.dense(), _gram_reference(loop, k, subspace))
        # the operator arithmetic is the dense arithmetic
        assert np.array_equal((H - 0.25 * G).dense(), H.dense() - 0.25 * G.dense())


def _gram_w12_reference(n, dim, period):
    """Dense trapezoid/centered W^{1,2} Gram h (I + D^T D) on the full grid."""
    h = period / n
    eye = np.eye(n)
    D = (np.roll(eye, 1, axis=1) - np.roll(eye, -1, axis=1)) / (2.0 * h)
    return np.kron(h * (eye + D.T @ D), np.eye(dim))


def _random_open_operator(rng, nodes, dim):
    diag = rng.normal(size=(nodes, dim, dim))
    upper = rng.normal(size=(nodes - 1, dim, dim))
    return BlockTridiagonal(diag + np.swapaxes(diag, -1, -2), upper, cyclic=False)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nodes=st.integers(2, 70), dim=st.integers(1, 3))
@example(seed=0, nodes=70, dim=3)
@example(seed=1, nodes=2, dim=1)
def test_band_solve_matches_dense_solve(seed, nodes, dim):
    rng = np.random.default_rng(seed)
    A = _random_open_operator(rng, nodes, dim)
    dense = A.dense()
    ev = np.linalg.eigvalsh(dense)
    # indefinite, and conditioned well enough for the two answers to agree
    assume(ev[0] < 0 < ev[-1])
    assume(np.min(np.abs(ev)) > 1e-4 * np.max(np.abs(ev)))
    b = rng.normal(size=nodes * dim)
    x = A.solve(b)
    x_ref = np.linalg.solve(dense, b)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert np.linalg.norm(dense @ x - b) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("dim", [1, 2])
def test_band_solve_refuses_a_singular_operator(dim):
    A = _random_open_operator(np.random.default_rng(6), 9, dim)
    # node 4 is cut off from its neighbours and its block is zero
    A.diag[4] = 0.0
    A.upper[3:5] = 0.0
    assert np.linalg.matrix_rank(A.dense()) == 8 * dim
    with pytest.raises(np.linalg.LinAlgError):
        A.solve(np.ones(9 * dim))


def test_band_solve_refuses_a_cyclic_operator():
    A = _random_open_operator(np.random.default_rng(7), 9, 2)
    cyclic = BlockTridiagonal(A.diag, np.concatenate([A.upper, A.upper[:1]]), cyclic=True)
    with pytest.raises(ValueError, match="open operator"):
        cyclic.solve(np.ones(18))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("period", [1, 2])
@pytest.mark.parametrize("n_per_unit", [6, 10, 64, 256])
def test_riesz_solve_matches_dense_reference(dim, period, n_per_unit):
    # 6 and 10 give an odd n/2 and FFT lengths that are not powers of two
    rng = np.random.default_rng(n_per_unit + 10 * dim + 100 * period)
    loop = SymmetricLoop.constant(np.zeros(dim), period, n_per_unit=n_per_unit)
    G = _gram_w12_reference(loop.n, dim, period)
    E = _even_embedding_reference(loop.n, dim)
    b = rng.normal(size=(loop.n // 2 + 1) * dim)
    ref = np.linalg.solve(E.T @ G @ E, b)
    assert np.max(np.abs(_riesz_solve(loop, b) - ref)) <= 1e-11 * np.max(np.abs(ref))
    c = rng.normal(size=(loop.n, dim))  # not even
    ref = np.linalg.solve(G, c.ravel()).reshape(loop.n, dim)
    assert np.max(np.abs(_w12_solve(c, period) - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_w12_metric_memory_is_linear(twisted_systems):
    # one dense Gram on 2^15 nodes in T^2 would take 34 GB
    import tracemalloc

    L = twisted_systems[1][0]
    loop = SymmetricLoop.constant([0.1, 0.2], 1, n_per_unit=2 ** 15)
    tracemalloc.start()
    try:
        for check in (gradient_norm_w12, full_gradient_check):
            tracemalloc.reset_peak()
            assert check(L, loop) > 0.1
            assert tracemalloc.get_traced_memory()[1] < 32 * 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_per_unit,period", [(3, 1), (255, 1), (5, 3)])
def test_constructors_refuse_an_odd_grid(n_per_unit, period):
    # n // 2 + 1 half rows would silently make a loop on the grid n - 1
    with pytest.raises(GridMismatch, match="even grid"):
        SymmetricLoop.constant([0.0], period, n_per_unit=n_per_unit)
    with pytest.raises(GridMismatch, match="even grid"):
        SymmetricLoop.from_function(lambda t: np.array([np.cos(2 * np.pi * t)]), period,
                                    n_per_unit=n_per_unit)
    assert SymmetricLoop.constant([0.0], 2, n_per_unit=n_per_unit).n == 2 * n_per_unit
