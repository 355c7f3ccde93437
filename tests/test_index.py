import inspect
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from brakekit.errors import IllConditionedCrossing
from brakekit.index import (
    _J,
    _negative_count,
    assemble_B,
    constant_coefficients,
    cz_index,
    fourier_morse_index,
    fundamental_solution,
    l0_index,
    linearize,
    mean_index,
    morse_index,
    verify_relations,
)
from brakekit.loopspace import BlockTridiagonal, SymmetricLoop, assemble_gram, assemble_hessian
from brakekit.model import LagrangianSpec, OneForm
from brakekit.systems import kinetic_potential_lagrangian

FREE_B = np.diag([1.0, 0.0])
HARMONIC_B = np.eye(2)
PEND_B = np.diag([1.0, 4 * np.pi ** 2])
STABLE_B = np.diag([1.0, -4 * np.pi ** 2])


def test_linearize_constant_loops(free_system, mild_system, torus1):
    co = linearize(free_system.L_theta, SymmetricLoop.constant([0.3], 1))
    assert np.allclose(co.P, 1.0) and np.allclose(co.Q, 0.0) and np.allclose(co.R, 0.0)
    co = linearize(mild_system.L_theta, SymmetricLoop.constant([0.5], 1))
    # R = L_qq = -V''(1/2) with V = cos(2 pi q)/(4 pi^2)
    assert np.allclose(co.R, -1.0, atol=1e-12)
    # a constant magnetic term contributes nothing to P, Q, R
    from brakekit.model import magnetic_lagrangian

    L = kinetic_potential_lagrangian(torus1, "cos(2*pi*q1)/(4*pi**2)")
    Lth = magnetic_lagrangian(L, OneForm.constant(torus1, [0.3]))
    co2 = linearize(Lth, SymmetricLoop.constant([0.5], 1))
    assert np.allclose(co2.P, co.P) and np.allclose(co2.Q, co.Q, atol=1e-14)
    assert np.allclose(co2.R, co.R)


def test_linearize_symmetry_pattern(stiff_system, libration):
    co = linearize(stiff_system.L_theta, libration)
    assert max(co.symmetry_residuals.values()) < 1e-10


def test_assemble_B_examples(free_system):
    co = linearize(free_system.L_theta, SymmetricLoop.constant([0.3], 1))
    B = co.B
    assert np.array_equal(B, assemble_B(co.P, co.Q, co.R))
    assert np.allclose(B[0], FREE_B)
    assert np.max(np.abs(B - np.swapaxes(B, -1, -2))) < 1e-14


def test_fundamental_solution_closed_forms():
    path = fundamental_solution(constant_coefficients(np.zeros((2, 2))), 1.0, 1.0)
    assert np.allclose(path.at(1.0), np.eye(2), atol=1e-12)
    path = fundamental_solution(constant_coefficients(FREE_B), 1.0, 1.0)
    assert np.allclose(path.at(1.0), [[1.0, 0.0], [1.0, 1.0]], atol=1e-10)
    path = fundamental_solution(constant_coefficients(HARMONIC_B), 1.0, 1.0)
    rot = np.array([[np.cos(1), -np.sin(1)], [np.sin(1), np.cos(1)]])
    assert np.allclose(path.at(1.0), rot, atol=1e-10)
    assert path.symplecticity_defect < 1e-8


@pytest.mark.parametrize("B", [HARMONIC_B, np.diag([1.0, 2.0, 4 * np.pi ** 2, -1.0])],
                         ids=["N=1", "N=2"])
def test_path_at_vector_matches_scalar_calls(B):
    tau, total = 0.6, 2.0
    path = fundamental_solution(constant_coefficients(B), tau, total)
    # inside the integrated period, at period multiples, between powers and
    # at the horizon end
    ts = np.array([0.0, 0.3, tau, 1.0, 2 * tau, 1.7, 3 * tau, total])
    stacked = np.stack([path.at(t) for t in ts])
    assert np.array_equal(path.at(ts), stacked)


# DOP853 at 1e-11 leaves about 5e-11 per unit time on the rotation, and the
# powers carry it along linearly, as one integration over the whole horizon
# does (1.8e-9 at t = 32); the hyperbolic path has no such drift
@pytest.mark.parametrize("B,total,drift", [(STABLE_B, 64.3, 0.0), (PEND_B, 32.0, 1e-10)],
                         ids=["hyperbolic", "elliptic"])
def test_composed_path_matches_matrix_exponential(B, total, drift):
    path = fundamental_solution(constant_coefficients(B), 1.0, total)
    ts = np.concatenate([np.linspace(0.0, total, 97), np.arange(1.0, total)])
    got = path.at(ts)
    for t, Psi in zip(ts, got):
        want = scipy.linalg.expm(t * _J(1) @ B)
        assert np.max(np.abs(Psi - want)) <= max(1e-9, drift * t) * np.max(np.abs(want)), t


def test_composed_path_matches_direct_integration_on_an_orbit(stiff_system, libration):
    co = linearize(stiff_system.L_theta, libration)
    B_fn = co.B_callable()
    total = 8 * co.period
    path = fundamental_solution(B_fn, co.period, total)
    J = _J(1)

    def rhs(t, y):
        return (J @ B_fn(t) @ y.reshape(2, 2)).ravel()

    direct = solve_ivp(rhs, (0.0, total), np.eye(2).ravel(), method="DOP853",
                       rtol=1e-11, atol=1e-11, dense_output=True)
    ts = np.linspace(0.0, total, 257)
    want = direct.sol(ts).T.reshape(-1, 2, 2)
    scale = np.max(np.abs(want), axis=(1, 2))
    err = np.max(np.abs(path.at(ts) - want), axis=(1, 2)) / scale
    assert np.max(err) <= 1e-4


def test_verify_relations_integrates_once(stiff_system, monkeypatch):
    import brakekit.index as index_mod

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(index_mod, "solve_ivp", counting)
    verify_relations(stiff_system.L_theta, SymmetricLoop.constant([0.5], 1),
                     ks=(1, 2, 4), mean_k_max=16)
    # one period, extended to 16 by monodromy powers
    assert calls == [(0.0, 1.0)], calls


def test_verify_relations_assembles_B_once(stiff_system, libration, monkeypatch):
    import brakekit.index as index_mod

    calls = []

    def counting(*args):
        calls.append(args)
        return assemble_B(*args)

    monkeypatch.setattr(index_mod, "assemble_B", counting)
    integrated = []

    def integrating(*args, **kwargs):
        integrated.append(args[1])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(index_mod, "solve_ivp", integrating)
    verify_relations(stiff_system.L_theta, libration, ks=(1,), mean_k_max=4)
    assert len(calls) == 1
    assert integrated == [(0.0, libration.period)], integrated
    # B_callable interpolates the B that linearize stored
    co = linearize(stiff_system.L_theta, libration)
    assert np.allclose(co.B_callable()(co.times), co.B, rtol=0, atol=1e-12)


@pytest.mark.parametrize("count", ["cz_index", "l0_index", "mean_index"])
def test_each_count_integrates_once(count, monkeypatch):
    import brakekit.index as index_mod

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(index_mod, "solve_ivp", counting)
    getattr(index_mod, count)(constant_coefficients(PEND_B), 4)
    assert calls == [(0.0, 1.0)], calls


def test_verify_relations_mean_index_matches_standalone(stiff_system):
    L, loop = stiff_system.L_theta, SymmetricLoop.constant([0.5], 1)
    report = verify_relations(L, loop, ks=(1, 2, 4), mean_k_max=16)
    # B is constant here, so both sides run with deg_tol = 1e-6
    assert report["mean_index"] == mean_index(linearize(L, loop).B_callable(), k_max=16)


def test_verify_relations_walks_each_grid_once(stiff_system, monkeypatch):
    import brakekit.index as index_mod

    base = stiff_system.L_theta
    sampled = []

    def hess_vv(t, q, v):
        sampled.append(len(t))
        return base.hess_vv(t, q, v)

    L = LagrangianSpec(base.torus, base.value, base.grad_q, base.grad_v, hess_vv,
                       base.hess_qv, base.hess_qq, reversible=True, name=base.name)
    logs = {"assemble_hessian": [], "_nullity_eps": [], "refine": []}

    def logged(name):
        original = getattr(index_mod, name)
        sig = inspect.signature(original)

        def wrapper(*args, **kwargs):
            call = sig.bind(*args, **kwargs)
            call.apply_defaults()
            n, k = call.arguments["loop"].n, call.arguments.get("k")
            logs[name].append(n if name == "refine" else (n, k))
            return original(*args, **kwargs)

        return wrapper

    for name in logs:
        monkeypatch.setattr(index_mod, name, logged(name))
    report = verify_relations(L, SymmetricLoop.constant([0.5], 1), ks=(1, 2), mean_k_max=4)
    assert report["all_pass"]
    # both pairs settle on the first doubling: grids 256 and 512, for k = 1, 2
    visited = [(256, 1), (512, 1), (256, 2), (512, 2)]
    assert logs["assemble_hessian"] == logs["_nullity_eps"] == visited
    assert logs["refine"] == [256, 256]
    # after linearize's, P, Q, R are sampled twice per (grid, k): for the
    # Hessian and for eps_n
    assert sampled == [256] + [n * k for n, k in visited for _ in range(2)]


def test_crossing_engine_refuses_a_non_symplectic_path(monkeypatch, mild_system):
    from dataclasses import replace

    from brakekit import index
    from brakekit.errors import NonSymplectic

    # Psidot = J B Psi stays symplectic only for symmetric B; this one is not
    skew = constant_coefficients(np.array([[0.0, 0.3], [0.0, 0.0]]))
    path = fundamental_solution(skew, 1.0, 1.0)
    assert path.symplecticity_defect > 0.1
    for count in (cz_index, l0_index):
        with pytest.raises(NonSymplectic):
            count(skew, 1)
    with pytest.raises(NonSymplectic):
        mean_index(skew, k_max=2)
    # verify_relations builds its engine over an orbit's B: a path whose
    # defect passes the 1e-8 bound is refused
    integrate = index.fundamental_solution
    defect = [1e-8]

    def drifting(*args, **kwargs):
        return replace(integrate(*args, **kwargs), symplecticity_defect=defect[0])

    monkeypatch.setattr(index, "fundamental_solution", drifting)
    loop = SymmetricLoop.constant([0.5], 1, n_per_unit=64)
    assert verify_relations(mild_system.L_theta, loop, ks=(1,), mean_k_max=2)["all_pass"]
    defect[0] = 1.01e-8
    with pytest.raises(NonSymplectic, match="1.01e-08"):
        verify_relations(mild_system.L_theta, loop, ks=(1,), mean_k_max=2)
    defect[0] = float("nan")
    with pytest.raises(NonSymplectic, match="nan"):
        verify_relations(mild_system.L_theta, loop, ks=(1,), mean_k_max=2)


def test_morse_indices_match_fourier_oracle(free_system, stiff_system):
    free_loop = SymmetricLoop.constant([0.3], 1)
    unstable = SymmetricLoop.constant([0.5], 1)
    stable = SymmetricLoop.constant([0.0], 1)
    cases = [
        (free_system.L_theta, free_loop, (1.0, 0.0, 0.0)),
        (stiff_system.L_theta, unstable, (1.0, 0.0, -4 * np.pi ** 2)),
        (stiff_system.L_theta, stable, (1.0, 0.0, 4 * np.pi ** 2)),
    ]
    for L, loop, (P, Q, R) in cases:
        for k in (1, 2, 4, 8):
            got = morse_index(L, loop, k=k)
            want = (fourier_morse_index(P, Q, R, k=k),
                    fourier_morse_index(P, Q, R, k=k, symmetric=True))
            assert got == want, (L.name, k, got, want)


def test_morse_specific_values(stiff_system, free_system):
    unstable = SymmetricLoop.constant([0.5], 1)
    full, even = morse_index(stiff_system.L_theta, unstable, 1)
    assert full == (1, 2) and even == (1, 1)
    stable = SymmetricLoop.constant([0.0], 1)
    assert morse_index(stiff_system.L_theta, stable, 1)[0] == (0, 0)
    free_loop = SymmetricLoop.constant([0.3], 1)
    assert morse_index(free_system.L_theta, free_loop, 1) == ((0, 1), (0, 1))


CZ_TABLE = {
    "free": (FREE_B, {1: ((0, 1), (-1, 1)), 2: ((0, 1), (-1, 1)), 4: ((0, 1), (-1, 1))}),
    "harmonic": (HARMONIC_B, {1: ((1, 0), (0, 0)), 2: ((1, 0), (0, 0)), 4: ((1, 0), (0, 0))}),
    "pendulum": (PEND_B, {1: ((1, 2), (0, 1)), 2: ((3, 2), (1, 1)), 4: ((7, 2), (3, 1))}),
    "stable": (STABLE_B, {1: ((0, 0), (-1, 0)), 2: ((0, 0), (-1, 0)), 4: ((0, 0), (-1, 0))}),
}


@pytest.mark.parametrize("name", sorted(CZ_TABLE))
def test_cz_and_l0_anchor_paths(name):
    B, expected = CZ_TABLE[name]
    for k, (cz_want, l0_want) in expected.items():
        assert cz_index(constant_coefficients(B), k) == cz_want
        assert l0_index(constant_coefficients(B), k) == l0_want


@pytest.mark.parametrize("case", ["libration", "N=2"])
def test_streamed_scan_matches_one_batch(case, stiff_system, libration):
    from brakekit.index import _crossing_det, _CrossingEngine, _target_svs

    if case == "libration":
        co = linearize(stiff_system.L_theta, libration)
        eng = _CrossingEngine(co.B_callable(), co.period, 8)
    else:
        eng = _CrossingEngine(constant_coefficients(np.diag([1.0, 2.0, 4 * np.pi ** 2, 3.0])),
                              1.0, 8)
    n = eng.N
    ts = np.linspace(eng.guard, eng.total, eng.n_scan)
    mats = eng.path.at(ts)
    for mode, tgt in (("cz", mats - np.eye(2 * n)), ("l0", mats[:, :n, n:])):
        s_max, s_min = _target_svs(tgt, mats, mode)
        want = (ts, s_min / (1.0 + s_max), s_min, _crossing_det(tgt, mats, mode))
        got = eng._scan_arrays(mode)
        m = len(got[0])
        if mode == "cz":
            assert m == len(ts)
        else:
            # the L0 prefix ends 8 samples past half the horizon
            assert ts[m - 9] <= 0.5 * eng.total < ts[m - 8]
        for part, whole in zip(got, want):
            assert np.array_equal(part, whole[:m])


def test_crossing_scan_evaluates_each_sample_once(monkeypatch):
    from brakekit.index import _CrossingEngine, SymplecticPath

    eng = _CrossingEngine(constant_coefficients(PEND_B), 1.0, 8)
    original = SymplecticPath.at
    lengths = []

    def counting(self, t):
        if np.ndim(t):
            lengths.append(len(t))
        return original(self, t)

    monkeypatch.setattr(SymplecticPath, "at", counting)
    eng.events("cz")
    l0_times = [t for t, _, _ in eng.events("l0")]
    # both modes from one pass over the scan grid; the refinements are scalar
    assert sum(lengths) == eng.n_scan
    # S12 vanishes at every half period: the last L0 crossing read by the
    # k = 8 window is at t = 4, and none past the horizon is located
    assert max(l0_times) == pytest.approx(4.0) and max(l0_times) <= 0.5 * eng.total


def test_crossing_scan_memory_on_an_n2_path():
    import tracemalloc

    from brakekit.systems import load_system

    system = load_system({"dim": 2, "theta": ["0.3", "0.1"],
                          "lagrangian": {"builtin": "kinetic_potential",
                                         "potential": "0.7*cos(2*pi*q1) + 0.5*cos(2*pi*q2)"}})
    loop = SymmetricLoop.constant([0.5, 0.5], 1, torus=system.torus)
    tracemalloc.start()
    try:
        report = verify_relations(system.L_theta, loop, ks=(1, 2, 4), mean_k_max=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["all_pass"], report
    # a scan holding every Psi sample of both modes at once peaks at 24 MB
    # here; streamed a period at a time it stays near 8.4 MB
    assert peak < 12e6, peak


def test_hyperbolic_paths_spawn_no_touch_refinement(stiff_system, monkeypatch):
    import brakekit.index as index_mod

    calls = []
    original = index_mod.minimize_scalar

    def counting(*args, **kwargs):
        calls.append(kwargs.get("bounds"))
        return original(*args, **kwargs)

    monkeypatch.setattr(index_mod, "minimize_scalar", counting)
    # |Psi| reaches 7e21 by t = 8 here; sigma_min(Psi - I) from the SVD would
    # be rounding noise with local minima everywhere
    assert cz_index(constant_coefficients(STABLE_B), 8) == (0, 0)
    assert calls == []
    L, loop = stiff_system.L_theta, SymmetricLoop.constant([0.0], 1)
    report = verify_relations(L, loop, ks=(1, 2, 4), mean_k_max=8)
    assert calls == []
    assert report["all_pass"], report
    for k in (1, 2, 4):
        full = fourier_morse_index(1.0, 0.0, 4 * np.pi ** 2, k=k)
        even = fourier_morse_index(1.0, 0.0, 4 * np.pi ** 2, k=k, symmetric=True)
        row = report["per_k"][k]
        assert row["cz"] == full and (row["l0"].index + 1, row["l0"].nullity) == even


def _rotation(a):
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


def test_target_singular_values_follow_the_svd_where_it_is_accurate():
    from brakekit.index import _target_svs

    rng = np.random.default_rng(3)
    # random Sp(2) = SL(2) matrices R(a) diag(s, 1/s) R(b) with |Psi| <= 2
    mats = np.stack([_rotation(a) @ np.diag([s, 1.0 / s]) @ _rotation(b)
                     for a, b, s in zip(rng.uniform(0, 2 * np.pi, 400),
                                        rng.uniform(0, 2 * np.pi, 400),
                                        rng.uniform(1.0, 2.0, 400))])
    tgt = mats - np.eye(2)
    s_max, s_min = _target_svs(tgt, mats, "cz")
    sv = np.linalg.svd(tgt, compute_uv=False)
    assert np.array_equal(s_max, sv[:, 0])
    assert np.max(np.abs(s_min - sv[:, -1])) <= 1e-12
    # both routes are exercised: sigma_max(Psi - I) reaches 3 here
    assert 0 < np.sum(s_max > 2.0) < len(mats)
    # the scalar call is the same function
    assert _target_svs(tgt[7], mats[7], "cz") == (s_max[7], s_min[7])


def test_target_singular_values_of_a_1x1_target_are_the_svd_bits():
    from brakekit.index import _target_svs

    rng = np.random.default_rng(5)
    # signed values whose magnitudes span 1e-130 to 1e130, plus zeros and +-1e300
    a = np.concatenate([rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-130, 130, 20000),
                        rng.standard_normal(2000), [0.0, -0.0, 1e300, -1e300]])
    s12 = a[:, None, None]
    mats = np.zeros((len(a), 2, 2))
    mats[:, :1, 1:] = s12
    s_max, s_min = _target_svs(s12, mats, "l0")
    sv = np.linalg.svd(s12, compute_uv=False)[:, 0]
    assert np.array_equal(s_max, sv) and np.array_equal(s_min, sv)
    assert _target_svs(s12[3], mats[3], "l0") == (sv[3], sv[3])
    # LAPACK scales a matrix whose largest entry is below about 1e-138 (or
    # above about 1e137) before the SVD and back after it, which can cost it
    # the last bit (+-1e300 above survive the round trip, 1e-300 does not);
    # |a| is exact there
    tiny = np.array([1e-300, -1e-300, 2.5e-301, 3e-200])[:, None, None]
    s_tiny = _target_svs(tiny, np.zeros((4, 2, 2)), "l0")[1]
    assert np.array_equal(s_tiny, np.abs(tiny[:, 0, 0]))
    assert np.all(np.abs(np.linalg.svd(tiny, compute_uv=False)[:, 0] - s_tiny)
                  <= np.spacing(s_tiny))


def test_target_singular_values_on_a_strongly_hyperbolic_matrix():
    from brakekit.index import _target_svs

    lam = 30.0
    R = _rotation(0.4)
    Psi = R @ np.diag([np.exp(lam), np.exp(-lam)]) @ R.T
    # Psi - I = R diag(e^lam - 1, e^-lam - 1) R^T
    want = 1.0 - np.exp(-lam)
    s_min = _target_svs(Psi - np.eye(2), Psi, "cz")[1]
    assert abs(s_min - want) <= 1e-12 * want
    # the SVD alone is off by about eps |Psi|
    assert abs(np.linalg.svd(Psi - np.eye(2), compute_uv=False)[-1] - want) > 1e-6


def test_mean_index_relations():
    mi = mean_index(constant_coefficients(HARMONIC_B), k_max=64)
    assert abs(mi["ihat"] - 1 / np.pi) < 0.05
    assert abs(mi["ihat_L0"] - mi["ihat"] / 2) / max(mi["ihat"], 0.01) < 0.05
    mi = mean_index(constant_coefficients(FREE_B), k_max=64)
    assert abs(mi["ihat"]) < 1e-9
    assert abs(mi["ihat_L0"] - mi["ihat"] / 2) / max(mi["ihat"], 0.01) < 0.05


def test_verify_relations_constant_orbits(stiff_system, free_system):
    for L, loop in [
        (stiff_system.L_theta, SymmetricLoop.constant([0.5], 1)),
        (stiff_system.L_theta, SymmetricLoop.constant([0.0], 1)),
        (free_system.L_theta, SymmetricLoop.constant([0.3], 1)),
    ]:
        report = verify_relations(L, loop, ks=(1, 2, 4), mean_k_max=16)
        assert report["all_pass"], report


def test_verify_relations_zero_mean_bound(free_system):
    report = verify_relations(free_system.L_theta, SymmetricLoop.constant([0.3], 1),
                              ks=(1, 2), mean_k_max=8)
    checks = report["per_k"][1]["checks"]
    assert "zero_mean_index_bound" in checks and checks["zero_mean_index_bound"]


def test_verify_relations_nonconstant_orbit(stiff_system, libration):
    report = verify_relations(stiff_system.L_theta, libration, ks=(1, 2), mean_k_max=8)
    assert report["all_pass"], report
    assert report["per_k"][1]["morse_full"] == (1, 1)
    assert report["per_k"][2]["morse_full"] == (3, 1)


def _ldl_negative_count(A):
    """Negative eigenvalues of a dense symmetric matrix from Bunch-Kaufman LDL^T."""
    _, d, _ = scipy.linalg.ldl(A)
    n, neg, i = A.shape[0], 0, 0
    while i < n:
        if i + 1 < n and d[i + 1, i] != 0.0:
            neg += int(np.sum(np.linalg.eigvalsh(d[i: i + 2, i: i + 2]) < 0))
            i += 2
        else:
            neg += int(d[i, i] < 0)
            i += 1
    return neg


@pytest.fixture(scope="module")
def twisted_t2():
    from brakekit.systems import load_system

    return load_system({
        "dim": 2, "theta": ["0.1*cos(2*pi*q2)", "sin(2*pi*q1)/(2*pi)"],
        "lagrangian": {"builtin": "kinetic_potential",
                       "potential": "0.7*cos(2*pi*q1) + 0.5*cos(2*pi*q2)"},
    })


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 3),
       period=st.integers(1, 2), dim=st.sampled_from([1, 2]),
       symmetric=st.booleans(), shift=st.floats(-40.0, 40.0),
       n_per_unit=st.sampled_from([8, 64]))
def test_banded_negative_count_matches_dense_ldl(mild_system, twisted_t2, seed, k,
                                                 period, dim, symmetric, shift, n_per_unit):
    system = mild_system if dim == 1 else twisted_t2
    rng = np.random.default_rng(seed)
    n = n_per_unit * period
    loop = SymmetricLoop(period, rng.uniform(-1.0, 1.0, size=(n // 2 + 1, dim)),
                         system.torus)
    H, G = assemble_hessian(system.L, loop, k=k), assemble_gram(loop, k=k)
    if symmetric:
        H, G = H.even_fold(), G.even_fold()
    A = H + shift * G
    dense = A.dense()
    ev = np.linalg.eigvalsh(dense)
    # the count is only defined when no eigenvalue sits at round-off from zero
    assume(np.min(np.abs(ev)) > 1e-8 * np.max(np.abs(ev)))
    assert _negative_count(A) == _ldl_negative_count(dense) == int(np.sum(ev < 0))


def _random_operator(rng, nodes, dim, cyclic):
    diag = rng.normal(size=(nodes, dim, dim))
    upper = rng.normal(size=(nodes if cyclic else nodes - 1, dim, dim))
    return BlockTridiagonal(diag + np.swapaxes(diag, -1, -2), upper, cyclic)


# the reduction takes 70 -> 36 -> 19 -> 10 -> 6 -> 4 -> 3 nodes, 67 -> 34 ->
# 18 -> 10 -> ... and 65 -> 33 -> 17 -> 9 -> 5 -> 3, so odd and even node
# counts at every level; a cyclic operator on 2 nodes has both couplings on
# the same pair and goes to the dense tail at once
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nodes=st.integers(2, 70),
       dim=st.integers(1, 3), cyclic=st.booleans())
@example(seed=0, nodes=70, dim=2, cyclic=True)
@example(seed=1, nodes=67, dim=3, cyclic=False)
@example(seed=2, nodes=65, dim=1, cyclic=True)
@example(seed=3, nodes=2, dim=2, cyclic=True)
@example(seed=4, nodes=3, dim=1, cyclic=True)
def test_negative_count_matches_eigvalsh(seed, nodes, dim, cyclic):
    A = _random_operator(np.random.default_rng(seed), nodes, dim, cyclic)
    ev = np.linalg.eigvalsh(A.dense())
    assume(np.min(np.abs(ev)) > 1e-8 * np.max(np.abs(ev)))
    assert _negative_count(A) == int(np.sum(ev < 0))


@pytest.mark.parametrize("dim,cyclic", [(1, False), (2, True)])
def test_negative_count_moves_a_singular_pivot_off_zero(dim, cyclic):
    A = _random_operator(np.random.default_rng(5), 9, dim, cyclic)
    # node 1 is eliminated first and its pivot block is exactly singular,
    # while A is not: the pivot is moved off zero, and the count is the spectrum's
    A.diag[1] = np.diag(np.arange(dim, dtype=float))
    ev = np.linalg.eigvalsh(A.dense())
    assert np.min(np.abs(ev)) > 1e-3
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        assert _negative_count(A) == int(np.sum(ev < 0))


def test_symplecticity_defect_stays_finite_on_long_hyperbolic_paths():
    # |Psi| reaches 1e175 by t = 64 on this path, so Psi^T J Psi overflows
    B = constant_coefficients(STABLE_B)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        defect = fundamental_solution(B, 1.0, 64.3).symplecticity_defect
        report = mean_index(B, 64)
    assert np.isfinite(defect) and defect < 1e-8
    assert report["ks"] == [1, 2, 4, 8, 16, 32, 64]
    assert report["i"] == [0] * 7 and report["i_L0"] == [-1] * 7


@pytest.fixture(scope="module")
def torus2_mixed():
    from brakekit.systems import load_system

    return load_system({
        "dim": 2, "theta": ["0.3", "0.1"],
        "lagrangian": {"builtin": "kinetic_potential",
                       "potential": "0.7*cos(2*pi*q1) + 0.5*cos(2*pi*q2)"},
    })


# the three equilibria of the benchmark's torus2-mixed workload with a
# hyperbolic direction, which it lists as expected failures; a change that
# mends them makes these pass, and must take them off that list too
@pytest.mark.xfail(strict=True, raises=IllConditionedCrossing,
                   reason="the N = 2 crossing determinant loses its precision along "
                          "hyperbolic growth")
@pytest.mark.parametrize("q", [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0)],
                         ids=["q=(0,0)", "q=(0,0.5)", "q=(0.5,0)"])
def test_torus2_hyperbolic_equilibria_match_the_fourier_oracle(torus2_mixed, q):
    loop = SymmetricLoop.constant(q, 1, torus=torus2_mixed.torus, n_per_unit=256)
    report = verify_relations(torus2_mixed.L_theta, loop, ks=(1, 2, 4), mean_k_max=32)
    # L_qq = -V'' at an equilibrium of V = 0.7 cos 2 pi q1 + 0.5 cos 2 pi q2
    R = 4 * np.pi ** 2 * np.diag([0.7 * np.cos(2 * np.pi * q[0]),
                                  0.5 * np.cos(2 * np.pi * q[1])])
    P, Q = np.eye(2), np.zeros((2, 2))
    for k in (1, 2, 4):
        assert report["per_k"][k]["morse_full"] == fourier_morse_index(P, Q, R, k=k)
        assert report["per_k"][k]["morse_even"] == fourier_morse_index(P, Q, R, k=k,
                                                                       symmetric=True)
