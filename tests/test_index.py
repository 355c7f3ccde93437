import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from brakekit.index import (
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
from brakekit.loopspace import SymmetricLoop, assemble_gram, assemble_hessian
from brakekit.model import OneForm
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
    B = assemble_B(co)
    assert np.allclose(B[0], FREE_B)
    assert np.max(np.abs(B - np.swapaxes(B, -1, -2))) < 1e-14


def test_fundamental_solution_closed_forms():
    path = fundamental_solution(constant_coefficients(np.zeros((2, 2))), 1.0)
    assert np.allclose(path.at(1.0), np.eye(2), atol=1e-12)
    path = fundamental_solution(constant_coefficients(FREE_B), 1.0)
    assert np.allclose(path.at(1.0), [[1.0, 0.0], [1.0, 1.0]], atol=1e-10)
    path = fundamental_solution(constant_coefficients(HARMONIC_B), 1.0)
    rot = np.array([[np.cos(1), -np.sin(1)], [np.sin(1), np.cos(1)]])
    assert np.allclose(path.at(1.0), rot, atol=1e-10)
    assert path.symplecticity_defect < 1e-8


@pytest.mark.parametrize("B", [HARMONIC_B, np.diag([1.0, 2.0, 4 * np.pi ** 2, -1.0])],
                         ids=["N=1", "N=2"])
def test_path_at_vector_matches_scalar_calls(B):
    path = fundamental_solution(constant_coefficients(B), 2.0)
    ts = np.array([0.3, 1.0, 1.7])
    stacked = np.stack([path.at(t) for t in ts])
    assert np.array_equal(path.at(ts), stacked)


def test_verify_relations_integrates_once(stiff_system, monkeypatch):
    import brakekit.index as index_mod

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(index_mod, "solve_ivp", counting)
    verify_relations(stiff_system.L_theta, SymmetricLoop.constant([0.5], 1),
                     ks=(1, 2, 4), mean_k_max=16)
    assert len(calls) == 1, calls


def test_verify_relations_assembles_B_once(stiff_system, libration, monkeypatch):
    import brakekit.index as index_mod

    calls = []

    def counting(coeffs):
        calls.append(coeffs)
        return assemble_B(coeffs)

    monkeypatch.setattr(index_mod, "assemble_B", counting)
    verify_relations(stiff_system.L_theta, libration, ks=(1,), mean_k_max=4)
    assert len(calls) == 1
    # the spline on the nodes passed in is the spline B_callable builds itself
    co = linearize(stiff_system.L_theta, libration)
    ts = np.linspace(-1.0, 3.0, 41)
    assert np.array_equal(co.B_callable(assemble_B(co))(ts), co.B_callable()(ts))


def test_verify_relations_mean_index_matches_standalone(stiff_system):
    L, loop = stiff_system.L_theta, SymmetricLoop.constant([0.5], 1)
    report = verify_relations(L, loop, ks=(1, 2, 4), mean_k_max=16)
    # B is constant here, so both sides run with deg_tol = 1e-6
    assert report["mean_index"] == mean_index(linearize(L, loop).B_callable(), 1.0, k_max=16)


def test_mean_index_rejects_short_engine():
    from brakekit.index import _CrossingEngine

    eng = _CrossingEngine(constant_coefficients(HARMONIC_B), 1.0, 4)
    assert mean_index(eng, k_max=4) == mean_index(constant_coefficients(HARMONIC_B), k_max=4)
    with pytest.raises(ValueError, match="horizon"):
        mean_index(eng, k_max=8)


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
            for sym in (False, True):
                got = morse_index(L, loop, k=k, symmetric=sym)
                want = fourier_morse_index(P, Q, R, k=k, symmetric=sym)
                assert got == want, (L.name, k, sym, got, want)


def test_morse_specific_values(stiff_system, free_system):
    unstable = SymmetricLoop.constant([0.5], 1)
    assert morse_index(stiff_system.L_theta, unstable, 1).as_tuple() == (1, 2)
    assert morse_index(stiff_system.L_theta, unstable, 1, symmetric=True).as_tuple() == (1, 1)
    stable = SymmetricLoop.constant([0.0], 1)
    assert morse_index(stiff_system.L_theta, stable, 1).as_tuple() == (0, 0)
    free_loop = SymmetricLoop.constant([0.3], 1)
    assert morse_index(free_system.L_theta, free_loop, 1).as_tuple() == (0, 1)
    assert morse_index(free_system.L_theta, free_loop, 1, symmetric=True).as_tuple() == (0, 1)


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
        path = fundamental_solution(constant_coefficients(B), float(k))
        assert cz_index(path, k).as_tuple() == cz_want
        assert l0_index(path, k).as_tuple() == l0_want


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
       symmetric=st.booleans(), shift=st.floats(-40.0, 40.0))
def test_banded_negative_count_matches_dense_ldl(mild_system, twisted_t2, seed, k,
                                                 period, dim, symmetric, shift):
    system = mild_system if dim == 1 else twisted_t2
    rng = np.random.default_rng(seed)
    n = 8 * period
    loop = SymmetricLoop(period, rng.uniform(-1.0, 1.0, size=(n // 2 + 1, dim)),
                         system.torus)
    subspace = "even" if symmetric else "full"
    A = (assemble_hessian(system.L, loop, k=k, subspace=subspace)
         + shift * assemble_gram(loop, k=k, subspace=subspace))
    dense = A.dense()
    ev = np.linalg.eigvalsh(dense)
    # the count is only defined when no eigenvalue sits at round-off from zero
    assume(np.min(np.abs(ev)) > 1e-8 * np.max(np.abs(ev)))
    assert _negative_count(A) == _ldl_negative_count(dense) == int(np.sum(ev < 0))
