import numpy as np
import pytest

from brakekit.bangert import (
    LoopFamily,
    action_bound_check,
    bangert_homotopy,
    broken_geodesic,
    build_theta_2n,
    concatenate,
    hat_constant,
    hat_loop,
    loop_action,
    reparametrize,
    reverse_segment,
    segment_action,
    segment_length,
    shortest_geodesic,
    _half_table,
)
from brakekit.errors import EndpointMismatch, PreconditionViolated, TooFar, Unsupported
from brakekit.loopspace import SymmetricLoop, iterate, mean_action


def const_loop(c, n_per_unit=128):
    return SymmetricLoop.constant([c], 1, n_per_unit=n_per_unit)


@pytest.fixture(scope="module")
def two_constant_family():
    return LoopFamily.from_map(lambda x: const_loop(0.5 * x), 0.0, 1.0, nodes=33)


@pytest.fixture(scope="module")
def pendulum_loop_family():
    def mk(x):
        return SymmetricLoop.from_function(
            lambda t: np.array([0.5 + (0.05 + 0.1 * x) * np.cos(2 * np.pi * t)]),
            1, n_per_unit=128)

    return LoopFamily.from_map(mk, 0.0, 1.0, nodes=33)


@pytest.fixture(scope="module")
def nonneg_pendulum():
    from brakekit.systems import load_system

    return load_system({
        "dim": 1,
        "lagrangian": {"builtin": "kinetic_potential",
                       "potential": "(cos(2*pi*q1)-1)/(4*pi**2)"},
    }).L_theta


def test_reparametrize_examples(torus1):
    seg = shortest_geodesic(torus1, [0.0], [0.3], 0.0, 1.0)
    same = reparametrize(seg, 0.0, 1.0)
    q, v = same.at(np.array([0.25, 0.75]))
    assert np.allclose(q[:, 0], [0.075, 0.225], atol=1e-14)
    double = reparametrize(reparametrize(seg, 0.0, 2.0), 1.0, 3.0)
    direct = reparametrize(seg, 1.0, 3.0)
    ts = np.linspace(1.0, 3.0, 17)
    assert np.max(np.abs(double.at(ts)[0] - direct.at(ts)[0])) < 1e-14


def test_concatenate_examples(torus1):
    g1 = shortest_geodesic(torus1, [0.0], [0.3], 0.0, 1.0)
    g2 = shortest_geodesic(torus1, [0.3], [0.5], 0.0, 1.0)
    both = concatenate(g1, g2, torus=torus1)
    assert both.b == pytest.approx(2.0)
    assert (both.end - both.start)[0] == pytest.approx(0.5, abs=1e-14)
    loopback = concatenate(both, reverse_segment(both), torus=torus1)
    assert np.allclose(loopback.start, loopback.end, atol=1e-14)
    with pytest.raises(EndpointMismatch):
        concatenate(g1, shortest_geodesic(torus1, [0.9], [0.8]), torus=torus1)


def test_shortest_geodesic_examples(torus1):
    seg = shortest_geodesic(torus1, [0.9], [0.1])
    assert segment_length(seg) == pytest.approx(0.2, abs=1e-12)
    const = shortest_geodesic(torus1, [0.4], [0.4])
    assert segment_length(const) == pytest.approx(0.0, abs=1e-14)
    rng = np.random.default_rng(0)
    for _ in range(100):
        qa, qb = rng.uniform(0, 1, 2)
        if torus1.distance([qa], [qb]) >= torus1.injectivity_radius:
            continue
        seg = shortest_geodesic(torus1, [qa], [qb])
        assert segment_length(seg) == pytest.approx(
            torus1.distance([qa], [qb]), abs=1e-12)
    with pytest.raises(TooFar):
        shortest_geodesic(torus1, [0.0], [0.5])


def test_broken_geodesic(two_constant_family):
    seg = broken_geodesic(two_constant_family, 0.0, 1.0, rho=0.3)
    assert segment_length(seg) == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(seg.at(np.array([0.0]))[0], [[0.0]])
    assert np.allclose(seg.at(np.array([1.0]))[0], [[0.5]], atol=1e-14)
    constant = LoopFamily.from_map(lambda x: const_loop(0.25), 0.0, 1.0, 5)
    seg = broken_geodesic(constant, 0.0, 1.0, rho=0.5)
    assert segment_length(seg) < 1e-13


def test_build_theta_2n_constant_family(free_system):
    fam = LoopFamily.from_map(lambda x: const_loop(0.25), 0.0, 1.0, nodes=5)
    out = build_theta_2n(fam, 2, xs=np.linspace(0, 1, 9), L=free_system.L_theta)
    for seg in out.half_paths:
        assert abs(segment_action(free_system.L_theta, seg) / 2) < 1e-12
    for loop in out.loops:
        assert loop.period == 4
        full = loop.full_values()
        assert np.max(np.abs(full[1:] - full[1:][::-1])) == 0.0


def test_build_theta_2n_right_end_is_iterate(pendulum_loop_family):
    out = build_theta_2n(pendulum_loop_family, 2, xs=np.array([0.0, 0.37, 1.0]))
    want = iterate(pendulum_loop_family.at(1.0), 4)
    assert np.array_equal(out.loops[-1].half_values, want.half_values)


def test_regime_continuity(two_constant_family, free_system):
    # output actions are continuous across the regime junction x0 + l/n span
    n = 4
    xs = np.array([0.249, 0.2499, 0.25, 0.2501, 0.251])
    out = build_theta_2n(two_constant_family, n, xs=xs)
    acts = [segment_action(free_system.L_theta, p) / n for p in out.half_paths]
    assert np.max(np.abs(np.diff(acts))) < 5e-3


def test_hat_loop_even_and_monotone(two_constant_family, free_system):
    loop, action = hat_loop(two_constant_family, 0.4, L=free_system.L_theta)
    assert loop.period == 2
    full = loop.full_values()
    assert np.max(np.abs(full[1:] - full[1:][::-1])) == 0.0
    assert np.isfinite(action) and action > 0
    C_full = hat_constant(two_constant_family, free_system.L_theta)
    assert action <= C_full + 1e-12
    C_half = hat_constant(two_constant_family.restrict(0.0, 0.5),
                          free_system.L_theta)
    assert C_half <= C_full + 1e-12
    assert np.isfinite(C_full) and C_full > 0


def test_action_bound_families(two_constant_family, pendulum_loop_family,
                               free_system, nonneg_pendulum):
    fam_const = LoopFamily.from_map(lambda x: const_loop(0.25), 0.0, 1.0, nodes=5)
    rep = action_bound_check(fam_const, free_system.L_theta, ns=(2, 4, 8))
    assert rep["passed"]
    rep = action_bound_check(two_constant_family, free_system.L_theta, ns=(2, 4, 8))
    assert rep["passed"]
    excess = [rep["per_n"][n]["max_excess"] for n in (2, 4, 8)]
    for a, b in zip(excess[:-1], excess[1:]):
        assert abs(a / b - 2.0) < 0.2 * 2.0  # 1/n decay within 20%
    rep = action_bound_check(pendulum_loop_family, nonneg_pendulum, ns=(2, 4, 8))
    assert rep["passed"]


def test_homotopy_q1_certificates(two_constant_family, free_system):
    rep = bangert_homotopy(two_constant_family, n=8, c1=0.06, c2=1.0, eps=0.032,
                           q=1, param_samples=17, s_samples=4,
                           L=free_system.L_theta)
    assert rep["n_bar"] <= 8
    assert all(rep["certificates"].values()), rep
    with pytest.raises(PreconditionViolated):
        bangert_homotopy(two_constant_family, n=2, c1=0.06, c2=1.0, eps=0.01,
                         q=1, L=free_system.L_theta)
    with pytest.raises(PreconditionViolated):
        # c2 below the family's actions
        bangert_homotopy(two_constant_family, n=8, c1=0.06, c2=1e-9, eps=0.032,
                         q=1, L=free_system.L_theta)


def test_homotopy_q2_and_unsupported(free_system):
    sigma = lambda z: const_loop(0.2 * (z[0] + z[1]), n_per_unit=64)
    rep = bangert_homotopy(sigma, n=4, c1=0.05, c2=1.0, eps=0.03, q=2,
                           param_samples=6, L=free_system.L_theta)
    assert all(rep["certificates"].values())
    with pytest.raises(Unsupported):
        bangert_homotopy(sigma, n=4, c1=0.05, c2=1.0, eps=0.03, q=3,
                         L=free_system.L_theta)


@pytest.mark.parametrize("q", [1, 2])
def test_homotopy_certificate_iii_sees_a_moved_boundary(q, two_constant_family,
                                                         free_system, monkeypatch):
    from brakekit import bangert as bg

    if q == 1:
        sigma, n, c1, c2, eps, extra = two_constant_family, 8, 0.06, 1.0, 0.032, {
            "param_samples": 17, "s_samples": 4}
    else:
        sigma, n, c1, c2, eps, extra = (lambda z: const_loop(0.2 * (z[0] + z[1]),
                                                             n_per_unit=64),
                                        4, 0.05, 1.0, 0.03, {"param_samples": 6})
    rep = bangert_homotopy(sigma, n=n, c1=c1, c2=c2, eps=eps, q=q,
                           L=free_system.L_theta, **extra)
    assert set(rep["certificates"]) == {"ii", "iii", "inside_c2"}
    assert rep["certificates"]["iii"] is True
    table = bg._half_table

    def moved(family, n, x, rho=None):
        # the construction at the left end starts from the middle loop instead
        if x <= family.x0:
            x = 0.5 * (family.x0 + family.x1)
        return table(family, n, x, rho=rho)

    monkeypatch.setattr(bg, "_half_table", moved)
    rep = bangert_homotopy(sigma, n=n, c1=c1, c2=c2, eps=eps, q=q,
                           L=free_system.L_theta, **extra)
    assert rep["certificates"]["iii"] is False


def test_loop_action_matches_mean_action(nonneg_pendulum):
    loop = SymmetricLoop.from_function(
        lambda t: np.array([0.5 + 0.1 * np.cos(2 * np.pi * t)]), 1)
    # the spline quadrature is fourth order; the centered-difference mean
    # action carries its O(h^2) velocity bias, which dominates the gap
    assert loop_action(nonneg_pendulum, loop) == pytest.approx(
        mean_action(nonneg_pendulum, loop), abs=2e-4)


def test_free_two_constant_closed_form(free_system):
    # constant loops at 0.5 x: only the geodesic glue carries action, and the
    # corner-split quadrature must integrate its piecewise-constant speed exactly
    L = free_system.L_theta
    fam = LoopFamily.from_map(lambda x: const_loop(0.5 * x), 0.0, 1.0, 33)
    assert hat_constant(fam, L) == pytest.approx(0.5, abs=1e-12)
    for w in np.linspace(0.0, 1.0, 17):
        assert hat_loop(fam, float(w), L)[1] == pytest.approx(0.5, abs=1e-12)
    for n in (2, 4, 8):
        for x in np.linspace(0.0, 1.0, 41):
            l = min(int(np.floor(n * x)), n - 1)
            u = n * x - l
            want = (u * (u + 1) * (l <= n - 2) + (1 - u) * (2 - u) * (l >= 1)) / (8 * n)
            got = segment_action(L, _half_table(fam, n, float(x))) / n
            assert got == pytest.approx(want, abs=1e-12), (n, x)
