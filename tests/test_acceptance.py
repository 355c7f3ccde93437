"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here exactly as stated; runtime budgets are asserted
against wall time.  Run with -s to watch the per-criterion lines.
"""

import time

import numpy as np
import pytest

from brakekit import bangert
from brakekit.bangert import (
    LoopFamily,
    action_bound_check,
    bangert_homotopy,
    build_theta_2n,
)
from brakekit.cli import run_orbit_campaign
from brakekit.dynamics import verify_conjugacy
from brakekit.index import (
    constant_coefficients,
    fourier_morse_index,
    mean_index,
    verify_relations,
)
from brakekit.legendre import hamiltonian_from_lagrangian, lagrangian_from_hamiltonian
from brakekit.loopspace import (
    LoopTangent,
    SymmetricLoop,
    assemble_hessian,
    iterate,
    mean_action,
    refine,
    w12_inner,
)
from brakekit.model import OneForm
from brakekit.modification import (
    build_modification,
    compute_constants,
    hessian_T_independence,
    verify_orbit_preservation,
)
from brakekit.systems import kinetic_hamiltonian, load_system

RESULTS = []


def report(number, ok, detail, elapsed, budget):
    line = (f"criterion {number}: {'PASS' if ok else 'FAIL'} "
            f"[{elapsed:.1f}s / budget {budget:.0f}s] {detail}")
    RESULTS.append(line)
    print("\n" + line)
    assert ok, line
    assert elapsed < budget, line


@pytest.fixture(scope="module")
def stiff_acceptance():
    """Magnetic pendulum for the orbit campaign.

    The 1.2 factor puts the period-1 libration at moderate amplitude, far
    from the separatrix, so its linearization stays well conditioned through
    the k = 8 iterates.
    """
    return load_system({
        "dim": 1, "theta": ["0.3"],
        "lagrangian": {"builtin": "kinetic_potential",
                       "potential": "1.2*cos(2*pi*q1)"},
        "numerics": {"grid": 1024},
    })


@pytest.fixture(scope="module")
def campaign(stiff_acceptance):
    t0 = time.monotonic()
    records = run_orbit_campaign(stiff_acceptance, 1, 4, seed=2, grid=1024,
                                 amplitudes=(0.0, 0.2))
    return records, time.monotonic() - t0


def test_criterion_1_duality_roundtrip(free_system, mild_system, stiff_system,
                                       quartic_system):
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    systems = (free_system, mild_system, stiff_system, quartic_system)
    for system in systems:
        L = system.L_theta
        H = hamiltonian_from_lagrangian(L)
        L2 = lagrangian_from_hamiltonian(H)
        for _ in range(250):
            t = rng.uniform(0, 1)
            q = rng.uniform(0, 1, 1)
            v = rng.normal(size=1) * 1.5
            worst = max(worst, abs(float(L2.value(t, q, v)) - float(L.value(t, q, v))))
    elapsed = time.monotonic() - t0
    report(1, worst < 1e-9,
           f"biconjugation max error {worst:.2e} over 1000 samples, "
           f"{len(systems)} built-ins", elapsed, 5.0)


def test_criterion_2_momentum_shift_conjugacy(torus1, t2_magnetic):
    t0 = time.monotonic()
    H1 = kinetic_hamiltonian(torus1)
    theta1 = OneForm.constant(torus1, [0.3])
    dev1 = verify_conjugacy(H1, theta1, samples=8)
    # closed form on the T^1 constant system: both flows are linear drifts
    rng = np.random.default_rng(3)
    closed_worst = 0.0
    from brakekit.dynamics import hamiltonian_rhs, integrate

    for _ in range(8):
        q, p = rng.uniform(0, 1), rng.normal()
        # standard side: qdot = p - 0.3; the twisted flow of H = p^2/2 from
        # the shifted start (q, p - 0.3) drifts at the same rate
        traj = integrate(hamiltonian_rhs(H1, theta1),
                         np.array([q, p - 0.3]), 0.0, 1.0, tol=1e-10)
        ts = np.linspace(0, 1, 9)[1:]
        exact_q = q + (p - 0.3) * ts
        got = traj.at(ts)
        closed_worst = max(closed_worst, float(np.max(np.abs(got[:, 0] - exact_q))))
    torus2, H2, theta2 = t2_magnetic
    dev2 = verify_conjugacy(H2, theta2, samples=6)
    elapsed = time.monotonic() - t0
    ok = dev1 < 1e-6 and closed_worst < 1e-6 and dev2 < 1e-6
    report(2, ok, f"T1 deviation {dev1:.2e} (closed-form {closed_worst:.2e}), "
                  f"T2 deviation {dev2:.2e}", elapsed, 30.0)


def test_criterion_3_brake_symmetry(stiff_acceptance, campaign):
    records, campaign_time = campaign
    t0 = time.monotonic()
    ok = len(records) > 0
    nonconstant = []
    for rec in records:
        ok &= rec["brake_residual"] < 1e-6
        ok &= rec["full_gradient_norm"] < 1e-8
        if np.ptp(rec["loop"].half_values) > 1e-3:
            nonconstant.append(rec)
    both = [r for r in nonconstant
            if {"shooting", "variational"} <= set(r["methods"])]
    ok &= len(both) >= 1
    agreement = min((r["dynamic_tracking"] for r in both), default=np.inf)
    ok &= agreement < 1e-5
    elapsed = campaign_time + (time.monotonic() - t0)
    report(3, ok, f"{len(records)} orbits, all residuals < 1e-6; nonconstant "
                  f"orbit by both methods with sup agreement {agreement:.2e}",
           elapsed, 120.0)


@pytest.fixture(scope="module")
def anchor_reports(stiff_system, free_system):
    """verify_relations on the three anchor orbits, shared by criteria 4 and 9."""
    t0 = time.monotonic()
    out = {}
    for name, system, loop in [
        ("unstable", stiff_system, SymmetricLoop.constant([0.5], 1)),
        ("stable", stiff_system, SymmetricLoop.constant([0.0], 1)),
        ("free", free_system, SymmetricLoop.constant([0.3], 1)),
    ]:
        out[name] = verify_relations(system.L_theta, loop, ks=(1, 2, 4),
                                     mean_k_max=16)
    return out, time.monotonic() - t0


def test_criterion_4_index_identities(anchor_reports):
    reports, elapsed0 = anchor_reports
    t0 = time.monotonic()
    ok = all(rep["all_pass"] for rep in reports.values())
    # the stated pendulum anchor values and the Fourier oracle match
    unstable = reports["unstable"]["per_k"]
    ok &= unstable[1]["morse_full"] == (1, 2) and unstable[1]["morse_even"] == (1, 1)
    for k in (1, 2, 4):
        want_full = fourier_morse_index(1.0, 0.0, -4 * np.pi ** 2, k=k)
        want_even = fourier_morse_index(1.0, 0.0, -4 * np.pi ** 2, k=k, symmetric=True)
        ok &= unstable[k]["morse_full"] == want_full
        ok &= unstable[k]["morse_even"] == want_even
        ok &= unstable[k]["checks"]["morse_full_equals_cz"]
        ok &= unstable[k]["checks"]["morse_even_equals_l0_plus_N"]
    detail = ", ".join(
        f"{name}: " + " ".join(
            f"k={k}:{rep['per_k'][k]['morse_full']}={rep['per_k'][k]['cz']}"
            for k in (1, 2, 4))
        for name, rep in reports.items())
    elapsed = elapsed0 + (time.monotonic() - t0)
    report(4, ok, detail, elapsed, 120.0)


def test_criterion_5_index_inequalities(stiff_acceptance, free_system, campaign):
    records, _ = campaign
    t0 = time.monotonic()
    orbits = [(stiff_acceptance.L_theta, rec["loop"]) for rec in records]
    orbits += [(free_system.L_theta, SymmetricLoop.constant([0.3], 1))]
    ok = True
    checked = 0
    failures = []
    inequality_names = ("full_nullity_le_2N", "even_nullity_le_full",
                        "0_le_even_le_full_index", "iteration_bound",
                        "zero_mean_index_bound")
    for j, (L, loop) in enumerate(orbits):
        rep = verify_relations(L, loop, ks=(1, 2, 4, 8), mean_k_max=8)
        for k, row in rep["per_k"].items():
            bad = [c for c in inequality_names
                   if c in row["checks"] and not row["checks"][c]]
            if bad:
                failures.append((j, k, bad, row))
            ok &= not bad
            checked += 1
    elapsed = time.monotonic() - t0
    report(5, ok, f"inequalities on {len(orbits)} stored orbits, {checked} "
                  f"(orbit, k) pairs with k <= 8"
                  + (f"; failures: {failures}" if failures else ""),
           elapsed, 120.0)


def test_criterion_6_mean_index_relation():
    t0 = time.monotonic()
    ok = True
    details = []
    for name, B in [("harmonic", np.eye(2)), ("free", np.diag([1.0, 0.0]))]:
        mi = mean_index(constant_coefficients(B), k_max=64)
        rel = abs(mi["ihat_L0"] - mi["ihat"] / 2) / max(mi["ihat"], 0.01)
        ok &= rel < 0.05
        details.append(f"{name}: ihat={mi['ihat']:.4f} rel err {rel:.1e}")
    elapsed = time.monotonic() - t0
    report(6, ok, "; ".join(details), elapsed, 60.0)


def test_criterion_7_modification_certificates(stiff_acceptance, campaign):
    records, _ = campaign
    t0 = time.monotonic()
    system = stiff_acceptance
    KC = compute_constants(system.H, system.theta)
    U = max(rec["max_speed"] for rec in records)
    T1, T2 = 2.0 * max(U, 1.0), 4.0 * max(U, 1.0)
    spec1, params1 = build_modification(system.L_theta, T1, constants=KC)
    rng = np.random.default_rng(0)
    # (M1) exact coincidence
    t = rng.uniform(0, 1, 2000)
    q = rng.uniform(0, 1, (2000, 1))
    v = rng.uniform(-T1, T1, (2000, 1)) * 0.999
    m1 = bool(np.all(spec1.value(t, q, v) == system.L_theta.value(t, q, v)))
    # (M3) floor on 1e4 samples
    t3 = rng.uniform(0, 1, 10000)
    q3 = rng.uniform(0, 1, (10000, 1))
    v3 = rng.normal(size=(10000, 1)) * 4 * T1
    m3_margin = float(np.min(spec1.value(t3, q3, v3)
                             - (np.abs(v3[:, 0]) - params1.C)))
    ok = m1 and m3_margin >= 0.0
    worst_grad, worst_dev = 0.0, 0.0
    for rec in records:
        loop = rec["loop"]
        pres = verify_orbit_preservation(system.L_theta, spec1, loop, T1)
        ind = hessian_T_independence(system.L_theta, loop, T1, T2, constants=KC)
        worst_grad = max(worst_grad, pres["gradient_norm_T"])
        worst_dev = max(worst_dev, ind["max_entry_deviation"])
        ok &= pres["gradient_norm_T"] < 1e-10 and pres["action_delta"] == 0.0
        ok &= ind["max_entry_deviation"] < 1e-12 and ind["index_pairs_equal"]
    elapsed = time.monotonic() - t0
    report(7, ok, f"(M1) exact, (M3) margin {m3_margin:.3g}, preservation grad "
                  f"{worst_grad:.1e}, Hessian deviation {worst_dev:.1e} across "
                  f"T in ({T1:.3g}, {T2:.3g})", elapsed, 60.0)


def test_criterion_8_bangert_suite(free_system, monkeypatch):
    t0 = time.monotonic()
    mk = lambda c: SymmetricLoop.constant([c], 1, n_per_unit=128)
    nonneg = load_system({
        "dim": 1,
        "lagrangian": {"builtin": "kinetic_potential",
                       "potential": "(cos(2*pi*q1)-1)/(4*pi**2)"},
    })
    families = {
        "constant": (LoopFamily.from_map(lambda x: mk(0.25), 0, 1, 9),
                     free_system.L_theta),
        "two-constant": (LoopFamily.from_map(lambda x: mk(0.5 * x), 0, 1, 33),
                         free_system.L_theta),
        "moving-pendulum-loop": (LoopFamily.from_map(
            lambda x: SymmetricLoop.from_function(
                lambda t: np.array([0.5 + (0.05 + 0.1 * x) * np.cos(2 * np.pi * t)]),
                1, n_per_unit=128), 0, 1, 33), nonneg.L_theta),
    }
    ok = True
    details = []
    for name, (family, L) in families.items():
        rep = action_bound_check(family, L, ns=(2, 4, 8),
                                 xs=np.linspace(0, 1, 21))
        ok &= rep["passed"]
        # evenness is structural: reflection residual is exactly zero
        out = build_theta_2n(family, 2, xs=np.array([0.0, 0.31, 1.0]))
        for loop in out.loops:
            full = loop.full_values()
            ok &= float(np.max(np.abs(full[1:] - full[1:][::-1]))) < 1e-12
        want = iterate(family.at(1.0), 4)
        ok &= np.array_equal(out.loops[-1].half_values, want.half_values)
        details.append(f"{name}: bound margin "
                       f"{min(r['bound_margin'] for r in rep['per_n'].values()):.2g}")
    two_const = families["two-constant"][0]
    monkeypatch.setattr(bangert, "PARAM_SAMPLES", 17)
    monkeypatch.setattr(bangert, "S_SAMPLES", 4)
    hom = bangert_homotopy(two_const, n=8, c1=0.06, c2=1.0, eps=0.032, q=1,
                           L=free_system.L_theta)
    ok &= hom["n_bar"] <= 8 and all(hom["certificates"].values())
    elapsed = time.monotonic() - t0
    report(8, ok, "; ".join(details) + f"; homotopy n_bar={hom['n_bar']} "
                                       f"certs={hom['certificates']}", elapsed, 180.0)


def test_criterion_9_convergence_order(free_system, stiff_system,
                                       anchor_reports, campaign):
    t0 = time.monotonic()
    # action quadrature on an analytic loop
    loop = SymmetricLoop.from_function(
        lambda t: np.array([0.1 * np.cos(2 * np.pi * t)]), 1)
    exact = np.pi ** 2 * 0.01
    e1 = abs(mean_action(free_system.L_theta, loop) - exact)
    e2 = abs(mean_action(free_system.L_theta, refine(loop)) - exact)
    r_action = e1 / e2
    # W^{1,2} quadrature
    def tangent(n):
        ts = np.arange(n // 2 + 1) / n
        return LoopTangent(1, np.cos(2 * np.pi * ts)[:, None])

    exact_w = 0.5 + (2 * np.pi) ** 2 / 2
    w1 = abs(w12_inner(tangent(256), tangent(256)) - exact_w)
    w2 = abs(w12_inner(tangent(512), tangent(512)) - exact_w)
    r_w12 = w1 / w2
    # Hessian quadrature: quadratic form value on an analytic section
    unstable = SymmetricLoop.constant([0.5], 1)
    exact_h = ((4 * np.pi) ** 2 - 4 * np.pi ** 2) / 2.0

    def hess_value(lp):
        H = assemble_hessian(stiff_system.L_theta, lp, k=1).dense()
        ts = lp.full_times()
        xi = np.cos(4 * np.pi * ts)[:, None].ravel()
        return float(xi @ H @ xi)

    h1 = abs(hess_value(unstable) - exact_h)
    h2 = abs(hess_value(refine(unstable)) - exact_h)
    r_hess = h1 / h2
    # grid stability of the index pairs across the acceptance runs
    reports, _ = anchor_reports
    stable = all(row["checks"]["grid_stable"]
                 for rep in reports.values() for row in rep["per_k"].values())
    ok = r_action >= 3.5 and r_w12 >= 3.5 and r_hess >= 3.5 and stable
    elapsed = time.monotonic() - t0
    report(9, ok, f"halving ratios: action {r_action:.2f}, W12 {r_w12:.2f}, "
                  f"Hessian {r_hess:.2f}; index pairs grid-stable: {stable}",
           elapsed, 120.0)


def test_zz_summary():
    print("\n" + "=" * 72)
    for line in RESULTS:
        print(line)
    print("=" * 72)
