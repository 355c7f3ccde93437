from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from brakekit import cli
from brakekit.bangert import (
    LoopFamily,
    PathSegment,
    action_bound_check,
    bangert_homotopy,
    broken_geodesic,
    build_theta_2n,
    concatenate,
    hat_constant,
    loop_action,
    reparametrize,
    reverse_segment,
    segment_action,
    shortest_geodesic,
    _at_right_end,
    _half_path_to_loop,
    _half_table,
    _hat_segment,
)
from brakekit.errors import EndpointMismatch, PreconditionViolated, TooFar, Unsupported
from brakekit.loopspace import SymmetricLoop, iterate, mean_action
from brakekit.model import LagrangianSpec, TorusSpace


def segment_length(seg):
    """Integral of |qdot| over the segment, through segment_action's quadrature."""
    speed = LagrangianSpec(TorusSpace(seg.shifts.shape[1]),
                           lambda t, q, v: np.linalg.norm(v, axis=1),
                           None, None, None, None, None)
    return segment_action(speed, seg)


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
    for x in (0.0, 0.37, 0.5, 1.0):  # ev interpolates the base point alone, to the bit
        assert np.array_equal(two_constant_family.ev(x),
                              two_constant_family.at(x).half_values[0])
    # np.arange(xa, xb, 0.1) ends at xb or past it here; every leg still runs forward
    for xa, xb in ((0.1, 0.4), (0.2, 0.8), (0.3, 0.9)):
        seg = broken_geodesic(two_constant_family, xa, xb, rho=0.1)
        assert np.all(np.diff(seg.breaks) > 0.0) and seg.b == xb


def test_build_theta_2n_constant_family(free_system):
    fam = LoopFamily.from_map(lambda x: const_loop(0.25), 0.0, 1.0, nodes=5)
    out = build_theta_2n(fam, 2, xs=np.linspace(0, 1, 9))
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
    seg = _hat_segment(two_constant_family, 0.4)
    loop = _half_path_to_loop(seg, 1, two_constant_family.torus, 128)
    action = segment_action(free_system.L_theta, seg)
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


def test_homotopy_q1_certificates(two_constant_family, free_system, monkeypatch):
    from brakekit import bangert as bg

    with monkeypatch.context() as m:
        m.setattr(bg, "PARAM_SAMPLES", 17)
        m.setattr(bg, "S_SAMPLES", 4)
        rep = bangert_homotopy(two_constant_family, n=8, c1=0.06, c2=1.0, eps=0.032,
                               q=1, L=free_system.L_theta)
    assert rep["n_bar"] <= 8
    assert all(rep["certificates"].values()), rep
    with pytest.raises(PreconditionViolated):
        bangert_homotopy(two_constant_family, n=2, c1=0.06, c2=1.0, eps=0.01,
                         q=1, L=free_system.L_theta)
    with pytest.raises(PreconditionViolated):
        # c2 below the family's actions
        bangert_homotopy(two_constant_family, n=8, c1=0.06, c2=1e-9, eps=0.032,
                         q=1, L=free_system.L_theta)


def test_homotopy_q2_and_unsupported(free_system, monkeypatch):
    from brakekit import bangert as bg

    sigma = lambda z: const_loop(0.2 * (z[0] + z[1]), n_per_unit=64)
    monkeypatch.setattr(bg, "PARAM_SAMPLES", 6)
    rep = bangert_homotopy(sigma, n=4, c1=0.05, c2=1.0, eps=0.03, q=2,
                           L=free_system.L_theta)
    assert all(rep["certificates"].values())
    with pytest.raises(Unsupported):
        bangert_homotopy(sigma, n=4, c1=0.05, c2=1.0, eps=0.03, q=3,
                         L=free_system.L_theta)


@pytest.mark.parametrize("q", [1, 2])
def test_homotopy_certificate_iii_sees_a_moved_boundary(q, two_constant_family,
                                                         free_system, monkeypatch):
    from brakekit import bangert as bg

    if q == 1:
        sigma, n, c1, c2, eps, samples = two_constant_family, 8, 0.06, 1.0, 0.032, {
            "PARAM_SAMPLES": 17, "S_SAMPLES": 4}
    else:
        sigma, n, c1, c2, eps, samples = (lambda z: const_loop(0.2 * (z[0] + z[1]),
                                                               n_per_unit=64),
                                          4, 0.05, 1.0, 0.03, {"PARAM_SAMPLES": 6})
    for name, value in samples.items():
        monkeypatch.setattr(bg, name, value)
    rep = bangert_homotopy(sigma, n=n, c1=c1, c2=c2, eps=eps, q=q,
                           L=free_system.L_theta)
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
                           L=free_system.L_theta)
    assert rep["certificates"]["iii"] is False


def wobble_loop(a, n_per_unit=128):
    return SymmetricLoop.from_function(
        lambda t: np.array([0.5 + a * np.cos(2 * np.pi * t)]), 1, n_per_unit=n_per_unit)


# free-particle loops whose action, (2 pi a)^2 / 4, vanishes on the boundary
# of the simplex and reaches 0.099 inside it
WOBBLE_SIMPLICES = {
    1: lambda: LoopFamily.from_map(lambda x: wobble_loop(0.1 * np.sin(np.pi * x)),
                                   0.0, 1.0, nodes=33),
    2: lambda: (lambda z: wobble_loop(2.7 * z[0] * z[1] * (1 - z[0] - z[1]), 64)),
}


@pytest.mark.parametrize("q", [1, 2])
def test_homotopy_certificate_ii_sees_an_underestimated_glue_constant(q, free_system,
                                                                      monkeypatch):
    from brakekit import bangert as bg

    sigma = WOBBLE_SIMPLICES[q]()
    monkeypatch.setattr(bg, "PARAM_SAMPLES", 17 if q == 1 else 6)
    monkeypatch.setattr(bg, "S_SAMPLES", 4)
    with pytest.raises(PreconditionViolated, match="n = 2 below n_bar"):
        bangert_homotopy(sigma, n=2, c1=0.03, c2=1.0, eps=0.01, q=q, L=free_system.L_theta)
    # with C(sigma) taken too small, n = 2 passes for n_bar, and the s = 1 slice
    # leaves the c1-sublevel
    monkeypatch.setattr(bg, "hat_constant", lambda *args, **kwargs: 1e-3)
    rep = bangert_homotopy(sigma, n=2, c1=0.03, c2=1.0, eps=0.01, q=q,
                           L=free_system.L_theta)
    assert rep["n_bar"] == 1
    assert rep["certificates"] == {"ii": False, "iii": True, "inside_c2": True}


@pytest.mark.parametrize("c1, c2, eps, message", [
    (0.05, 0.03, 0.03, "not below c2 - eps"),        # the actions, 0, reach c2 - eps
    (0.03, 1.0, 0.03, "boundary action .* not below c1 - eps"),
    (0.05, 1.0, 1e-4, "n = 4 below n_bar"),
], ids=["c2", "c1-on-boundary", "n_bar"])
def test_homotopy_q2_refuses_an_unmet_precondition(c1, c2, eps, message, free_system,
                                                   monkeypatch):
    from brakekit import bangert as bg

    monkeypatch.setattr(bg, "PARAM_SAMPLES", 6)
    sigma = lambda z: const_loop(0.2 * (z[0] + z[1]), n_per_unit=64)
    with pytest.raises(PreconditionViolated, match=message):
        bangert_homotopy(sigma, n=4, c1=c1, c2=c2, eps=eps, q=2, L=free_system.L_theta)


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
        assert segment_action(L, _hat_segment(fam, float(w))) == pytest.approx(0.5, abs=1e-12)
    for n in (2, 4, 8):
        for x in np.linspace(0.0, 1.0, 41):
            l = min(int(np.floor(n * x)), n - 1)
            u = n * x - l
            want = (u * (u + 1) * (l <= n - 2) + (1 - u) * (2 - u) * (l >= 1)) / (8 * n)
            got = segment_action(L, _half_table(fam, n, float(x))) / n
            assert got == pytest.approx(want, abs=1e-12), (n, x)


def test_segment_length_integrates_each_leg_exactly():
    # the legs of a broken geodesic have constant speeds that jump at the
    # knots; a quadrature that straddles the knots was off by 2.3e-4 here
    fam = LoopFamily.from_map(lambda x: const_loop(0.3 * x ** 3), 0.0, 1.0, 33)
    knots = [0.0, 0.3, 0.6, 0.9, 1.0]
    legs = sum(fam.torus.distance(fam.ev(lo), fam.ev(hi))
               for lo, hi in zip(knots[:-1], knots[1:]))
    assert segment_length(broken_geodesic(fam, 0.0, 1.0, rho=0.3)) == pytest.approx(
        legs, abs=1e-14)


# ---------------------------------------------------------------------------
# the nested-closure path algebra that the flat table replaced, kept as the
# reference the table is checked against
# ---------------------------------------------------------------------------

@dataclass
class _RefSegment:
    a: float
    b: float
    eval_fn: Callable
    corners: tuple = ()

    @property
    def start(self):
        return self.at(self.a)[0][0]

    @property
    def end(self):
        return self.at(self.b)[0][0]

    def at(self, ts):
        return self.eval_fn(np.atleast_1d(np.asarray(ts, dtype=float)))


def _ref_reparametrize(seg, a, b):
    scale = (seg.b - seg.a) / (b - a)

    def eval_fn(ts):
        q, v = seg.at((ts - a) * scale + seg.a)
        return q, v * scale

    return _RefSegment(a, b, eval_fn, tuple(a + (c - seg.a) / scale for c in seg.corners))


def _ref_reverse(seg):
    a, b = seg.a, seg.b

    def eval_fn(ts):
        q, v = seg.at(a + b - ts)
        return q, -v

    return _RefSegment(a, b, eval_fn, tuple(sorted(a + b - c for c in seg.corners)))


def _ref_concatenate(s1, s2, torus):
    gap = s1.end - s2.start
    lattice = torus.periods * np.round(gap / torus.periods)
    if np.linalg.norm(gap - lattice) > 1e-10:
        raise EndpointMismatch("segment endpoints differ")
    shift = s1.b - s2.a

    def eval_fn(ts):
        q = np.empty((len(ts), gap.size))
        v = np.empty_like(q)
        first = ts <= s1.b
        if np.any(first):
            q[first], v[first] = s1.at(ts[first])
        if np.any(~first):
            q2, v2 = s2.at(ts[~first] - shift)
            q[~first], v[~first] = q2 + lattice, v2
        return q, v

    corners = tuple(s1.corners) + (s1.b,) + tuple(c + shift for c in s2.corners)
    return _RefSegment(s1.a, s1.b + (s2.b - s2.a), eval_fn, corners)


def _ref_geodesic(torus, qa, qb, a, b):
    qa = np.atleast_1d(np.asarray(qa, dtype=float))
    disp = torus.displacement(qa, qb)
    span = b - a

    def eval_fn(ts):
        q = qa[None, :] + ((ts - a) / span)[:, None] * disp[None, :]
        return q, np.broadcast_to(disp / span, q.shape).copy()

    return _RefSegment(a, b, eval_fn)


def _ref_broken(family, xa, xb, rho):
    knots = list(np.arange(xa, xb, rho)) + [xb]
    seg = None
    for lo, hi in zip(knots[:-1], knots[1:]):
        leg = _ref_geodesic(family.torus, family.ev(lo), family.ev(hi), lo, hi)
        seg = leg if seg is None else _ref_concatenate(seg, leg, family.torus)
    return seg


def _ref_loop_segment(family, x, t0, t1, src0=0.0, src1=1.0):
    # a spline solve on the interpolated loop, not the family's blended spline
    sp = family.at(x).spline()
    dsp = sp.derivative()
    scale = (src1 - src0) / (t1 - t0)

    def eval_fn(ts):
        s = src0 + (ts - t0) * scale
        return sp(np.mod(s, 1.0)), dsp(np.mod(s, 1.0)) * scale

    return _RefSegment(t0, t1, eval_fn)


def _ref_half_table(family, n, x, rho):
    x0, x1 = family.x0, family.x1
    if _at_right_end(family, x):
        return _ref_loop_segment(family, x1, 0.0, n, 0.0, float(n))
    span = x1 - x0
    Y = span / n
    l = min(int(np.floor((x - x0) / Y)), n - 1)
    y = (x - x0) - l * Y
    w = x0 + n * y
    z = span - n * y
    pieces = []
    t, f1 = 0.0, 0.0
    if l <= n - 2:
        pieces.append(_ref_loop_segment(family, x0, t, t + (n - l - 1), 0.0,
                                        float(n - l - 1)))
        t += n - l - 1
        f1 = n * y / (n * y + 1.0)
        if y > 1e-14:
            pieces.append(_ref_reparametrize(_ref_broken(family, x0, w, rho), t, t + f1))
    pieces.append(_ref_loop_segment(family, w, t + f1, t + 1.0))
    t += 1.0
    if l >= 1:
        f2 = z / (z + 1.0)
        if z > 1e-14:
            pieces.append(_ref_reparametrize(_ref_broken(family, w, x1, rho), t, t + f2))
        pieces.append(_ref_loop_segment(family, x1, t + f2, t + 1.0))
        t += 1.0
        if l - 1 > 0:
            pieces.append(_ref_loop_segment(family, x1, t, t + (l - 1), 0.0, float(l - 1)))
    seg = pieces[0]
    for p in pieces[1:]:
        seg = _ref_concatenate(seg, p, family.torus)
    return seg


def _ref_hat_segment(family, w, rho):
    x0, x1 = family.x0, family.x1
    half = [(None, 1.0)]
    if w - x0 > 1e-14:
        half.insert(0, (_ref_broken(family, x0, w, rho), w - x0))
    if x1 - w > 1e-14:
        half.append((_ref_broken(family, w, x1, rho), x1 - w))
    parts = half + [(g if g is None else _ref_reverse(g), nat) for g, nat in half[::-1]]
    total_nat = sum(nat for _, nat in parts)
    seg = None
    t = 0.0
    for g, nat in parts:
        dur = 2.0 * nat / total_nat
        piece = (_ref_loop_segment(family, w, t, t + dur) if g is None
                 else _ref_reparametrize(g, t, t + dur))
        seg = piece if seg is None else _ref_concatenate(seg, piece, family.torus)
        t += dur
    return seg


def _gauss_nodes(cuts):
    """The nodes segment_action integrates on, span by span."""
    nodes = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1e-15:
            continue
        panels = -(-max(17, int(192 * (hi - lo)) + 1) // 4)
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * np.diff(edges)
        g = np.polynomial.legendre.leggauss(4)[0]
        nodes.append(((edges[:-1] + half)[:, None] + half[:, None] * g).ravel())
    return np.concatenate(nodes)


def _ref_segment_action(L, seg):
    """segment_action span by span, each span's edges from its own np.linspace."""
    cuts = np.unique(seg.breaks)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1e-15:
            continue
        ts = _gauss_nodes(np.array([lo, hi]))
        half = 0.5 * np.diff(np.linspace(lo, hi, len(ts) // 4 + 1))
        rows = np.asarray(L.value(ts, *seg.at(ts))).reshape(-1, 4)
        total += float(np.sum(half * (rows @ np.polynomial.legendre.leggauss(4)[1])))
    return total


def _assert_table_matches(seg, ref):
    assert seg.a == ref.a and abs(seg.b - ref.b) <= 1e-13
    assert np.max(np.abs(seg.corners - np.array(ref.corners)), initial=0.0) <= 1e-13
    junctions = np.array(ref.corners)
    nodes = _gauss_nodes(np.unique(np.concatenate([[ref.a, ref.b], junctions])))
    for ts in (nodes, np.linspace(ref.a, ref.b, 129), junctions):
        q, v = seg.at(ts)
        assert np.all(np.isfinite(v))
        # each leaf takes its run of a stable sort: the order of ts changes no bit
        perm = np.random.default_rng(len(ts)).permutation(len(ts))
        q_perm, v_perm = seg.at(ts[perm])
        assert np.array_equal(q_perm, q[perm]) and np.array_equal(v_perm, v[perm])
        assert np.max(np.abs(q - ref.at(ts)[0]), initial=0.0) <= 1e-13
        # where the two junction times differ by an ulp, the oracle's piece
        # on the left may be the table's piece on the right
        dv = np.min([np.max(np.abs(v - ref.at(ts + d)[1]), axis=1)
                     for d in (0.0, -4 * np.spacing(ts), 4 * np.spacing(ts))], axis=0)
        # on a piece under 1e-9 long the velocity is a tiny displacement over
        # a difference of rounded times, in the table and the oracle alike
        piece = np.clip(np.searchsorted(seg.breaks, ts) - 1, 0, len(seg.breaks) - 2)
        measured = np.diff(seg.breaks)[piece] >= 1e-9
        assert np.max(dv[measured], initial=0.0) <= 1e-13


def _t2_family():
    torus = TorusSpace(2)
    return LoopFamily.from_map(lambda x: SymmetricLoop.from_function(
        lambda t: np.array([0.1 + 0.7 * x + 0.05 * np.cos(2 * np.pi * t),
                            0.3 - 0.9 * x ** 2 + 0.03 * np.cos(4 * np.pi * t)]),
        1, torus=torus, n_per_unit=64), 0.0, 1.0, 17)


@pytest.fixture(scope="module")
def t2_lagrangian():
    from brakekit.systems import load_system

    return load_system({
        "dim": 2, "theta": ["0.3", "0.1"],
        "lagrangian": {"builtin": "kinetic_potential",
                       "potential": "0.7*cos(2*pi*q1) + 0.5*cos(2*pi*q2)"},
    }).L_theta


@pytest.mark.parametrize("name", [*cli._BUILTIN_FAMILIES, "t2"])
def test_table_matches_closure_oracle(name, nonneg_pendulum, t2_lagrangian):
    fam = _t2_family() if name == "t2" else cli._BUILTIN_FAMILIES[name]()
    L = t2_lagrangian if name == "t2" else nonneg_pendulum
    rho = fam.modulus_rho()
    # x values whose broken geodesics end in legs shorter than 1e-14
    inner = [k * rho for k in (1, 2) if k * rho < 1.0]
    for n in (2, 4, 8, 16):
        tiny = [0.25 + 1e-17, 2e-14] + [(c + d) / n for c in inner for d in (3e-16, 4e-15)]
        for x in [*np.linspace(0.0, 1.0, 9), *tiny]:
            seg = _half_table(fam, n, float(x), rho=rho)
            _assert_table_matches(seg, _ref_half_table(fam, n, float(x), rho))
            assert abs(segment_action(L, seg) - _ref_segment_action(L, seg)) <= 1e-13
    for w in [*np.linspace(0.0, 1.0, 9), 2e-14, *[c + 3e-16 for c in inner],
              *[1.0 - c - 3e-16 for c in inner]]:
        _assert_table_matches(_hat_segment(fam, float(w), rho=rho),
                              _ref_hat_segment(fam, float(w), rho))


def test_reverse_and_concatenate_as_data(torus1):
    g1 = shortest_geodesic(torus1, [0.8], [1.1], 0.0, 1.0)
    g2 = shortest_geodesic(torus1, [0.1], [0.35], 2.0, 2.5)  # a lattice shift away
    g3 = reparametrize(reverse_segment(g2), 0.0, 0.25)
    left = concatenate(concatenate(g1, g2, torus=torus1), g3, torus=torus1)
    right = concatenate(g1, concatenate(g2, g3, torus=torus1), torus=torus1)
    ts = np.linspace(0.0, 1.75, 29)
    assert np.array_equal(left.breaks, right.breaks)
    assert np.max(np.abs(left.at(ts)[0] - right.at(ts)[0])) <= 1e-15
    assert np.array_equal(left.at(ts)[1], right.at(ts)[1])
    assert left.end == pytest.approx([1.1], abs=1e-15)
    twice = reverse_segment(reverse_segment(left))
    assert np.array_equal(twice.breaks, left.breaks)
    assert np.array_equal(twice.at(ts)[0], left.at(ts)[0])
    assert np.array_equal(twice.at(ts)[1], left.at(ts)[1])
    # a piece one ulp long: a + b - c rounds past b, and the breaks stay sorted
    c = np.nextafter(6.0, 7.0)
    seg = concatenate(shortest_geodesic(torus1, [0.1], [0.1], 6.0, c),
                      shortest_geodesic(torus1, [0.1], [0.3], c, 13.1), torus=torus1)
    back = reverse_segment(seg)
    assert np.all(np.diff(back.breaks) >= 0.0) and back.b == 13.1
    q, v = back.at(back.breaks)
    assert np.allclose(q[:, 0], [0.3, 0.1, 0.1], atol=1e-15) and np.all(np.isfinite(v))


def test_segment_action_evaluates_each_path_once(two_constant_family, free_system,
                                                 monkeypatch):
    calls = []
    at = PathSegment.at

    def counted(self, ts):
        calls.append(len(np.atleast_1d(ts)))
        return at(self, ts)

    monkeypatch.setattr(PathSegment, "at", counted)
    seg = _half_table(two_constant_family, 8, 0.3)
    calls.clear()
    segment_action(free_system.L_theta, seg)
    assert len(calls) == 1 and calls[0] > 8 * 192


def test_family_spline_is_the_spline_of_the_interpolated_loop():
    # spline interpolation is linear in the data, so blending the node
    # splines is a spline solve on the blended loop, up to rounding; s runs
    # over four periods, so the blend must extrapolate periodically
    fam = _t2_family()
    s = np.concatenate([np.linspace(0.0, 4.0, 1601), [1.0 - 1e-15, 2.5 + 1e-15]])
    between = [0.5 * (a + b) for a, b in zip(fam.xs[:-1], fam.xs[1:])]
    for x in [*fam.xs, -0.5, 1.5, *between, 0.123456789, 1.0 - 1e-15]:
        blend, direct = fam.spline(float(x)), fam.at(float(x)).spline()
        assert np.max(np.abs(blend(s, 0) - direct(s))) <= 1e-13, x
        assert np.max(np.abs(blend(s, 1) - direct.derivative()(s))) <= 1e-13, x


def test_segment_action_of_a_point_is_zero(torus1, nonneg_pendulum):
    seg = shortest_geodesic(torus1, [0.1], [0.3], 0.5, 0.5)
    assert segment_action(nonneg_pendulum, seg) == 0.0


def test_action_bound_check_solves_one_spline_per_node(nonneg_pendulum, monkeypatch):
    # the family's splines are blends of its node splines: one solve per
    # node, plus one per endpoint loop_action, however many parameters
    solves = []
    spline = SymmetricLoop.spline

    def counted(self):
        solves.append(self.period)
        return spline(self)

    monkeypatch.setattr(SymmetricLoop, "spline", counted)
    fam = cli._BUILTIN_FAMILIES["pendulum-loops"]()
    action_bound_check(fam, nonneg_pendulum, ns=(2, 4, 8), xs=np.linspace(0.0, 1.0, 41))
    assert 0 < len(solves) <= len(fam.xs) + 2
