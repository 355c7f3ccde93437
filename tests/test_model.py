import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brakekit.dynamics import twisted_field
from brakekit.model import (
    _LastValue,
    OneForm,
    TorusSpace,
    check_symmetry,
    magnetic_lagrangian,
)
from brakekit.systems import (
    _coords,
    _lambdify_batched,
    _parse_expr,
    kinetic_hamiltonian,
    kinetic_potential_lagrangian,
    load_system,
    one_form_from_expressions,
)


def const_form(value=0.3):
    return OneForm.constant(TorusSpace(1), [value])


def test_magnetic_lagrangian_values(torus1):
    L = kinetic_potential_lagrangian(torus1)
    zero = OneForm.constant(torus1, [0.0])
    L0 = magnetic_lagrangian(L, zero)
    assert float(L0.value(0.0, np.array([0.3]), np.array([1.2]))) == pytest.approx(0.72)
    Lth = magnetic_lagrangian(L, const_form())
    assert float(Lth.value(0.0, np.array([0.1]), np.array([2.0]))) == pytest.approx(2.6)
    # fiber Hessian untouched
    hv = Lth.hess_vv(0.0, np.array([0.1]), np.array([2.0]))
    assert np.allclose(hv, [[1.0]])


def test_twisted_lagrangian_partials_match_central_differences():
    # L = L_theta - theta[v] with a theta whose Jacobian is full and varies
    system = load_system({"dim": 2,
                          "theta": ["0.3*cos(2*pi*q2) + 0.1*sin(2*pi*q1)",
                                    "sin(2*pi*q1)/(2*pi)"],
                          "lagrangian": {"builtin": "kinetic_potential", "mass": 0.7,
                                         "potential": "cos(2*pi*q1)"}})
    L, h = system.L, 1e-5
    rng = np.random.default_rng(3)
    t, q, v = rng.uniform(0, 1, 6), rng.uniform(0, 1, (6, 2)), rng.normal(size=(6, 2))

    def central(f, wrt):
        """[..., i] or [..., j, i]: d f[..., j] / d wrt_i by central differences."""
        cols = []
        for e in h * np.eye(2):
            dq, dv = (e, 0.0) if wrt == "q" else (0.0, e)
            cols.append((np.asarray(f(t, q + dq, v + dv))
                         - np.asarray(f(t, q - dq, v - dv))) / (2 * h))
        return np.stack(cols, axis=-1)

    assert np.allclose(L.grad_q(t, q, v), central(L.value, "q"), rtol=1e-6, atol=1e-6)
    assert np.allclose(L.grad_v(t, q, v), central(L.value, "v"), rtol=1e-6, atol=1e-6)
    # hess_qv[i, j] = d2 L / dq_i dv_j, the transpose of d grad_v / dq
    assert np.allclose(L.hess_qv(t, q, v), np.swapaxes(central(L.grad_v, "q"), -1, -2),
                       rtol=1e-6, atol=1e-6)
    assert np.allclose(L.hess_qq(t, q, v), central(L.grad_q, "q"), rtol=1e-6, atol=1e-6)
    assert np.allclose(L.hess_vv(t, q, v), central(L.grad_v, "v"), rtol=1e-6, atol=1e-6)
    # the twist is what these partials add: L_theta's own differ from them
    assert not np.allclose(L.grad_q(t, q, v), system.L_theta.grad_q(t, q, v))


def test_magnetic_pair_reversibility(mild_system):
    # (L + theta[v]) is time reversible when L is the dual of the R1-symmetric H
    assert check_symmetry(mild_system.L, mild_system.theta, 256) < 1e-14


def test_check_symmetry_hamiltonians(torus1, stiff_system):
    H = kinetic_hamiltonian(torus1)
    assert check_symmetry(H, OneForm.constant(torus1, [0.0]), 256) == 0.0
    # H = |p + theta|^2/2 is R1 symmetric
    assert check_symmetry(stiff_system.H, stiff_system.theta, 256) < 1e-13

    # H = p^3 breaks R0 symmetry on a fixed grid by a visible margin
    def value(t, q, p):
        p = np.asarray(p, dtype=float)
        return p[..., 0] ** 3

    from brakekit.model import HamiltonianSpec

    odd = HamiltonianSpec(torus1, value, None, None, None, None, None)
    assert check_symmetry(odd, OneForm.constant(torus1, [0.0]), 1000) > 0.1


def test_one_form_periodicity_and_sigma():
    torus = TorusSpace(2)
    theta = one_form_from_expressions(torus, ["0", "sin(2*pi*q1)/(2*pi)"])
    assert theta.periodicity_violation() < 1e-12
    q = np.array([0.2, 0.7])
    sig = theta.sigma(q)
    assert np.allclose(sig, -sig.T)
    # sigma[j, i] = d_j theta_i - d_i theta_j
    assert sig[0, 1] == pytest.approx(np.cos(2 * np.pi * 0.2))
    with pytest.raises(Exception):
        one_form_from_expressions(torus, ["q1", "0"])  # not lattice periodic


def test_one_form_memo_returns_read_only_last_result():
    torus = TorusSpace(2)
    theta = one_form_from_expressions(torus, ["0.3*cos(2*pi*q2)", "sin(2*pi*q1)/(2*pi)"])
    calls = []
    raw = theta._components.fn

    def counting(q):
        calls.append(q.shape)
        return raw(q)

    theta._components.fn = counting
    q = np.array([0.2, 0.7])
    first = theta.components(q)
    assert theta.components(q.copy()) is first and calls == [(2,)]
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 1.0
    assert np.array_equal(first, raw(q))
    # the same bytes in another shape, and another point, are evaluated afresh
    assert theta.components(q[None]).shape == (1, 2) and len(calls) == 2
    assert np.array_equal(theta.components(q + 0.1), raw(q + 0.1)) and len(calls) == 3
    jac = theta.jacobian(q)
    assert theta.jacobian(q) is jac and not jac.flags.writeable
    assert np.array_equal(jac, theta._jacobian.fn(q))
    # the evaluator's own array is left writeable
    const = OneForm.constant(torus, [0.3, 0.1])
    out = const.components(q)
    assert not out.flags.writeable and out.base.flags.writeable


def test_twisted_field_evaluates_theta_once():
    # H reaches theta through -theta, which negates theta's memoized arrays, so
    # one field call runs theta's raw components and Jacobian once each
    system = load_system({"dim": 2, "theta": ["0.3*cos(2*pi*q2)", "sin(2*pi*q1)/(2*pi)"],
                          "lagrangian": {"builtin": "kinetic_potential", "mass": 0.7,
                                         "potential": "cos(2*pi*q1)"}})
    theta, calls = system.theta, []
    for memo in (theta._components, theta._jacobian):
        def counting(q, raw=memo.fn, label=memo):
            calls.append(label)
            return raw(q)
        memo.fn = counting
    twisted_field(system.H, theta, 0.0, np.array([0.2, 0.7, 0.4, -0.3]))
    assert calls == [theta._components, theta._jacobian]

    neg, q = -theta, np.array([0.1, 0.9])
    assert not any(isinstance(v, _LastValue) for v in vars(neg).values())
    first, second = neg.components(q), neg.components(q)
    assert first is not second and np.array_equal(first, -theta.components(q))
    assert np.array_equal(neg.jacobian(q), -theta.jacobian(q))
    assert np.array_equal(neg.hessian(q), -theta.hessian(q))
    assert len(calls) == 4  # q was evaluated once for each memo of theta


def test_lattice_periodic_evaluations(stiff_system):
    rng = np.random.default_rng(3)
    q = rng.uniform(0, 1, (64, 1))
    v = rng.normal(size=(64, 1))
    t = rng.uniform(0, 1, 64)
    L = stiff_system.L_theta
    assert np.max(np.abs(L.value(t, q + 1.0, v) - L.value(t, q, v))) < 1e-12


def test_tonelli_certificates(free_system, quartic_system):
    # (L1): the fiber Hessian of each built-in is positive definite on a
    # seeded sample, including speeds far from the origin
    rng = np.random.default_rng(0)
    t = rng.uniform(0, 1, 200)
    q = rng.uniform(0, 1, (200, 1))
    v = rng.normal(size=(200, 1)) * rng.choice([0.1, 1.0, 10.0], (200, 1))
    for system in (free_system, quartic_system):
        assert np.min(np.linalg.eigvalsh(system.L_theta.hess_vv(t, q, v))) > 0.0


def test_load_system_validates():
    with pytest.raises(ValueError):
        load_system({"dim": 1, "lagrangian": {"builtin": "nope"}})
    with pytest.raises(ValueError):
        load_system({"dim": 1, "theta": ["q1 + oops"],
                     "lagrangian": {"builtin": "kinetic_potential"}})
    with pytest.raises(ValueError, match="must be a dict"):
        load_system("system.json")


def _grammar_node(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*", "/", "**"]), children)
        .map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(st.sampled_from(["-", "+", "sin", "cos"]), children)
        .map(lambda t: f"{t[0]}({t[1]})"),
    )


GRAMMAR_STRINGS = st.recursive(
    st.sampled_from(["0", "1", "2", "9", "0.5", "1.25", "pi", "q1", "q2"]),
    _grammar_node, max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(GRAMMAR_STRINGS)
def test_grammar_strings_build_the_sympify_tree(text):
    # the ast walk builds the same tree sympify built, so lambdified fields
    # and the stores computed from them keep their bits; a grammar string is
    # only refused for a constant that is not a finite real float
    import sympy as sp

    syms = _coords(2)
    try:
        expr = _parse_expr(text, syms)
    except ValueError as exc:
        assert "outside the grammar" not in str(exc)
        return
    names = {"sin": sp.sin, "cos": sp.cos, "pi": sp.pi, "q1": syms[0], "q2": syms[1]}
    assert sp.srepr(expr) == sp.srepr(sp.sympify(text, locals=names))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="q12 +-*/().^_eijnpstcoxabr'", max_size=24))
def test_any_text_parses_into_the_grammar_or_is_refused(text):
    syms = _coords(2)
    try:
        expr = _parse_expr(text, syms)
    except ValueError:
        return
    assert expr.free_symbols <= set(syms)


@pytest.mark.parametrize("text", ["1or q1", "2in q1"])
def test_text_the_tokenizer_warns_about_is_refused_without_a_warning(text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="cannot parse"):
            _parse_expr(text, _coords(2))
    assert not caught


def _per_entry(syms, entries, out_shape, q):
    """Reference evaluator: one lambdify per entry, broadcast and stacked."""
    import sympy as sp

    q = np.asarray(q, dtype=float)
    cols = [q[..., i] for i in range(len(syms))]
    batch = q.shape[:-1]
    flat = [np.broadcast_to(np.asarray(sp.lambdify(syms, e, modules="numpy")(*cols),
                                       dtype=float), batch) for e in entries]
    return np.stack(flat, axis=-1).reshape(batch + out_shape)


def _field_entries(texts, dim):
    """(syms, [(entries, out_shape)]) of a scalar field (a str) or a one-form (a list)."""
    import sympy as sp

    syms = _coords(dim)
    if isinstance(texts, str):
        e = _parse_expr(texts, syms)
        return syms, [([sp.diff(e, a) for a in syms], (dim,)),
                      ([sp.diff(e, a, b) for a in syms for b in syms], (dim, dim))]
    exprs = [_parse_expr(t, syms) for t in texts]
    return syms, [(exprs, (dim,)),
                  ([sp.diff(c, a) for c in exprs for a in syms], (dim, dim)),
                  ([sp.diff(c, a, b) for c in exprs for a in syms for b in syms],
                   (dim, dim, dim))]


def _assert_matches_per_entry(syms, entries, out_shape, q):
    got = _lambdify_batched(syms, entries, out_shape)(q)
    want = _per_entry(syms, entries, out_shape, q)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)


FIELD_CASES = [
    (1, "0"), (1, "cos(2*pi*q1)"), (1, "0.7*cos(2*pi*q1) + 0.2*sin(4*pi*q1)"),
    (2, "0"), (2, "cos(2*pi*q1)"),            # Hessian with one varying entry
    (2, "0.7*cos(2*pi*q1) + 0.5*cos(2*pi*q2)*sin(2*pi*q1)"),
    (1, ["0.3"]), (2, ["0.3", "0.1"]),         # constant theta: all-zero Jacobian
    (2, ["0", "sin(2*pi*q1)/(2*pi)"]), (2, ["cos(2*pi*q2)", "sin(2*pi*q1)*cos(2*pi*q2)"]),
]


@pytest.mark.parametrize("batch", [(), (7,), (3, 4)])
@pytest.mark.parametrize("dim,texts", FIELD_CASES)
def test_batched_field_matches_per_entry_lambdify(dim, texts, batch):
    # one lambdified function per field prints each entry as the per-entry
    # functions did, so the values are the same floats, constants broadcast
    syms, fields = _field_entries(texts, dim)
    q = np.random.default_rng(dim).uniform(-1.0, 2.0, batch + (dim,))
    for entries, out_shape in fields:
        _assert_matches_per_entry(syms, entries, out_shape, q)


@settings(max_examples=80, deadline=None)
@given(GRAMMAR_STRINGS, st.sampled_from([(), (5,), (2, 3)]))
def test_batched_grammar_fields_match_per_entry_lambdify(text, batch):
    import warnings

    try:
        syms, fields = _field_entries(text, 2)
    except ValueError:
        return
    q = np.random.default_rng(0).uniform(-1.0, 2.0, batch + (2,))
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for entries, out_shape in fields:
            try:
                _per_entry(syms, entries, out_shape, q)
            except TypeError:  # a complex entry value, refused by both
                with pytest.raises(TypeError):
                    _lambdify_batched(syms, entries, out_shape)(q)
                continue
            _assert_matches_per_entry(syms, entries, out_shape, q)
