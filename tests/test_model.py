import ast
import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brakekit.dynamics import twisted_field
from brakekit.errors import PreconditionViolated
from brakekit.expressions import Tree
from brakekit.model import (
    _LastValue,
    OneForm,
    TorusSpace,
    check_symmetry,
    magnetic_lagrangian,
)
from brakekit.systems import (
    kinetic_hamiltonian,
    kinetic_potential_lagrangian,
    load_system,
    one_form_from_expressions,
    parse_scalar_field,
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
    assert torus.lattice_defect(theta.components)[0] < 1e-12
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


GRAMMAR_LEAVES = ["0", "1", "2", "9", "0.5", "1.25", "pi", "q1", "q2"]
GRAMMAR_STRINGS = st.recursive(st.sampled_from(GRAMMAR_LEAVES), _grammar_node, max_leaves=8)
GRAMMAR_STRINGS_1D = st.recursive(st.sampled_from(GRAMMAR_LEAVES[:-1]), _grammar_node,
                                  max_leaves=8)


# -- sympy, the independent oracle of the expression compiler ----------------

def _oracle_parse(text, dim, built=None):
    """The sympy tree of a grammar text, built by the whitelist walk the loader
    used before it had its own compiler; ``built`` collects every subtree."""
    import math
    import operator

    import sympy as sp

    syms = sp.symbols(" ".join(f"q{i + 1}" for i in range(dim)), real=True, seq=True)
    names = {str(s): s for s in syms}
    names["pi"] = sp.pi
    binary = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow}
    built = [] if built is None else built

    def build(node):
        if isinstance(node, ast.BinOp) and type(node.op) in binary:
            left, right = build(node.left), build(node.right)
            if (isinstance(node.op, ast.Pow) and left.is_Rational and left != 0
                    and right.is_Number and abs(float(right)) * abs(
                        math.log10(abs(left.p)) - math.log10(left.q)) > 308):
                raise ValueError("outside the float range")
            out = binary[type(node.op)](left, right)
            if isinstance(node.op, ast.Pow):
                built.append(sp.Pow(left, right, evaluate=False))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            out = build(node.operand)
            out = -out if isinstance(node.op, ast.USub) else out
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            out = sp.Integer(node.value) if type(node.value) is int else sp.Float(node.value)
        elif isinstance(node, ast.Name) and node.id in names:
            out = names[node.id]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("sin", "cos")
              and len(node.args) == 1 and not node.keywords):
            out = getattr(sp, node.func.id)(build(node.args[0]))
        else:
            raise ValueError("outside the grammar")
        built.append(out)
        return out

    expr = build(ast.parse(text, mode="eval").body)
    if _not_finite_real(expr):
        raise ValueError("constant is not a finite real")
    return syms, expr


def _not_finite_real(expr, numerically=False):
    """Whether expr has a constant that sympy cannot show to be a finite real;
    numerically, whether one of those is not a finite real number either."""
    import sympy as sp

    def bad(c):
        if not numerically:
            return True
        v = complex(c.evalf())
        return v.imag != 0 or not np.isfinite(v.real)

    return any(sub.is_number and not (sub.is_real and sub.is_finite) and bad(sub)
               for sub in sp.preorder_traversal(expr))


def _finite_float(c):
    try:
        v = complex(c.evalf())
    except TypeError:
        return False
    return v.imag == 0 and np.isfinite(v.real)


def _sympy_view(e):
    import sympy as sp

    if e.is_Symbol:
        return "q", int(e.name[1:]) - 1
    if e.is_Number or e is sp.pi:
        return "num", float(e)     # a TypeError for a complex number
    if e.is_Add or e.is_Mul:
        return ("add" if e.is_Add else "mul"), list(e.args)
    if e.is_Pow:
        return "pow", list(e.args)
    if isinstance(e, (sp.sin, sp.cos, sp.log)):
        return type(e).__name__, list(e.args)
    raise TypeError(f"no real view of {e}")


def _tree_view(n):
    if isinstance(n, float):
        return "num", n
    if n.op in ("num", "pi"):
        return "num", float(n.val) if n.op == "num" else np.pi
    if n.op == "q":
        return "q", n.val
    if n.op in ("add", "mul"):
        return n.op, [float(n.val), *n.args]
    return n.op, list(n.args)


def _value_and_scale(expr, view, cols):
    """(value, S) of an expression tree on a batch: its rounding error in
    floating point is a modest multiple of eps * S, a running-error bound in
    which sums add the scales of their terms, products multiply them, and
    sin and cos pass on the scale of their argument."""
    kind, payload = view(expr)
    if kind == "num":
        return np.float64(payload), np.abs(np.float64(payload))
    if kind == "q":
        return cols[payload], np.abs(cols[payload])
    parts = [_value_and_scale(c, view, cols) for c in payload]
    vals = [v for v, _ in parts]
    scales = [s for _, s in parts]
    if kind == "add":
        return sum(vals), sum(scales)
    if kind == "mul":
        return np.prod(np.broadcast_arrays(*vals), axis=0), np.prod(
            np.broadcast_arrays(*scales), axis=0)
    if kind == "pow":
        (b, sb), (e, se) = parts
        v = np.power(b, e)
        return v, np.abs(v) * (1 + np.abs(e) * sb / np.abs(b) + np.abs(np.log(np.abs(b))) * se)
    (a, sa), = parts
    if kind == "log":
        return np.log(a), np.abs(np.log(a)) + sa / np.abs(a)
    return getattr(np, kind)(a), 1 + sa


def _assert_agree(want, got, scale):
    """Equal finiteness, and within 16 eps of the summed running-error scales."""
    want, got = np.broadcast_arrays(np.asarray(want, dtype=float), got)
    finite = np.isfinite(want)
    assert np.array_equal(finite, np.isfinite(got)), (want, got)
    tol = 16 * np.finfo(float).eps * np.broadcast_to(scale, want.shape)
    ok = ~finite | ~np.isfinite(tol) | (np.abs(want - got) <= tol)
    assert ok.all(), (want[~ok], got[~ok], tol[~ok])


def _oracle_derivatives(expr, syms):
    import sympy as sp

    grad = [sp.diff(expr, a) for a in syms]
    return [[expr], grad, [sp.diff(g, b) for g in grad for b in syms]]


def _tree_derivatives(tree, node):
    grad = [tree.diff(node, a) for a in range(tree.dim)]
    return [[node], grad, [tree.diff(g, b) for g in grad for b in range(tree.dim)]]


def _check_text_against_oracle(text, dim, batch):
    import sympy as sp

    built = []
    try:
        syms, expr = _oracle_parse(text, dim, built)
    except ValueError as exc:
        if "not a finite real" in str(exc) and not any(
                _not_finite_real(e, numerically=True) for e in built):
            return  # a widening: sympy cannot show cos(2)**1.0 real; as floats, it is
        with pytest.raises(ValueError) as ours:
            Tree(dim).parse(text)
        assert ("outside the grammar" in str(exc)) == ("outside the grammar" in str(ours.value))
        return
    tree = Tree(dim)
    try:
        node = tree.parse(text)
    except ValueError as exc:
        # narrowings: a constant is refused where it is built if it is no finite
        # float, while the oracle's extended reals may absorb it later (0/(x/0)
        # is 0 there) and its own floats reach past 1e308; and zero to a
        # q-dependent power (0, 1 or inf by the exponent's sign) is refused
        subs = [c for e in built for c in sp.preorder_traversal(e)]
        if "power of zero" in str(exc):
            assert any(c.is_Pow and c.base.is_zero and not c.exp.is_number for c in subs)
        else:
            assert "not a finite real" in str(exc)
            assert not all(_finite_float(c) for c in subs if c.is_number), exc
        return
    q = np.random.default_rng(len(text)).uniform(-1.0, 2.0, batch + (dim,))
    cols = [q[..., i] for i in range(dim)]
    want_fields = _oracle_derivatives(expr, syms)
    got_fields = _tree_derivatives(tree, node)
    for entries, shape in zip(got_fields, [(), (dim,), (dim, dim)]):
        _assert_batched_matches_per_entry(tree, entries, shape, q)
    # an entry whose oracle passes through nan or zoo has no oracle value, nor
    # do its derivatives: sympy's d/dq2 of 0**q2 is nan, and its d/dq2 of that 0
    unreal = [[_not_finite_real(w) for w in f] for f in want_fields]
    unreal[1] = [u or unreal[0][0] for u in unreal[1]]
    unreal[2] = [u or unreal[1][k // dim] for k, u in enumerate(unreal[2])]
    for want_entries, got_entries, skip in zip(want_fields, got_fields, unreal):
        for w, g, no_oracle in zip(want_entries, got_entries, skip):
            if no_oracle:
                continue
            try:   # the oracle has no float field for a complex value, a distribution
                # (DiracDelta of |q1 - 9|), or a constant past the float range
                _, s_want = _value_and_scale(w, _sympy_view, cols)
                want = np.asarray(sp.lambdify(syms, w, modules="numpy")(*cols), dtype=float)
            except (TypeError, OverflowError):
                continue
            got = tree.compile([g], ())(q)
            _, s_got = _value_and_scale(g, _tree_view, cols)
            assert got.shape == batch and got.dtype == float
            _assert_agree(want, got, s_want + s_got)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(GRAMMAR_STRINGS, st.just(2)),
                 st.tuples(GRAMMAR_STRINGS_1D, st.just(1))),
       st.sampled_from([(), (7,)]))
def test_grammar_strings_compile_to_the_sympy_oracles_fields(text_dim, batch):
    # value, gradient and Hessian of every grammar string agree with sympy's
    # diff and lambdify to a few ulp of their error scale; a string is refused
    # only where the oracle refuses it, or builds a constant that is not a
    # finite real on the way
    text, dim = text_dim
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        _check_text_against_oracle(text, dim, batch)


WORKLOAD_FIELDS = [
    (1, "1.2*cos(2*pi*q1)"), (1, "0.5*cos(2*pi*q1)"), (1, ["0.3"]),
    (2, "0.7*cos(2*pi*q1) + 0.5*cos(2*pi*q2)"), (2, ["0.3", "0.1"]),
]
DOCUMENT_FIELDS = [
    (1, "0"), (1, "cos(2*pi*q1)"), (1, "0.7*cos(2*pi*q1) + 0.2*sin(4*pi*q1)"),
    (1, "cos(2*pi*q1)/(4*pi**2)"), (1, "(cos(2*pi*q1) - 1)/(4*pi**2) * 3"),
    (1, "1/(2+cos(2*pi*q1))"), (1, "1/(3+2*cos(2*pi*q1)*sin(2*pi*q1))"),
    (1, "1/(5+(cos(2*pi*q1)+sin(2*pi*q1))**2)"), (1, "(2+cos(2*pi*q1))**sin(2*pi*q1)"),
    (1, ["0.3 + 0.2*sin(2*pi*q1)"]), (1, ["1/(2+cos(2*pi*q1))"]),
    (2, "0"), (2, "cos(2*pi*q1)"), (2, "cos(2*pi*q1) + cos(2*pi*q2)"),
    (2, "0.7*cos(2*pi*q1) + 0.5*cos(2*pi*q2)*sin(2*pi*q1)"),
    (2, ["0", "sin(2*pi*q1)/(2*pi)"]), (2, ["0.1*cos(2*pi*q2)", "sin(2*pi*q1)/(2*pi)"]),
    (2, ["0.3*cos(2*pi*q2)", "sin(2*pi*q1)/(2*pi)"]),
    (2, ["cos(2*pi*q2)", "sin(2*pi*q1)*cos(2*pi*q2)"]),
    (2, ["+0.1*sin(2*pi*q2)**2", "-1.5e-1"]),
]


def _oracle_field_arrays(dim, texts, q):
    """A field's arrays from sympy: one lambdify per entry, broadcast and stacked."""
    import sympy as sp

    q = np.asarray(q, dtype=float)
    batch = q.shape[:-1]
    cols = [q[..., i] for i in range(dim)]

    def stack(entries, shape):
        flat = [np.broadcast_to(np.asarray(sp.lambdify(syms, e, modules="numpy")(*cols),
                                           dtype=float), batch) for e in entries]
        return np.stack(flat, axis=-1).reshape(batch + shape), [
            np.broadcast_to(_value_and_scale(e, _sympy_view, cols)[1], batch) for e in entries]

    if isinstance(texts, str):
        syms, expr = _oracle_parse(texts, dim)
        value, grad, hess = _oracle_derivatives(expr, syms)
        return [stack(value, ()), stack(grad, (dim,)), stack(hess, (dim, dim))]
    parsed = [_oracle_parse(t, dim) for t in texts]
    syms, comps = parsed[0][0], [e for _, e in parsed]
    jac = [sp.diff(c, a) for c in comps for a in syms]
    return [stack(comps, (dim,)), stack(jac, (dim, dim)),
            stack([sp.diff(j, b) for j in jac for b in syms], (dim, dim, dim))]


def _field_arrays(dim, texts, q):
    torus = TorusSpace(dim)
    if isinstance(texts, str):
        value, gradient, hessian = parse_scalar_field(torus, texts)
        return [value(q), gradient(q), hessian(q)]
    form = one_form_from_expressions(torus, texts)
    return [form.components(q), form.jacobian(q), form.hessian(q)]


def _assert_batched_matches_per_entry(tree, entries, shape, q):
    """One printed function per field computes each entry as a function of that
    entry alone would, so the values are the same floats, constants broadcast."""
    batch = q.shape[:-1]
    got = tree.compile(entries, shape)(q)
    want = np.stack([tree.compile([e], ())(q) for e in entries], axis=-1)
    assert got.shape == batch + shape and got.dtype == want.dtype
    assert np.array_equal(got, want.reshape(batch + shape), equal_nan=True)


@pytest.mark.parametrize("batch", [(), (7,), (3, 4)])
@pytest.mark.parametrize("dim,texts", DOCUMENT_FIELDS + WORKLOAD_FIELDS)
def test_batched_field_matches_per_entry_functions(dim, texts, batch):
    tree = Tree(dim)
    if isinstance(texts, str):
        fields = _tree_derivatives(tree, tree.parse(texts))
    else:
        comps = [tree.parse(t) for t in texts]
        jac = [tree.diff(c, a) for c in comps for a in range(dim)]
        fields = [comps, jac, [tree.diff(j, b) for j in jac for b in range(dim)]]
    shapes = [(), (dim,), (dim, dim)] if isinstance(texts, str) else \
        [(dim,), (dim, dim), (dim, dim, dim)]
    q = np.random.default_rng(dim).uniform(-1.0, 2.0, batch + (dim,))
    for entries, shape in zip(fields, shapes):
        _assert_batched_matches_per_entry(tree, entries, shape, q)


@pytest.mark.parametrize("batch", [(), (7,), (3, 4)])
@pytest.mark.parametrize("dim,texts", WORKLOAD_FIELDS)
def test_workload_fields_are_bit_equal_to_the_sympy_oracle(dim, texts, batch):
    # the printed functions keep pi and sympy's order of the coefficient
    # products, so the benchmark's fields, and the stores built on them, keep
    # their bits; constants broadcast to the batch
    q = np.random.default_rng(dim).uniform(-1.0, 2.0, batch + (dim,))
    for got, (want, _scales) in zip(_field_arrays(dim, texts, q),
                                    _oracle_field_arrays(dim, texts, q)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("batch", [(), (7,), (3, 4)])
@pytest.mark.parametrize("dim,texts", DOCUMENT_FIELDS)
def test_document_fields_agree_with_the_sympy_oracle(dim, texts, batch):
    q = np.random.default_rng(dim).uniform(-1.0, 2.0, batch + (dim,))
    for got, (want, scales) in zip(_field_arrays(dim, texts, q),
                                   _oracle_field_arrays(dim, texts, q)):
        assert got.shape == want.shape and got.dtype == want.dtype
        scale = np.stack(scales, axis=-1).reshape(want.shape)
        _assert_agree(want, got, 2 * scale)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="q12 +-*/().^_eijnpstcoxabr'", max_size=24))
def test_any_text_parses_into_the_grammar_or_is_refused(text):
    # and every text that parses prints to source that compiles and runs
    tree = Tree(2)
    try:
        node = tree.parse(text)
    except ValueError:
        return
    with np.errstate(all="ignore"):
        assert tree.compile([node], ())(np.array([0.25, 0.5])).shape == ()


@pytest.mark.parametrize("text", ["1or q1", "2in q1"])
def test_text_the_tokenizer_warns_about_is_refused_without_a_warning(text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="cannot parse"):
            Tree(2).parse(text)
    assert not caught


# -- the pole rule against a copy of the sympy rule it replaces ----------------

def _oracle_expanded_terms(expr):
    import math

    if expr.is_Add:
        return sum(_oracle_expanded_terms(a) for a in expr.args)
    if expr.is_Mul:
        return math.prod(_oracle_expanded_terms(a) for a in expr.args)
    if expr.is_Pow and expr.exp.is_Integer and expr.exp > 0:
        k, n = _oracle_expanded_terms(expr.base), int(expr.exp)
        if k == 1:
            return 1.0
        if k > 2000 or n > 2000:
            return math.inf
        count = math.comb(n + int(k) - 1, int(k) - 1)
        return float(count) if count <= 2000 else math.inf
    return 1.0


def _oracle_dominated_by_constant(base):
    import sympy as sp

    if _oracle_expanded_terms(base) > 2000:
        return False
    c0, bound = 0.0, 0.0
    for term in sp.Add.make_args(sp.expand(base)):
        if term.is_number:
            c0 += float(term)
            continue
        coeff = 1.0
        for factor in sp.Mul.make_args(term):
            b, e = factor.as_base_exp()
            if factor.is_number:
                coeff *= float(factor)
            elif not (isinstance(b, (sp.sin, sp.cos)) and e.is_Integer and e > 0):
                return False
        bound += abs(coeff)
    return abs(c0) > bound


def _oracle_has_pole(expr):
    import sympy as sp

    return any(sub.is_Pow and sub.exp.is_negative and sub.base.free_symbols
               and not _oracle_dominated_by_constant(sub.base)
               for sub in sp.preorder_traversal(expr))


POLE_ATOMS = ["sin(2*pi*q1)", "cos(2*pi*q1)", "sin(2*pi*q2)", "cos(4*pi*q1)",
              "cos(-2*pi*q1)", "sin(2*pi*q1)**-1", "q1", "pi"]
POLE_TERMS = st.tuples(st.sampled_from(["0.5", "1", "1.5", "2", "3", "0.25", "-1", "-2"]),
                       st.lists(st.sampled_from(POLE_ATOMS), min_size=1, max_size=3)
                       ).map(lambda t: "*".join([t[0], *t[1]]))
POLE_SUMS = st.tuples(st.sampled_from(["", "1 + ", "2.5 + ", "4 + ", "7 + ", "-10 + "]),
                      st.lists(POLE_TERMS, min_size=1, max_size=4)
                      ).map(lambda t: t[0] + " + ".join(t[1]))
POLE_BASES = st.recursive(POLE_SUMS, lambda children: st.one_of(
    st.tuples(children, st.integers(1, 4)).map(lambda t: f"({t[0]})**{t[1]}"),
    st.tuples(st.sampled_from(["1", "6", "20"]), children).map(lambda t: f"{t[0]} + ({t[1]})"),
    st.tuples(children, children).map(lambda t: f"({t[0]})*({t[1]})")), max_leaves=5)


@settings(max_examples=300, deadline=None)
@given(POLE_BASES)
def test_pole_rule_decides_as_the_sympy_rule(base):
    # no base is decided differently: the rule has no widening or narrowing
    _, expr = _oracle_parse(base, 2)
    tree = Tree(2)
    node = tree.parse(base)
    if expr.free_symbols:
        assert tree.dominated_by_constant(node) == _oracle_dominated_by_constant(expr)
    text = f"1/({base})"
    tree = Tree(2)
    try:
        _, expr = _oracle_parse(text, 2)
    except ValueError:   # the base is 0
        with pytest.raises(ValueError, match="not a finite real"):
            tree.parse(text)
        return
    try:
        tree.refuse_poles(tree.parse(text))
        refused = False
    except PreconditionViolated:
        refused = True
    assert refused == _oracle_has_pole(expr)


# -- nesting ------------------------------------------------------------------

def _with_stack_used(frames, fn):
    return fn() if frames <= 0 else _with_stack_used(frames - 1, fn)


# the deepest nesting of each kind that loaded, in a fresh process, while the
# tree was sympy's: the recursive ast walk stopped 962 unary minuses and 951
# summed terms, and sympy's diff and lambdify a sin nested 138 deep
DEEP_FIELDS = ["-" * 961 + "cos(2*pi*q1)", "+".join(["cos(2*pi*q1)"] * 950),
               "sin(" * 137 + "2*pi*q1" + ")" * 137]


@pytest.mark.parametrize("text", DEEP_FIELDS, ids=["minus", "sum", "sin"])
def test_compiler_passes_need_no_recursion(text):
    # ast.parse accepts these texts; at a stack with 60 frames left, the
    # derivatives, the pole rule and the printer still succeed (the walk of
    # the ast is iterative too, but ast.parse itself needs the stack)
    import sys

    parsed = []
    for t in (text, f"1/(2+0.5*sin({text}))"):
        tree = Tree(1)
        parsed.append((tree, tree.parse(t)))

    def compile_all():
        out = []
        for tree, node in parsed:
            tree.refuse_poles(node)
            grad = tree.diff(node, 0)
            out.append((tree.compile([node], ()), tree.compile([grad], (1,)),
                        tree.compile([tree.diff(grad, 0)], (1, 1))))
        return out

    depth = len(inspect.stack(0))
    fields = _with_stack_used(sys.getrecursionlimit() - depth - 60, compile_all)
    q = np.array([[0.1], [0.3]])
    for value, gradient, hessian in fields:
        assert np.all(np.isfinite(value(q))) and np.all(np.isfinite(hessian(q)))
        assert gradient(q).shape == (2, 1)


@pytest.mark.parametrize("text", ["-" * 30000 + "cos(2*pi*q1)",
                                  "-" * 3000 + "cos(2*pi*q1)",
                                  "(" * 300 + "q1" + ")" * 300])
def test_text_nested_past_the_parser_is_a_value_error(text):
    with pytest.raises(ValueError, match="cannot parse"):
        Tree(1).parse(text)
