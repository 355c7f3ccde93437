"""Built-in system families and the JSON system-definition grammar.

A system document looks like

    {
      "dim": 1,
      "periods": [1.0],
      "theta": ["0.3"],
      "lagrangian": {"builtin": "kinetic_potential",
                     "mass": 1.0,
                     "potential": "cos(2*pi*q1)"},
      "numerics": {"grid": 256, "integrator_tol": 1e-10}
    }

Expression grammar for "theta" components and "potential": arithmetic
(+ - * / ** and parentheses), decimal literals, the constant pi, the
functions sin and cos, and the coordinates q1..qN.  The text is parsed by
a whitelist walk of its Python ast, so nothing in it is evaluated; anything
outside the grammar is a ValueError.  Every expression must be
lattice-periodic; this is validated by sampling at load time.

The "lagrangian" entry defines the reversible mechanical Lagrangian
L_theta(t, q, v) (even in v), and each builtin its dual H_theta on the
standard side (a closed form for kinetic_potential, the Fenchel dual for
quartic_kinetic).  For every builtin the loader derives L = L_theta - theta[v]
and its dual H = H_theta o Phi^-1, H(t, q, p) = H_theta(t, q, p + theta(q)), on
the twisted side; H is R1-symmetric because H_theta is even in p.
"""

from __future__ import annotations

import ast
import inspect
import json
import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import sympy as sp

from .errors import PreconditionViolated
from .legendre import hamiltonian_from_lagrangian
from .model import (
    HamiltonianSpec,
    LagrangianSpec,
    OneForm,
    TorusSpace,
    magnetic_lagrangian,
)

__all__ = [
    "parse_scalar_field",
    "one_form_from_expressions",
    "kinetic_potential_lagrangian",
    "quartic_kinetic_lagrangian",
    "kinetic_hamiltonian",
    "shifted_hamiltonian",
    "MagneticSystem",
    "load_system",
    "DEFAULT_NUMERICS",
]

DEFAULT_NUMERICS = {
    "grid": 256,
    "integrator_tol": 1e-10,
}

_FUNCS = {"sin": sp.sin, "cos": sp.cos}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _coords(dim):
    return sp.symbols(" ".join(f"q{i + 1}" for i in range(dim)), real=True) if dim > 1 \
        else (sp.Symbol("q1", real=True),)


def _parse_expr(text, syms):
    """Sympy tree of an expression in the README grammar; nothing is evaluated.

    The ast is walked against a whitelist: + - * / ** and unary +/-, int and
    float literals, pi, the coordinates, and one-argument sin and cos.
    """
    names = {str(s): s for s in syms}
    names["pi"] = sp.pi

    def build(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            left, right = build(node.left), build(node.right)
            # sympy evaluates a rational power exactly: 9**9**8 would take minutes
            if (isinstance(node.op, ast.Pow) and left.is_Rational and left != 0
                    and right.is_Number and abs(float(right)) * abs(
                        math.log10(abs(left.p)) - math.log10(left.q)) > 308):
                raise ValueError(f"expression {text!r}: {ast.unparse(node)!r} "
                                 "is outside the float range")
            return _BINARY[type(node.op)](left, right)
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
            return _UNARY[type(node.op)](build(node.operand))
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return sp.Integer(node.value) if type(node.value) is int else sp.Float(node.value)
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCS and len(node.args) == 1 and not node.keywords):
            return _FUNCS[node.func.id](build(node.args[0]))
        raise ValueError(f"expression {text!r}: {ast.unparse(node)!r} is outside the grammar")

    try:
        with warnings.catch_warnings():  # "1or q1" warns; as an error it is a SyntaxError
            warnings.simplefilter("error", SyntaxWarning)
            tree = ast.parse(text, mode="eval")
        expr = build(tree.body)
    except (SyntaxError, RecursionError) as exc:
        raise ValueError(f"cannot parse expression {text!r}: {exc}") from exc
    for sub in sp.preorder_traversal(expr):
        if sub.is_number and not (sub.is_real and sub.is_finite):
            raise ValueError(f"expression {text!r}: constant {sub} is not a finite real")
    return expr


def _lambdify_batched(syms, expr, out_shape):
    """Batched evaluator of a scalar field, or of a field of ``out_shape`` arrays.

    For an array field, ``expr`` lists its entries in C order.  They are
    printed into one lambdified function that returns them as a list, and
    each is written into a preallocated array; the assignment broadcasts the
    constant entries to the batch shape of q.
    """
    if out_shape == ():
        fn = sp.lambdify(syms, expr, modules="numpy")

        def wrapped_scalar(q):
            q = np.asarray(q, dtype=float)
            cols = [q[..., i] for i in range(len(syms))]
            val = np.asarray(fn(*cols), dtype=float)
            target = q.shape[:-1]
            return np.broadcast_to(val, target).copy() if val.shape != target else val

        return wrapped_scalar

    fn = sp.lambdify(syms, list(expr), modules="numpy")
    n, k = len(syms), len(expr)

    def wrapped(q):
        q = np.asarray(q, dtype=float)
        batch = q.shape[:-1]
        out = np.empty(batch + (k,))
        for j, val in enumerate(fn(*[q[..., i] for i in range(n)])):
            out[..., j] = val
        return out.reshape(batch + out_shape)

    return wrapped


# a larger expansion takes sympy seconds to minutes, so such a base is refused
_MAX_EXPANDED_TERMS = 2000


def _expanded_terms(expr) -> float:
    """Upper bound on the number of terms of sp.expand(expr); inf past the cap."""
    if expr.is_Add:
        return sum(_expanded_terms(a) for a in expr.args)
    if expr.is_Mul:
        return math.prod(_expanded_terms(a) for a in expr.args)
    if expr.is_Pow and expr.exp.is_Integer and expr.exp > 0:
        k, n = _expanded_terms(expr.base), int(expr.exp)
        if k == 1:
            return 1.0
        if k > _MAX_EXPANDED_TERMS or n > _MAX_EXPANDED_TERMS:
            return math.inf
        count = math.comb(n + int(k) - 1, int(k) - 1)
        return float(count) if count <= _MAX_EXPANDED_TERMS else math.inf
    return 1.0


def _dominated_by_constant(base) -> bool:
    """Whether |c0| exceeds the summed |coefficients| of the other terms of base,
    each of them a product of positive integer powers of sin and cos.

    Real sin and cos are bounded by 1, so such a base never vanishes.
    """
    if _expanded_terms(base) > _MAX_EXPANDED_TERMS:
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


def _refuse_poles(text, expr):
    """Refuse a q-dependent base under a negative power that may vanish."""
    for sub in sp.preorder_traversal(expr):
        if (sub.is_Pow and sub.exp.is_negative and sub.base.free_symbols
                and not _dominated_by_constant(sub.base)):
            raise PreconditionViolated(
                f"field {text!r}: {sub} may have a pole; a q-dependent base under a "
                "negative power must expand to a constant that outweighs its sin/cos terms")


def parse_scalar_field(torus: TorusSpace, text: str):
    """Parse a lattice-periodic scalar field of q into (value, gradient, hessian)."""
    syms = _coords(torus.dim)
    expr = _parse_expr(text, syms)
    _refuse_poles(text, expr)
    value = _lambdify_batched(syms, expr, ())
    bad, size = torus.lattice_defect(value)
    if not bad <= 1e-12 * (1.0 + size):
        raise PreconditionViolated(
            f"field {text!r} is not lattice-periodic (violation {bad:.2e})")
    n = torus.dim
    gradient = _lambdify_batched(syms, [sp.diff(expr, a) for a in syms], (n,))
    hessian = _lambdify_batched(syms, [sp.diff(expr, a, b) for a in syms for b in syms],
                                (n, n))
    return value, gradient, hessian


def one_form_from_expressions(torus: TorusSpace, exprs) -> OneForm:
    """Build a OneForm from one expression string per component."""
    if len(exprs) != torus.dim:
        raise ValueError("need one component expression per coordinate")
    syms = _coords(torus.dim)
    comps = [_parse_expr(e, syms) for e in exprs]
    for text, comp in zip(exprs, comps):
        _refuse_poles(text, comp)
    n = torus.dim
    components = _lambdify_batched(syms, comps, (n,))
    jacobian = _lambdify_batched(syms, [sp.diff(c, a) for c in comps for a in syms], (n, n))
    hessian = _lambdify_batched(
        syms, [sp.diff(c, a, b) for c in comps for a in syms for b in syms], (n, n, n))

    form = OneForm(torus, components, jacobian, hessian, name=f"[{', '.join(exprs)}]")
    bad = form.periodicity_violation()
    if not bad <= 1e-12:
        raise PreconditionViolated(
            f"one-form components are not lattice-periodic (violation {bad:.2e})")
    return form


def kinetic_potential_lagrangian(torus: TorusSpace, potential: str = "0",
                                 mass: float = 1.0) -> LagrangianSpec:
    """Reversible mechanical Lagrangian L = m|v|^2/2 - V(q)."""
    vval, vgrad, vhess = parse_scalar_field(torus, potential)
    n = torus.dim
    eye = np.eye(n)

    def value(t, q, v):
        v = np.asarray(v, dtype=float)
        return 0.5 * mass * np.sum(v * v, axis=-1) - vval(q)

    def grad_q(t, q, v):
        return -vgrad(q)

    def grad_v(t, q, v):
        return mass * np.asarray(v, dtype=float)

    def hess_vv(t, q, v):
        q = np.asarray(q, dtype=float)
        return np.broadcast_to(mass * eye, q.shape[:-1] + (n, n)).copy()

    def hess_qv(t, q, v):
        q = np.asarray(q, dtype=float)
        return np.zeros(q.shape[:-1] + (n, n))

    def hess_qq(t, q, v):
        return -vhess(q)

    return LagrangianSpec(torus, value, grad_q, grad_v, hess_vv, hess_qv, hess_qq,
                          reversible=True, name=f"m|v|^2/2 - ({potential})")


def quartic_kinetic_lagrangian(torus: TorusSpace, potential: str = "0") -> LagrangianSpec:
    """Tonelli Lagrangian with quartic kinetic growth, |v|^4/4 + |v|^2/2 - V(q).

    Not of quadratic growth: the fiber Hessian is unbounded in v, which makes
    this the standard witness for the growth-certificate failure path.
    """
    vval, vgrad, vhess = parse_scalar_field(torus, potential)
    n = torus.dim
    eye = np.eye(n)

    def value(t, q, v):
        v = np.asarray(v, dtype=float)
        s = np.sum(v * v, axis=-1)
        return 0.25 * s * s + 0.5 * s - vval(q)

    def grad_q(t, q, v):
        return -vgrad(q)

    def grad_v(t, q, v):
        v = np.asarray(v, dtype=float)
        s = np.sum(v * v, axis=-1)
        return (s + 1.0)[..., None] * v

    def hess_vv(t, q, v):
        v = np.asarray(v, dtype=float)
        s = np.sum(v * v, axis=-1)
        outer = v[..., :, None] * v[..., None, :]
        return (s + 1.0)[..., None, None] * eye + 2.0 * outer

    def hess_qv(t, q, v):
        q = np.asarray(q, dtype=float)
        return np.zeros(q.shape[:-1] + (n, n))

    def hess_qq(t, q, v):
        return -vhess(q)

    return LagrangianSpec(torus, value, grad_q, grad_v, hess_vv, hess_qv, hess_qq,
                          reversible=True, name=f"|v|^4/4 + |v|^2/2 - ({potential})")


def kinetic_hamiltonian(torus: TorusSpace, potential: str = "0",
                        mass: float = 1.0) -> HamiltonianSpec:
    """Classical H = |p|^2/(2m) + V(q), symmetric under R0."""
    vval, vgrad, vhess = parse_scalar_field(torus, potential)
    n = torus.dim
    eye = np.eye(n)

    def value(t, q, p):
        p = np.asarray(p, dtype=float)
        return np.sum(p * p, axis=-1) / (2.0 * mass) + vval(q)

    def grad_q(t, q, p):
        return vgrad(q)

    def grad_p(t, q, p):
        return np.asarray(p, dtype=float) / mass

    def hess_pp(t, q, p):
        q = np.asarray(q, dtype=float)
        return np.broadcast_to(eye / mass, q.shape[:-1] + (n, n)).copy()

    def hess_qp(t, q, p):
        q = np.asarray(q, dtype=float)
        return np.zeros(q.shape[:-1] + (n, n))

    def hess_qq(t, q, p):
        return vhess(q)

    return HamiltonianSpec(torus, value, grad_q, grad_p, hess_pp, hess_qp, hess_qq,
                           reversible=True, name=f"|p|^2/{2 * mass} + ({potential})")


def shifted_hamiltonian(H: HamiltonianSpec, theta: OneForm) -> HamiltonianSpec:
    """H o Phi, i.e. (t, q, p) -> H(t, q, p - theta(q)); given -theta, H o Phi^-1,
    which is how load_system builds the twisted H from H_theta."""

    def sh(q, p):
        return np.asarray(p, dtype=float) - theta.components(q)

    def value(t, q, p):
        return H.value(t, q, sh(q, p))

    def grad_p(t, q, p):
        return H.grad_p(t, q, sh(q, p))

    def grad_q(t, q, p):
        u = sh(q, p)
        jac = theta.jacobian(q)
        return H.grad_q(t, q, u) - np.einsum("...i,...ij->...j", H.grad_p(t, q, u), jac)

    def hess_pp(t, q, p):
        return H.hess_pp(t, q, sh(q, p))

    def hess_qp(t, q, p):
        u = sh(q, p)
        # d/dq_i of H_p_j(q, p - theta) = H_qp[i,j] - sum_k H_pp[j,k] jac[k,i]
        return H.hess_qp(t, q, u) - np.einsum("...jk,...ki->...ij", H.hess_pp(t, q, u),
                                              theta.jacobian(q))

    def hess_qq(t, q, p):
        u = sh(q, p)
        jac = theta.jacobian(q)
        hs = theta.hessian(q)
        hqp = H.hess_qp(t, q, u)
        hpp = H.hess_pp(t, q, u)
        gp = H.grad_p(t, q, u)
        term1 = H.hess_qq(t, q, u)
        term2 = -np.einsum("...ik,...kj->...ij", hqp, jac)
        term3 = np.swapaxes(term2, -1, -2)
        term4 = np.einsum("...kl,...ki,...lj->...ij", hpp, jac, jac)
        term5 = -np.einsum("...k,...kij->...ij", gp, hs)
        return term1 + term2 + term3 + term4 + term5

    return HamiltonianSpec(H.torus, value, grad_q, grad_p, hess_pp, hess_qp, hess_qq,
                           reversible=False, name=f"{H.name} o Phi[{theta.name}]")


@dataclass
class MagneticSystem:
    """Bundle of the dual descriptions of one magnetic Tonelli system."""

    torus: TorusSpace
    theta: OneForm
    L_theta: LagrangianSpec      # reversible mechanical Lagrangian on M
    L: LagrangianSpec            # L = L_theta - theta[v], dual of H
    H: HamiltonianSpec           # H_theta o Phi^-1 on the twisted side, R1-symmetric
    H_theta: HamiltonianSpec     # dual of L_theta on the standard side
    numerics: dict = field(default_factory=lambda: dict(DEFAULT_NUMERICS))
    config: Optional[dict] = None

    @property
    def dim(self):
        return self.torus.dim


# each builtin's L_theta, and the closed form of its dual H_theta where there is one
_BUILTINS = {
    "kinetic_potential": (kinetic_potential_lagrangian, kinetic_hamiltonian),
    "quartic_kinetic": (quartic_kinetic_lagrangian, None),
}


def load_system(doc) -> MagneticSystem:
    """Assemble a MagneticSystem from a JSON document, dict, or file path."""
    if isinstance(doc, (str,)):
        with open(doc) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("system document must be a dict or a path to a JSON file")

    dim = int(doc.get("dim", 1))
    torus = TorusSpace(dim, np.asarray(doc.get("periods", [1.0] * dim), dtype=float))
    theta_exprs = doc.get("theta", ["0"] * dim)
    theta = one_form_from_expressions(torus, theta_exprs)

    lag = dict(doc.get("lagrangian", {"builtin": "kinetic_potential"}))
    builtin = lag.pop("builtin", "kinetic_potential")
    if builtin not in _BUILTINS:
        raise ValueError(f"unknown lagrangian builtin {builtin!r}; "
                         f"available: {sorted(_BUILTINS)}")
    make, dual = _BUILTINS[builtin]
    accepted = list(inspect.signature(make).parameters)[1:]  # the first is the torus
    unknown = sorted(set(lag) - set(accepted))
    if unknown:
        raise ValueError(f"lagrangian builtin {builtin!r} does not accept {unknown}; "
                         f"it accepts {accepted}")
    L_theta = make(torus, **lag)

    H_theta = hamiltonian_from_lagrangian(L_theta) if dual is None else dual(torus, **lag)
    L = magnetic_lagrangian(L_theta, -theta)
    H = shifted_hamiltonian(H_theta, -theta)

    numerics = dict(DEFAULT_NUMERICS)
    numerics.update(doc.get("numerics", {}))
    return MagneticSystem(torus, theta, L_theta, L, H, H_theta, numerics, config=doc)
