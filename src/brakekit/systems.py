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
L_theta(t, q, v) (even in v), and each builtin its Fenchel dual H_theta on
the standard side, in closed form: |p|^2/(2m) + V for kinetic_potential, and
for quartic_kinetic K*(p) + V with K* the dual of |v|^4/4 + |v|^2/2, written
through the real root of a cubic.  For every builtin the loader derives
L = L_theta - theta[v] and its dual H = H_theta o Phi^-1,
H(t, q, p) = H_theta(t, q, p + theta(q)), on the twisted side; H is
R1-symmetric because H_theta is even in p.  A MagneticSystem keeps theta,
L_theta, L and H.  The mechanical specs (each L_theta and each H_theta) come
from one separable template, K(w) - V(q) or K(w) + V(q), with w the velocity
or the momentum.  No field evaluation solves for a fiber point:
brakekit.legendre's Newton duals stay the general construction, and the
tests' oracle for these closed forms.
"""

from __future__ import annotations

import inspect
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolated
from .expressions import Tree
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
    "quartic_kinetic_hamiltonian",
    "shifted_hamiltonian",
    "MagneticSystem",
    "load_system",
    "DEFAULT_NUMERICS",
]

DEFAULT_NUMERICS = {
    "grid": 256,
    "integrator_tol": 1e-10,
}

def parse_scalar_field(torus: TorusSpace, text: str):
    """Parse a lattice-periodic scalar field of q into (value, gradient, hessian)."""
    tree = Tree(torus.dim)
    expr = tree.parse(text)
    tree.refuse_poles(expr)
    value = tree.compile([expr], (), "value")
    bad, size = torus.lattice_defect(value)
    if not bad <= 1e-12 * (1.0 + size):
        raise PreconditionViolated(
            f"field {text!r} is not lattice-periodic (violation {bad:.2e})")
    n = torus.dim
    grad = [tree.diff(expr, a) for a in range(n)]
    gradient = tree.compile(grad, (n,), "gradient")
    hessian = tree.compile([tree.diff(g, b) for g in grad for b in range(n)], (n, n), "hessian")
    return value, gradient, hessian


def one_form_from_expressions(torus: TorusSpace, exprs) -> OneForm:
    """Build a OneForm from one expression string per component."""
    if len(exprs) != torus.dim:
        raise ValueError("need one component expression per coordinate")
    tree = Tree(torus.dim)
    comps = []
    for text in exprs:
        comps.append(tree.parse(text))
        tree.refuse_poles(comps[-1])
    tree.text = f"[{', '.join(exprs)}]"
    n = torus.dim
    components = tree.compile(comps, (n,), "components")
    bad = torus.lattice_defect(components)[0]
    if not bad <= 1e-12:
        raise PreconditionViolated(
            f"one-form components are not lattice-periodic (violation {bad:.2e})")
    jac = [tree.diff(c, a) for c in comps for a in range(n)]
    jacobian = tree.compile(jac, (n, n), "jacobian")
    hessian = tree.compile([tree.diff(j, b) for j in jac for b in range(n)], (n, n, n), "hessian")
    return OneForm(torus, components, jacobian, hessian, name=tree.text)


def _separable(torus: TorusSpace, potential: str, sign: int, kinetic, kinetic_w,
               kinetic_ww):
    """The six partials of K(w) + sign V(q), in the argument order of the specs.

    kinetic, kinetic_w and kinetic_ww take w (the velocity or the momentum) as
    a float array.  V enters by the operator of its sign, so each partial
    does the arithmetic of K - V or K + V written out.
    """
    vval, vgrad, vhess = parse_scalar_field(torus, potential)
    n = torus.dim
    if sign > 0:
        combine = operator.add
        grad_q, hess_qq = (lambda t, q, w: vgrad(q)), (lambda t, q, w: vhess(q))
    else:
        combine = operator.sub
        grad_q, hess_qq = (lambda t, q, w: -vgrad(q)), (lambda t, q, w: -vhess(q))

    def fiber(fn):
        return lambda t, q, w: fn(np.asarray(w, dtype=float))

    def value(t, q, w):
        return combine(kinetic(np.asarray(w, dtype=float)), vval(q))

    def hess_qw(t, q, w):
        q = np.asarray(q, dtype=float)
        return np.zeros(q.shape[:-1] + (n, n))

    return value, grad_q, fiber(kinetic_w), fiber(kinetic_ww), hess_qw, hess_qq


def _constant_matrix(a):
    """kinetic_ww of a quadratic K: the matrix a at every point of the batch of w."""
    return lambda w: np.broadcast_to(a, w.shape[:-1] + a.shape).copy()


def kinetic_potential_lagrangian(torus: TorusSpace, potential: str = "0",
                                 mass: float = 1.0) -> LagrangianSpec:
    """Reversible mechanical Lagrangian L = m|v|^2/2 - V(q)."""
    parts = _separable(torus, potential, -1,
                       lambda v: 0.5 * mass * np.sum(v * v, axis=-1),
                       lambda v: mass * v,
                       _constant_matrix(mass * np.eye(torus.dim)))
    return LagrangianSpec(torus, *parts, reversible=True, name=f"m|v|^2/2 - ({potential})")


def quartic_kinetic_lagrangian(torus: TorusSpace, potential: str = "0") -> LagrangianSpec:
    """Tonelli Lagrangian with quartic kinetic growth, |v|^4/4 + |v|^2/2 - V(q).

    Not of quadratic growth: the fiber Hessian is unbounded in v, which makes
    this the standard witness for the growth-certificate failure path.
    """
    eye = np.eye(torus.dim)

    def kinetic(v):
        s = np.sum(v * v, axis=-1)
        return 0.25 * s * s + 0.5 * s

    def kinetic_v(v):
        return (np.sum(v * v, axis=-1) + 1.0)[..., None] * v

    def kinetic_vv(v):
        s = np.sum(v * v, axis=-1)
        return (s + 1.0)[..., None, None] * eye + 2.0 * (v[..., :, None] * v[..., None, :])

    parts = _separable(torus, potential, -1, kinetic, kinetic_v, kinetic_vv)
    return LagrangianSpec(torus, *parts, reversible=True,
                          name=f"|v|^4/4 + |v|^2/2 - ({potential})")


def kinetic_hamiltonian(torus: TorusSpace, potential: str = "0",
                        mass: float = 1.0) -> HamiltonianSpec:
    """Classical H = |p|^2/(2m) + V(q), symmetric under R0."""
    parts = _separable(torus, potential, 1,
                       lambda p: np.sum(p * p, axis=-1) / (2.0 * mass),
                       lambda p: p / mass,
                       _constant_matrix(np.eye(torus.dim) / mass))
    return HamiltonianSpec(torus, *parts, reversible=True,
                           name=f"|p|^2/{2 * mass} + ({potential})")


# rho = _SINH_SCALE sinh(asinh(_ASINH_SCALE s) / 3) solves rho + rho^3 = s
_SINH_SCALE = 2.0 / math.sqrt(3.0)
_ASINH_SCALE = 1.5 * math.sqrt(3.0)


def quartic_kinetic_hamiltonian(torus: TorusSpace, potential: str) -> HamiltonianSpec:
    """Fenchel dual of quartic_kinetic_lagrangian, H = K*(p) + V(q), symmetric under R0.

    The velocity dual to p is v = p / (1 + rho^2), where rho = |v| is the one
    real root of rho + rho^3 = |p|, taken in the trigonometric (sinh) form,
    which has no cancellation at small or large |p|.  Then
        K*(p) = 3 rho^4 / 4 + rho^2 / 2,   K*_p = v,
        K*_pp = (I - 2 v v^T / (1 + 3 rho^2)) / (1 + rho^2),
    the last the Sherman-Morrison inverse of L_vv = (1 + rho^2) I + 2 v v^T.
    """
    eye = np.eye(torus.dim)

    def squared_speed(p):
        s = np.sqrt(np.sum(p * p, axis=-1))
        rho = _SINH_SCALE * np.sinh(np.arcsinh(_ASINH_SCALE * s) / 3.0)
        # one Newton step on the cubic takes the sinh form's few-ulp error
        # (it grows with asinh(s)) down to the round-off of the residual
        rho = rho - (rho * rho * rho + rho - s) / (3.0 * rho * rho + 1.0)
        return rho * rho

    def kinetic(p):
        r2 = squared_speed(p)
        return (0.75 * r2 + 0.5) * r2

    def kinetic_p(p):
        return p / (1.0 + squared_speed(p))[..., None]

    def kinetic_pp(p):
        r2 = squared_speed(p)
        v = p / (1.0 + r2)[..., None]
        vvt = (2.0 / (1.0 + 3.0 * r2))[..., None, None] * (v[..., :, None] * v[..., None, :])
        return (eye - vvt) / (1.0 + r2)[..., None, None]

    parts = _separable(torus, potential, 1, kinetic, kinetic_p, kinetic_pp)
    return HamiltonianSpec(torus, *parts, reversible=True,
                           name=f"(|v|^4/4 + |v|^2/2)*(p) + ({potential})")


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
    numerics: dict               # DEFAULT_NUMERICS updated by the document's
    config: dict                 # the system document

    @property
    def dim(self):
        return self.torus.dim


# each builtin's L_theta, and the closed form of its dual H_theta
_BUILTINS = {
    "kinetic_potential": (kinetic_potential_lagrangian, kinetic_hamiltonian),
    "quartic_kinetic": (quartic_kinetic_lagrangian, quartic_kinetic_hamiltonian),
}


# numbers as JSON Schema reads them: no bool is one, and an integral float is an integer
def _integer(x):
    return type(x) is int or type(x) is float and x.is_integer()


def _positive(x):
    return type(x) in (int, float) and 0 < x < math.inf


# (field, test, rule, required) for each field but the expression texts, objects first
_FIELD_RULES = (
    ("dim", lambda x: _integer(x) and x >= 1, "an integer >= 1", True),
    ("periods", lambda x: isinstance(x, list) and all(map(_positive, x)),
     "a list of positive finite numbers", False),
    ("theta", lambda x: isinstance(x, list) and all(isinstance(e, str) for e in x),
     "a list of strings", False),
    ("lagrangian", lambda x: isinstance(x, dict), "an object", True),
    ("lagrangian.builtin", lambda x: isinstance(x, str) and x in _BUILTINS,
     f"one of {sorted(_BUILTINS)}", True),
    ("lagrangian.potential", lambda x: isinstance(x, str), "a string", False),
    ("lagrangian.mass", _positive, "a positive finite number", False),
    ("numerics", lambda x: isinstance(x, dict) and set(x) <= set(DEFAULT_NUMERICS),
     f"an object with keys from {list(DEFAULT_NUMERICS)}", False),
    ("numerics.grid", lambda x: _integer(x) and x >= 2 and x % 2 == 0,
     "an integer >= 2 and a multiple of 2", False),
    ("numerics.integrator_tol", _positive, "a positive finite number", False),
)


def load_system(doc) -> MagneticSystem:
    """Assemble a MagneticSystem from a system document, a dict parsed from JSON.

    Every field rule is checked before any expression is parsed, and a
    document that breaks one is a ValueError naming the field.
    """
    if not isinstance(doc, dict):
        raise ValueError("system document must be a dict")
    for name, ok, rule, required in _FIELD_RULES:
        *parent, key = name.split(".")
        obj = doc.get(parent[0], {}) if parent else doc
        if key in obj and not ok(obj[key]) or key not in obj and required:
            got = f"not {obj[key]!r}" if key in obj else "and is missing"
            raise ValueError(f"system document: {name} must be {rule}, {got}")
    lag = {"potential": "0", **doc["lagrangian"]}  # no potential is V = 0
    builtin = lag.pop("builtin")
    make, dual = _BUILTINS[builtin]
    accepted = list(inspect.signature(make).parameters)[1:]  # the first is the torus
    unknown = sorted(set(lag) - set(accepted))
    if unknown:
        raise ValueError(f"lagrangian builtin {builtin!r} does not accept {unknown}; "
                         f"it accepts {accepted}")

    dim = int(doc["dim"])
    torus = TorusSpace(dim, doc.get("periods"))
    theta = one_form_from_expressions(torus, doc.get("theta", ["0"] * dim))
    L_theta = make(torus, **lag)

    H_theta = dual(torus, **lag)
    L = magnetic_lagrangian(L_theta, -theta)
    H = shifted_hamiltonian(H_theta, -theta)

    numerics = {**DEFAULT_NUMERICS, **doc.get("numerics", {})}
    return MagneticSystem(torus, theta, L_theta, L, H, numerics, config=doc)
