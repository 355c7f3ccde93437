"""Configuration space, one-forms, Lagrangian/Hamiltonian specs, time reversal.

The configuration space is a flat torus T^N with the Euclidean metric, so
covariant derivatives reduce to plain time derivatives and geodesics are
straight lines in the universal cover.  All function specs carry analytic
first and second partial derivatives; every evaluator accepts either a
single point or a batch (leading axis of size M).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TorusSpace",
    "OneForm",
    "LagrangianSpec",
    "HamiltonianSpec",
    "magnetic_lagrangian",
    "check_symmetry",
]


@dataclass(frozen=True)
class TorusSpace:
    """Flat torus T^N with given lattice periods (default all 1)."""

    dim: int
    periods: np.ndarray = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        p = np.ones(self.dim) if self.periods is None else np.asarray(self.periods, dtype=float)
        if p.shape != (self.dim,) or np.any(p <= 0):
            raise ValueError("periods must be positive and match dim")
        object.__setattr__(self, "periods", p)

    @property
    def injectivity_radius(self) -> float:
        return 0.5 * float(np.min(self.periods))

    def wrap(self, q):
        """Reduce coordinates to the fundamental domain [0, period)."""
        return np.mod(q, self.periods)

    def displacement(self, a, b):
        """Minimal lattice lift of b - a (componentwise nearest representative)."""
        d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
        return d - self.periods * np.round(d / self.periods)

    def distance(self, a, b) -> float:
        return float(np.linalg.norm(self.displacement(a, b), axis=-1))

    def lattice_defect(self, fn):
        """(max |fn(q + e_i period_i) - fn(q)|, max |fn(q)|) on 64 seeded samples.

        A non-finite value of fn makes the first entry NaN.
        """
        rng = np.random.default_rng(0)
        q = rng.uniform(0, 1, size=(64, self.dim)) * self.periods
        base = fn(q)
        worst = np.max([np.max(np.abs(fn(q + shift) - base)) for shift in np.diag(self.periods)])
        return float(worst), float(np.max(np.abs(base)))


class _LastValue:
    """fn(q) with a one-slot memo keyed on the exact shape and bytes of q.

    The value is returned as a read-only view, so a caller cannot alter what
    the next caller gets, while fn's own array keeps its flags.  The key and
    the value are one tuple replaced in a single assignment, so a concurrent
    caller sees either the old pair or the new one, never a mix.
    """

    __slots__ = ("fn", "slot")

    def __init__(self, fn):
        self.fn = fn
        self.slot = (None, None)

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        key = (q.shape, q.tobytes())
        cached, out = self.slot
        if cached != key:
            out = np.asarray(self.fn(q)).view()
            out.setflags(write=False)
            self.slot = (key, out)
        return out


class OneForm:
    """Smooth lattice-periodic one-form theta = sum_i theta_i(q) dq_i.

    components(q) returns theta_i, jacobian(q) the matrix d theta_i / d q_j
    indexed [i, j], hessian(q) the array d^2 theta_i / (d q_j d q_k) indexed
    [i, j, k].  All evaluators are batch-capable over a leading axis.

    A field evaluation asks for theta and its Jacobian at the same point more
    than once, so components and jacobian remember their last point and
    return their arrays read-only (_LastValue).
    """

    def __init__(self, torus: TorusSpace, components, jacobian, hessian, name="theta"):
        self.torus = torus
        self.name = name
        self._components = _LastValue(components)
        self._jacobian = _LastValue(jacobian)
        self._hessian = hessian

    @classmethod
    def constant(cls, torus: TorusSpace, values) -> "OneForm":
        vals = np.asarray(values, dtype=float)
        if vals.shape != (torus.dim,):
            raise ValueError("constant one-form needs one value per coordinate")
        n = torus.dim

        def comp(q):
            q = np.asarray(q, dtype=float)
            return np.broadcast_to(vals, q.shape).copy()

        def jac(q):
            q = np.asarray(q, dtype=float)
            return np.zeros(q.shape[:-1] + (n, n))

        def hess(q):
            q = np.asarray(q, dtype=float)
            return np.zeros(q.shape[:-1] + (n, n, n))

        return cls(torus, comp, jac, hess, name=f"const{tuple(vals)}")

    def __neg__(self) -> "OneForm":
        return _NegatedOneForm(self)

    def components(self, q):
        return self._components(q)

    def jacobian(self, q):
        return self._jacobian(q)

    def hessian(self, q):
        return self._hessian(q)

    def sigma(self, q):
        """Exterior derivative as the matrix sigma[j, i] = d_j theta_i - d_i theta_j.

        With this indexing the twisted force term reads sigma(q) @ qdot.
        """
        jac = self.jacobian(q)
        return np.swapaxes(jac, -1, -2) - jac

    def periodicity_violation(self) -> float:
        """Max |theta(q + e_i period_i) - theta(q)| on a seeded sample set."""
        return self.torus.lattice_defect(self.components)[0]


class _NegatedOneForm(OneForm):
    """-theta: its evaluators negate theta's memoized arrays and keep no memo,
    so a field that uses both forms at one point evaluates theta once."""

    def __init__(self, theta: OneForm):
        self.torus = theta.torus
        self.name = f"-{theta.name}"
        self.theta = theta

    def components(self, q):
        return -self.theta.components(q)

    def jacobian(self, q):
        return -self.theta.jacobian(q)

    def hessian(self, q):
        return -self.theta.hessian(q)


class LagrangianSpec:
    """Tonelli Lagrangian with analytic partials, 1-periodic in t.

    The callables follow the conventions
        value(t, q, v) -> scalar
        grad_q, grad_v -> (N,)
        hess_vv[i,j] = d2L/dv_i dv_j,  hess_qv[i,j] = d2L/dq_i dv_j,
        hess_qq[i,j] = d2L/dq_i dq_j,
    all batch-capable with leading axis M (t then has shape (M,)).
    """

    def __init__(self, torus, value, grad_q, grad_v, hess_vv, hess_qv, hess_qq,
                 reversible=False, name="L"):
        self.torus = torus
        self.dim = torus.dim
        self.value = value
        self.grad_q = grad_q
        self.grad_v = grad_v
        self.hess_vv = hess_vv
        self.hess_qv = hess_qv
        self.hess_qq = hess_qq
        self.reversible = reversible
        self.name = name

    def grad_tv(self, t, q, v):
        """d/dt of grad_v at frozen (q, v), by central difference.

        Both evaluations return the same floats when grad_v does not read t,
        so the result is exactly zero for time-independent specs.
        """
        h = 1e-6
        return (np.asarray(self.grad_v(t + h, q, v)) - np.asarray(self.grad_v(t - h, q, v))) / (2 * h)


class HamiltonianSpec:
    """Tonelli Hamiltonian with analytic partials, 1-periodic in t.

    hess_pp[i,j] = d2H/dp_i dp_j, hess_qp[i,j] = d2H/dq_i dp_j,
    hess_qq[i,j] = d2H/dq_i dq_j; everything batch-capable.
    """

    def __init__(self, torus, value, grad_q, grad_p, hess_pp, hess_qp, hess_qq,
                 reversible=False, name="H"):
        self.torus = torus
        self.dim = torus.dim
        self.value = value
        self.grad_q = grad_q
        self.grad_p = grad_p
        self.hess_pp = hess_pp
        self.hess_qp = hess_qp
        self.hess_qq = hess_qq
        self.reversible = reversible
        self.name = name


def magnetic_lagrangian(L: LagrangianSpec, theta: OneForm) -> LagrangianSpec:
    """The magnetically corrected Lagrangian L + theta(q)[v].

    The added term is linear in v, so the fiber Hessian is untouched.
    """

    def value(t, q, v):
        return L.value(t, q, v) + np.sum(theta.components(q) * np.asarray(v), axis=-1)

    def grad_q(t, q, v):
        jac = theta.jacobian(q)  # jac[..., i, j] = d theta_i / d q_j
        v_ = np.asarray(v, dtype=float)
        extra = np.einsum("...ij,...i->...j", jac, v_)
        return L.grad_q(t, q, v) + extra

    def grad_v(t, q, v):
        return L.grad_v(t, q, v) + theta.components(q)

    def hess_qv(t, q, v):
        # d2(theta.v)/dq_i dv_j = d theta_j / d q_i = jac[j, i]
        jac = theta.jacobian(q)
        return L.hess_qv(t, q, v) + np.swapaxes(jac, -1, -2)

    def hess_qq(t, q, v):
        hess = theta.hessian(q)  # [..., i, j, k] = d2 theta_i / dq_j dq_k
        v_ = np.asarray(v, dtype=float)
        extra = np.einsum("...ijk,...i->...jk", hess, v_)
        return L.hess_qq(t, q, v) + extra

    return LagrangianSpec(
        L.torus, value, grad_q, grad_v, L.hess_vv, hess_qv, hess_qq,
        reversible=False,  # reversibility of L + theta[v] is a property of the pair
        name=f"{L.name}+{theta.name}[v]",
    )


def check_symmetry(spec, theta: OneForm, samples: int = 256) -> float:
    """Max sampled violation of the time-reversal symmetry.

    For a HamiltonianSpec this is |H(-t, R1(q,p)) - H(t,q,p)|; for a
    LagrangianSpec it is |(L + theta[v])(-t,q,-v) - (L + theta[v])(t,q,v)|,
    which with theta = 0 reduces to plain reversibility of L.  The samples
    are seeded: t uniform on [-1, 1], q on the torus, p or v standard normal.
    """
    rng = np.random.default_rng(0)
    torus = spec.torus
    n = torus.dim
    t = rng.uniform(-1, 1, size=samples)
    q = rng.uniform(0, 1, size=(samples, n)) * torus.periods
    if isinstance(spec, HamiltonianSpec):
        p = rng.normal(size=(samples, n))
        p_ref = -p - 2.0 * theta.components(q)
        return float(np.max(np.abs(spec.value(-t, q, p_ref) - spec.value(t, q, p))))
    v = rng.normal(size=(samples, n))
    thv = np.sum(theta.components(q) * v, axis=-1)
    lhs = spec.value(-t, q, -v) - thv
    rhs = spec.value(t, q, v) + thv
    return float(np.max(np.abs(lhs - rhs)))
