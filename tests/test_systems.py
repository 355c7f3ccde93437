import numpy as np
import pytest
import sympy as sp

from brakekit.model import HamiltonianSpec, LagrangianSpec, TorusSpace
from brakekit.systems import (
    kinetic_hamiltonian,
    kinetic_potential_lagrangian,
    load_system,
    parse_scalar_field,
    quartic_kinetic_lagrangian,
)

PARTIALS = ("value", "grad_q", "grad_v", "hess_vv", "hess_qv", "hess_qq")
HAMILTONIAN_PARTIALS = ("value", "grad_q", "grad_p", "hess_pp", "hess_qp", "hess_qq")


# The three mechanical builtins written out one by one, as they were before
# they shared one separable template: the reference the template must match
# to the last bit.

def written_kinetic_potential(torus, potential="0", mass=1.0):
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


def written_quartic(torus, potential="0"):
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


def written_kinetic_hamiltonian(torus, potential="0", mass=1.0):
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


POTENTIALS = {
    1: "1.2*cos(2*pi*q1) + 0.3*sin(4*pi*q1)",
    2: "0.7*cos(2*pi*q1) + 0.5*cos(2*pi*q2) + 0.2*sin(2*pi*q1)*cos(2*pi*q2)",
}


def cases():
    for dim, potential in POTENTIALS.items():
        for mass in (1.0, 0.7):
            yield (kinetic_potential_lagrangian, written_kinetic_potential, PARTIALS,
                   dim, {"potential": potential, "mass": mass})
            yield (kinetic_hamiltonian, written_kinetic_hamiltonian, HAMILTONIAN_PARTIALS,
                   dim, {"potential": potential, "mass": mass})
        yield quartic_kinetic_lagrangian, written_quartic, PARTIALS, dim, {"potential": potential}


@pytest.mark.parametrize("make, written, partials, dim, options", list(cases()))
def test_template_returns_the_written_builders_floats(make, written, partials, dim, options):
    torus = TorusSpace(dim)
    spec, ref = make(torus, **options), written(torus, **options)
    assert type(spec) is type(ref) and spec.reversible and spec.name == ref.name
    rng = np.random.default_rng(dim)
    t = rng.uniform(-1, 1, 64)
    q = rng.uniform(-2, 2, (64, dim))
    w = rng.normal(size=(64, dim)) * rng.choice([0.1, 1.0, 30.0], (64, 1))
    for name in partials:
        fn, ref_fn = getattr(spec, name), getattr(ref, name)
        assert np.array_equal(fn(t, q, w), ref_fn(t, q, w)), name
        for i in (0, 17, 63):
            got, want = fn(t[i], q[i], w[i]), ref_fn(t[i], q[i], w[i])
            assert np.shape(got) == np.shape(want) and np.array_equal(got, want), (name, i)


MILD_DOC = {"dim": 1, "theta": ["0.3"],
            "lagrangian": {"builtin": "kinetic_potential", "potential": "cos(2*pi*q1)"}}


def mild_doc_with(**fields):
    """MILD_DOC with top-level fields replaced, lagrangian or numerics keys merged in
    (as dicts), and fields given as None removed."""
    doc = {**MILD_DOC, "lagrangian": dict(MILD_DOC["lagrangian"])}
    for key, value in fields.items():
        if value is None:
            doc.pop(key)
        elif key in ("lagrangian", "numerics"):
            doc[key] = {**doc.get(key, {}), **value}
        else:
            doc[key] = value
    return doc


# documents load_system accepted before it owned the field rules, each with the
# field its refusal names
REFUSED_DOCUMENTS = [
    (mild_doc_with(lagrangian={"mass": -1}), "lagrangian.mass"),
    (mild_doc_with(lagrangian={"mass": True}), "lagrangian.mass"),
    (mild_doc_with(lagrangian={"mass": float("nan")}), "lagrangian.mass"),
    (mild_doc_with(numerics={"grid": "abc"}), "numerics.grid"),
    (mild_doc_with(numerics={"grad_tol": 1e-9}), "grad_tol"),
    (mild_doc_with(numerics={"integrator_tol": -1}), "numerics.integrator_tol"),
    (mild_doc_with(numerics={"integrator_tol": float("inf")}), "numerics.integrator_tol"),
    (mild_doc_with(periods=[float("nan")]), "periods"),
    (mild_doc_with(dim=2.5), "dim"),
    (mild_doc_with(dim=None), "dim"),
    (mild_doc_with(lagrangian=None), "lagrangian"),
]


@pytest.mark.parametrize("doc, field", REFUSED_DOCUMENTS,
                         ids=[f"{f}-{i}" for i, (_, f) in enumerate(REFUSED_DOCUMENTS)])
def test_load_system_refuses_a_field_and_names_it(doc, field):
    with pytest.raises(ValueError, match=field.replace(".", r"\.")):
        load_system(doc)


def test_load_system_checks_every_field_before_parsing_an_expression(monkeypatch):
    from brakekit import systems

    parsed = []

    def parse(text, syms):
        parsed.append(text)
        return sp.Integer(0)

    monkeypatch.setattr(systems, "_parse_expr", parse)
    for doc in (mild_doc_with(numerics={"grid": 255}), mild_doc_with(lagrangian={"mass": 0}),
                mild_doc_with(lagrangian={"builtin": "nope"}),
                {**MILD_DOC, "lagrangian": {"builtin": "quartic_kinetic", "mass": 2.0}}):
        with pytest.raises(ValueError):
            load_system(doc)
    assert parsed == []
    # the same stub parses every expression of a document that passes the rules
    load_system(mild_doc_with(numerics={"grid": 256.0}))
    assert set(parsed) == {"0.3", "cos(2*pi*q1)"}


def test_load_system_keeps_the_document_and_fills_in_default_numerics():
    doc = mild_doc_with(name="mild pendulum", numerics={"grid": 64})
    system = load_system(doc)
    assert system.config is doc
    assert system.numerics == {"grid": 64, "integrator_tol": 1e-10}
