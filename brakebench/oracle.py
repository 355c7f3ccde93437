"""Closed-form checks of brakekit's outputs, written without brakekit's code.

Every workload's potential is separable, V(q) = sum_i a_i cos(2 pi q_i), and
both built-in kinetic parts have unit fiber Hessian at v = 0, so constant
orbits have Fourier-diagonal action Hessians and everything here is explicit.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def potential(coeffs, q):
    q = np.asarray(q, dtype=float)
    return np.sum(np.asarray(coeffs) * np.cos(TWO_PI * q), axis=-1)


def potential_curvature(coeffs, q):
    """V''_i(q_i) per direction."""
    q = np.asarray(q, dtype=float)
    return -np.asarray(coeffs) * TWO_PI ** 2 * np.cos(TWO_PI * q)


def fourier_morse_counts(coeffs, q, k, period=1, rel_gap=1e-6):
    """(index, nullity) of the action Hessian at the constant loop q, on the
    full loop space and on the even subspace, at the k-th iterate.

    Per direction with curvature c = V''_i(q_i): mode 0 is negative when
    -c < 0; each mode j >= 1 at frequency w = 2 pi j / (k period) is negative
    when w^2 < c, twice on the full space (cos and sin), once on the even
    subspace (cos only).  Returns ((full_index, full_null), (even_index, even_null)).
    """
    full, even, null_full, null_even = 0, 0, 0, 0
    for c in potential_curvature(coeffs, q):
        scale = max(abs(c), 1.0)
        if abs(c) <= rel_gap * scale:
            null_full += 1
            null_even += 1
        elif c > 0:
            full += 1
            even += 1
        j = 1
        while True:
            w2 = (TWO_PI * j / (k * period)) ** 2
            if abs(w2 - c) <= rel_gap * scale:
                null_full += 2
                null_even += 1
            elif w2 < c:
                full += 2
                even += 1
            else:
                break
            j += 1
    return (full, null_full), (even, null_even)


def is_critical_point(coeffs, q, tol=1e-8):
    """q sits at a critical point of V: every sin(2 pi q_i) vanishes, i.e.
    each coordinate is a multiple of 1/2."""
    q = np.asarray(q, dtype=float)
    return bool(np.all(np.abs(2.0 * q - np.round(2.0 * q)) < tol))


def kinetic_energy(kind, v):
    """Fiber energy v.L_v - (L + V) of the two built-in kinetic parts."""
    s = np.sum(v * v, axis=-1)
    if kind == "kinetic_potential":
        return 0.5 * s
    if kind == "quartic_kinetic":
        return 0.75 * s * s + 0.5 * s
    raise ValueError(kind)


def energy_drift(kind, coeffs, full_values, period):
    """Spread max E - min E of the energy along a periodic loop sample.

    Velocities are forward differences and positions their midpoints, both
    second-order accurate at the half nodes.
    """
    q = np.asarray(full_values, dtype=float)
    h = period / q.shape[0]
    nxt = np.roll(q, -1, axis=0)
    v = (nxt - q) / h
    mid = 0.5 * (nxt + q)
    e = kinetic_energy(kind, v) + potential(coeffs, mid)
    return float(np.max(e) - np.min(e))
