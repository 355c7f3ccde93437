"""Cubic interpolating splines, periodic or not-a-knot, as one piecewise-cubic type.

The node slopes solve the tridiagonal systems of C. de Boor, *A Practical
Guide to Splines* (2001), Ch. IV, with the periodic system condensed to two
banded solves and a scalar correction.  Construction and evaluation perform
the arithmetic of SciPy's ``CubicSpline`` and ``PPoly`` in the same order
(the band solves are ``scipy.linalg.solve_banded``, evaluation sums the
powers of s = x - x_i in ascending order), so values are bit-equal to them.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
from scipy.linalg import solve_banded

__all__ = ["PiecewiseCubic", "cubic_spline"]


class PiecewiseCubic:
    """sum_k c[3 - k, i] (x - x[i])^k on [x[i], x[i + 1]], values of any trailing shape.

    c has shape (4, len(x) - 1, ...).  A periodic cubic maps x into
    [x[0], x[-1]] first; otherwise the end pieces extrapolate.  A node
    belongs to the piece on its right, the last node to the last piece.
    """

    def __init__(self, x: np.ndarray, c: np.ndarray, periodic: bool):
        self.x = x
        self.c = c
        self.periodic = periodic
        self._x0, self._span = float(x[0]), float(x[-1] - x[0])
        self._tables = {}
        self._inner = None

    def _table(self, nu):
        """The coefficients a derivative of order nu sums, per piece, lowest
        power last; that one is added to 0.0 as the sum starts."""
        if nu not in self._tables:
            if nu not in (0, 1):
                raise ValueError(f"nu must be 0 or 1, not {nu}")
            table = self.c[:4 - nu].copy()
            table[-1] += 0.0
            self._tables[nu] = table
        return self._tables[nu]

    def __call__(self, x, nu: int):
        """Values (nu = 0) or first derivatives (nu = 1) at x, of shape
        x.shape + the trailing shape of c."""
        return self._sums(x, (nu,))[0]

    def jet(self, x):
        """(values, first derivatives) at x, from one lookup of the pieces."""
        return self._sums(x, (0, 1))

    def _sums(self, x, nus):
        tables = [self._table(nu) for nu in nus]
        x0, span = self._x0, self._span
        if np.ndim(x) == 0:
            # float arithmetic rounds as numpy's does, and the piece is a view
            x = float(x)
            if self.periodic:
                x = x0 + (x - x0) % span
            if self._inner is None:
                self._inner = self.x[1:-1].tolist()
            # the piece is the number of interior nodes at or below x
            i = bisect_right(self._inner, x)
            s = x - float(self.x[i])
            pieces = [c[:, i] for c in tables]
        else:
            x = np.asarray(x, dtype=float)
            if self.periodic:
                # with x0 = 0 the shift is exact: x - 0 is x and x % span is never -0
                x = x % span if x0 == 0.0 else x0 + (x - x0) % span
            i = np.searchsorted(self.x[1:-1], x, side="right")
            s = (x - self.x[i]).reshape(x.shape + (1,) * (self.c.ndim - 2))
            pieces = [c.take(i, axis=1) for c in tables]
        return [_power_sum(c, s, nu) for c, nu in zip(pieces, nus)]


def _power_sum(c, s, nu):
    """The ascending power sum of _ppoly.evaluate: each term c s^k times its
    derivative prefactor.  Addition is commutative, so each sum may take its
    terms in either order."""
    if nu == 0:
        s2 = s * s
        out = c[2] * s
        out += c[3]
        out += c[1] * s2
        out += c[0] * (s2 * s)
    else:
        out = c[1] * s * 2.0
        out += c[2]
        out += c[0] * (s * s) * 3.0
    return out


def cubic_spline(x, y, periodic: bool = False) -> PiecewiseCubic:
    """The C^2 cubic spline through (x[i], y[i]), y interpolated along axis 0.

    periodic: the spline and its first two derivatives are periodic, which
    needs y[-1] == y[0]; otherwise the third derivative is continuous at
    x[1] and x[-2] (not-a-knot).  x is strictly increasing, with at least 4
    nodes.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if n < 4 or y.shape[0] != n:
        raise ValueError(f"a cubic spline needs y of length len(x) >= 4, not {y.shape[0]}, {n}")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("spline nodes must be strictly increasing")
    if periodic and not np.array_equal(y[0], y[-1]):
        raise ValueError("a periodic spline needs y[-1] == y[0]")
    dxr = dx.reshape([dx.shape[0]] + [1] * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr

    # node slopes s: for i = 1 .. n - 2,
    # dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1]
    #     = 3 (dx[i] slope[i-1] + dx[i-1] slope[i]),
    # as a banded matrix with rows (upper, diagonal, lower)
    A = np.zeros((3, n))
    b = np.empty((n,) + y.shape[1:])
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])

    if periodic:
        # n - 1 unknowns, s[-1] = s[0]; the cyclic system is solved as a
        # tridiagonal one of order n - 2 with two right-hand sides, and the
        # last unknown from the removed row
        A = A[:, 0:-1]
        A[1, 0] = 2 * (dx[-1] + dx[0])
        A[0, 1] = dx[-1]
        b = b[:-1]
        a_m1_0 = dx[-2]
        a_m1_m2 = dx[-1]
        a_m1_m1 = 2 * (dx[-1] + dx[-2])
        a_m2_m1 = dx[-3]
        a_0_m1 = dx[0]
        b[0] = 3 * (dxr[0] * slope[-1] + dxr[-1] * slope[0])
        b[-1] = 3 * (dxr[-1] * slope[-2] + dxr[-2] * slope[-1])
        Ac = A[:, :-1]
        b1 = b[:-1]
        b2 = np.zeros_like(b1)
        b2[0] = -a_0_m1
        b2[-1] = -a_m2_m1
        m = b1.shape[0]
        s1 = solve_banded((1, 1), Ac, b1.reshape(m, -1), overwrite_ab=False,
                          overwrite_b=False, check_finite=False).reshape(b1.shape)
        s2 = solve_banded((1, 1), Ac, b2.reshape(m, -1), overwrite_ab=False,
                          overwrite_b=False, check_finite=False).reshape(b2.shape)
        s_m1 = ((b[-1] - a_m1_0 * s1[0] - a_m1_m2 * s1[-1])
                / (a_m1_m1 + a_m1_0 * s2[0] + a_m1_m2 * s2[-1]))
        s = np.empty((n,) + y.shape[1:])
        s[:-2] = s1 + s_m1 * s2
        s[-2] = s_m1
        s[-1] = s[0]
    else:
        A[1, 0] = dx[1]
        A[0, 1] = x[2] - x[0]
        d = x[2] - x[0]
        b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
        A[1, -1] = dx[-2]
        A[-1, -2] = x[-1] - x[-3]
        d = x[-1] - x[-3]
        b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
        s = solve_banded((1, 1), A, b.reshape(n, -1), overwrite_ab=True,
                         overwrite_b=True, check_finite=False).reshape(b.shape)

    # the Hermite cubic of each piece from its end values and slopes
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    c = np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))
    return PiecewiseCubic(x, c, periodic)
