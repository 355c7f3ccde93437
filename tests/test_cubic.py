"""The piecewise cubics against scipy's CubicSpline and PPoly, their oracle.

Construction and evaluation follow scipy's arithmetic order, so every value
is bit-equal to scipy's (the sign of a zero included).
"""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, PPoly

from brakekit.bangert import LoopFamily
from brakekit.cubic import cubic_spline
from brakekit.loopspace import SymmetricLoop
from brakekit.modification import SmoothCap


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _queries(x, rng):
    """Random points over three periods either side, the nodes, and the ends."""
    span = x[-1] - x[0]
    return np.concatenate([rng.uniform(x[0] - 3 * span, x[-1] + 3 * span, 400), x,
                           [x[0] + 2 * span, x[-1] - 1e-15, np.nextafter(x[0], -np.inf)]])


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("shape", [(), (3,), (2, 2)])
@pytest.mark.parametrize("n", [4, 5, 17, 129])
def test_cubic_spline_is_bit_equal_to_scipy(periodic, shape, n):
    rng = np.random.default_rng(n + len(shape))
    x = np.sort(rng.uniform(0.0, 2.0, n)) if n > 5 else np.linspace(0.5, 2.0, n)
    y = rng.normal(size=(n,) + shape)
    if periodic:
        y[-1] = y[0]
    ref = CubicSpline(x, y, bc_type="periodic" if periodic else "not-a-knot", axis=0)
    got = cubic_spline(x, y, periodic=periodic)
    assert np.array_equal(_bits(got.c), _bits(ref.c))
    q = _queries(x, rng)
    for nu in (0, 1):
        assert np.array_equal(_bits(got(q, nu)), _bits(ref(q, nu)))
        for t in q[:3]:
            assert np.array_equal(_bits(got(t, nu)), _bits(ref(t, nu)))


def test_loop_and_family_splines_are_bit_equal_to_scipy():
    rng = np.random.default_rng(5)
    loops = [SymmetricLoop.from_function(
        lambda t, a=a: np.array([0.5 - a * np.cos(2 * np.pi * t), a * np.cos(4 * np.pi * t)]),
        1, n_per_unit=64) for a in (0.1, 0.3)]
    fam = LoopFamily([0.0, 1.0], loops)
    s = _queries(np.array([0.0, 1.0]), rng)
    refs = []
    for lp in loops:
        g = lp.full_values()
        ref = CubicSpline(np.append(lp.full_times(), 1.0), np.vstack([g, g[:1]]),
                          bc_type="periodic")
        refs.append(ref)
        for nu in (0, 1):
            assert np.array_equal(_bits(lp.spline()(s, nu)), _bits(ref(s, nu)))
    # the family blends the node coefficients as PPoly.construct_fast did
    t = 0.3
    blend = PPoly.construct_fast((1.0 - t) * refs[0].c + t * refs[1].c, refs[0].x,
                                 extrapolate="periodic")
    for nu in (0, 1):
        assert np.array_equal(_bits(fam.spline(t)(s, nu)), _bits(blend(s, nu)))


def test_smooth_cap_table_is_bit_equal_to_scipys_not_a_knot_spline():
    SmoothCap()
    table = SmoothCap._spline
    ref = CubicSpline(table.x, np.append(table.c[3], SmoothCap._cap))
    assert np.array_equal(_bits(table.c), _bits(ref.c))


def test_cubic_spline_refusals():
    x = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        cubic_spline(x[:3], x[:3])
    with pytest.raises(ValueError):
        cubic_spline(x[::-1], x)
    with pytest.raises(ValueError):
        cubic_spline(x, x, periodic=True)
    with pytest.raises(ValueError):
        cubic_spline(x, x)(0.5, 2)
