"""The DOP853 port against scipy's solve_ivp(method="DOP853"), its oracle.

The port orders its arithmetic as scipy does, so the step sequence, the
states and the dense output must be bit-equal, not merely close.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from brakekit import dynamics
from brakekit.errors import BlowUp
from brakekit.index import _J
from brakekit.ode import dop853
from brakekit.systems import load_system

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "brakebench"))
from workloads import WORKLOADS  # noqa: E402


def _bits(a):
    """The bit patterns of a float array, so that -0.0 and 0.0 differ too."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _assert_matches_scipy(rhs, y0, t1, tol, seed):
    ref = solve_ivp(rhs, (0.0, t1), y0, method="DOP853", rtol=tol, atol=tol,
                    dense_output=True)
    assert ref.success
    got = dop853(rhs, (0.0, t1), y0, tol)
    assert np.array_equal(_bits(got.t), _bits(ref.t))
    assert np.array_equal(_bits(got.y), _bits(ref.y.T))
    rng = np.random.default_rng(seed)
    ts = np.concatenate([rng.uniform(0.0, t1, 200), ref.t, [0.5 * (ref.t[0] + ref.t[1])]])
    assert np.array_equal(_bits(got.dense(ts)), _bits(ref.sol(ts).T))
    for t in (ts[0], ref.t[1], ref.t[-1]):
        assert np.array_equal(_bits(got.dense(t)), _bits(ref.sol(t)))
    # without dense output the steps and states are the same
    lean = dop853(rhs, (0.0, t1), y0, tol, dense_output=False)
    assert lean.dense is None
    assert np.array_equal(_bits(lean.t), _bits(got.t))
    assert np.array_equal(_bits(lean.y), _bits(got.y))
    return len(got.t)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_dop853_is_bit_equal_to_scipy_on_each_workload_field(name):
    wl = WORKLOADS[name]
    system = load_system(wl.document())
    field = dynamics.hamiltonian_rhs(system.H, system.theta)
    n = wl.dim
    rng = np.random.default_rng(3)
    q = rng.uniform(0.0, 1.0, n)
    start = np.concatenate([q, -system.theta.components(q) + 0.3 * rng.normal(size=n)])
    steps = _assert_matches_scipy(lambda t, y: field(t, y), start, 0.5 * wl.period, 1e-10, 1)
    assert steps > 5

    # stacked rows, as brake_shoot integrates a trial and its neighbours
    qs = q + np.concatenate([np.zeros((1, n)), 1e-6 * np.eye(n), -1e-6 * np.eye(n)])
    stack = np.concatenate([qs, -system.theta.components(qs)], axis=1)

    def stacked(t, y):
        return field(t, y.reshape(stack.shape)).ravel()

    _assert_matches_scipy(stacked, stack.ravel(), 0.5 * wl.period, 1e-10, 2)


def test_dop853_is_bit_equal_to_scipy_on_a_fundamental_solution(stiff_system, libration):
    from brakekit.index import linearize

    co = linearize(stiff_system.L_theta, libration)
    B_fn = co.B_callable()
    J = _J(1)

    def rhs(t, y):
        return (J @ B_fn(t) @ y.reshape(2, 2)).ravel()

    _assert_matches_scipy(rhs, np.eye(2).ravel(), co.period, 1e-11, 4)


def test_blowup_fires_on_the_step_of_scipys_terminal_event():
    # y' = y^2 from y(0) = 1 leaves every bound before t = 1
    def rhs(t, y):
        return y * y

    def event(t, y):
        return float(np.max(np.abs(y)) - dynamics.BLOWUP_CEILING)

    event.terminal = True
    ref = solve_ivp(rhs, (0.0, 2.0), [1.0], method="DOP853", rtol=1e-10, atol=1e-10,
                    events=event)
    assert ref.status == 1
    ends = []

    def check(t, y):
        ends.append(t)
        if np.max(np.abs(y)) >= dynamics.BLOWUP_CEILING:
            raise BlowUp("ceiling")

    with pytest.raises(BlowUp):
        dop853(rhs, (0.0, 2.0), [1.0], 1e-10, dense_output=False, step_check=check)
    # scipy's last time is the event root inside the step the port stops at
    assert len(ends) == len(ref.t) - 1
    assert np.array_equal(ends[:-1], ref.t[1:-1])
    assert ends[-2] < ref.t_events[0][0] <= ends[-1]
    with pytest.raises(BlowUp, match=f"at t = {ends[-1]:.6g}"):
        dynamics.integrate(rhs, [1.0], 0.0, 2.0)


def test_dop853_refuses_a_backward_span_and_a_non_finite_start():
    with pytest.raises(ValueError):
        dop853(lambda t, y: y, (1.0, 0.0), [1.0], 1e-10)
    with pytest.raises(ValueError):
        dop853(lambda t, y: y, (0.0, 1.0), [np.nan], 1e-10)
