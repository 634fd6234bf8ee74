"""The DOP853 port against scipy.integrate.solve_ivp(method="DOP853"): the
same bits on the bundled systems and on small random arrow systems, and the
same step-size failure."""
from __future__ import annotations

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from qesr._dop853 import dop853
from qesr.dynamics import _initial_vector, _propagate_state
from qesr.errors import NumericalGuardError


def arrow_rhs(det, g, kappa, gamma0):
    """dX/dt = -i M X in the cavity frame, written as dynamics writes it."""
    diag_spins = -1j * det - 0.5 * gamma0
    diag_cav = -0.5 * kappa

    def rhs(y):
        dy = np.empty_like(y)
        dy[0] = diag_cav * y[0] + np.dot(g, y[1:])
        dy[1:] = diag_spins * y[1:] - g * y[0]
        return dy

    return rhs


def scipy_dop853(rhs, y0, times, rtol, atol):
    sol = solve_ivp(
        lambda t, y: rhs(y), (0.0, float(times[-1])), y0,
        method="DOP853", t_eval=times, rtol=rtol, atol=atol,
    )
    assert sol.success, sol.message
    return sol.y


@pytest.mark.parametrize("initial,periods,n_times", [("cavity", 1.2, 481), ("pulse", 1.5, 601)])
@pytest.mark.parametrize("scen", ["scen_I", "scen_III"])
def test_bundled_systems_match_scipy_bit_for_bit(request, scen, initial, periods, n_times):
    """The swap (cavity start) and time-domain transfer (pulse start) runs of the CLI."""
    s = request.getfixturevalue(scen)
    x0 = _initial_vector(s.dist, initial, s.env, s.ens.center)
    times = np.linspace(0.0, periods * np.pi / s.dist.g_collective, n_times)
    rtol = s.cfg.ode_rtol
    ours = _propagate_state(s.dist, s.cavity, x0, times, rtol, 1e-12)
    rhs = arrow_rhs(
        s.dist.omega_nodes - s.cavity.omega_c,
        s.dist.g_collective * np.sqrt(s.dist.weights),
        s.cavity.kappa,
        s.cavity.gamma0,
    )
    assert np.array_equal(ours, scipy_dop853(rhs, x0, times, rtol, 1e-12))


finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def arrow_systems(draw):
    n = draw(st.integers(1, 6))
    floats = lambda lo, hi: st.lists(st.floats(lo, hi, **finite), min_size=n, max_size=n)
    det = np.array(draw(floats(-5.0, 5.0)))
    g = np.array(draw(floats(0.0, 3.0)))
    kappa = draw(st.floats(0.0, 2.0, **finite))
    gamma0 = draw(st.floats(0.0, 2.0, **finite))
    y0 = draw(
        st.lists(st.complex_numbers(max_magnitude=1.0, **finite), min_size=n + 1, max_size=n + 1)
    )
    gaps = draw(st.lists(st.floats(1e-3, 3.0, **finite), min_size=1, max_size=6))
    times = np.cumsum(gaps)  # t_eval with and without t = 0
    if draw(st.booleans()):
        times = np.concatenate([[0.0], times])
    rtol = draw(st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]))
    atol = draw(st.sampled_from([1e-6, 1e-9, 1e-12]))  # atol = 0 at y = 0 hangs SciPy
    return arrow_rhs(det, g, kappa, gamma0), np.array(y0, dtype=complex), times, rtol, atol


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(arrow_systems())
def test_random_arrow_systems_match_scipy_bit_for_bit(system):
    rhs, y0, times, rtol, atol = system
    ours = dop853(rhs, y0, times, rtol, atol)
    assert np.array_equal(ours, scipy_dop853(rhs, y0, times, rtol, atol))


def test_too_small_rtol_is_raised_with_a_warning_as_in_scipy():
    rhs = arrow_rhs(np.array([0.3, -0.2]), np.array([1.0, 0.5]), 0.1, 0.0)
    y0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    times = np.linspace(0.0, 2.0, 5)
    with pytest.warns(UserWarning, match="rtol"):
        ours = dop853(rhs, y0, times, 1e-16, 1e-12)
    with pytest.warns(UserWarning, match="rtol"):
        theirs = scipy_dop853(rhs, y0, times, 1e-16, 1e-12)
    assert np.array_equal(ours, theirs)


def finite_then_nan(n_finite):
    """-y for the first n_finite calls, NaN after them."""
    calls = []

    def rhs(y):
        calls.append(None)
        return -y if len(calls) <= n_finite else np.full_like(y, np.nan)

    return rhs


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_after_the_start_shrinks_the_step_to_underflow():
    """Finite for the start and the initial-step probe, NaN after: every trial
    step is rejected and shrunk by 0.2 until it is below the float spacing,
    where SciPy also gives up."""
    y0 = np.array([1.0, 0.5j])
    times = np.array([0.0, 1.0])
    with pytest.raises(NumericalGuardError, match="step size underflow"):
        dop853(finite_then_nan(2), y0, times, 1e-9, 1e-12)
    rhs = finite_then_nan(2)
    sol = solve_ivp(lambda t, y: rhs(y), (0.0, 1.0), y0, method="DOP853", t_eval=times)
    assert sol.status == -1 and "step size" in sol.message


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_initial_step_is_a_guard():
    """y0 = 0 with atol = 0 scales by zero: the initial step is NaN, and the port
    stops at once where SciPy 1.17.1 keeps stepping by NaN."""
    rhs = arrow_rhs(np.array([0.3]), np.array([1.0]), 0.1, 0.0)
    with pytest.raises(NumericalGuardError, match="step size underflow"):
        dop853(rhs, np.zeros(2, dtype=complex), np.array([0.0, 1.0]), 1e-9, 0.0)
