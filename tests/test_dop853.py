"""The DOP853 port against scipy.integrate.solve_ivp(method="DOP853"): the
same bits on the bundled systems and on small random arrow systems, and the
same step-size failure."""
from __future__ import annotations

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp

from qesr import _dop853
from qesr._dop853 import dop853
from qesr.dynamics import _initial_vector
from qesr.errors import NumericalGuardError

from ode_oracle import _propagate_state


def arrow_rhs(det, g, kappa, gamma0):
    """dX/dt = -i M X in the cavity frame, written as the full-state oracle
    (`ode_oracle._propagate_state`) writes it."""
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
    """The full-state swap (cavity start) and time-domain transfer (pulse
    start) runs on the CLI's time grids."""
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


@pytest.mark.parametrize("initial,periods,n_times", [("cavity", 1.2, 481), ("pulse", 1.5, 601)])
@pytest.mark.parametrize("scen", ["scen_I", "scen_III"])
def test_cavity_row_alone_is_the_same_bits(request, scen, initial, periods, n_times):
    """Interpolating only row 0, as the full-state references do, leaves it
    unchanged (time_domain_propagate keeps only its chains' cavity rows, a
    stepped slice, which `test_selected_rows_are_the_same_bits` covers)."""
    s = request.getfixturevalue(scen)
    x0 = _initial_vector(s.dist, initial, s.env, s.ens.center)
    times = np.linspace(0.0, periods * np.pi / s.dist.g_collective, n_times)
    full = _propagate_state(s.dist, s.cavity, x0, times, s.cfg.ode_rtol, 1e-12)
    row0 = _propagate_state(s.dist, s.cavity, x0, times, s.cfg.ode_rtol, 1e-12, rows=slice(0, 1))
    assert row0.shape == (1, n_times)
    assert np.array_equal(row0, full[:1])


def test_rejected_steps_match_scipy_bit_for_bit():
    """A system whose step controller rejects steps: the retries reuse the
    stage buffer, and the results and the number of rhs calls are SciPy's."""
    rhs = arrow_rhs(np.array([100.0, -100.0]), np.array([1.0, 1.0]), 0.0, 0.0)
    y0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    times = np.linspace(0.0, 5.0, 41)
    rtol, atol = 1e-6, 1e-12
    solver = DOP853(lambda t, y: rhs(y), 0.0, y0, times[-1], rtol=rtol, atol=atol)
    rejected = 0
    while solver.status == "running":
        before = solver.nfev
        solver.step()
        rejected += (solver.nfev - before) // 12 - 1  # 12 rhs calls per attempt
    assert rejected >= 1
    calls = []

    def counted(y):
        calls.append(None)
        return rhs(y)

    ours = dop853(counted, y0, times, rtol, atol)
    sol = solve_ivp(
        lambda t, y: rhs(y), (0.0, times[-1]), y0,
        method="DOP853", t_eval=times, rtol=rtol, atol=atol,
    )
    assert np.array_equal(ours, sol.y)
    assert len(calls) == sol.nfev


def test_tableau_is_read_only():
    """Every run shares the tableau, so a stray out= must not change it."""
    for name in ("_A", "_B", "_E3", "_E5", "_D"):
        coefficients = getattr(_dop853, name)
        assert not coefficients.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            np.multiply(coefficients, 2.0, out=coefficients)


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


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(arrow_systems(), st.data())
def test_selected_rows_are_the_same_bits(system, data):
    rhs, y0, times, rtol, atol = system
    full = dop853(rhs, y0, times, rtol, atol)
    lo = data.draw(st.integers(0, y0.size - 1))
    hi = data.draw(st.integers(lo + 1, y0.size))
    step = data.draw(st.integers(1, y0.size))  # a stepped slice, as the Krylov chains keep
    for rows in (slice(0, 1), slice(lo, hi), slice(lo, hi, step)):
        assert np.array_equal(dop853(rhs, y0, times, rtol, atol, rows=rows), full[rows])


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
