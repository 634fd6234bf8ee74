"""Transfer dynamics: memory kernel, cavity response, pulse constants,
contour inversion vs direct ODE propagation, and the numerical guards."""
from __future__ import annotations

import math
import warnings

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.signal import find_peaks

from qesr.dynamics import (
    MODE_EXACT,
    MODE_NARROW,
    CavityModel,
    InversionSettings,
    PulseEnvelope,
    cavity_amplitude_t1,
    invert_to_time,
    memory_kernel_W,
    pulse_constant_A,
    time_domain_propagate,
    transfer_spectrum_t,
    transfer_sweep,
)
from qesr.dynamics import (
    _auto_window,
    _ContourGrid,
    _exact_weights,
    _grid_controls,
    _initial_vector,
    _node_sums,
    _propagate_state,
    _two_pole_inverse,
)
from qesr.errors import (
    NumericalGuardError,
    PoleCollisionError,
    WindowTooSmallError,
)
from qesr.spin_model import (
    GridSpec,
    SpinDistribution,
    SpinLine,
    build_distribution,
)

TWO_PI = 2.0 * np.pi
W0 = TWO_PI * 2.91e9


def single_line_dist(
    fwhm=TWO_PI * 1.6e6, g=TWO_PI * 2.9e6, n_nodes=4001, span_fwhm=8.0
):
    return build_distribution(
        lines=[SpinLine(center=W0, fwhm=fwhm, weight=1.0)],
        g_collective=g,
        grid=GridSpec(n_nodes=n_nodes, span_fwhm=span_fwhm),
    )


def single_node_dist(g=TWO_PI * 2.9e6):
    """All spectral weight on one node: the exact one-spin limit."""
    return SpinDistribution(
        lines=(SpinLine(center=W0, fwhm=1.0, weight=1.0),),
        g_collective=g,
        omega_nodes=np.array([W0, W0 + 1.0]),
        weights=np.array([1.0, 0.0]),
    )


# ---------------------------------------------------------------------------
# memory kernel W
# ---------------------------------------------------------------------------


def test_kernel_single_term():
    g = TWO_PI * 2.9e6
    dist = single_node_dist(g=g)
    cavity = CavityModel(omega_c=W0, kappa=0.0, gamma0=0.0)
    w = W0 + 0.37 * g
    assert memory_kernel_W(dist, cavity, w) == pytest.approx(
        g * g / (w - W0), rel=1e-12
    )


def test_kernel_continuum_limit():
    # wide span keeps the truncated-tail renormalization below the tolerance;
    # the imaginary offset keeps the probe smooth on the node scale
    fwhm = TWO_PI * 1.6e6
    g = TWO_PI * 2.9e6
    dist = single_line_dist(fwhm=fwhm, g=g, n_nodes=20001, span_fwhm=40.0)
    cavity = CavityModel(omega_c=W0, kappa=0.0, gamma0=0.0)
    eps = fwhm / 20.0
    for off in np.linspace(-fwhm, fwhm, 11):
        zeta = W0 + off + 1j * eps
        oracle = g * g / (zeta - W0 + 0.5j * fwhm)
        got = memory_kernel_W(dist, cavity, zeta)
        assert abs(got - oracle) / abs(oracle) < 0.02


def test_kernel_far_tail():
    fwhm = TWO_PI * 1.6e6
    g = TWO_PI * 2.9e6
    dist = single_line_dist(fwhm=fwhm, g=g, n_nodes=4001, span_fwhm=10.0)
    cavity = CavityModel(omega_c=W0, kappa=0.0, gamma0=0.0)
    w = W0 + 100.0 * fwhm
    assert memory_kernel_W(dist, cavity, w) == pytest.approx(
        g * g / (w - W0), rel=1e-2
    )


def test_kernel_pole_collision():
    dist = single_line_dist(n_nodes=101)
    lossless = CavityModel(omega_c=W0, kappa=0.0, gamma0=0.0)
    node = float(dist.omega_nodes[57])
    with pytest.raises(PoleCollisionError):
        memory_kernel_W(dist, lossless, node)
    # finite gamma0 moves the poles off the real axis
    damped = CavityModel(omega_c=W0, kappa=0.0, gamma0=TWO_PI * 1e3)
    assert np.isfinite(memory_kernel_W(dist, damped, node).real)


# ---------------------------------------------------------------------------
# the contour grid on the node lattice, and its FFT kernel
# ---------------------------------------------------------------------------


def _lattice_case(request, case):
    """(dist, gamma0, eta, d_omega, window) of the contour grid to check, and
    the exact-mode weights alpha_j g_j^2 of a pump at the ensemble centre."""
    scen = request.getfixturevalue("scen_III" if case.startswith("III") else "scen_I")
    dist, cavity = scen.dist, scen.cavity
    if case == "I_gamma0":
        cavity = CavityModel(cavity.omega_c, cavity.kappa, gamma0=TWO_PI * 2e5)
    eta, d_omega = _grid_controls(scen.settings, 90e-9, dist, cavity)
    window = _auto_window(dist, cavity, scen.env.bandwidth_scale, [scen.ens.center])
    if case == "III_fine_step":  # a user-fixed step below the node spacing
        h = (dist.omega_nodes[-1] - dist.omega_nodes[0]) / (dist.n_nodes - 1)
        d_omega = h / 2.7
        window = (scen.ens.center - TWO_PI * 1e7, scen.ens.center + TWO_PI * 1e7)
    extra, _ = _exact_weights(dist, scen.env, scen.ens.center)
    return dist, cavity.gamma0, eta, d_omega, window, extra


@pytest.mark.parametrize("case", ["I", "III", "I_gamma0", "III_fine_step"])
def test_lattice_kernel_matches_references(request, case):
    """W and an exact-mode numerator N from the FFT convolution agree with an
    exact-difference reference, built from the integer lattice offsets, and
    with the dense node sums at the same zeta, to 1e-12 of max|W| (max|N|)."""
    dist, gamma0, eta, d_omega, (lo, hi), extra = _lattice_case(request, case)
    grid = _ContourGrid(dist, gamma0, eta, d_omega, lo, hi)
    if case == "III_fine_step":
        assert grid.q > 1 and grid.step < d_omega
    W, N = grid.sums(extra)
    rows = np.unique(np.r_[0 : W.size : 4, W.size - 1, np.argmax(np.abs(W))])
    j = np.arange(dist.n_nodes)
    ref = np.empty((2, rows.size), dtype=complex)
    for a in range(0, rows.size, 200):
        offsets = grid.positions[rows[a : a + 200], None] - grid.q * j[None, :]
        inv = 1.0 / (grid.delta * offsets + 1j * grid.b)
        ref[:, a : a + 200] = [inv @ dist.couplings_sq, inv @ extra]
    dense = _node_sums(dist, gamma0, grid.zeta[rows], extra=extra)
    for got, exact, direct in zip((W, N), ref, dense):
        scale = float(np.max(np.abs(got)))
        assert float(np.max(np.abs(got[rows] - exact))) <= 1e-12 * scale
        assert float(np.max(np.abs(got[rows] - direct))) <= 1e-12 * scale


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    ratio=st.floats(1e-3, 1e3),
    h=st.floats(1e2, 1e5),
    n_nodes=st.integers(2, 40),
    lo_steps=st.floats(-50.0, 50.0),
    width_steps=st.floats(0.01, 60.0),
)
def test_snapped_grid_sits_on_the_node_lattice(ratio, h, n_nodes, lo_steps, width_steps):
    """The step lies in [3/4 d_omega, d_omega] with the smallest such q; the
    grid covers the requested window, exceeds it by less than a step on each
    side, and every grid point has an integer lattice position."""
    d_omega = ratio * h
    nodes = np.linspace(W0, W0 + (n_nodes - 1) * h, n_nodes)
    dist = SpinDistribution(
        lines=(SpinLine(center=W0, fwhm=h, weight=1.0),), g_collective=1e6,
        omega_nodes=nodes, weights=np.full(n_nodes, 1.0 / n_nodes),
    )
    lo = W0 + lo_steps * d_omega
    hi = lo + width_steps * d_omega
    grid = _ContourGrid(dist, 0.0, 1e5, d_omega, lo, hi)
    m, q, h = grid.m, grid.q, (nodes[-1] - nodes[0]) / (n_nodes - 1)
    assert 0.75 * d_omega <= grid.step <= d_omega
    assert grid.step == m * h / q
    for smaller in range(1, q):
        assert math.floor(d_omega * smaller / h) * h / smaller < 0.75 * d_omega
    omega, ulp = grid.omega, 4.0 * np.spacing(W0)  # grid points are rounded to ~ulp
    assert omega[0] <= lo < omega[0] + grid.step + ulp
    assert omega[-1] - grid.step - ulp < hi <= omega[-1]
    assert np.array_equal(grid.positions, np.round(grid.positions))
    assert np.all(np.diff(grid.positions) == m)
    # the kernel's premise: omega_k - w_j = delta (n_k - q j) up to rounding
    offsets = grid.positions[:, None] - q * np.arange(n_nodes)[None, :]
    assert np.all(np.abs(omega[:, None] - nodes[None, :] - grid.delta * offsets) <= 2 * ulp)


def test_contour_needs_uniform_nodes(scen_I):
    nodes = np.array([W0, W0 + 1e4, W0 + 3e4])
    dist = SpinDistribution(
        lines=(SpinLine(center=W0, fwhm=1e5, weight=1.0),), g_collective=1e6,
        omega_nodes=nodes, weights=np.full(3, 1.0 / 3.0),
    )
    with pytest.raises(ValueError, match="uniformly spaced"):
        _ContourGrid(dist, 0.0, 1e5, 1e3, W0 - 1e5, W0 + 1e5)


@pytest.mark.parametrize("mode", [MODE_NARROW, MODE_EXACT])
def test_contour_route_skips_the_dense_kernel(scen_I, monkeypatch, mode):
    """On a contour, W and N come from the FFT kernel: the dense node sums
    only ever see the 2-point edge probe of transfer_sweep."""
    import qesr.dynamics as dynamics

    seen = []

    def spy(dist, gamma0, zeta, extra=None):
        seen.append(np.size(zeta))
        return dense(dist, gamma0, zeta, extra)

    dense = dynamics._node_sums
    monkeypatch.setattr(dynamics, "_node_sums", spy)
    wps = scen_I.ens.center + TWO_PI * np.array([-2e6, 0.0, 2e6])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        transfer_sweep(scen_I.dist, scen_I.cavity, scen_I.env, wps, 90e-9, mode=mode)
        invert_to_time(
            scen_I.dist, scen_I.cavity, scen_I.env, wps[1], np.linspace(0.0, 2e-7, 21),
            mode=mode,
        )
    assert max(seen, default=0) <= 2


# ---------------------------------------------------------------------------
# cavity response t1
# ---------------------------------------------------------------------------


def test_t1_bare_cavity():
    kappa = W0 / 1e4
    dist = build_distribution(
        lines=[SpinLine(center=W0, fwhm=TWO_PI * 1e6, weight=1.0)],
        g_collective=0.0,
        grid=GridSpec(n_nodes=101),
    )
    cavity = CavityModel(omega_c=W0, kappa=kappa)
    # probe marginally off the node grid; with no coupling W vanishes anyway
    t1 = cavity_amplitude_t1(dist, cavity, W0 + 0.1)
    assert abs(t1) == pytest.approx(2.0 / kappa, rel=1e-12)
    assert t1.real > 0.0 and abs(t1.imag) < 1e-6 * abs(t1)


def test_t1_polariton_splitting_single_line():
    # evaluate just above the real axis so the discrete spin poles are
    # smoothed on the node-spacing scale without shifting the peaks
    g_k = TWO_PI * 2.9e6
    dist = single_line_dist(fwhm=g_k / 10.0, g=g_k, n_nodes=8001, span_fwhm=12.0)
    cavity = CavityModel(omega_c=W0, kappa=W0 / 1e4)
    omega = W0 + np.linspace(-3.0 * g_k, 3.0 * g_k, 6001) + 1j * TWO_PI * 2e4
    mag = np.abs(cavity_amplitude_t1(dist, cavity, omega))
    idx, _ = find_peaks(mag, prominence=0.05 * float(mag.max()))
    assert idx.size == 2
    split = float(omega[idx[1]].real - omega[idx[0]].real)
    assert split == pytest.approx(2.0 * g_k, rel=0.10)


def test_t1_polariton_structure_triplet(scen_I):
    # with three lines spread over the hyperfine splitting the response has
    # four maxima and the outer (tallest) pair sits wider than 2 g_K: the
    # line spread adds to the collective coupling in the normal-mode split
    g_k = scen_I.dist.g_collective
    omega = W0 + np.linspace(-3.0 * g_k, 3.0 * g_k, 6001) + 1j * TWO_PI * 5e4
    mag = np.abs(cavity_amplitude_t1(scen_I.dist, scen_I.cavity, omega))
    idx, _ = find_peaks(mag, prominence=0.05 * float(mag.max()))
    assert idx.size == 4
    tallest = np.sort(idx[np.argsort(mag[idx])[-2:]])
    split = float(omega[tallest[1]].real - omega[tallest[0]].real)
    assert split == pytest.approx(2.483 * g_k, rel=0.02)
    assert split > 2.0 * g_k


def test_t1_overdamped_limit():
    kappa = TWO_PI * 40e6
    dist = single_line_dist(fwhm=TWO_PI * 1.6e6, g=TWO_PI * 0.5e6, n_nodes=2001)
    cavity = CavityModel(omega_c=W0, kappa=kappa)
    assert abs(cavity_amplitude_t1(dist, cavity, W0 + 1j * TWO_PI * 1e5)) == pytest.approx(
        2.0 / kappa, rel=0.05
    )


def test_t1_requires_dissipation():
    dist = single_line_dist(n_nodes=101)
    with pytest.raises(ValueError):
        cavity_amplitude_t1(dist, CavityModel(omega_c=W0, kappa=0.0, gamma0=0.0), W0)


# ---------------------------------------------------------------------------
# pulse spectral constant A
# ---------------------------------------------------------------------------


def test_pulse_constant_lorentzian_closed_form():
    delta = TWO_PI * 1.5e5
    env = PulseEnvelope(shape="lorentzian", fwhm=delta)
    assert pulse_constant_A(env) == pytest.approx(
        math.sqrt(math.pi * delta / 2.0), rel=1e-12
    )


def test_pulse_constant_gaussian_quadrature():
    delta = TWO_PI * 1.5e5
    env = PulseEnvelope(shape="gaussian", fwhm=delta)
    lim = 50.0 * delta
    i1, _ = quad(lambda x: float(env.amplitude(x)), -lim, lim)
    i2, _ = quad(lambda x: float(env.amplitude(x)) ** 2, -lim, lim)
    assert pulse_constant_A(env) == pytest.approx(i1 / math.sqrt(i2), rel=1e-6)


def test_pulse_constant_rectangular_closed_form():
    duration = 1e-5
    env = PulseEnvelope(shape="rectangular", duration=duration)
    # integral of sinc(x T/2) over x is 2 pi / T; of sinc^2 the same, so
    # A = sqrt(2 pi / T)
    assert pulse_constant_A(env) == pytest.approx(
        math.sqrt(2.0 * math.pi / duration), rel=1e-12
    )


@pytest.mark.parametrize("shape", ["lorentzian", "gaussian", "rectangular"])
def test_pulse_constant_sqrt_scaling(shape):
    c = 3.7
    if shape == "rectangular":
        base = PulseEnvelope(shape=shape, duration=1e-5)
        scaled = PulseEnvelope(shape=shape, duration=1e-5 / c)
    else:
        delta = TWO_PI * 1.5e5
        base = PulseEnvelope(shape=shape, fwhm=delta)
        scaled = PulseEnvelope(shape=shape, fwhm=c * delta)
    assert pulse_constant_A(scaled) / pulse_constant_A(base) == pytest.approx(
        math.sqrt(c), rel=1e-12
    )


def test_pulse_envelope_validation():
    with pytest.raises(ValueError):
        PulseEnvelope(shape="triangular", fwhm=1.0)
    with pytest.raises(ValueError):
        PulseEnvelope(shape="lorentzian", fwhm=-1.0)
    with pytest.raises(ValueError):
        PulseEnvelope(shape="rectangular", duration=0.0)
    with pytest.raises(ValueError):
        PulseEnvelope(shape="gaussian", fwhm=1.0, duration=1.0)


def _cauchy_quad(env, u, half_width):
    """integral of alpha(x)/(u - x): adaptive quadrature on [-L, L], plus the
    rectangular pulse's sinc tails |x| > L by the oscillatory (Fourier) rule."""
    f = lambda x: complex(env.amplitude(x)) / (u - x)  # noqa: E731
    lo, hi = -half_width, half_width
    val = quad(f, lo, hi, points=[u.real], limit=2000, complex_func=True,
               epsabs=1e-13, epsrel=1e-11)[0]
    if env.shape == "rectangular":
        k = 0.5 * env.duration  # alpha(x) = sin(k x) / (k x)
        for sign in (1.0, -1.0):  # x = sign * y, y > L; alpha is even
            g = lambda y: 1.0 / (k * y * (u - sign * y))  # noqa: E731
            val += quad(lambda y: g(y).real, hi, np.inf, weight="sin", wvar=k)[0]
            val += 1j * quad(lambda y: g(y).imag, hi, np.inf, weight="sin", wvar=k)[0]
    return val


@pytest.mark.parametrize("shape", ["gaussian", "rectangular"])
def test_pulse_cauchy_matches_quadrature(shape):
    if shape == "rectangular":
        env = PulseEnvelope(shape=shape, duration=1.0)
        half_width = 200.0
    else:
        env = PulseEnvelope(shape=shape, fwhm=2.0)
        half_width = 40.0 * env.bandwidth_scale  # alpha underflows beyond
    scale = env.bandwidth_scale
    for u in (0.3 + 0.5j, -2.0 + 0.1j, 5.0 + 3.0j, 0.05 + 2.0j):
        u = complex(u) * scale
        expected = _cauchy_quad(env, u, half_width)
        assert abs(env.cauchy(u) - expected) < 1e-9 * abs(expected), u


def test_pulse_cauchy_rectangular_small_argument_series():
    """Below |z| = |u T/2| = 1e-6 the rectangular transform switches to its
    series; it must agree with (1 - e^{iz})/z evaluated without cancellation,
    and reach the real-axis boundary value -i pi alpha(0) at u = 0."""
    env = PulseEnvelope(shape="rectangular", duration=2.0)
    for z in (0.0, 3e-7 + 4e-7j, -9.9e-7 + 1e-9j, 1e-6j * 0.999):
        a, b = z.real, z.imag
        # e^{iz} - 1 = expm1(-b) cos a - 2 sin^2(a/2) + i e^{-b} sin a
        em1 = math.expm1(-b) * math.cos(a) - 2.0 * math.sin(0.5 * a) ** 2
        em1 += 1j * math.exp(-b) * math.sin(a)
        expected = -1j * math.pi if z == 0 else -math.pi * em1 / z
        got = env.cauchy(2.0 * z / env.duration)
        assert abs(got - expected) < 1e-12, z


# ---------------------------------------------------------------------------
# spectral transfer function
# ---------------------------------------------------------------------------


def test_transfer_spectrum_narrow_mode_warning():
    dist = single_line_dist(fwhm=TWO_PI * 1.6e6, n_nodes=501)
    cavity = CavityModel(omega_c=W0, kappa=W0 / 1e4)
    env = PulseEnvelope(shape="lorentzian", fwhm=TWO_PI * 1.6e6 / 3.0)
    zeta = np.array([W0 + 1j * cavity.kappa])
    with pytest.warns(UserWarning, match="narrow-pulse"):
        transfer_spectrum_t(dist, cavity, env, W0, zeta, mode=MODE_NARROW)


def test_narrow_guard_matches_documented_regime(scen_I):
    """The bundled 150 kHz pulse is 1/10.7 of the 1.6 MHz lines: outside the
    fwhm/20 regime, so a narrow sweep warns; exactly fwhm/20 does not."""
    wps = scen_I.omegas[::200]
    with pytest.warns(UserWarning, match="narrow-pulse"):
        transfer_sweep(
            scen_I.dist, scen_I.cavity, scen_I.env, wps, 9e-8,
            mode=MODE_NARROW, settings=scen_I.settings,
        )
    fwhm = min(ln.fwhm for ln in scen_I.dist.lines)
    env = PulseEnvelope(shape="lorentzian", fwhm=fwhm / 20.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        transfer_sweep(
            scen_I.dist, scen_I.cavity, env, wps, 9e-8,
            mode=MODE_NARROW, settings=scen_I.settings,
        )


def test_transfer_spectrum_far_off_resonance_suppressed():
    fwhm = TWO_PI * 1.6e6
    dist = single_line_dist(fwhm=fwhm, n_nodes=2001)
    cavity = CavityModel(omega_c=W0, kappa=W0 / 1e4)
    env = PulseEnvelope(shape="lorentzian", fwhm=TWO_PI * 1.5e5)
    zeta = W0 + np.linspace(-20 * fwhm, 20 * fwhm, 2001) + 1j * cavity.kappa
    on = np.max(np.abs(transfer_spectrum_t(dist, cavity, env, W0, zeta)))
    far = np.max(
        np.abs(transfer_spectrum_t(dist, cavity, env, W0 + 1000.0 * fwhm, zeta))
    )
    assert far < 1e-3 * on


def test_transfer_spectrum_sqrt_density_prefactor():
    fwhm = TWO_PI * 1.6e6
    dist = single_line_dist(fwhm=fwhm, n_nodes=2001)
    cavity = CavityModel(omega_c=W0, kappa=W0 / 1e4)
    env = PulseEnvelope(shape="lorentzian", fwhm=TWO_PI * 1.5e5)
    # half-width*sqrt(3) off center quarters the Lorentzian density
    wp_hi = W0
    wp_lo = W0 + 0.5 * fwhm * math.sqrt(3.0)
    # far from the pump the pulse-shape factor tends to 1/(zeta - omega_p),
    # leaving the pure prefactor ratio sqrt(rho_hi / rho_lo) = 2
    zeta = np.array([W0 + 100.0 * fwhm + 1j * fwhm])
    t_hi = transfer_spectrum_t(dist, cavity, env, wp_hi, zeta)[0]
    t_lo = transfer_spectrum_t(dist, cavity, env, wp_lo, zeta)[0]
    ratio = (t_hi * (zeta[0] - wp_hi)) / (t_lo * (zeta[0] - wp_lo))
    assert abs(ratio) == pytest.approx(2.0, rel=1e-3)


# ---------------------------------------------------------------------------
# contour inversion
# ---------------------------------------------------------------------------


def test_inversion_degenerate_two_mode(degenerate_factory):
    g = TWO_PI * 2.9e6
    dist, cavity, env = degenerate_factory(g=g, kappa_ratio=1e-3)
    times = np.linspace(0.0, math.pi / g, 121)
    res = invert_to_time(dist, cavity, env, W0, times, mode=MODE_EXACT)
    ideal = np.abs(np.sin(g * times))
    assert float(np.max(np.abs(np.abs(res.beta) - ideal))) < 0.02
    # sign convention: beta(t) ~ +exp(-i w_c t) sin(g t) at small damping
    i = 30  # t ~ pi/(4 g)
    rotated = res.beta[i] * np.exp(1j * W0 * times[i])
    assert rotated.real > 0.69
    assert abs(rotated.imag) < 0.03


def test_inversion_beta_small_at_t0(scen_I):
    times = np.linspace(0.0, 200e-9, 51)
    res = invert_to_time(
        scen_I.dist, scen_I.cavity, scen_I.env, scen_I.ens.center, times,
        mode=MODE_EXACT, settings=scen_I.settings,
    )
    assert abs(res.beta[0]) < 1e-3


def test_inversion_matches_ode(scen_I):
    times = np.linspace(0.0, 260e-9, 131)
    wp = scen_I.ens.center
    contour = invert_to_time(
        scen_I.dist, scen_I.cavity, scen_I.env, wp, times,
        mode=MODE_EXACT, settings=scen_I.settings,
    ).beta
    ode = time_domain_propagate(
        scen_I.dist, scen_I.cavity, "pulse", times, env=scen_I.env, omega_p=wp
    ).beta
    assert float(np.max(np.abs(np.abs(contour) - np.abs(ode)))) < 1e-3


def test_inversion_narrow_vs_exact_small_bandwidth():
    fwhm = TWO_PI * 1.6e6
    dist = single_line_dist(fwhm=fwhm)
    cavity = CavityModel(omega_c=W0, kappa=W0 / 1e4)
    env = PulseEnvelope(shape="lorentzian", fwhm=fwhm / 20.0)
    times = np.linspace(0.0, 200e-9, 101)
    narrow = invert_to_time(dist, cavity, env, W0, times, mode=MODE_NARROW).beta
    exact = invert_to_time(dist, cavity, env, W0, times, mode=MODE_EXACT).beta
    rel = float(np.max(np.abs(narrow - exact)) / np.max(np.abs(exact)))
    assert rel < 0.02


def test_sweep_narrow_vs_exact_gaussian_small_bandwidth():
    fwhm = TWO_PI * 1.6e6
    dist = single_line_dist(fwhm=fwhm, n_nodes=2001)
    cavity = CavityModel(omega_c=W0, kappa=W0 / 1e4)
    env = PulseEnvelope(shape="gaussian", fwhm=fwhm / 20.0)
    wps = W0 + fwhm * np.array([-1.0, 0.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        narrow = transfer_sweep(dist, cavity, env, wps, 90e-9, mode=MODE_NARROW)
    exact = transfer_sweep(dist, cavity, env, wps, 90e-9, mode=MODE_EXACT)
    rel = float(np.max(np.abs(narrow - exact)) / np.max(np.abs(exact)))
    assert rel < 0.02


def test_two_pole_inverse_double_pole_is_the_limit():
    t = np.linspace(0.0, 5.0, 11)
    p1 = 3.0 - 0.2j
    double = _two_pole_inverse(1.7, p1, p1, t)
    for dp in (1e-6, -1e-6j):
        near = _two_pole_inverse(1.7, p1, p1 + dp, t)
        assert float(np.max(np.abs(double - near))) < 1e-5


def test_inversion_damped_oscillation_first_max_below_one(scen_III):
    times = np.linspace(0.0, 500e-9, 501)
    res = time_domain_propagate(
        scen_III.dist, scen_III.cavity, "pulse", times,
        env=scen_III.env, omega_p=scen_III.ens.center,
    )
    assert abs(res.beta[0]) < 1e-6
    abs2 = np.abs(res.beta) ** 2
    assert float(abs2.max()) <= 1.0 + 1e-6
    idx, _ = find_peaks(abs2, prominence=1e-3)
    assert idx.size >= 2
    assert abs2[idx[0]] < 1.0
    assert abs2[idx[1]] < abs2[idx[0]]  # dark-state damping


@pytest.mark.parametrize(
    "mode, n_pumps", [(MODE_NARROW, 7), (MODE_EXACT, 3)], ids=["narrow", "exact"]
)
def test_sweep_matches_pointwise(scen_I, mode, n_pumps):
    tau = 90e-9
    wps = scen_I.ens.center + TWO_PI * np.linspace(-3e6, 3e6, n_pumps)
    sweep = transfer_sweep(
        scen_I.dist, scen_I.cavity, scen_I.env, wps, tau,
        mode=mode, settings=scen_I.settings,
    )
    singles = np.array(
        [
            invert_to_time(
                scen_I.dist, scen_I.cavity, scen_I.env, w, [tau],
                mode=mode, settings=scen_I.settings,
            ).beta[0]
            for w in wps
        ]
    )
    assert float(np.max(np.abs(sweep - singles))) < 1e-12


# ---------------------------------------------------------------------------
# ODE propagation invariants
# ---------------------------------------------------------------------------


def test_lossless_norm_conserved(scen_I):
    dist = scen_I.dist
    lossless = CavityModel(omega_c=scen_I.ens.center, kappa=0.0, gamma0=0.0)
    times = np.linspace(0.0, 300e-9, 31)
    for initial, env, wp in (
        ("cavity", None, None),
        ("pulse", scen_I.env, scen_I.ens.center),
    ):
        x0 = _initial_vector(dist, initial, env, wp)
        y = _propagate_state(dist, lossless, x0, times, 1e-10, 1e-13)
        norms = np.sum(np.abs(y) ** 2, axis=0)
        assert float(np.max(np.abs(norms - 1.0))) < 1e-8


def test_single_spin_vacuum_rabi():
    g = TWO_PI * 2.9e6
    dist = single_node_dist(g=g)
    cavity = CavityModel(omega_c=W0, kappa=0.0, gamma0=0.0)
    times = np.linspace(0.0, math.pi / g, 181)
    res = time_domain_propagate(dist, cavity, "cavity", times, rtol=1e-10, atol=1e-13)
    pop = np.abs(res.beta) ** 2
    assert float(np.max(np.abs(pop - np.cos(g * times) ** 2))) < 1e-6


def test_overlap_scaling_linear_in_bandwidth():
    fwhm = TWO_PI * 1.6e6
    dist = single_line_dist(fwhm=fwhm)
    cavity = CavityModel(omega_c=W0, kappa=W0 / 1e4)
    times = np.linspace(0.0, 150e-9, 151)

    def peak_abs2(delta):
        env = PulseEnvelope(shape="lorentzian", fwhm=delta)
        res = time_domain_propagate(dist, cavity, "pulse", times, env=env, omega_p=W0)
        return float(np.max(np.abs(res.beta) ** 2))

    ratio = peak_abs2(fwhm / 40.0) / peak_abs2(fwhm / 80.0)
    assert ratio == pytest.approx(2.0, rel=0.05)


def test_no_late_time_growth(scen_I):
    times = np.linspace(0.0, 1e-6, 501)
    res = time_domain_propagate(
        scen_I.dist, scen_I.cavity, "pulse", times,
        env=scen_I.env, omega_p=scen_I.ens.center,
    )
    mag = np.abs(res.beta)
    tail = mag[times > 150e-9]
    idx, _ = find_peaks(tail)
    peaks = tail[idx]
    assert np.all(np.diff(peaks) <= 1e-10)
    slope = np.polyfit(times[times > 150e-9][idx], np.log(peaks + 1e-300), 1)[0]
    assert slope <= 0.0


def test_lossless_self_similarity():
    c = 3.0
    fwhm = TWO_PI * 1.6e6
    g = TWO_PI * 2.9e6
    times = np.linspace(0.0, 200e-9, 101)

    def run(scale, ts):
        dist = build_distribution(
            lines=[SpinLine(center=W0, fwhm=scale * fwhm, weight=1.0)],
            g_collective=scale * g,
            grid=GridSpec(n_nodes=2001),
        )
        cavity = CavityModel(omega_c=W0, kappa=0.0, gamma0=0.0)
        env = PulseEnvelope(shape="lorentzian", fwhm=scale * TWO_PI * 1.5e5)
        return time_domain_propagate(
            dist, cavity, "pulse", ts, env=env, omega_p=W0, rtol=1e-10, atol=1e-13
        ).beta

    base = run(1.0, times)
    scaled = run(c, times / c)
    # identical in the frame rotating at the common carrier frequency
    base_rot = base * np.exp(1j * W0 * times)
    scaled_rot = scaled * np.exp(1j * W0 * times / c)
    assert float(np.max(np.abs(base_rot - scaled_rot))) < 1e-8


# ---------------------------------------------------------------------------
# numerical guards
# ---------------------------------------------------------------------------


def test_window_too_small_raises(scen_I):
    settings = InversionSettings(window=(W0 - TWO_PI * 3e6, W0 + TWO_PI * 3e6))
    with pytest.raises(WindowTooSmallError):
        invert_to_time(
            scen_I.dist, scen_I.cavity, scen_I.env, scen_I.ens.center,
            np.linspace(0.0, 100e-9, 11), mode=MODE_EXACT, settings=settings,
        )
    with pytest.raises(WindowTooSmallError):
        transfer_sweep(
            scen_I.dist, scen_I.cavity, scen_I.env, [scen_I.ens.center], 100e-9,
            mode=MODE_EXACT, settings=settings,
        )


def test_grid_point_guard_raises(scen_I):
    settings = InversionSettings(
        window=(W0 - TWO_PI * 50e6, W0 + TWO_PI * 50e6), d_omega=TWO_PI * 20.0
    )
    with pytest.raises(NumericalGuardError):
        invert_to_time(
            scen_I.dist, scen_I.cavity, scen_I.env, scen_I.ens.center,
            np.linspace(0.0, 100e-9, 11), mode=MODE_EXACT, settings=settings,
        )


def test_time_domain_input_validation(scen_I):
    with pytest.raises(ValueError):
        time_domain_propagate(scen_I.dist, scen_I.cavity, "both", [0.0, 1e-9])
    with pytest.raises(ValueError):
        time_domain_propagate(scen_I.dist, scen_I.cavity, "pulse", [0.0, 1e-9])
    with pytest.raises(ValueError):
        time_domain_propagate(scen_I.dist, scen_I.cavity, "cavity", [1e-9, 0.0])
    with pytest.raises(NumericalGuardError, match="memory budget"):
        time_domain_propagate(
            scen_I.dist, scen_I.cavity, "cavity", [0.0, 1e-9], max_nodes=100
        )


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_time_domain_integrator_failure_is_a_guard():
    """An infinite coupling makes the right-hand side NaN from the start, so the
    first step size is NaN: the step-size guard stops it (SciPy's solve_ivp
    kept stepping by NaN).  tests/test_dop853.py drives the shrink to a real
    underflow."""
    dist = single_line_dist(n_nodes=101)
    object.__setattr__(dist, "g_collective", math.inf)  # past the model's own check
    cavity = CavityModel(omega_c=W0, kappa=W0 / 1e4)
    with pytest.raises(NumericalGuardError, match="step size underflow"):
        time_domain_propagate(dist, cavity, "cavity", [0.0, 1e-9])


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_time_domain_rejects_non_finite_times(scen_I, bad):
    with pytest.raises(ValueError, match="finite"):
        time_domain_propagate(scen_I.dist, scen_I.cavity, "cavity", [0.0, bad])


def test_time_domain_at_t0_only_returns_the_start(scen_I):
    res = time_domain_propagate(scen_I.dist, scen_I.cavity, "cavity", [0.0])
    assert res.beta.tolist() == [1.0]
    res = time_domain_propagate(
        scen_I.dist, scen_I.cavity, "pulse", [0.0, 0.0], env=scen_I.env, omega_p=W0
    )
    assert res.beta.tolist() == [0.0, 0.0]  # the packet starts in the spins


def test_time_domain_accepts_repeated_times(scen_I):
    """Repeated times give repeated values, bit for bit."""
    times = np.array([0.0, 0.0, 2e-8, 2e-8, 2e-8, 5e-8])
    res = time_domain_propagate(scen_I.dist, scen_I.cavity, "cavity", times)
    once = time_domain_propagate(scen_I.dist, scen_I.cavity, "cavity", np.unique(times))
    assert np.array_equal(res.beta, once.beta[[0, 0, 1, 1, 1, 2]])


def test_zero_coupling_gives_zero_beta_on_both_routes():
    dist = single_line_dist(g=0.0, n_nodes=501)
    cavity = CavityModel(omega_c=W0, kappa=W0 / 1e4)
    env = PulseEnvelope(shape="lorentzian", fwhm=TWO_PI * 5e4)
    times = np.linspace(0.0, 1e-7, 11)
    for mode in (MODE_NARROW, MODE_EXACT):
        beta = invert_to_time(dist, cavity, env, W0, times, mode=mode).beta
        assert not np.any(beta), mode
    ode = time_domain_propagate(dist, cavity, "pulse", times, env=env, omega_p=W0)
    assert not np.any(ode.beta)


def test_pulse_without_overlap_is_a_guard():
    dist = single_line_dist(n_nodes=501)
    cavity = CavityModel(omega_c=W0, kappa=W0 / 1e4)
    env = PulseEnvelope(shape="gaussian", fwhm=TWO_PI * 1e4)
    wp = TWO_PI * 3.5e9
    with pytest.raises(NumericalGuardError, match="no overlap") as exc:
        invert_to_time(dist, cavity, env, wp, [0.0, 1e-7], mode=MODE_EXACT)
    assert repr(wp) in str(exc.value)
    with pytest.raises(NumericalGuardError, match="no overlap"):
        time_domain_propagate(dist, cavity, "pulse", [0.0, 1e-7], env=env, omega_p=wp)
