"""Transfer dynamics: memory kernel, cavity response, pulse constants,
contour inversion vs direct ODE propagation, and the numerical guards."""
from __future__ import annotations

import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.signal import find_peaks

from qesr.config import parse_config
from qesr.dynamics import (
    MODE_EXACT,
    MODE_NARROW,
    CavityModel,
    InversionSettings,
    PulseEnvelope,
    TransferResult,
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
    _phase_tables,
    _propagate_state,
    _size_guard,
    _time_sum,
    _two_pole_inverse,
)
from qesr.errors import (
    NumericalGuardError,
    PoleCollisionError,
    WindowTooSmallError,
)
from qesr.protocol import QubitChain, esr_spectrum, excitation_budget, find_swap_time, simulate_swap
from qesr.sensitivity import WeakCouplingScenario, mean_field_trajectory, peak_photon_number
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
    if case == "degenerate":  # 21 nodes at the swap time pi / 2 g_K, as its sweep runs
        dist, cavity, env = request.getfixturevalue("degenerate_factory")()
        eta, d_omega = _grid_controls(InversionSettings(), math.pi / (2.0 * dist.g_collective),
                                      dist, cavity)
        window = _auto_window(dist, cavity, env.bandwidth_scale, [cavity.omega_c])
        extra, _ = _exact_weights(dist, env, cavity.omega_c)
        return dist, cavity.gamma0, eta, d_omega, window, extra
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


@pytest.mark.parametrize("case", ["I", "III", "I_gamma0", "III_fine_step", "degenerate"])
def test_lattice_kernel_matches_references(request, case):
    """W and an exact-mode numerator N from the grid's node sum agree with an
    exact-difference reference, built from the integer lattice offsets, and
    with the dense node sums at the same zeta, to 1e-12 of max|W| (max|N|).
    The bundled grids take the FFT convolution; the 21-node degenerate grid,
    whose n_grid * n_nodes is below the kernel lattice's length, sums the
    nodes directly."""
    dist, gamma0, eta, d_omega, (lo, hi), extra = _lattice_case(request, case)
    grid = _ContourGrid(dist, gamma0, eta, d_omega, lo, hi)
    assert grid.direct == (case == "degenerate")
    if case == "III_fine_step":
        assert grid.q > 1 and grid.step < d_omega
    W, N = grid.W, grid.convolve(extra)
    rows = np.unique(np.r_[0 : W.size : 4, W.size - 1, np.argmax(np.abs(W))])
    j = np.arange(dist.n_nodes)
    ref = np.empty((2, rows.size), dtype=complex)
    for a in range(0, rows.size, 200):
        offsets = grid.positions[rows[a : a + 200], None] - grid.q * j[None, :]
        inv = 1.0 / (grid.delta * offsets + 1j * grid.b)
        ref[:, a : a + 200] = [inv @ dist.couplings_sq, inv @ extra]
    dense = [_node_sums(dist, gamma0, grid.zeta[rows], x) for x in (dist.couplings_sq, extra)]
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
    """On a contour, W and N come from the FFT kernel, the window's edge test
    included: the dense node sums are never called."""
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
    assert seen == []


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


@pytest.mark.parametrize(
    "shape, kwargs, closed_form",
    [
        ("lorentzian", {"fwhm": 3.7e5}, 3.7e5 / 4.0),
        ("gaussian", {"fwhm": 3.7e5}, 3.7e5 / (2.0 * math.sqrt(2.0 * math.log(2.0)))),
        ("rectangular", {"duration": 2.3e-6}, 2.0 / 2.3e-6),
    ],
)
def test_pulse_bandwidth_scale_is_stored_once(shape, kwargs, closed_form):
    """The stored scale equals its closed form bit for bit, is recomputed by
    dataclasses.replace, and takes no part in equality, hashing or repr."""
    env = PulseEnvelope(shape=shape, **kwargs)
    assert env.bandwidth_scale == closed_form
    twin = PulseEnvelope(shape=shape, **kwargs)
    assert env == twin and hash(env) == hash(twin)
    assert "bandwidth_scale" not in repr(env)
    doubled = dataclasses.replace(env, **{k: 2.0 * v for k, v in kwargs.items()})
    assert doubled.bandwidth_scale == closed_form * (0.5 if shape == "rectangular" else 2.0)


def test_transfer_result_freezes_and_writes_its_table(tmp_path):
    beta = np.array([0.3 + 0.4j, -1e-3 + 2.5e-2j, 0.0])
    res = TransferResult(omega_p=W0, times=[0.0, 1e-8, 2e-8], beta=beta, method="contour")
    with pytest.raises(ValueError):
        res.beta[0] = 0.0
    path = tmp_path / "transfer.csv"
    res.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_s,re_beta,im_beta,abs2_beta"
    assert lines[1:] == [",".join(repr(float(v)) for v in (t, b.real, b.imag, abs(b) ** 2))
                         for t, b in zip(res.times, beta)]
    with pytest.raises(ValueError, match="^times and beta must have matching shapes$"):
        TransferResult(omega_p=W0, times=[0.0, 1e-8], beta=beta, method="contour")


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


def test_narrow_mode_warning_names_the_callers_file(scen_I):
    """The warning points at the line that called the public function."""
    wps = scen_I.omegas[::200]
    calls = [
        lambda: transfer_spectrum_t(
            scen_I.dist, scen_I.cavity, scen_I.env, wps[1], W0 + 1e6j, mode=MODE_NARROW
        ),
        lambda: transfer_sweep(
            scen_I.dist, scen_I.cavity, scen_I.env, wps, 9e-8, mode=MODE_NARROW
        ),
        lambda: invert_to_time(
            scen_I.dist, scen_I.cavity, scen_I.env, wps[1], [9e-8], mode=MODE_NARROW
        ),
        lambda: esr_spectrum(
            scen_I.dist, scen_I.cavity, scen_I.env, scen_I.chain, wps, 9e-8, mode=MODE_NARROW
        ),
        lambda: excitation_budget(
            scen_I.dist, scen_I.cavity, scen_I.env, 1.0, wps[1], 9e-8, mode=MODE_NARROW
        ),
    ]
    for call in calls:
        with pytest.warns(UserWarning, match="narrow-pulse") as record:
            call()
        assert [w.filename for w in record] == [__file__]


def _small_swap_system():
    return single_line_dist(n_nodes=11), CavityModel(omega_c=W0, kappa=W0 / 1e4)


_STRONG = dict(coupling=TWO_PI * 100.0, dephasing_rate=TWO_PI * 1e7, kappa=TWO_PI * 1e3,
               n_spins=1e4)
_NARROW_WINDOW = """{"ensembles": [{"name": "demo", "g_collective_hz": 2.9e6,
    "lines": [{"center_hz": 2.91e9, "fwhm_hz": 1.6e6}],
    "grid": {"n_nodes": 101, "window_hz": [2.907e9, 2.913e9]}}]}"""
_WARNING_SITES = {
    "simulate_swap": (
        "rtol",
        lambda: simulate_swap(
            *_small_swap_system(), QubitChain(), np.linspace(0.0, 2e-7, 41), rtol=1e-18
        ),
    ),
    "simulate_swap zero coupling": (
        "coupling is zero",
        lambda: simulate_swap(
            single_node_dist(g=0.0), CavityModel(omega_c=W0, kappa=0.0), QubitChain(),
            np.linspace(0.0, 2e-7, 5),
        ),
    ),
    "find_swap_time": ("rtol", lambda: find_swap_time(*_small_swap_system(), rtol=1e-18)),
    "check_validity": ("back-action", lambda: WeakCouplingScenario(**_STRONG).check_validity()),
    "mean_field_trajectory": (
        "back-action",
        lambda: mean_field_trajectory(WeakCouplingScenario(**_STRONG), [0.0, 1e-7]),
    ),
    "peak_photon_number": (
        "back-action", lambda: peak_photon_number(WeakCouplingScenario(**_STRONG))
    ),
    "build_distribution": (
        "covers less than",
        lambda: single_line_dist(n_nodes=101, span_fwhm=2.0),
    ),
    "RunConfig.catalog": ("covers less than", lambda: parse_config(_NARROW_WINDOW).catalog()),
}


@pytest.mark.parametrize("match, call", _WARNING_SITES.values(), ids=_WARNING_SITES.keys())
def test_every_warning_names_the_callers_file(match, call):
    """Each warning points at this file, however deep in qesr it is raised."""
    with pytest.warns(UserWarning, match=match) as record:
        call()
    assert [w.filename for w in record] == [__file__] * len(record)


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


def longdouble_time_sum(z, step, times):
    """sum_k z_k e^{-i t (k - c) step}, c = (n - 1) // 2, with cos and sin of
    np.longdouble phases over the integer lattice offsets k - c."""
    offsets = (np.arange(z.size) - (z.size - 1) // 2).astype(np.longdouble)
    zr, zi = z.real.astype(np.longdouble), z.imag.astype(np.longdouble)
    out = np.empty(times.size, dtype=complex)
    for a in range(0, times.size, 32):
        phase = times[a : a + 32, None].astype(np.longdouble) * np.longdouble(step) * offsets
        c, s = np.cos(phase), np.sin(phase)
        out[a : a + 32] = (c * zr + s * zi).sum(axis=1) + 1j * (c * zi - s * zr).sum(axis=1)
    return out


def factored_time_sum(z, step, times):
    baby, giant = _phase_tables(z.size, step, times)
    padded = np.zeros(baby.shape[1] * giant.shape[1], dtype=complex)
    padded[: z.size] = z
    return _time_sum(padded, baby, giant)


@pytest.fixture(scope="module")
def exact_integrands(scen_I, scen_III):
    """Per bundled config: the integrand z (R, its end points halved) and grid
    step of the CLI's exact-mode `transfer` (601 times to 1.5 pi / g_K),
    recorded from its inversion, those times, the oracle's time sum over them
    and its peak."""
    import qesr.dynamics as dynamics

    out = {}
    for name, scen in (("I", scen_I), ("III", scen_III)):
        seen = {}

        def tables(n, step, times, seen=seen):
            seen["n"], seen["step"] = n, step
            return _phase_tables(n, step, times)

        def time_sum(z, baby, giant, seen=seen):
            seen["z"] = z.copy()
            return _time_sum(z, baby, giant)

        times = np.linspace(0.0, 1.5 * np.pi / scen.dist.g_collective, 601)
        with mock.patch.object(dynamics, "_phase_tables", tables), \
                mock.patch.object(dynamics, "_time_sum", time_sum):
            invert_to_time(
                scen.dist, scen.cavity, scen.env, scen.ens.center, times,
                mode=MODE_EXACT, settings=scen.settings,
            )
        z = seen["z"][: seen["n"]]
        oracle = longdouble_time_sum(z, seen["step"], times)
        out[name] = z, seen["step"], times, oracle, float(np.max(np.abs(oracle)))
    return out


@pytest.mark.parametrize("name", ["I", "III"])
def test_factored_time_sum_matches_a_longdouble_oracle(exact_integrands, name):
    """On the bundled exact-mode grids at the CLI's 601 times the baby-step /
    giant-step sum agrees with the extended-precision sum to 1e-14 of its
    peak; phases from uncentred offsets would miss this by ~10x."""
    z, step, times, oracle, peak = exact_integrands[name]
    got = factored_time_sum(z, step, times)
    assert float(np.max(np.abs(got - oracle))) <= 1e-14 * peak


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    name=st.sampled_from(["I", "III"]),
    fractions=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=10),
    repeats=st.integers(0, 4),
)
def test_factored_time_sum_takes_any_times(exact_integrands, name, fractions, repeats):
    """Unsorted, non-uniform, repeated and zero times: still 1e-14 of the peak."""
    z, step, times, _, peak = exact_integrands[name]
    t = times[-1] * np.array(fractions + fractions[:repeats])
    got = factored_time_sum(z, step, t)
    assert float(np.max(np.abs(got - longdouble_time_sum(z, step, t)))) <= 1e-14 * peak


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


@pytest.mark.parametrize("mode", [MODE_NARROW, MODE_EXACT])
def test_sweep_takes_a_scalar_pump(scen_I, mode):
    s = scen_I
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scalar = transfer_sweep(s.dist, s.cavity, s.env, s.ens.center, 90e-9, mode=mode)
        listed = transfer_sweep(s.dist, s.cavity, s.env, [s.ens.center], 90e-9, mode=mode)
    assert scalar.shape == (1,)
    assert np.array_equal(scalar, listed)


def test_sweep_matches_pointwise_on_the_degenerate_system(degenerate_factory):
    """Both entry points test the window by one rule, so a point the sweep
    accepts inverts pointwise too, and both match the ODE route at the
    swap time pi / 2 g_K."""
    dist, cavity, env = degenerate_factory()
    tau = math.pi / (2.0 * dist.g_collective)
    wp = cavity.omega_c
    sweep = transfer_sweep(dist, cavity, env, [wp], tau, mode=MODE_EXACT)[0]
    single = invert_to_time(dist, cavity, env, wp, [tau], mode=MODE_EXACT).beta[0]
    assert abs(sweep - single) < 1e-12
    ode = time_domain_propagate(dist, cavity, "pulse", [0.0, tau], env=env, omega_p=wp)
    assert abs(abs(single) ** 2 - abs(ode.beta[-1]) ** 2) < 1e-3


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


@pytest.mark.parametrize("pumps", [[], [math.nan], [W0, math.nan]])
def test_contour_rejects_empty_or_nan_pumps(scen_I, monkeypatch, pumps):
    """Empty or NaN pumps are refused by name before any grid is built; no
    window growth or grid guard gets to see them."""
    import qesr.dynamics as dynamics

    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(dynamics, "_ContourGrid", no_grid)
    with pytest.raises(ValueError, match="omega_ps must be non-empty and free of NaN"):
        transfer_sweep(scen_I.dist, scen_I.cavity, scen_I.env, pumps, 90e-9)
    if len(pumps) == 1:
        with pytest.raises(ValueError, match="omega_ps"):
            invert_to_time(
                scen_I.dist, scen_I.cavity, scen_I.env, pumps[0], np.linspace(0.0, 1e-7, 11)
            )


@pytest.mark.parametrize("mode", [MODE_NARROW, MODE_EXACT])
@pytest.mark.parametrize("edge_ratio, n_grids", [(None, 1), (1e-7, 3)])
def test_each_pump_is_evaluated_once_per_final_grid(scen_I, monkeypatch, mode, edge_ratio, n_grids):
    """One pass over the pumps per grid: the final grid evaluates every pump
    once, for every chunk of times, and a failed grid only its outermost
    pumps until one fails the edge rule."""
    import qesr.dynamics as dynamics

    grids, calls = [], []
    pump_transfer, contour_grid = dynamics._pump_transfer, dynamics._ContourGrid

    def spy_pump(*args, **kwargs):
        calls.append((len(grids), args[3]))
        return pump_transfer(*args, **kwargs)

    def spy_grid(*args):
        grids.append(contour_grid(*args))
        return grids[-1]

    monkeypatch.setattr(dynamics, "_pump_transfer", spy_pump)
    monkeypatch.setattr(dynamics, "_ContourGrid", spy_grid)
    settings = scen_I.settings if edge_ratio is None else InversionSettings(edge_ratio=edge_ratio)
    wps = scen_I.ens.center + TWO_PI * np.array([0.0, -2e6, 2e6])
    times = np.linspace(0.0, 1.5 * np.pi / scen_I.dist.g_collective, 20001)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        transfer_sweep(scen_I.dist, scen_I.cavity, scen_I.env, wps, 90e-9, mode, settings)
        assert len(grids) == n_grids
        # each failed grid stops at the lowest pump, tested first
        assert calls == [(k, wps[1]) for k in range(1, n_grids)] + [
            (n_grids, wp) for wp in (wps[1], wps[2], wps[0])
        ]
        grids.clear()
        calls.clear()
        invert_to_time(scen_I.dist, scen_I.cavity, scen_I.env, wps[0], times, mode, settings)
    assert len(grids) == n_grids
    assert calls == [(k, wps[0]) for k in range(1, n_grids + 1)]


def test_grid_point_guard_raises(scen_I):
    settings = InversionSettings(
        window=(W0 - TWO_PI * 50e6, W0 + TWO_PI * 50e6), d_omega=TWO_PI * 20.0
    )
    with pytest.raises(NumericalGuardError):
        invert_to_time(
            scen_I.dist, scen_I.cavity, scen_I.env, scen_I.ens.center,
            np.linspace(0.0, 100e-9, 11), mode=MODE_EXACT, settings=settings,
        )


def test_size_guard_prints_counts_beyond_the_float_range():
    for n, count in ((10**400 + 1, "1.000e+400"), (12345, "1.234e+4"), (math.inf, "inf")):
        assert f"would need {count} points" in str(_size_guard("grid", n, 0.0, 1.0, 0.5))


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


def test_too_small_rtol_warns_at_the_caller_with_a_plain_float():
    dist = single_line_dist(n_nodes=11)
    cavity = CavityModel(omega_c=W0, kappa=W0 / 1e4)
    with pytest.warns(UserWarning, match="rtol") as record:
        time_domain_propagate(dist, cavity, "cavity", [0.0, 1e-9], rtol=1e-18)
    assert [w.filename for w in record] == [__file__]
    assert str(record[0].message) == "rtol = 1e-18 is too small; using 2.220446049250313e-14"


def traced_peak_mib(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_time_domain_trace_memory_is_bounded(scen_I):
    """Only the cavity row is interpolated, so 2,001 times stay far below the
    160 MB that the full state takes."""
    times = np.linspace(0.0, 1.5 * np.pi / scen_I.dist.g_collective, 2001)
    peak = traced_peak_mib(lambda: time_domain_propagate(
        scen_I.dist, scen_I.cavity, "pulse", times, env=scen_I.env, omega_p=scen_I.ens.center,
    ))
    assert peak < 16.0


def test_contour_trace_memory_is_bounded(scen_I):
    """The phase tables are built a chunk of times at a time: 20,001 times fit
    under the cap that the unchunked tables would exceed."""
    times = np.linspace(0.0, 1.5 * np.pi / scen_I.dist.g_collective, 20001)
    peak = traced_peak_mib(lambda: invert_to_time(
        scen_I.dist, scen_I.cavity, scen_I.env, scen_I.ens.center, times,
        mode=MODE_EXACT, settings=scen_I.settings,
    ))
    assert peak < 16.0


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
