"""Transfer dynamics: memory kernel, cavity response, pulse constants,
contour inversion vs direct ODE propagation, and the numerical guards."""
from __future__ import annotations

import dataclasses
import math
import re
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

from qesr._dop853 import dop853
from qesr.cli import main as cli_main
from qesr.config import parse_config
from qesr.dynamics import (
    MODE_EXACT,
    MODE_NARROW,
    CavityModel,
    InversionSettings,
    PulseEnvelope,
    TransferResult,
    invert_to_time,
    memory_kernel_W,
    pulse_constant_A,
    time_domain_propagate,
    transfer_sweep,
)
from qesr.dynamics import (
    _auto_window,
    _ContourGrid,
    _FarField,
    _grid_controls,
    _initial_vector,
    _phase_tables,
    _pole_sums,
    _pump_far,
    _pump_transfer,
    _pump_weights,
    _size_guard,
    _t1,
    _time_sum,
    _two_mode_far,
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

from conftest import bundled_config_path
from ode_oracle import _propagate_state

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
    # finite gamma0 moves the poles off the real axis, to w_j - i gamma0/2
    damped = CavityModel(omega_c=W0, kappa=0.0, gamma0=TWO_PI * 1e3)
    assert np.isfinite(memory_kernel_W(dist, damped, node).real)
    with pytest.raises(PoleCollisionError, match=r"pole w_j - i gamma_0/2"):
        memory_kernel_W(dist, damped, node - 0.5j * damped.gamma0)


@pytest.mark.parametrize("gamma0", [0.0, TWO_PI * 2e5])
def test_dense_node_sums_match_complex_division(scen_III, gamma0):
    """The dense node sums (`_pole_sums` with nodes and points swapped: omega_k
    = -w_j, w_p = -Re zeta, b_p = Im zeta + gamma0/2) agree with a
    complex-division reference to 1e-14 of their peak, for zeta above the
    real axis, below it and, with gamma0 > 0, on it; `memory_kernel_W` is
    that sum of g_j^2, and at gamma0 = 0, W(zeta*) = W(zeta)* exactly."""
    dist = scen_III.dist
    nodes = dist.omega_nodes
    alpha, _, _ = _pump_weights(dist, scen_III.env, np.array([nodes[nodes.size // 3]]))
    cavity = CavityModel(scen_III.cavity.omega_c, scen_III.cavity.kappa, gamma0=gamma0)
    margin = 0.1 * (nodes[-1] - nodes[0])
    omega = np.linspace(nodes[0] - margin, nodes[-1] + margin, 301) + 0.37  # off the nodes
    for offset in [TWO_PI * 1e5, -TWO_PI * 1e5] + ([0.0] if gamma0 > 0 else []):
        zeta = omega + 1j * offset
        b = zeta.imag + 0.5 * gamma0
        for weights in (dist.couplings_sq, alpha[0] * dist.couplings_sq):
            want = np.concatenate([
                (1.0 / (zeta[a : a + 50, None] - nodes + 0.5j * gamma0)) @ weights
                for a in range(0, zeta.size, 50)
            ])
            got = _pole_sums(-nodes, b, -zeta.real, weights)
            assert float(np.max(np.abs(got - want))) <= 1e-14 * float(np.max(np.abs(want)))
        W = memory_kernel_W(dist, cavity, zeta)
        assert np.array_equal(W, _pole_sums(-nodes, b, -zeta.real, dist.couplings_sq))
        if gamma0 == 0.0:
            assert np.array_equal(memory_kernel_W(dist, cavity, zeta.conj()), W.conj())


# ---------------------------------------------------------------------------
# the contour grid on the node lattice, and its FFT kernel
# ---------------------------------------------------------------------------


def _lattice_case(request, case):
    """(dist, gamma0, eta, d_omega, window) of the contour grid to check, and
    the exact-mode weights alpha_j g_j^2 of a pump at the ensemble centre."""
    if case.startswith("degenerate"):  # 21 nodes at the swap time pi / 2 g_K, as its sweep runs
        dist, cavity, env = request.getfixturevalue("degenerate_factory")()
        if case == "degenerate_gamma0":
            cavity = CavityModel(cavity.omega_c, cavity.kappa, gamma0=1e-3 * dist.g_collective)
        eta, d_omega = _grid_controls(InversionSettings(), math.pi / (2.0 * dist.g_collective))
        window = _auto_window(dist, cavity, env.bandwidth_scale, [cavity.omega_c])
        alpha, _, _ = _pump_weights(dist, env, np.array([cavity.omega_c]))
        return dist, cavity.gamma0, eta, d_omega, window, alpha[0] * dist.couplings_sq
    scen = request.getfixturevalue("scen_III" if case.startswith("III") else "scen_I")
    dist, cavity = scen.dist, scen.cavity
    if case == "I_gamma0":
        cavity = CavityModel(cavity.omega_c, cavity.kappa, gamma0=TWO_PI * 2e5)
    eta, d_omega = _grid_controls(scen.settings, 90e-9)
    window = _auto_window(dist, cavity, scen.env.bandwidth_scale, [scen.ens.center])
    if case == "III_fine_step":  # a user-fixed step below the node spacing
        h = (dist.omega_nodes[-1] - dist.omega_nodes[0]) / (dist.n_nodes - 1)
        d_omega = h / 2.7
        window = (scen.ens.center - TWO_PI * 1e7, scen.ens.center + TWO_PI * 1e7)
    alpha, _, _ = _pump_weights(dist, scen.env, np.array([scen.ens.center]))
    return dist, cavity.gamma0, eta, d_omega, window, alpha[0] * dist.couplings_sq


@pytest.mark.parametrize(
    "case", ["I", "III", "I_gamma0", "III_fine_step", "degenerate", "degenerate_gamma0"]
)
def test_lattice_kernel_matches_references(request, case):
    """W and an exact-mode numerator N from the grid's node sum agree with an
    exact-difference reference, built from the integer lattice offsets, and
    with the dense node sums at the same zeta, to 1e-12 of max|W| (max|N|);
    so does the transposed product `correlate` with its reference.  The
    bundled grids take the FFT convolution and correlation; the 21-node
    degenerate grids, whose n_grid * n_nodes is below the kernel lattice's
    length, sum the nodes directly, by `_pole_sums`, with and without
    gamma0."""
    dist, gamma0, eta, d_omega, (lo, hi), extra = _lattice_case(request, case)
    grid = _ContourGrid(dist, gamma0, eta, d_omega, lo, hi)
    assert grid.direct == case.startswith("degenerate")
    if case == "III_fine_step":
        assert grid.q > 1 and grid.step < d_omega
    W, N = grid.convolve(dist.couplings_sq), grid.convolve(extra)
    rows = np.unique(np.r_[0 : W.size : 4, W.size - 1, np.argmax(np.abs(W))])
    j = np.arange(dist.n_nodes)
    ref = np.empty((2, rows.size), dtype=complex)
    for a in range(0, rows.size, 200):
        offsets = grid.positions[rows[a : a + 200], None] - grid.q * j[None, :]
        inv = 1.0 / (grid.delta * offsets + 1j * grid.b)
        ref[:, a : a + 200] = [inv @ dist.couplings_sq, inv @ extra]
    zeta = grid.zeta[rows]
    dense = [
        _pole_sums(-dist.omega_nodes, zeta.imag + 0.5 * gamma0, -zeta.real, x)
        for x in (dist.couplings_sq, extra)
    ]
    for got, exact, direct in zip((W, N), ref, dense):
        scale = float(np.max(np.abs(got)))
        assert float(np.max(np.abs(got[rows] - exact))) <= 1e-12 * scale
        assert float(np.max(np.abs(got[rows] - direct))) <= 1e-12 * scale
    # the transposed product of an oscillating row, like the sweep's phase row,
    # to 1e-12 of the largest sum of term magnitudes (its terms cancel)
    values = W * np.exp(-0.3j * np.arange(W.size))
    u = grid.correlate(values)
    nodes = np.unique(np.r_[0 : dist.n_nodes : 4, dist.n_nodes - 1])
    want, size = np.empty((2, nodes.size), dtype=complex)
    for a in range(0, nodes.size, 200):
        offsets = grid.positions[:, None] - grid.q * nodes[None, a : a + 200]
        inv = 1.0 / (grid.delta * offsets + 1j * grid.b)
        want[a : a + 200], size[a : a + 200] = values @ inv, np.abs(values) @ np.abs(inv)
    assert float(np.max(np.abs(u[nodes] - want))) <= 1e-12 * float(np.max(size.real))


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
    """On a contour, W, N and the sweep's transposed product come from the FFT
    kernel: `memory_kernel_W` is never called, and the only dense node sums
    (`_pole_sums` over the nodes) are the exact-mode edge tests, at the
    window's two end points, once for each outermost pump of a sweep and once
    for a trace's one pump.  The swap calibration reads its cavity start's
    window ends off the grid's t1 and adds none."""
    import qesr.dynamics as dynamics

    def never(*args, **kwargs):
        raise AssertionError("the contour route called the dense memory_kernel_W")

    seen = []

    def spy(omega, b, points, y):
        if np.array_equal(omega, -scen_I.dist.omega_nodes):
            seen.append(np.size(points))
        return pole_sums(omega, b, points, y)

    pole_sums = dynamics._pole_sums
    monkeypatch.setattr(dynamics, "memory_kernel_W", never)
    monkeypatch.setattr(dynamics, "_pole_sums", spy)
    wps = scen_I.ens.center + TWO_PI * np.array([-2e6, 0.0, 2e6])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        transfer_sweep(scen_I.dist, scen_I.cavity, scen_I.env, wps, 90e-9, mode=mode)
        invert_to_time(
            scen_I.dist, scen_I.cavity, scen_I.env, wps[1], np.linspace(0.0, 2e-7, 21),
            mode=mode,
        )
    find_swap_time(scen_I.dist, scen_I.cavity)
    assert seen == ([2, 2, 2] if mode == MODE_EXACT else [])


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
    omega = W0 + 0.1
    t1 = _t1(cavity, omega, memory_kernel_W(dist, cavity, omega))
    assert abs(t1) == pytest.approx(2.0 / kappa, rel=1e-12)
    assert t1.real > 0.0 and abs(t1.imag) < 1e-6 * abs(t1)


def test_t1_polariton_splitting_single_line():
    # evaluate just above the real axis so the discrete spin poles are
    # smoothed on the node-spacing scale without shifting the peaks
    g_k = TWO_PI * 2.9e6
    dist = single_line_dist(fwhm=g_k / 10.0, g=g_k, n_nodes=8001, span_fwhm=12.0)
    cavity = CavityModel(omega_c=W0, kappa=W0 / 1e4)
    omega = W0 + np.linspace(-3.0 * g_k, 3.0 * g_k, 6001) + 1j * TWO_PI * 2e4
    mag = np.abs(_t1(cavity, omega, memory_kernel_W(dist, cavity, omega)))
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
    mag = np.abs(_t1(scen_I.cavity, omega, memory_kernel_W(scen_I.dist, scen_I.cavity, omega)))
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
    omega = W0 + 1j * TWO_PI * 1e5
    t1 = _t1(cavity, omega, memory_kernel_W(dist, cavity, omega))
    assert abs(t1) == pytest.approx(2.0 / kappa, rel=0.05)


def test_t1_of_a_lossless_system_collides_only_on_a_node():
    dist = single_line_dist(n_nodes=101)
    lossless = CavityModel(omega_c=W0, kappa=0.0, gamma0=0.0)
    nodes = dist.omega_nodes
    node = float(nodes[57])
    with pytest.raises(PoleCollisionError):
        _t1(lossless, node, memory_kernel_W(dist, lossless, node))
    # between two nodes, or off the real axis, t1 is finite
    for omega in (0.5 * float(nodes[57] + nodes[58]), float(nodes[57]) + 1j * TWO_PI * 1e3):
        assert np.isfinite(_t1(lossless, omega, memory_kernel_W(dist, lossless, omega)))


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


def _pulse_norms(shape, scale, duration):
    """(norm_l1, norm_l2_sq): the closed forms of the integrals of alpha and alpha^2."""
    if shape == "lorentzian":
        return math.pi * scale, math.pi * scale / 2.0
    if shape == "gaussian":
        return scale * math.sqrt(2.0 * math.pi), scale * math.sqrt(math.pi)
    return 2.0 * math.pi / duration, 2.0 * math.pi / duration


@pytest.mark.parametrize(
    "shape, kwargs, closed_form",
    [
        ("lorentzian", {"fwhm": 3.7e5}, 3.7e5 / 4.0),
        ("gaussian", {"fwhm": 3.7e5}, 3.7e5 / (2.0 * math.sqrt(2.0 * math.log(2.0)))),
        ("rectangular", {"duration": 2.3e-6}, 2.0 / 2.3e-6),
    ],
)
def test_pulse_bandwidth_scale_is_stored_once(shape, kwargs, closed_form):
    """The stored scale and both norms equal their closed forms bit for bit,
    are recomputed by dataclasses.replace, and take no part in equality,
    hashing or repr."""
    env = PulseEnvelope(shape=shape, **kwargs)
    assert env.bandwidth_scale == closed_form
    assert (env.norm_l1, env.norm_l2_sq) == _pulse_norms(shape, closed_form, env.duration)
    twin = PulseEnvelope(shape=shape, **kwargs)
    assert env == twin and hash(env) == hash(twin)
    for name in ("bandwidth_scale", "norm_l1", "norm_l2_sq"):
        assert name not in repr(env)
    doubled = dataclasses.replace(env, **{k: 2.0 * v for k, v in kwargs.items()})
    scale = closed_form * (0.5 if shape == "rectangular" else 2.0)
    assert doubled.bandwidth_scale == scale
    assert (doubled.norm_l1, doubled.norm_l2_sq) == _pulse_norms(shape, scale, doubled.duration)


def test_transfer_result_freezes_and_writes_its_table(tmp_path):
    beta = np.array([0.3 + 0.4j, -1e-3 + 2.5e-2j, 0.0])
    res = TransferResult(omega_p=W0, times=[0.0, 1e-8, 2e-8], beta=beta, method="contour")
    with pytest.raises(ValueError):
        res.beta[0] = 0.0
    path = tmp_path / "transfer.csv"
    res.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_s,re_beta,im_beta,abs2_beta"
    # the abs2_beta column is the abs2 property, bit for bit
    assert lines[1:] == [",".join(repr(float(v)) for v in row)
                         for row in zip(res.times, beta.real, beta.imag, res.abs2)]
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


@pytest.mark.parametrize(
    "kwargs",
    [
        {"shape": "lorentzian", "fwhm": math.inf},
        {"shape": "gaussian", "fwhm": math.inf},
        {"shape": "rectangular", "duration": math.inf},
    ],
    ids=["lorentzian", "gaussian", "rectangular"],
)
def test_pulse_envelope_rejects_infinite_scales(kwargs):
    """An infinite width or duration is refused when the pulse is built,
    not blamed later on the spectral grid."""
    with pytest.raises(ValueError, match="pulse requires a finite"):
        PulseEnvelope(**kwargs)


def test_lorentzian_pulse_whose_scale_square_overflows_rejected():
    """amplitude forms s^2 / (x^2 + s^2) with s = fwhm/4; an s^2 of inf would
    make every weight NaN.  The largest scale whose square is finite passes,
    and a gaussian, which never squares its scale, takes any finite width."""
    with pytest.raises(ValueError, match=r"fwhm = 1e\+300 rad/s: \(fwhm/4\)\^2 overflows"):
        PulseEnvelope(shape="lorentzian", fwhm=1e300)
    edge = 4.0 * math.sqrt(np.finfo(float).max)
    assert np.isfinite(PulseEnvelope(shape="lorentzian", fwhm=edge).amplitude(0.0))
    assert PulseEnvelope(shape="gaussian", fwhm=1e300).amplitude(0.0) == 1.0


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


def test_narrow_mode_warning_names_the_callers_file(scen_I):
    """The warning points at the line that called the public function."""
    wps = scen_I.omegas[::200]
    calls = [
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
    t1 = _t1(cavity, zeta, memory_kernel_W(dist, cavity, zeta))
    # narrow-pulse mode takes no node sum, so it gets no numerator
    on, _ = _pump_transfer(dist, cavity, env, W0, zeta, MODE_NARROW, t1, None)
    far, _ = _pump_transfer(dist, cavity, env, W0 + 1000.0 * fwhm, zeta, MODE_NARROW, t1, None)
    assert np.max(np.abs(far)) < 1e-3 * np.max(np.abs(on))


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
    t1 = _t1(cavity, zeta, memory_kernel_W(dist, cavity, zeta))
    t_hi = _pump_transfer(dist, cavity, env, wp_hi, zeta, MODE_NARROW, t1, None)[0][0]
    t_lo = _pump_transfer(dist, cavity, env, wp_lo, zeta, MODE_NARROW, t1, None)[0][0]
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


@pytest.mark.parametrize("name", ["I", "III"])
def test_exact_trace_meets_a_tight_ode_run(request, name):
    """The exact-mode centre-pump trace (121 times to 1.5 pi / g_K) on the
    default grid lies within 1e-5 of max|beta| of an rtol-1e-12 ODE run: the
    two-mode far field leaves 6.6e-6 (I) and 4.6e-6 (III), where the
    cavity-only far field c2/((zeta - p1)(zeta - p2)) left 3.1e-5 and 2.7e-5."""
    scen = request.getfixturevalue(f"scen_{name}")
    times = np.linspace(0.0, 1.5 * np.pi / scen.dist.g_collective, 121)
    wp = scen.ens.center
    contour = invert_to_time(
        scen.dist, scen.cavity, scen.env, wp, times, mode=MODE_EXACT, settings=scen.settings,
    ).beta
    ode = time_domain_propagate(
        scen.dist, scen.cavity, "pulse", times, env=scen.env, omega_p=wp, rtol=1e-12, atol=1e-15,
    ).beta
    assert float(np.max(np.abs(contour - ode))) <= 1e-5 * float(np.max(np.abs(ode)))


@pytest.mark.parametrize("name", ["I", "III"])
def test_exact_sweep_meets_a_tight_ode_run(request, name):
    """The CLI's exact-mode 401-pump sweep at the calibrated swap time, at 17
    sampled pumps, lies within 2e-6 of max|beta| of rtol-1e-12 ODE runs
    (2.6e-7 on I and 6.6e-7 on III; 4.3e-6 and 2.7e-6 with the cavity-only
    far field)."""
    scen = request.getfixturevalue(f"scen_{name}")
    tau = request.getfixturevalue(f"swap_cal_{name}").tau_swap
    sweep = transfer_sweep(scen.dist, scen.cavity, scen.env, scen.omegas, tau, MODE_EXACT,
                           scen.settings)
    picked = np.linspace(0, scen.omegas.size - 1, 17).astype(int)
    ode = np.array([
        time_domain_propagate(scen.dist, scen.cavity, "pulse", [0.0, tau], env=scen.env,
                              omega_p=scen.omegas[i], rtol=1e-12, atol=1e-15).beta[-1]
        for i in picked
    ])
    assert float(np.max(np.abs(sweep[picked] - ode))) <= 2e-6 * float(np.max(np.abs(sweep)))


def test_inversion_of_a_lossless_system_matches_ode(scen_I):
    """The contour stays above every pole without losses too: with kappa =
    gamma0 = 0 the exact-mode trace meets the ODE within criterion 1's 1e-3
    (7.7e-6 on paper_plus_I)."""
    times = np.linspace(0.0, 260e-9, 131)
    wp = scen_I.ens.center
    lossless = CavityModel(omega_c=scen_I.cavity.omega_c, kappa=0.0)
    contour = invert_to_time(scen_I.dist, lossless, scen_I.env, wp, times, mode=MODE_EXACT).beta
    ode = time_domain_propagate(
        scen_I.dist, lossless, "pulse", times, env=scen_I.env, omega_p=wp
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


_A, _B = 3.0 - 0.2j, 1.0 - 0.5j


@pytest.mark.parametrize(
    "poles, offsets",
    [((_A, _A), (-1, 1)), ((_A, _A, _B), (-1, 1, 0)), ((_A, _B, _A), (-1, 0, 1)),
     ((_A, _A, _A), (-1, 0, 1))],
    ids=["2-double", "3-double", "3-double-apart", "3-triple"],
)
def test_far_field_inverse_at_coincident_poles_is_the_limit(poles, offsets):
    """Exactly equal poles, in any order, take the limit of nearby distinct
    ones: spread symmetrically by dp, those differ from it by O(dp^2).
    Elementwise over a sweep's pumps at one time, such a pole among them
    gives what it gives alone."""
    t = np.linspace(0.0, 5.0, 11)
    limit = _FarField(1.7, 2.0 - 0.1j, poles).inverse(t)
    assert np.all(np.isfinite(limit))
    for dp in (1e-4, -1e-4j):
        near = tuple(x + k * dp for x, k in zip(poles, offsets))
        assert float(np.max(np.abs(limit - _FarField(1.7, 2.0 - 0.1j, near).inverse(t)))) < 1e-6
    c, last = np.array([1.7, -0.4, 2.0]), np.array([poles[-1], poles[-1] + 1e-6, 1.0 - 0.5j])
    swept = _FarField(c, 2.0 - 0.1j, poles[:-1] + (last,)).inverse(t[7])
    singles = [
        _FarField(a, 2.0 - 0.1j, poles[:-1] + (x,)).inverse(t[7:8])[0] for a, x in zip(c, last)
    ]
    assert np.allclose(swept, singles, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("name", ["I", "III"])
def test_far_field_inverse_is_its_transform(request, name):
    """The two-mode far field of a cavity start and of a pump start, inverted
    by residues, matches a direct Bromwich quadrature of F on a long contour
    line to 1e-3 of its peak (after t = 0, where the quadrature of the
    cavity start's i/zeta tail takes half the jump)."""
    scen = request.getfixturevalue(f"scen_{name}")
    t1_far = _two_mode_far(scen.dist, scen.cavity)
    g = scen.dist.g_collective
    times = np.linspace(0.0, 1.5 * np.pi / g, 7)[1:]
    eta = 0.25 / times[-1]
    omega = scen.ens.center + g * np.linspace(-4e3, 4e3, 400_001)
    step = omega[1] - omega[0]
    for far in (t1_far, _pump_far(t1_far, scen.cavity, scen.env, scen.ens.center, -g)):
        values = far(omega + 1j * eta)
        quad_sum = np.array([
            step / (2.0 * np.pi) * np.exp(eta * t) * np.sum(values * np.exp(-1j * omega * t))
            for t in times
        ])
        exact = far.inverse(times)
        assert float(np.max(np.abs(quad_sum - exact))) <= 1e-3 * float(np.max(np.abs(exact)))


def test_sweep_on_a_double_pole_without_coupling_is_zero():
    """omega_p = omega_c, gamma0 = 0 and kappa = 2 x pulse bandwidth put the
    pump's pole p2 exactly on the cavity's p1: with zero coupling the sweep
    and the trace return exact zeros, never a NaN."""
    env = PulseEnvelope(shape="lorentzian", fwhm=TWO_PI * 5e4)
    dist = single_line_dist(g=0.0, n_nodes=501)
    cavity = CavityModel(omega_c=W0, kappa=2.0 * env.bandwidth_scale)
    assert W0 - 1j * env.bandwidth_scale == cavity.omega_c - 0.5j * cavity.kappa
    for mode in (MODE_NARROW, MODE_EXACT):
        sweep = transfer_sweep(dist, cavity, env, W0 + np.array([-1e6, 0.0, 1e6]), 1e-7, mode)
        assert not np.any(sweep), mode
        assert not np.signbit(np.r_[sweep.real, sweep.imag]).any(), mode  # no -0.0
        beta = invert_to_time(dist, cavity, env, W0, np.linspace(0.0, 1e-7, 11), mode=mode).beta
        assert not np.any(beta), mode


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


# An edge ratio that grows the bundled plus_I window, in both modes and for
# a sweep and a trace alike, beyond the first grid.
GROWN_RATIO = 3e-9


@pytest.mark.parametrize(
    "mode, n_pumps, edge_ratio",
    [(MODE_NARROW, 7, None), (MODE_EXACT, 3, None), (MODE_NARROW, 7, GROWN_RATIO),
     (MODE_EXACT, 2, GROWN_RATIO)],
    ids=["narrow", "exact", "narrow-grown", "exact-grown"],
)
def test_sweep_matches_pointwise(scen_I, mode, n_pumps, edge_ratio):
    """A sweep and one trace per pump agree, on the first window and on
    windows grown by a tight edge ratio.  In exact mode that ratio grows the
    window once more for the pumps 3 MHz off center than for the center one,
    whose trace would then stop on a smaller grid than the sweep; so the
    grown exact case sweeps only those two outermost pumps."""
    import qesr.dynamics as dynamics

    tau = 90e-9
    wps = scen_I.ens.center + TWO_PI * np.linspace(-3e6, 3e6, n_pumps)
    settings = scen_I.settings if edge_ratio is None else InversionSettings(edge_ratio=edge_ratio)
    grids = []

    def spy(*args):
        grids.append(contour_grid(*args))
        return grids[-1]

    contour_grid = dynamics._ContourGrid
    with mock.patch.object(dynamics, "_ContourGrid", spy):
        sweep = transfer_sweep(
            scen_I.dist, scen_I.cavity, scen_I.env, wps, tau, mode=mode, settings=settings,
        )
    assert (len(grids) > 1) == (edge_ratio is not None)
    singles = np.array(
        [
            invert_to_time(
                scen_I.dist, scen_I.cavity, scen_I.env, w, [tau], mode=mode, settings=settings,
            ).beta[0]
            for w in wps
        ]
    )
    assert float(np.max(np.abs(sweep - singles))) < 1e-12


def pointwise(scen, env, wps, tau, mode):
    return np.array([
        invert_to_time(scen.dist, scen.cavity, env, w, [tau], mode=mode,
                       settings=scen.settings).beta[0]
        for w in wps
    ])


# the bundled 150 kHz Lorentzian pulse's bandwidth in the other two shapes
SHAPES = {
    "lorentzian": lambda fwhm: PulseEnvelope("lorentzian", fwhm=fwhm),
    "gaussian": lambda fwhm: PulseEnvelope("gaussian", fwhm=fwhm),
    "rectangular": lambda fwhm: PulseEnvelope("rectangular", duration=7.581977068135924 / fwhm),
}


@pytest.mark.parametrize("mode", [MODE_NARROW, MODE_EXACT])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_sweep_matches_pointwise_for_every_pulse_shape(scen_I, shape, mode):
    """The contraction serves every pulse shape: a Lorentzian folds its
    numerator into the two-pole row, the others contract their Cauchy
    transform (narrow) or node weights (exact) block by block."""
    env = SHAPES[shape](scen_I.env.fwhm)
    wps = scen_I.ens.center + TWO_PI * np.linspace(-3e6, 3e6, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sweep = transfer_sweep(scen_I.dist, scen_I.cavity, env, wps, 90e-9, mode, scen_I.settings)
        singles = pointwise(scen_I, env, wps, 90e-9, mode)
    assert float(np.max(np.abs(sweep - singles))) <= 1e-13 * float(np.max(np.abs(singles)))


@pytest.mark.parametrize("mode", [MODE_NARROW, MODE_EXACT])
@pytest.mark.parametrize("name", ["I", "III"])
def test_full_sweep_matches_pointwise(request, name, mode):
    """The CLI's 401-pump sweep at the calibrated swap time on each bundled
    config, against 401 single-pump inversions, to 1e-13 of max|beta|."""
    scen = request.getfixturevalue(f"scen_{name}")
    tau = request.getfixturevalue(f"swap_cal_{name}").tau_swap
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sweep = transfer_sweep(scen.dist, scen.cavity, scen.env, scen.omegas, tau, mode,
                               scen.settings)
        singles = pointwise(scen, scen.env, scen.omegas, tau, mode)
    assert scen.omegas.size == 401
    assert float(np.max(np.abs(sweep - singles))) <= 1e-13 * float(np.max(np.abs(singles)))


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    n_nodes=st.integers(2, 30),
    spread=st.floats(1e-6, 1e-3),
    kappa_ratio=st.floats(1e-3, 1.0),
    pulse_ratio=st.floats(1e-3, 0.3),
    tau_ratio=st.floats(0.1, 2.0),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
    shape=st.sampled_from(sorted(SHAPES)),
    mode=st.sampled_from([MODE_NARROW, MODE_EXACT]),
)
def test_sweep_matches_pointwise_on_direct_grids(
    n_nodes, spread, kappa_ratio, pulse_ratio, tau_ratio, fractions, shape, mode
):
    """On few-node systems, whose grids sum the nodes directly (the direct
    branch of `_ContourGrid.correlate` included), the sweep agrees with
    pointwise inversion on the same grid: pumps inside the node span leave the
    window unchanged, and a loose edge ratio accepts the first grid for all."""
    import qesr.dynamics as dynamics

    g = TWO_PI * 2.9e6
    nodes = np.linspace(W0, W0 + spread * g, n_nodes)
    dist = SpinDistribution(
        lines=(SpinLine(center=W0, fwhm=spread * g, weight=1.0),), g_collective=g,
        omega_nodes=nodes, weights=np.full(n_nodes, 1.0 / n_nodes),
    )
    cavity = CavityModel(omega_c=W0, kappa=kappa_ratio * g)
    env = SHAPES[shape](pulse_ratio * g)
    tau = tau_ratio * math.pi / (2.0 * g)
    settings = InversionSettings(edge_ratio=1e300)
    wps = nodes[0] + (nodes[-1] - nodes[0]) * np.array(fractions)
    grids = []

    def spy(*args):
        grids.append(contour_grid(*args))
        return grids[-1]

    contour_grid = dynamics._ContourGrid
    with mock.patch.object(dynamics, "_ContourGrid", spy), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sweep = transfer_sweep(dist, cavity, env, wps, tau, mode, settings)
        singles = np.array(
            [invert_to_time(dist, cavity, env, w, [tau], mode, settings).beta[0] for w in wps]
        )
    assert all(grid.direct for grid in grids)
    assert len({grid.omega.size for grid in grids}) == 1
    assert float(np.max(np.abs(sweep - singles))) <= 1e-12 * float(np.max(np.abs(singles)))


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


# ---------------------------------------------------------------------------
# the time-domain route's Krylov chain against the full arrow state
# ---------------------------------------------------------------------------


def full_state_beta(dist, cavity, initial, times, env=None, omega_p=None):
    """beta(t) by DOP853 at rtol 1e-13 on the whole (n_nodes + 1)-entry state."""
    x0 = _initial_vector(dist, initial, env, omega_p)
    y = _propagate_state(dist, cavity, x0, times, 1e-13, 1e-16, rows=slice(0, 1))[0]
    return y * np.exp(-1j * cavity.omega_c * times)


def share_of_max(beta, ref) -> float:
    return float(np.max(np.abs(beta - ref)) / np.max(np.abs(ref)))


def spy_dop853(monkeypatch) -> list:
    """The state size of each DOP853 run of the time-domain route, as they run."""
    import qesr.dynamics as dynamics

    sizes = []

    def spy(fun, y0, *args, **kwargs):
        sizes.append(np.size(y0))
        return dop853(fun, y0, *args, **kwargs)

    monkeypatch.setattr(dynamics, "dop853", spy)
    return sizes


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    n_nodes=st.integers(2, 300),
    span_ratio=st.floats(0.01, 10.0),
    periods=st.floats(0.1, 3.0),
    lossy=st.booleans(),
    detuning_ratio=st.floats(-1.0, 1.0),
    shape=st.sampled_from(sorted(SHAPES)),
    pulse_ratio=st.floats(0.01, 1.0),
    initial=st.sampled_from(["cavity", "pulse"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_chain_matches_the_full_state(
    n_nodes, span_ratio, periods, lossy, detuning_ratio, shape, pulse_ratio, initial, seed
):
    """On random systems (random nodes and weights over up to 10 g_K, lossless
    or lossy, every pulse shape, either start, up to 3 periods), the chain's
    beta at rtol 1e-10 lies within 1e-9 of max|beta| of the full state's.  (At
    the default rtol 1e-9, DOP853's own error on such a trace reaches 3e-9.)"""
    g = TWO_PI * 2.9e6
    rng = np.random.default_rng(seed)
    nodes = W0 + np.sort(rng.uniform(-0.5, 0.5, n_nodes)) * span_ratio * g
    weights = rng.uniform(0.1, 1.0, n_nodes)
    dist = SpinDistribution(
        lines=(SpinLine(center=W0, fwhm=span_ratio * g, weight=1.0),), g_collective=g,
        omega_nodes=nodes, weights=weights / weights.sum(),
    )
    kappa, gamma0 = (0.2 * g, 0.02 * g) if lossy else (0.0, 0.0)
    cavity = CavityModel(omega_c=W0 + detuning_ratio * g, kappa=kappa, gamma0=gamma0)
    env = SHAPES[shape](pulse_ratio * g)
    omega_p = nodes[rng.integers(n_nodes)] if initial == "pulse" else None
    times = np.linspace(0.0, periods * math.pi / g, 61)
    chain = time_domain_propagate(
        dist, cavity, initial, times, env=env, omega_p=omega_p, rtol=1e-10
    )
    ref = full_state_beta(dist, cavity, initial, times, env, omega_p)
    assert share_of_max(chain.beta, ref) <= 1e-9


def uniform_dist(n_nodes: int, span: float) -> SpinDistribution:
    """n_nodes equally weighted nodes over `span` around W0."""
    return SpinDistribution(
        lines=(SpinLine(center=W0, fwhm=span, weight=1.0),), g_collective=TWO_PI * 2.9e6,
        omega_nodes=W0 + np.linspace(-0.5, 0.5, n_nodes) * span,
        weights=np.full(n_nodes, 1.0 / n_nodes),
    )


@pytest.mark.parametrize("initial, n_nodes, span_hz, t_max, sizes", [
    # half-span * t_max = 251: the depth pair (318 and 477) runs far past
    # n_nodes + 1, where the recursion goes on in the rounding errors
    ("cavity", 121, 50e6, 1.6e-6, [318 + 477]),
    # half-span * t_max = 15.7 (2.5 periods): depths 35 and 53 disagree, and
    # the next pair (53 and 80) runs past n_nodes + 1
    ("pulse", 53, 11.6e6, 1.25 / 2.9e6, [35 + 53, 53 + 80]),
])
def test_chain_runs_to_full_depth_where_it_must(
    monkeypatch, initial, n_nodes, span_hz, t_max, sizes
):
    """Where the depth rule reaches past n_nodes + 1, the plain recursion
    runs on with no exhausted-space branch, and its chain meets the full
    state to 1e-12 at rtol 1e-13."""
    dist = uniform_dist(n_nodes, TWO_PI * span_hz)
    g = dist.g_collective
    cavity = CavityModel(omega_c=W0, kappa=0.2 * g, gamma0=0.02 * g)
    env = PulseEnvelope("gaussian", fwhm=0.16 * g)
    omega_p = dist.omega_nodes[n_nodes // 2] if initial == "pulse" else None
    times = np.linspace(0.0, t_max, 401)
    ran = spy_dop853(monkeypatch)
    chain = time_domain_propagate(
        dist, cavity, initial, times, env=env, omega_p=omega_p, rtol=1e-13, atol=1e-16
    )
    assert ran == sizes
    ref = full_state_beta(dist, cavity, initial, times, env, omega_p)
    assert share_of_max(chain.beta, ref) <= 1e-12


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_pulse_start_matches_the_full_state_for_each_shape(scen_I, shape):
    """A pulse start is read through its projections on the cavity's chain,
    for every pulse shape alike: on the CLI's time-domain transfer it meets
    the full state within 1e-10 of max|beta|."""
    s = scen_I
    env = SHAPES[shape](s.env.fwhm)
    times = np.linspace(0.0, 1.5 * np.pi / s.dist.g_collective, 601)
    res = time_domain_propagate(s.dist, s.cavity, "pulse", times, env=env, omega_p=s.ens.center)
    ref = full_state_beta(s.dist, s.cavity, "pulse", times, env, s.ens.center)
    assert share_of_max(res.beta, ref) <= 1e-10


def test_chain_route_uses_no_contour_building_block(scen_I, monkeypatch):
    """The time-domain route stays independent of the contour route: from
    either start it builds no contour grid or far field and sums no Cauchy
    kernel."""
    import qesr.dynamics as dynamics

    def never(*args, **kwargs):
        raise AssertionError("the time-domain route used a contour building block")

    for name in ("_contour_grid", "_ContourGrid", "_FarField", "_pole_sums", "memory_kernel_W",
                 "_pump_weights"):
        monkeypatch.setattr(dynamics, name, never)
    s = scen_I
    times = np.linspace(0.0, 1.5 * np.pi / s.dist.g_collective, 101)
    time_domain_propagate(s.dist, s.cavity, "cavity", times)
    time_domain_propagate(s.dist, s.cavity, "pulse", times, env=s.env, omega_p=s.ens.center)


@pytest.mark.parametrize("name", ["I", "III"])
def test_bundled_time_domain_runs_integrate_one_chain_pair(tmp_path, monkeypatch, name):
    """The bundled `swap` and time-domain `transfer` each integrate one pair
    of chains, at most 120 states (40 + 60 / 46 + 69 on I, 42 + 63 / 48 + 72
    on III), not the 5,002-entry arrow state.  The pulse start needs the
    deeper pair: its first agreeing depth is 42 / 44, against 20 / 21 for
    the cavity start."""
    sizes = spy_dop853(monkeypatch)
    path = bundled_config_path(f"paper_plus_{name}.cfg")
    assert cli_main(["swap", "--config", path, "--out", str(tmp_path)]) == 0
    argv = ["transfer", "--config", path, "--method", "time-domain", "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    assert len(sizes) == 2 and max(sizes) <= 120


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("window", (W0 + 1e6, W0 - 1e6)),
        ("window", (W0, math.inf)),
        ("window", (math.nan, W0)),
        ("d_omega", -1e3),
        ("d_omega", 0.0),
        ("contour_offset", -1e6),
        ("contour_offset", math.inf),
        ("edge_ratio", math.nan),
        ("edge_ratio", -1.0),
    ],
)
def test_inversion_settings_reject_bad_fields(field, value):
    """Each field is checked when the settings are built: a negative step or
    offset would stall the lattice snap, a reversed window fail inside numpy
    and a NaN or negative edge ratio grow the window to its cap."""
    with pytest.raises(ValueError, match=f"^InversionSettings.{field} must be"):
        InversionSettings(**{field: value})


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


@pytest.mark.parametrize("mode", [MODE_NARROW, MODE_EXACT])
@pytest.mark.parametrize("end", [0, -1], ids=["first", "last"])
def test_a_nan_at_either_window_end_fails_the_edge_rule(scen_I, monkeypatch, mode, end):
    """A window whose edge residual is NaN at either end point is refused:
    Python's max(finite, nan) returns the finite value, so the rule takes
    both ends through np.max.  The same window passes without the NaN."""
    import qesr.dynamics as dynamics

    s = scen_I
    settings = InversionSettings(
        window=_auto_window(s.dist, s.cavity, s.env.bandwidth_scale, [s.ens.center])
    )
    pump_transfer = dynamics._pump_transfer

    def nan_at_end(*args):
        T, c2 = pump_transfer(*args)
        T = T.copy()
        T[end] = math.nan
        return T, c2

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        transfer_sweep(s.dist, s.cavity, s.env, [s.ens.center], 90e-9, mode, settings)
        invert_to_time(s.dist, s.cavity, s.env, s.ens.center, [0.0, 90e-9], mode, settings)
        monkeypatch.setattr(dynamics, "_pump_transfer", nan_at_end)
        with pytest.raises(WindowTooSmallError, match="edge magnitude nan"):
            transfer_sweep(s.dist, s.cavity, s.env, [s.ens.center], 90e-9, mode, settings)
        with pytest.raises(WindowTooSmallError, match="edge magnitude nan"):
            invert_to_time(s.dist, s.cavity, s.env, s.ens.center, [0.0, 90e-9], mode, settings)


@pytest.mark.parametrize("end", [0, -1], ids=["first", "last"])
def test_a_nan_at_either_window_end_fails_the_cavity_edge_rule(scen_I, monkeypatch, end):
    """The swap calibration's cavity start goes through the same edge rule:
    a NaN in the grid's t1 at either window end point fails every window, up
    to the growth cap.  The calibration passes without the NaN."""
    import qesr.dynamics as dynamics

    t1_of = dynamics._t1

    def nan_at_end(*args):
        t1 = t1_of(*args)
        t1[end] = math.nan
        return t1

    find_swap_time(scen_I.dist, scen_I.cavity)
    monkeypatch.setattr(dynamics, "_t1", nan_at_end)
    with pytest.raises(WindowTooSmallError, match="edge magnitude nan"):
        find_swap_time(scen_I.dist, scen_I.cavity)


@pytest.mark.parametrize(
    "call, edge_ratio",
    [("trace", None), ("trace", GROWN_RATIO), ("sweep", None), ("sweep", GROWN_RATIO),
     ("calibration", None)],
)
def test_each_inversion_builds_one_far_field(scen_I, monkeypatch, call, edge_ratio):
    """The window search builds the two-mode far field t1_far once and hands
    it to the inversion: a trace, a sweep and a swap calibration build it
    exactly once, however many grids the search tries."""
    import qesr.dynamics as dynamics

    s = scen_I
    builds = []
    two_mode_far = dynamics._two_mode_far

    def spy(*args):
        builds.append(args)
        return two_mode_far(*args)

    monkeypatch.setattr(dynamics, "_two_mode_far", spy)
    settings = s.settings if edge_ratio is None else InversionSettings(edge_ratio=edge_ratio)
    runs = {
        "trace": lambda: invert_to_time(
            s.dist, s.cavity, s.env, s.ens.center, [0.0, 90e-9], MODE_EXACT, settings
        ),
        "sweep": lambda: transfer_sweep(
            s.dist, s.cavity, s.env, s.omegas, 90e-9, MODE_EXACT, settings
        ),
        "calibration": lambda: find_swap_time(s.dist, s.cavity),
    }
    runs[call]()
    assert len(builds) == 1


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
@pytest.mark.parametrize("edge_ratio, n_grids", [(None, 1), (GROWN_RATIO, None)])
def test_each_pump_is_evaluated_once_per_final_grid(scen_I, monkeypatch, mode, edge_ratio, n_grids):
    """A sweep's window search evaluates only its outermost pumps, at the
    window's two end points, the lowest first, and a failed grid stops at the
    first pump that fails the edge rule; on the final grid every pump lands
    in exactly one block of the contraction.  A trace's window search
    evaluates its one pump at the two end points of every grid; one more
    call then forms its residual on the whole final grid, for every chunk
    of times.  n_grids None is a grown window: more than one grid, as many
    as the search builds (in exact mode the sweep's outer pumps need more
    than the trace's centre pump)."""
    import qesr.dynamics as dynamics

    grids, calls, sizes, blocks = [], [], [], []
    pump_transfer, contour_grid, pump_blocks = (
        dynamics._pump_transfer, dynamics._ContourGrid, dynamics._blocks
    )

    def spy_pump(*args, **kwargs):
        calls.append((len(grids), args[3]))
        sizes.append(np.size(args[4]))
        return pump_transfer(*args, **kwargs)

    def spy_grid(*args):
        grids.append(contour_grid(*args))
        return grids[-1]

    def spy_blocks(n_pumps, width):
        blocks.append((len(grids), n_pumps, pump_blocks(n_pumps, width)))
        return blocks[-1][2]

    monkeypatch.setattr(dynamics, "_pump_transfer", spy_pump)
    monkeypatch.setattr(dynamics, "_ContourGrid", spy_grid)
    monkeypatch.setattr(dynamics, "_blocks", spy_blocks)
    settings = scen_I.settings if edge_ratio is None else InversionSettings(edge_ratio=edge_ratio)
    # 41 pumps, so that the final contraction spans more than one block
    offsets = np.concatenate(([0.0, -2.0, 2.0], np.linspace(-1.9, 1.9, 38)))
    wps = scen_I.ens.center + TWO_PI * 1e6 * offsets
    times = np.linspace(0.0, 1.5 * np.pi / scen_I.dist.g_collective, 20001)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        transfer_sweep(scen_I.dist, scen_I.cavity, scen_I.env, wps, 90e-9, mode, settings)
        n = len(grids)
        assert n > 1 if n_grids is None else n == n_grids
        assert calls == [(k, wps[1]) for k in range(1, n)] + [(n, wps[1]), (n, wps[2])]
        assert sizes == [2] * (n + 1)
        # one partition of the pumps per blocked contraction: the pole sums,
        # and in exact mode the numerators; every other partition is of the
        # exact-mode edge test's dense node sums at the two window end points
        contractions = [blk for blk in blocks if blk[1] == wps.size]
        assert all(n_pumps == 2 for _, n_pumps, _ in blocks if n_pumps != wps.size)
        assert len(contractions) == (2 if mode == MODE_EXACT else 1)
        for k, n_pumps, slices in contractions:
            assert (k, n_pumps) == (n, wps.size) and len(slices) > 1
            landed = np.concatenate([np.arange(n_pumps)[s] for s in slices])
            assert np.array_equal(landed, np.arange(n_pumps))
        grids.clear()
        calls.clear()
        sizes.clear()
        invert_to_time(scen_I.dist, scen_I.cavity, scen_I.env, wps[0], times, mode, settings)
    n = len(grids)
    assert n > 1 if n_grids is None else n == n_grids
    assert calls == [(k, wps[0]) for k in range(1, n + 1)] + [(n, wps[0])]
    assert sizes == [2] * n + [grids[-1].omega.size]


def test_grid_point_guard_raises(scen_I):
    settings = InversionSettings(
        window=(W0 - TWO_PI * 50e6, W0 + TWO_PI * 50e6), d_omega=TWO_PI * 20.0
    )
    with pytest.raises(NumericalGuardError):
        invert_to_time(
            scen_I.dist, scen_I.cavity, scen_I.env, scen_I.ens.center,
            np.linspace(0.0, 100e-9, 11), mode=MODE_EXACT, settings=settings,
        )


def test_lattice_cap_applies_to_fft_grids_only(degenerate_factory, scen_I, monkeypatch):
    """A wide window on the 21-node system spans a lattice above the FFT cap,
    but its grid sums the nodes directly and builds no row: the trace runs and
    matches the ODE route.  An FFT grid above the cap is still refused."""
    import qesr.dynamics as dynamics

    dist, cavity, env = degenerate_factory()
    c = cavity.omega_c
    times = np.linspace(0.0, math.pi / dist.g_collective, 41)
    settings = InversionSettings(window=(c - 3e8, c + 3e8))
    eta, d_omega = _grid_controls(settings, float(times[-1]))
    grid = _ContourGrid(dist, cavity.gamma0, eta, d_omega, c - 3e8, c + 3e8)
    length = grid.q * (dist.n_nodes - 1) + grid.m * (grid.omega.size - 1) + 1
    assert grid.direct and length > dynamics._MAX_LATTICE_POINTS
    got = invert_to_time(dist, cavity, env, c, times, settings=settings)
    want = time_domain_propagate(dist, cavity, "pulse", times, env=env, omega_p=c)
    assert float(np.max(np.abs(got.beta - want.beta))) <= 1e-4
    # the bundled plus_I grid convolves over a 19,481-point lattice
    monkeypatch.setattr(dynamics, "_MAX_LATTICE_POINTS", 10_000)
    with pytest.raises(NumericalGuardError, match=r"kernel lattice would need 1\.948e\+4 points"):
        invert_to_time(scen_I.dist, scen_I.cavity, scen_I.env, scen_I.ens.center,
                       np.linspace(0.0, 90e-9, 11), settings=scen_I.settings)


def test_contour_refuses_infinite_times(scen_I):
    """An infinite time would make the contour offset 0.25 / t_max zero; the
    contour route refuses it by name, as the ODE route does."""
    from qesr.protocol import excitation_budget

    dist, cavity, env, wp = scen_I.dist, scen_I.cavity, scen_I.env, scen_I.ens.center
    match = "^times must be non-empty, finite, non-negative and reach beyond t = 0$"
    with pytest.raises(ValueError, match=match):
        invert_to_time(dist, cavity, env, wp, [0.0, math.inf])
    with pytest.raises(ValueError, match=match):
        transfer_sweep(dist, cavity, env, scen_I.omegas[:3], math.inf)
    with pytest.raises(ValueError, match=match):
        excitation_budget(dist, cavity, env, 1.0, wp, tau_s=math.inf)


SHAPED_CALLS = [  # (call on a scenario, the argument named, what it must be)
    (lambda s: invert_to_time(s.dist, s.cavity, s.env, s.omegas[:2], [0.0, 1e-7]),
     "omega_p", "a scalar, got shape (2,)"),
    (lambda s: invert_to_time(s.dist, s.cavity, s.env, s.omegas[0], [[0.0, 1e-7]]),
     "times", "a scalar or a 1-d array, got shape (1, 2)"),
    (lambda s: transfer_sweep(s.dist, s.cavity, s.env, s.omegas[:4].reshape(2, 2), 9e-8),
     "omega_ps", "a scalar or a 1-d array, got shape (2, 2)"),
    (lambda s: transfer_sweep(s.dist, s.cavity, s.env, s.omegas[:3], [9e-8]),
     "tau", "a scalar, got shape (1,)"),
    (lambda s: esr_spectrum(s.dist, s.cavity, s.env, s.chain, s.omegas[:4].reshape(2, 2), 9e-8),
     "omega_ps", "a scalar or a 1-d array, got shape (2, 2)"),
    (lambda s: time_domain_propagate(s.dist, s.cavity, "cavity", [[0.0, 1e-9]]),
     "times", "a scalar or a 1-d array, got shape (1, 2)"),
    (lambda s: simulate_swap(s.dist, s.cavity, s.chain, np.zeros((3, 3))),
     "taus", "a scalar or a 1-d array, got shape (3, 3)"),
    (lambda s: find_swap_time(s.dist, s.cavity, np.zeros((3, 3))),
     "taus", "a scalar or a 1-d array, got shape (3, 3)"),
    (lambda s: excitation_budget(s.dist, s.cavity, s.env, 1.0, [s.omegas[0]], 9e-8),
     "omega_p", "a scalar, got shape (1,)"),
    (lambda s: time_domain_propagate(s.dist, s.cavity, "pulse", [0.0, 1e-9], env=s.env,
                                     omega_p=s.omegas[:2]),
     "omega_p", "a scalar, got shape (2,)"),
]


@pytest.mark.parametrize(
    "call, name, want", SHAPED_CALLS,
    ids=["invert_omega_p", "invert_times", "sweep_omega_ps", "sweep_tau", "esr_omega_ps",
         "ode_times", "simulate_swap_taus", "find_swap_taus", "budget_omega_p",
         "ode_omega_p"],
)
def test_wrong_shaped_arrays_name_their_argument(scen_I, monkeypatch, call, name, want):
    """An array of the wrong shape is refused by name before any grid is built
    or any state propagated, not by a broadcast or conversion error later."""
    import qesr.dynamics as dynamics

    def never(*args, **kwargs):
        raise AssertionError("work began before the shape check")

    monkeypatch.setattr(dynamics, "_ContourGrid", never)
    monkeypatch.setattr(dynamics, "_lanczos", never)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {want}')}$"):
        call(scen_I)


@pytest.mark.parametrize("name", ["I", "III"])
def test_automatic_step_is_an_eighth_of_the_offset(request, monkeypatch, name):
    """The automatic grid takes eta = 0.25 / t_max and d_omega = eta / 8 on
    every system, whatever its kappa and line widths: on both bundled
    configs the sweep at the calibrated swap time builds every grid with
    exactly these."""
    import qesr.dynamics as dynamics

    scen = request.getfixturevalue(f"scen_{name}")
    tau = request.getfixturevalue(f"swap_cal_{name}").tau_swap
    controls, contour_grid = [], dynamics._ContourGrid

    def spy_grid(dist, gamma0, eta, d_omega, lo, hi):
        controls.append((eta, d_omega))
        return contour_grid(dist, gamma0, eta, d_omega, lo, hi)

    monkeypatch.setattr(dynamics, "_ContourGrid", spy_grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the bundled pulse is wide for narrow mode
        transfer_sweep(scen.dist, scen.cavity, scen.env, scen.omegas, tau, settings=scen.settings)
    assert controls and set(controls) == {(0.25 / tau, 0.25 / (8.0 * tau))}


def test_size_guard_prints_counts_beyond_the_float_range():
    for n, count in ((10**400 + 1, "1.000e+400"), (12345, "1.234e+4"), (math.inf, "inf")):
        assert f"would need {count} points" in str(_size_guard("grid", n, 0.0, 1.0, 0.5))


def test_time_domain_input_validation(scen_I, monkeypatch):
    with pytest.raises(ValueError):
        time_domain_propagate(scen_I.dist, scen_I.cavity, "both", [0.0, 1e-9])
    with pytest.raises(ValueError):
        time_domain_propagate(scen_I.dist, scen_I.cavity, "pulse", [0.0, 1e-9])
    with pytest.raises(ValueError):
        time_domain_propagate(scen_I.dist, scen_I.cavity, "cavity", [1e-9, 0.0])
    monkeypatch.setattr("qesr.dynamics._MAX_ODE_NODES", 100)
    budget = r"^n_nodes = 5001 exceeds the memory budget \(100\); reduce the grid$"
    with pytest.raises(NumericalGuardError, match=budget):
        time_domain_propagate(scen_I.dist, scen_I.cavity, "cavity", [0.0, 1e-9])


def test_time_domain_basis_cap(scen_I, monkeypatch):
    """The cost guard that replaced the basis cap: the swap trace's work
    estimate, t_max x max|w_j - w_c| x the 40 + 60 states of its depth
    pair, is checked against the budget before the recursion, and above it
    no DOP853 run starts."""
    import qesr.dynamics as dynamics

    s = scen_I
    times = np.linspace(0.0, 1.2 * np.pi / s.dist.g_collective, 481)
    rate = float(np.max(np.abs(s.dist.omega_nodes - s.cavity.omega_c)))
    work = times[-1] * rate * 100
    assert rate > 0.5 * s.cavity.kappa and not work.is_integer()
    ran = spy_dop853(monkeypatch)
    monkeypatch.setattr(dynamics, "_MAX_ODE_WORK", math.floor(work))
    budget = (f"the time-domain run would take about {work:.3e} state-steps, above the budget "
              f"({math.floor(work)}): t_max = {times[-1]:.3e} s x the largest rate "
              f"(max|w_j - w_c| = {rate:.3e}, kappa/2 = {0.5 * s.cavity.kappa:.3e}, "
              "gamma0/2 = 0.000e+00 rad/s) x 100 chain states; shorten the time span")
    with pytest.raises(NumericalGuardError, match=f"^{re.escape(budget)}$"):
        time_domain_propagate(s.dist, s.cavity, "cavity", times)
    assert ran == []
    monkeypatch.setattr(dynamics, "_MAX_ODE_WORK", math.ceil(work))
    time_domain_propagate(s.dist, s.cavity, "cavity", times)
    assert ran == [100]


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
    """Only the cavity row is interpolated and the recursion keeps two
    columns, so 2,001 times stay within 1 MiB (0.34 MiB measured), far
    below the 160 MB that the full state takes."""
    times = np.linspace(0.0, 1.5 * np.pi / scen_I.dist.g_collective, 2001)
    peak = traced_peak_mib(lambda: time_domain_propagate(
        scen_I.dist, scen_I.cavity, "pulse", times, env=scen_I.env, omega_p=scen_I.ens.center,
    ))
    assert peak < 1.0


def test_dense_kernel_memory_is_bounded(scen_III):
    """The dense node sums go through `_pole_sums` a block of points at a
    time: W on 6,000 points of the 5,001-node grid stays under 4 MiB (all its
    complex denominators at once would take 458 MiB)."""
    nodes = scen_III.dist.omega_nodes
    zeta = np.linspace(nodes[0], nodes[-1], 6000) + 1j * TWO_PI * 1e5
    peak = traced_peak_mib(lambda: memory_kernel_W(scen_III.dist, scen_III.cavity, zeta))
    assert peak <= 4.0


def test_contour_trace_memory_is_bounded(scen_I):
    """The phase tables are built a block of times at a time (`_blocks`):
    20,001 times fit under the cap that the unblocked tables would exceed."""
    times = np.linspace(0.0, 1.5 * np.pi / scen_I.dist.g_collective, 20001)
    peak = traced_peak_mib(lambda: invert_to_time(
        scen_I.dist, scen_I.cavity, scen_I.env, scen_I.ens.center, times,
        mode=MODE_EXACT, settings=scen_I.settings,
    ))
    assert peak < 16.0


def test_ode_working_set_is_bounded(scen_I):
    """DOP853 forms every stage argument in one reused buffer and the rhs
    allocates only the array it returns: the `swap` trace (481 storage
    times, cavity row only) peaks within 32 state vectors, 16 of them the
    stages."""
    s = scen_I
    x0 = _initial_vector(s.dist, "cavity", None, None)
    taus = np.linspace(0.0, 1.2 * np.pi / s.dist.g_collective, 481)
    peak = traced_peak_mib(lambda: _propagate_state(
        s.dist, s.cavity, x0, taus, s.cfg.ode_rtol, 1e-12, rows=slice(0, 1)
    ))
    assert peak * 2**20 <= 32 * x0.nbytes


# Traced peak of the ODE swap trace (`simulate_swap`, 481 storage times) on
# either bundled config while DOP853 still allocated every stage argument
# and integrated the full arrow state.  The memory tests below were written
# against it; their bounds stay at it now that the trace, on the Lanczos
# chain, takes 0.32 MiB on either.
ODE_SWAP_PEAK_MIB = 3.48


@pytest.mark.parametrize("name", ["I", "III"])
def test_ode_swap_trace_memory_stays_within_its_old_peak(request, name):
    """The recursion keeps two columns of 5,002 entries and no n_nodes x
    depth basis: the `swap` trace stays within `ODE_SWAP_PEAK_MIB`."""
    s = request.getfixturevalue(f"scen_{name}")
    taus = np.linspace(0.0, 1.2 * np.pi / s.dist.g_collective, 481)
    peak = traced_peak_mib(lambda: simulate_swap(s.dist, s.cavity, QubitChain(), taus))
    assert peak <= ODE_SWAP_PEAK_MIB


@pytest.mark.parametrize("mode", [MODE_NARROW, MODE_EXACT])
def test_sweep_memory_stays_below_the_swap_calibration(scen_III, mode):
    """A 401-pump sweep holds a block of pumps at a time: its traced peak
    stays at or below `ODE_SWAP_PEAK_MIB`, the `swap` command's trace on the
    default storage grid before the ODE working set shrank (the exact sweep,
    at 2.6 MiB, is above the chain-based ODE trace's 0.32 MiB)."""
    s = scen_III
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sweep = traced_peak_mib(lambda: transfer_sweep(
            s.dist, s.cavity, s.env, s.omegas, 90e-9, mode, s.settings
        ))
    assert s.omegas.size == 401
    assert sweep <= ODE_SWAP_PEAK_MIB


@pytest.mark.parametrize("name", ["I", "III"])
def test_contour_calibration_memory_stays_below_the_ode_calibration(request, name):
    """The contour swap calibration drops its grid and FFT row before the
    time sum: its traced peak stays within 2/3 of `ODE_SWAP_PEAK_MIB`, the
    old ODE calibration's (1.34 MiB against 3.48 MiB).  The chain-based ODE
    calibration, at 0.32 MiB, now takes less than the contour's."""
    s = request.getfixturevalue(f"scen_{name}")
    contour = traced_peak_mib(lambda: find_swap_time(s.dist, s.cavity))
    assert contour <= 2.0 / 3.0 * ODE_SWAP_PEAK_MIB


def test_zero_coupling_gives_zero_beta_on_both_routes():
    dist = single_line_dist(g=0.0, n_nodes=501)
    cavity = CavityModel(omega_c=W0, kappa=W0 / 1e4)
    env = PulseEnvelope(shape="lorentzian", fwhm=TWO_PI * 5e4)
    times = np.linspace(0.0, 1e-7, 11)
    for mode in (MODE_NARROW, MODE_EXACT):
        beta = invert_to_time(dist, cavity, env, W0, times, mode=mode).beta
        assert not np.any(beta), mode
        sweep = transfer_sweep(dist, cavity, env, W0 + np.array([-1e6, 0.0, 1e6]), 1e-7, mode)
        assert not np.any(sweep), mode
        assert not np.signbit(np.r_[sweep.real, sweep.imag]).any(), mode  # no -0.0
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
    # a sweep whose lowest pump misses the grid names that pump, as its trace does
    low = TWO_PI * 2.3e9
    with pytest.raises(NumericalGuardError, match="no overlap") as trace:
        invert_to_time(dist, cavity, env, low, [0.0, 1e-7], mode=MODE_EXACT)
    with pytest.raises(NumericalGuardError, match="no overlap") as sweep:
        transfer_sweep(dist, cavity, env, [W0, low, wp], 1e-7, mode=MODE_EXACT)
    assert str(sweep.value) == str(trace.value) and repr(low) in str(sweep.value)
    with pytest.raises(NumericalGuardError, match="no overlap"):
        time_domain_propagate(dist, cavity, "pulse", [0.0, 1e-7], env=env, omega_p=wp)
