"""Measurement protocol: swap-time calibration, qubit-detected spectra,
excitation budgets, and the detection-chain probability model."""
from __future__ import annotations

import math

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qesr.dynamics import MODE_EXACT, CavityModel, PulseEnvelope, invert_to_time
from qesr.errors import NoOscillationError, NumericalGuardError, SaturationError
from qesr.protocol import (
    QubitChain,
    SpectrumResult,
    SwapTrace,
    _prominent_peaks,
    esr_spectrum,
    excitation_budget,
    find_swap_time,
    simulate_swap,
    spectrum_peaks,
)
from qesr.spin_model import (
    GridSpec,
    SpinDistribution,
    SpinLine,
    build_distribution,
    density_at,
)

TWO_PI = 2.0 * np.pi
W0 = TWO_PI * 2.91e9  # center of the first bundled ensemble
W3 = TWO_PI * 2.89e9  # center of the second bundled ensemble


def single_node_dist(g=TWO_PI * 2.9e6):
    """All spectral weight on one node: the exact one-spin limit."""
    return SpinDistribution(
        lines=(SpinLine(center=W0, fwhm=1.0, weight=1.0),),
        g_collective=g,
        omega_nodes=np.array([W0, W0 + 1.0]),
        weights=np.array([1.0, 0.0]),
    )


# ---------------------------------------------------------------------------
# swap-time calibration
# ---------------------------------------------------------------------------


def test_swap_calibration_bundled_hyperfine_I(swap_cal_I):
    # regression pins for the bundled 3-line ensemble (values frozen from
    # this implementation, cross-checked against the contour route elsewhere)
    assert swap_cal_I.tau_swap == pytest.approx(97.76e-9, rel=3e-3)
    assert swap_cal_I.osc_frequency == pytest.approx(TWO_PI * 5.1148e6, rel=1e-2)
    assert swap_cal_I.osc_frequency == pytest.approx(
        math.pi / swap_cal_I.tau_swap, rel=1e-12
    )
    assert swap_cal_I.return_time == pytest.approx(151.53e-9, rel=5e-3)
    assert swap_cal_I.return_pe == pytest.approx(0.0867, rel=2e-2)
    assert 0.0 <= swap_cal_I.pop_min < 0.05
    assert swap_cal_I.pop_min < swap_cal_I.return_pe


def test_swap_calibration_bundled_hyperfine_III(swap_cal_III):
    assert swap_cal_III.tau_swap == pytest.approx(73.69e-9, rel=3e-3)
    assert swap_cal_III.osc_frequency == pytest.approx(TWO_PI * 6.7853e6, rel=1e-2)
    assert swap_cal_III.return_time == pytest.approx(121.16e-9, rel=5e-3)
    assert swap_cal_III.return_pe == pytest.approx(0.1480, rel=2e-2)
    # the parabola-refined minimum may undershoot zero by round-off
    assert -1e-6 <= swap_cal_III.pop_min < 0.05


def test_swap_time_ordering(swap_cal_I, swap_cal_III):
    # the stronger-coupled ensemble swaps faster and returns more population
    assert swap_cal_III.tau_swap < swap_cal_I.tau_swap
    assert swap_cal_III.return_pe > swap_cal_I.return_pe


def test_swap_degenerate_lossless_limit(degenerate_factory):
    g = TWO_PI * 2.9e6
    dist, cavity, _ = degenerate_factory(kappa_ratio=0.0)
    cal = find_swap_time(dist, cavity)
    assert cal.tau_swap == pytest.approx(math.pi / (2.0 * g), rel=5e-3)
    assert cal.tau_swap == pytest.approx(86.2e-9, rel=5e-3)
    assert cal.osc_frequency == pytest.approx(2.0 * g, rel=1e-2)
    assert cal.pop_min < 1e-3
    assert cal.return_pe > 0.995


def test_swap_periodicity_lossless():
    # with one spin and no losses the population repeats after pi/g exactly
    g = TWO_PI * 2.9e6
    dist = single_node_dist(g)
    cavity = CavityModel(omega_c=W0, kappa=0.0)
    chain = QubitChain()
    period = math.pi / g
    taus = np.linspace(0.0, period, 121)
    first = simulate_swap(dist, cavity, chain, taus)
    second = simulate_swap(dist, cavity, chain, taus + period)
    np.testing.assert_allclose(
        second.cavity_abs2, first.cavity_abs2, rtol=0.0, atol=1e-8
    )


def test_swap_zero_coupling_flat_ceiling():
    dist = single_node_dist(g=0.0)
    cavity = CavityModel(omega_c=W0, kappa=0.0)
    chain = QubitChain(swap_efficiency=0.7, readout_fidelity=0.7)
    taus = np.linspace(0.0, 200e-9, 21)
    with pytest.warns(UserWarning, match="coupling is zero"):
        trace = simulate_swap(dist, cavity, chain, taus)
    np.testing.assert_allclose(trace.cavity_abs2, 1.0, atol=1e-9)
    np.testing.assert_allclose(trace.pe, 0.49, atol=1e-9)
    assert trace.calibration is None
    assert trace.tau_swap is None
    assert trace.osc_frequency is None


def test_swap_larger_kappa_degrades_transfer(scen_I, swap_cal_I):
    # at tenfold loss the return peak is heavily damped, so the dip needs a
    # smaller prominence threshold to be resolved
    lossier = CavityModel(
        omega_c=scen_I.cavity.omega_c, kappa=10.0 * scen_I.cavity.kappa
    )
    cal = find_swap_time(scen_I.dist, lossier, min_drop=0.01)
    # damped two-oscillator oracle: the cavity amplitude follows
    # e^(-kt/4) [cos(Om t) - (k/4Om) sin(Om t)] with Om = sqrt(g^2 - k^2/16),
    # whose first zero sits at atan(4 Om / k) / Om -- earlier than pi/(2 g)
    # by about 15% here because k is no longer small against g
    g_eff = math.pi / (2.0 * swap_cal_I.tau_swap)
    omega_r = math.sqrt(g_eff**2 - (lossier.kappa / 4.0) ** 2)
    t_zero = math.atan(4.0 * omega_r / lossier.kappa) / omega_r
    assert cal.tau_swap == pytest.approx(t_zero, rel=0.01)
    assert cal.tau_swap < swap_cal_I.tau_swap
    assert cal.return_pe < 0.5 * swap_cal_I.return_pe


def test_swap_coarse_grid_guard(scen_I):
    period = math.pi / scen_I.dist.g_collective
    taus = np.linspace(0.0, 1.2 * period, 8)
    with pytest.raises(NumericalGuardError, match="coarser"):
        simulate_swap(scen_I.dist, scen_I.cavity, QubitChain(), taus)


def test_swap_needs_three_points():
    dist = single_node_dist()
    cavity = CavityModel(omega_c=W0, kappa=0.0)
    with pytest.raises(ValueError, match="at least 3"):
        simulate_swap(dist, cavity, QubitChain(), [0.0, 1e-9])


def test_swap_trace_csv_and_immutability(tmp_path):
    g = TWO_PI * 2.9e6
    dist = single_node_dist(g)
    cavity = CavityModel(omega_c=W0, kappa=0.0)
    taus = np.linspace(0.0, math.pi / g, 61)
    trace = simulate_swap(dist, cavity, QubitChain(), taus)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau_s,cavity_abs2,p_e"
    assert len(lines) == taus.size + 1
    back = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(back[:, 0], trace.taus)
    assert np.array_equal(back[:, 1], trace.cavity_abs2)
    assert np.array_equal(back[:, 2], trace.pe)
    with pytest.raises(ValueError):
        trace.cavity_abs2[0] = 0.5
    with pytest.raises(ValueError, match="^taus, cavity_abs2 and pe must have matching shapes$"):
        SwapTrace(taus=taus, cavity_abs2=trace.cavity_abs2[:-1], pe=trace.pe)


def test_find_swap_time_failure_modes():
    with pytest.raises(NoOscillationError, match="zero"):
        find_swap_time(single_node_dist(g=0.0), CavityModel(omega_c=W0, kappa=0.0))
    # overdamped: cavity losses beat the collective coupling, no dip forms
    dist = build_distribution(
        lines=[SpinLine(center=W0, fwhm=TWO_PI * 2e6, weight=1.0)],
        g_collective=TWO_PI * 0.2e6,
        grid=GridSpec(n_nodes=801, span_fwhm=8.0),
    )
    cavity = CavityModel(omega_c=W0, kappa=TWO_PI * 4e6)
    taus = np.linspace(0.0, 400e-9, 161)
    with pytest.raises(NoOscillationError, match="overdamped"):
        find_swap_time(dist, cavity, taus=taus)


# ---------------------------------------------------------------------------
# qubit-detected spectra
# ---------------------------------------------------------------------------


def test_spectrum_triplet_structure_I(scen_I, swap_cal_I):
    res = esr_spectrum(
        scen_I.dist,
        scen_I.cavity,
        scen_I.env,
        scen_I.chain,
        scen_I.omegas,
        swap_cal_I.tau_swap,
        n_pump=scen_I.n_pump,
        settings=scen_I.settings,
    )
    pos, height = spectrum_peaks(res)
    assert pos.size == 3
    assert pos[1] == pytest.approx(W0, abs=TWO_PI * 10e3)
    assert pos[0] + pos[2] == pytest.approx(2.0 * W0, abs=TWO_PI * 10e3)
    # side peaks pulled inward from the +/-2.2 MHz line centers by the
    # overlapping tails of the neighbouring lines
    half_split = 0.5 * (pos[2] - pos[0])
    assert half_split == pytest.approx(TWO_PI * 2.129e6, abs=TWO_PI * 15e3)
    np.testing.assert_allclose(height, [0.2494, 0.2940, 0.2494], rtol=1e-2)
    assert height[1] > height[0]
    assert res.tau_s == swap_cal_I.tau_swap
    assert res.n_excitations_peak == scen_I.n_pump
    assert res.scale == pytest.approx(0.49 * scen_I.n_pump, rel=1e-12)


def test_spectrum_triplet_structure_III(scen_III, swap_cal_III):
    res = esr_spectrum(
        scen_III.dist,
        scen_III.cavity,
        scen_III.env,
        scen_III.chain,
        scen_III.omegas,
        swap_cal_III.tau_swap,
        n_pump=scen_III.n_pump,
        settings=scen_III.settings,
    )
    pos, height = spectrum_peaks(res)
    assert pos.size == 3
    assert pos[1] == pytest.approx(W3, abs=TWO_PI * 10e3)
    assert pos[0] + pos[2] == pytest.approx(2.0 * W3, abs=TWO_PI * 10e3)
    half_split = 0.5 * (pos[2] - pos[0])
    assert half_split == pytest.approx(TWO_PI * 1.9715e6, abs=TWO_PI * 15e3)
    np.testing.assert_allclose(height, [0.2026, 0.2358, 0.2026], rtol=1e-2)


def _center_side_ratio(scen, tau):
    center = scen.cavity.omega_c  # cavity tuned to the ensemble center
    omegas = center + TWO_PI * np.linspace(-4e6, 4e6, 161)
    res = esr_spectrum(
        scen.dist,
        scen.cavity,
        scen.env,
        scen.chain,
        omegas,
        tau,
        n_pump=scen.n_pump,
        settings=scen.settings,
    )
    off = np.abs(omegas - center)
    center = float(np.max(res.pe[off < TWO_PI * 1e6]))
    side = float(np.max(res.pe[(off > TWO_PI * 1e6) & (off < TWO_PI * 3.5e6)]))
    return center / side


def test_spectrum_center_side_ratio_flips_with_time(
    scen_I, swap_cal_I, scen_III, swap_cal_III
):
    # at the calibrated swap time the central line retrieves best; waiting
    # roughly half an oscillation longer inverts the pattern
    for scen, cal, late in (
        (scen_I, swap_cal_I, 160e-9),
        (scen_III, swap_cal_III, 120e-9),
    ):
        assert _center_side_ratio(scen, cal.tau_swap) > 1.05
        assert _center_side_ratio(scen, late) < 1.0


def test_spectrum_weak_coupling_tracks_density():
    # with g_K far below the linewidth and an impulsive readout time the
    # spectrum is proportional to the spin spectral density
    w = TWO_PI * 1.6e6
    dist = build_distribution(
        lines=[SpinLine(center=W0, fwhm=w, weight=1.0)],
        g_collective=w / 50.0,
        grid=GridSpec(n_nodes=3001, span_fwhm=10.0),
    )
    cavity = CavityModel(omega_c=W0, kappa=W0 / 1e4)
    env = PulseEnvelope(shape="lorentzian", fwhm=w / 10.0)
    omegas = W0 + np.linspace(-1.5 * w, 1.5 * w, 25)
    res = esr_spectrum(dist, cavity, env, QubitChain(), omegas, 10e-9)
    ratio = res.abs2_beta / density_at(dist, omegas)
    ratio /= ratio.mean()
    assert float(np.max(np.abs(ratio - 1.0))) < 0.05


def test_spectrum_zero_pump_returns_baseline(scen_I):
    chain = QubitChain(swap_efficiency=0.7, readout_fidelity=0.7, baseline=0.01)
    omegas = W0 + TWO_PI * np.linspace(-5e6, 5e6, 5)
    res = esr_spectrum(
        scen_I.dist, scen_I.cavity, scen_I.env, chain, omegas, 100e-9, n_pump=0.0
    )
    assert np.array_equal(res.pe, np.full(5, 0.01))
    assert np.array_equal(res.abs2_beta, np.zeros(5))
    assert res.scale == 0.0
    assert res.n_excitations_peak == 0.0


def test_spectrum_far_detuned_pump_at_baseline(scen_I, swap_cal_I):
    res = esr_spectrum(
        scen_I.dist,
        scen_I.cavity,
        scen_I.env,
        scen_I.chain,
        np.array([W0 - TWO_PI * 50e6]),
        swap_cal_I.tau_swap,
        n_pump=scen_I.n_pump,
    )
    assert res.pe[0] <= scen_I.chain.baseline + 1e-3


def test_spectrum_linear_in_pump_strength(scen_I, swap_cal_I):
    chain = QubitChain(swap_efficiency=0.7, readout_fidelity=0.7, baseline=0.02)
    omegas = W0 + TWO_PI * np.array([-2.2e6, 0.0, 2.2e6])
    one = esr_spectrum(
        scen_I.dist, scen_I.cavity, scen_I.env, chain, omegas,
        swap_cal_I.tau_swap, n_pump=1.0, settings=scen_I.settings,
    )
    three = esr_spectrum(
        scen_I.dist, scen_I.cavity, scen_I.env, chain, omegas,
        swap_cal_I.tau_swap, n_pump=3.0, settings=scen_I.settings,
    )
    assert np.array_equal(one.abs2_beta, three.abs2_beta)
    np.testing.assert_allclose(
        three.pe - chain.baseline, 3.0 * (one.pe - chain.baseline), rtol=1e-6
    )


def test_spectrum_saturation_names_pump_frequency(scen_I, swap_cal_I):
    with pytest.raises(SaturationError, match="omega_p"):
        esr_spectrum(
            scen_I.dist,
            scen_I.cavity,
            scen_I.env,
            scen_I.chain,
            np.array([W0]),
            swap_cal_I.tau_swap,
            n_pump=1e4,
            settings=scen_I.settings,
        )


def test_spectrum_csv_schema(tmp_path):
    res = SpectrumResult(
        omega_p=np.array([1.0, 2.0, 3.0]),
        abs2_beta=np.array([0.1, 0.2, 0.3]),
        pe=np.array([0.01, 0.02, 0.03]),
        tau_s=1e-7,
        n_excitations_peak=1.0,
        scale=0.49,
    )
    path = tmp_path / "spectrum.csv"
    res.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "omega_p_rad_per_s,abs2_beta,p_e"
    back = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(back[:, 0], res.omega_p)
    assert np.array_equal(back[:, 2], res.pe)
    with pytest.raises(ValueError, match="^omega_p, abs2_beta and pe must have matching shapes$"):
        SpectrumResult(
            omega_p=np.array([1.0]),
            abs2_beta=np.array([0.1, 0.2]),
            pe=np.array([0.01]),
            tau_s=1e-7,
            n_excitations_peak=1.0,
            scale=0.49,
        )


# ---------------------------------------------------------------------------
# excitation budget
# ---------------------------------------------------------------------------


def test_budget_bundled_hyperfine_I(scen_I, swap_cal_I):
    rep = excitation_budget(
        scen_I.dist,
        scen_I.cavity,
        scen_I.env,
        n_pump=scen_I.n_pump,
        omega_p=W0,
        tau_s=swap_cal_I.tau_swap,
        settings=scen_I.settings,
    )
    assert rep.ratio == pytest.approx(25.0, rel=0.05)
    assert rep.ratio * rep.retrieved_fraction == pytest.approx(1.0, rel=1e-12)
    assert rep.n_bp_mode == scen_I.n_pump
    assert rep.n_transferred == pytest.approx(
        scen_I.n_pump * rep.retrieved_fraction, rel=1e-12
    )
    assert rep.n_transferred < 1.0


def test_budget_bundled_hyperfine_III(scen_III, swap_cal_III):
    rep = excitation_budget(
        scen_III.dist,
        scen_III.cavity,
        scen_III.env,
        n_pump=scen_III.n_pump,
        omega_p=W3,
        tau_s=swap_cal_III.tau_swap,
        settings=scen_III.settings,
    )
    assert rep.ratio == pytest.approx(31.2, rel=0.05)
    assert rep.n_transferred < 1.0


def test_budget_ratio_halves_when_bandwidth_doubles(scen_I):
    # ratio ~ (sampled linewidth)/(pulse bandwidth)
    tau = 90e-9
    narrow = excitation_budget(
        scen_I.dist, scen_I.cavity, scen_I.env, 1.0, W0, tau,
        settings=scen_I.settings,
    )
    wide_env = PulseEnvelope(shape="lorentzian", fwhm=2.0 * scen_I.env.fwhm)
    wide = excitation_budget(
        scen_I.dist, scen_I.cavity, wide_env, 1.0, W0, tau,
        settings=scen_I.settings,
    )
    assert narrow.ratio / wide.ratio == pytest.approx(2.0, rel=0.10)


def test_budget_degenerate_full_retrieval(degenerate_factory):
    g = TWO_PI * 2.9e6
    dist, cavity, env = degenerate_factory()
    rep = excitation_budget(
        dist, cavity, env, 1.0, TWO_PI * 2.91e9, math.pi / (2.0 * g),
        mode=MODE_EXACT,
    )
    assert rep.ratio == pytest.approx(1.0, abs=0.01)
    assert rep.retrieved_fraction > 0.99


def test_budget_rejects_nonpositive_pump(scen_I):
    with pytest.raises(ValueError, match="positive"):
        excitation_budget(
            scen_I.dist, scen_I.cavity, scen_I.env, 0.0, W0, 90e-9
        )


def test_budget_rejects_nan_pump_frequency(scen_I):
    with pytest.raises(ValueError, match="omega_ps must be non-empty and free of NaN"):
        excitation_budget(
            scen_I.dist, scen_I.cavity, scen_I.env, 1.0, math.nan, 90e-9
        )


# ---------------------------------------------------------------------------
# detection chain
# ---------------------------------------------------------------------------


def test_chain_probability_model():
    chain = QubitChain(
        swap_efficiency=0.7, readout_fidelity=0.7, baseline=0.01,
        saturation_guard=1.0,
    )
    pe = chain.excited_probability(np.array([0.0, 0.1]), n_pump=2.0)
    np.testing.assert_allclose(pe, [0.01, 0.49 * 0.2 + 0.01], rtol=1e-14)
    # the guard is inclusive; exactly one transferred photon still passes
    full = QubitChain().excited_probability(np.array([1.0]))
    assert full[0] == 1.0
    with pytest.raises(SaturationError, match="sweep index"):
        QubitChain().excited_probability(np.array([1.0]), n_pump=1.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"swap_efficiency": 0.0},
        {"swap_efficiency": 1.2},
        {"readout_fidelity": 0.0},
        {"baseline": -0.1},
        {"baseline": 1.0},
        {"saturation_guard": 0.0},
        {"saturation_guard": 1.5},
    ],
)
def test_chain_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        QubitChain(**kwargs)


# ---------------------------------------------------------------------------
# the peak finder: SciPy's find_peaks(x, prominence=p) indices
# ---------------------------------------------------------------------------


def assert_same_peaks(x, prominence):
    from scipy.signal import find_peaks  # qesr itself never imports scipy.signal

    x = np.asarray(x, dtype=float)
    got = _prominent_peaks(x, prominence)
    assert got.dtype.kind == "i"
    np.testing.assert_array_equal(got, find_peaks(x, prominence=prominence)[0])


@pytest.mark.parametrize("name", ["I", "III"])
def test_peak_finder_matches_find_peaks_on_bundled_data(request, name):
    scen = request.getfixturevalue(f"scen_{name}")
    cal = request.getfixturevalue(f"swap_cal_{name}")
    taus = np.linspace(0.0, 1.2 * math.pi / scen.dist.g_collective, 481)
    trace = simulate_swap(scen.dist, scen.cavity, scen.chain, taus)
    pop = trace.cavity_abs2
    res = esr_spectrum(
        scen.dist, scen.cavity, scen.env, scen.chain, scen.omegas, cal.tau_swap,
        n_pump=scen.n_pump, settings=scen.settings,
    )
    i = int(_prominent_peaks(-pop, 0.05 * pop.max())[0])
    for x in (-pop, pop[i:], trace.pe, res.pe, res.abs2_beta):
        span = float(np.ptp(x))
        for frac in (0.0, 1e-3, 0.05, 0.3, 1.0):
            assert_same_peaks(x, frac * span)


@pytest.mark.parametrize(
    "x",
    [
        [],
        [1.0],
        [1.0, 2.0],
        [2.0, 1.0],
        [3.0, 3.0, 3.0, 3.0],
        [2.0, 2.0, 1.0, 0.0],  # plateau at the start
        [0.0, 1.0, 2.0, 2.0],  # plateau at the end
        [2.0, 2.0, 1.0, 2.0, 2.0],
        [0.0, 2.0, 2.0, 0.0],  # even plateau: the middle rounds down
        [0.0, 2.0, 2.0, 2.0, 0.0],
        [0.0, 2.0, 2.0, 3.0, 0.0],  # a plateau that rises is no peak
        [0.0, 3.0, 1.0, 2.0, 0.0],  # the right peak's left base stops at 3
        [0.0, 5.0, 1.0, 3.0, 2.0, 4.0, 0.0],
        [1.0, 0.0, 1.0, 0.0, 1.0],
    ],
)
@pytest.mark.parametrize("prominence", [0.0, 0.5, 1.0, 2.0, 2.5])
def test_peak_finder_edge_cases(x, prominence):
    assert_same_peaks(x, prominence)


def test_peak_finder_keeps_a_prominence_at_the_threshold():
    x = [0.0, 3.0, 1.0, 2.0, 0.0]  # prominences 3 and 1
    np.testing.assert_array_equal(_prominent_peaks(x, 1.0), [1, 3])
    np.testing.assert_array_equal(_prominent_peaks(x, np.nextafter(1.0, 2.0)), [1])
    assert_same_peaks(x, np.nextafter(1.0, 2.0))


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    st.lists(st.integers(0, 4), max_size=30),
    st.integers(0, 8).map(lambda k: k / 2.0),
)
def test_peak_finder_matches_find_peaks_on_integer_arrays(x, prominence):
    assert_same_peaks(x, prominence)


@pytest.mark.filterwarnings("ignore:pulse bandwidth")
def test_results_copy_the_callers_arrays(scen_I):
    """Result fields are read-only copies: the caller's arrays stay writeable."""
    s = scen_I
    taus = np.linspace(0.0, 2e-7, 81)
    wps = s.omegas[::100].copy()
    times = np.linspace(0.0, 2e-7, 5)
    nodes, weights = np.array([W0, W0 + 1.0]), np.array([1.0, 0.0])
    dist = SpinDistribution((SpinLine(W0, 1.0),), 1.0, nodes, weights)
    built = [
        (simulate_swap(s.dist, s.cavity, s.chain, taus), "taus", taus),
        (esr_spectrum(s.dist, s.cavity, s.env, s.chain, wps, 9e-8), "omega_p", wps),
        (invert_to_time(s.dist, s.cavity, s.env, W0, times), "times", times),
        (dist, "omega_nodes", nodes),
        (dist, "weights", weights),
    ]
    for result, name, array in built:
        array[0] = array[0]
        field = getattr(result, name)
        np.testing.assert_array_equal(field, array)
        assert field is not array and not field.flags.writeable
