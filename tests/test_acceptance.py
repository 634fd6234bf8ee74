"""Acceptance criteria: one test per criterion, each recording a PASS/FAIL
line in the terminal summary.

Criteria 3, 5 and 8 assert targets that this implementation demonstrably
cannot meet (the recorded detail quantifies the gap each time); they are
expected to fail and are left red deliberately rather than loosened.
"""
from __future__ import annotations

import json
import math
import time
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qesr.cli import main as cli_main
from qesr.dynamics import (
    MODE_EXACT,
    MODE_NARROW,
    CavityModel,
    PulseEnvelope,
    invert_to_time,
    pulse_constant_A,
    time_domain_propagate,
)
from qesr.dynamics import _initial_vector
from qesr.protocol import (
    QubitChain,
    esr_spectrum,
    excitation_budget,
    find_swap_time,
    simulate_swap,
    spectrum_peaks,
)
from qesr.sensitivity import (
    WeakCouplingScenario,
    mean_field_trajectory,
    min_detectable_spins,
    peak_photon_number,
)
from qesr.spin_model import GridSpec, SpinLine, build_distribution

from ode_oracle import _propagate_state

TWO_PI = 2.0 * np.pi
W0 = TWO_PI * 2.91e9


def _contour_vs_ode_gap(dist, cavity, env, omega_p, times):
    contour = invert_to_time(dist, cavity, env, omega_p, times, mode=MODE_EXACT)
    ode = time_domain_propagate(
        dist, cavity, "pulse", times, env=env, omega_p=omega_p
    )
    return float(np.max(np.abs(np.abs(contour.beta) - np.abs(ode.beta))))


def test_criterion_1_route_equivalence(scen_I, scen_III, acceptance_report):
    t0 = time.perf_counter()
    gaps = []
    for scen in (scen_I, scen_III):
        g_k = scen.dist.g_collective
        times = np.linspace(0.0, 1.5 * math.pi / g_k, 131)
        gaps.append(
            _contour_vs_ode_gap(
                scen.dist, scen.cavity, scen.env, scen.cavity.omega_c, times
            )
        )
    rng = np.random.default_rng(20260823)
    for _ in range(5):
        n_lines = int(rng.integers(1, 4))
        centers = np.sort(W0 + TWO_PI * rng.uniform(-5e6, 5e6, size=n_lines))
        fwhms = TWO_PI * rng.uniform(0.5e6, 3e6, size=n_lines)
        wts = rng.uniform(0.5, 1.0, size=n_lines)
        g_k = TWO_PI * rng.uniform(1e6, 4e6)
        dist = build_distribution(
            [
                SpinLine(center=c, fwhm=f, weight=w)
                for c, f, w in zip(centers, fwhms, wts)
            ],
            g_collective=g_k,
            grid=GridSpec(n_nodes=5001),
        )
        cavity = CavityModel(omega_c=W0, kappa=W0 / rng.uniform(5e3, 2e4))
        shape = ["lorentzian", "gaussian", "rectangular"][int(rng.integers(0, 3))]
        if shape == "rectangular":
            env = PulseEnvelope(shape=shape, duration=float(rng.uniform(5e-6, 2e-5)))
        else:
            env = PulseEnvelope(shape=shape, fwhm=TWO_PI * float(rng.uniform(5e4, 3e5)))
        times = np.linspace(0.0, 1.5 * math.pi / g_k, 201)
        gaps.append(
            _contour_vs_ode_gap(dist, cavity, env, float(rng.choice(centers)), times)
        )
    elapsed = time.perf_counter() - t0
    worst = max(gaps)
    ok = worst < 1e-3 and elapsed < 60.0
    line = acceptance_report(
        1,
        ok,
        f"contour vs direct-ODE |beta| gap: worst {worst:.2e} over 2 bundled + 5 "
        f"randomized configs at 5001 nodes (cap 1e-3), {elapsed:.1f} s (cap 60 s)",
    )
    assert ok, line


def test_criterion_2_two_mode_limit(degenerate_factory, acceptance_report):
    g = TWO_PI * 2.9e6
    dist, cavity, env = degenerate_factory()  # kappa = 1e-3 g_K
    times = np.linspace(0.0, math.pi / g, 81)
    res = invert_to_time(dist, cavity, env, TWO_PI * 2.91e9, times, mode=MODE_EXACT)
    sine_dev = float(np.max(np.abs(np.abs(res.beta) - np.abs(np.sin(g * times)))))
    dist0, cavity0, _ = degenerate_factory(kappa_ratio=0.0)
    cal = find_swap_time(dist0, cavity0)
    tau_target = math.pi / (2.0 * g)
    tau_err = abs(cal.tau_swap - tau_target) / tau_target
    ok = sine_dev <= 0.02 and tau_err <= 0.005
    line = acceptance_report(
        2,
        ok,
        f"|beta| vs |sin(g_K t)| max deviation {sine_dev:.2e} (cap 0.02); "
        f"swap time {cal.tau_swap * 1e9:.2f} ns vs pi/(2 g_K) = "
        f"{tau_target * 1e9:.2f} ns, error {tau_err:.2e} (cap 0.005)",
    )
    assert ok, line


def test_criterion_3_spectrum_shape(
    scen_I, swap_cal_I, scen_III, swap_cal_III, acceptance_report
):
    split = TWO_PI * 2.2e6
    cap = TWO_PI * 1e5
    notes, ok = [], True
    for tag, scen, cal in (("I", scen_I, swap_cal_I), ("III", scen_III, swap_cal_III)):
        center = scen.cavity.omega_c
        t0 = time.perf_counter()
        res = esr_spectrum(
            scen.dist,
            scen.cavity,
            scen.env,
            scen.chain,
            scen.omegas,
            cal.tau_swap,
            n_pump=scen.n_pump,
            settings=scen.settings,
        )
        elapsed = time.perf_counter() - t0
        pos, height = spectrum_peaks(res)
        resolved = pos.size == 3
        ok &= resolved and elapsed < 120.0
        if not resolved:
            notes.append(f"{tag}: {pos.size} peaks instead of 3")
            continue
        worst_pos = max(
            abs(abs(pos[0] - center) - split),
            abs(pos[1] - center),
            abs(abs(pos[2] - center) - split),
        )
        pos_ok = worst_pos <= cap
        ratio = height[1] / max(height[0], height[2])
        order_ok = height[1] < height[0] and height[1] < height[2]
        # tenfold-weaker coupling, read out impulsively: the weak ensemble is
        # overdamped against kappa (no swap minimum of its own), and a short
        # interaction keeps the cavity's transient window flat so any residual
        # peak spread is the distribution's, not the coupling's
        weak = build_distribution(
            list(scen.dist.lines),
            g_collective=scen.dist.g_collective / 10.0,
            grid=GridSpec(n_nodes=5001),
        )
        res10 = esr_spectrum(
            weak,
            scen.cavity,
            scen.env,
            scen.chain,
            scen.omegas,
            10e-9,
            n_pump=scen.n_pump,
            settings=scen.settings,
        )
        _, h10 = spectrum_peaks(res10)
        spread = float(np.max(h10) / np.min(h10) - 1.0) if h10.size == 3 else math.inf
        equal_ok = spread <= 0.05
        ok &= pos_ok and order_ok and equal_ok
        equal_note = "ok" if equal_ok else (
            "FAIL: line-tail overlap alone raises the center density maximum "
            "this far above the sides"
        )
        notes.append(
            f"{tag}: worst peak-position error {worst_pos / TWO_PI / 1e3:.0f} kHz "
            f"(cap 100, {'ok' if pos_ok else 'FAIL'}); center/side amplitude "
            f"{ratio:.3f} ({'ok' if order_ok else 'FAIL: center above sides'}); "
            f"g_K/10 spread {spread:.3f} (cap 0.05, {equal_note}); "
            f"sweep {elapsed:.2f} s"
        )
    line = acceptance_report(3, ok, "; ".join(notes))
    assert ok, line


def test_criterion_4_excitation_budget(
    scen_I, swap_cal_I, scen_III, swap_cal_III, acceptance_report
):
    notes, ok = [], True
    for tag, scen, cal in (("I", scen_I, swap_cal_I), ("III", scen_III, swap_cal_III)):
        rep = excitation_budget(
            scen.dist,
            scen.cavity,
            scen.env,
            n_pump=15.0,
            omega_p=scen.cavity.omega_c,
            tau_s=cal.tau_swap,
            settings=scen.settings,
        )
        ok &= rep.n_transferred < 1.0 and 10.0 <= rep.ratio <= 40.0
        notes.append(
            f"{tag}: transferred {rep.n_transferred:.3f} (< 1), "
            f"mode/cavity ratio {rep.ratio:.1f} (in [10, 40])"
        )
    line = acceptance_report(4, ok, "; ".join(notes))
    assert ok, line


def test_criterion_5_detection_floor(acceptance_report):
    t0 = time.perf_counter()
    n_min = min_detectable_spins(10.0, 2.8e6, 0.05)
    window_ok = 1.0e5 <= n_min <= 1.5e5
    delta = TWO_PI * 2.8e6
    scen = WeakCouplingScenario(
        coupling=TWO_PI * 10.0,
        dephasing_rate=delta,
        kappa=delta / 100.0,
        n_spins=n_min,
        n_threshold=0.05,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        estimate = peak_photon_number(scen).analytic_estimate

        def negated_population(t):
            return -float(np.abs(mean_field_trajectory(scen, [t])[0]) ** 2)

        opt = minimize_scalar(
            negated_population,
            bounds=(0.0, 30.0 / delta),
            method="bounded",
            options={"xatol": 1e-4 / delta},
        )
    exact = -opt.fun
    dev = abs(exact / estimate - 1.0)
    elapsed = time.perf_counter() - t0
    tight_ok = dev <= 0.02
    ok = window_ok and tight_ok and elapsed < 1.0
    line = acceptance_report(
        5,
        ok,
        f"N_min = {n_min:.1f} in [1.0e5, 1.5e5] ({'ok' if window_ok else 'FAIL'}); "
        f"peak-photon estimate vs maximized trajectory deviates {dev:.4f} at "
        f"kappa = Delta/100 (cap 0.02, {'ok' if tight_ok else 'FAIL'}: the "
        f"deviation is first order in kappa/Delta, about (k/D) ln(2e D/k) = "
        f"{0.01 * math.log(200.0 * math.e):.4f}); {elapsed:.2f} s (cap 1 s)",
    )
    assert ok, line


def test_criterion_6_pulse_constants(scen_I, scen_III, acceptance_report):
    delta = TWO_PI * 1.5e5
    a_val = pulse_constant_A(PulseEnvelope(shape="lorentzian", fwhm=delta))
    a_err = abs(a_val / math.sqrt(math.pi * delta / 2.0) - 1.0)
    notes = [f"A(lorentzian) relative error {a_err:.1e} (cap 1e-9)"]
    ok = a_err <= 1e-9
    for tag, scen in (("I", scen_I), ("III", scen_III)):
        w_min = min(ln.fwhm for ln in scen.dist.lines)
        env20 = PulseEnvelope(shape="lorentzian", fwhm=w_min / 20.0)
        g_k = scen.dist.g_collective
        times = np.linspace(0.0, 1.5 * math.pi / g_k, 121)
        center = scen.cavity.omega_c
        narrow = invert_to_time(
            scen.dist, scen.cavity, env20, center, times, mode=MODE_NARROW
        )
        exact = invert_to_time(
            scen.dist, scen.cavity, env20, center, times, mode=MODE_EXACT
        )
        scale = float(np.max(np.abs(exact.beta)))
        dev = float(np.max(np.abs(np.abs(narrow.beta) - np.abs(exact.beta)))) / scale
        ok &= dev <= 0.02
        notes.append(f"{tag}: narrow vs exact at bandwidth fwhm/20: {dev:.4f} (cap 0.02)")
    line = acceptance_report(6, ok, "; ".join(notes))
    assert ok, line


def test_criterion_7_invariants(
    scen_I, scen_III, tmp_path, acceptance_report
):
    notes, ok = [], True
    # lossless norm conservation
    lossless = CavityModel(omega_c=scen_I.ens.center, kappa=0.0, gamma0=0.0)
    times = np.linspace(0.0, 300e-9, 31)
    drift = 0.0
    for initial, env, wp in (
        ("cavity", None, None),
        ("pulse", scen_I.env, scen_I.ens.center),
    ):
        x0 = _initial_vector(scen_I.dist, initial, env, wp)
        y = _propagate_state(scen_I.dist, lossless, x0, times, 1e-10, 1e-13)
        drift = max(drift, float(np.max(np.abs(np.sum(np.abs(y) ** 2, axis=0) - 1.0))))
    ok &= drift <= 1e-8
    notes.append(f"lossless norm drift {drift:.1e} (cap 1e-8)")
    # spectral-weight normalization
    norm_err = max(
        abs(float(scen.dist.weights.sum()) - 1.0) for scen in (scen_I, scen_III)
    )
    ok &= norm_err <= 1e-9
    notes.append(f"weight-normalization error {norm_err:.1e} (cap 1e-9)")
    # threshold round trip
    rng = np.random.default_rng(7)
    rt_err = 0.0
    for _ in range(5):
        g = TWO_PI * rng.uniform(1.0, 100.0)
        d = TWO_PI * rng.uniform(1e5, 1e7)
        nth = rng.uniform(0.01, 1.0)
        n_min = min_detectable_spins(g, d, nth)
        rt_err = max(rt_err, abs((g * n_min / (2.0 * d)) ** 2 / nth - 1.0))
    ok &= rt_err <= 1e-10
    notes.append(f"threshold round-trip error {rt_err:.1e} (cap 1e-10)")
    # CLI determinism and thread independence
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(
        json.dumps(
            {
                "ensembles": [
                    {
                        "name": "demo",
                        "lines": [{"center_hz": 2.91e9, "fwhm_hz": 1.6e6}],
                        "g_collective_hz": 2.9e6,
                        "grid": {"n_nodes": 1501},
                    }
                ],
                "sweep": {
                    "span_hz": 8e6,
                    "n_points": 101,
                    "tau_s_s": 9e-8,
                    "n_pump": 5.0,
                },
            }
        )
    )
    payloads = []
    for tag, threads in (("r1", 1), ("r2", 1), ("t2", 2), ("t4", 4)):
        out = tmp_path / tag
        rc = cli_main(
            [
                "spectrum",
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "--threads",
                str(threads),
            ]
        )
        ok &= rc == 0
        payloads.append(
            (out / "spectrum_demo.csv").read_bytes()
            + (out / "spectrum_summary.json").read_bytes()
        )
    identical = all(p == payloads[0] for p in payloads)
    ok &= identical
    notes.append(
        f"CLI outputs byte-identical across repeats and thread counts 1/2/4: "
        f"{identical}"
    )
    line = acceptance_report(7, ok, "; ".join(notes))
    assert ok, line


def test_criterion_8_retrieval_fidelity(scen_I, acceptance_report):
    chain = QubitChain(swap_efficiency=0.7, readout_fidelity=0.7)
    period = math.pi / scen_I.dist.g_collective
    taus = np.linspace(0.0, 1.2 * period, 481)
    trace = simulate_swap(scen_I.dist, scen_I.cavity, chain, taus)
    cal = trace.calibration
    returned = cal.return_pe
    pop = returned / (0.7 * 0.7)
    ok = 0.05 <= returned <= 0.2
    line = acceptance_report(
        8,
        ok,
        f"photon-return P_e = {returned:.4f} vs target [0.05, 0.2] "
        f"(within factor 2 of 0.1): measured P_e = 0.49 x return population "
        f"{pop:.4f}; the returned-population-times-transfer value "
        f"0.7 x {pop:.4f} = {0.7 * pop:.4f} would sit inside the window",
    )
    assert ok, line
