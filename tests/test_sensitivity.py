"""Weak-coupling detection floor: mean-field trajectory, peak photon number,
and the minimum detectable spin count."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qesr.sensitivity import (
    PeakPhotons,
    WeakCouplingScenario,
    mean_field_trajectory,
    min_detectable_spins,
    peak_photon_number,
)

TWO_PI = 2.0 * np.pi


def quiet_scenario(**kwargs):
    """A scenario well inside g sqrt(N) << kappa << Delta (no warnings)."""
    params = dict(
        coupling=TWO_PI * 10.0,
        dephasing_rate=TWO_PI * 2.8e6,
        kappa=TWO_PI * 1e4,
        n_spins=100.0,
        n_threshold=0.05,
    )
    params.update(kwargs)
    return WeakCouplingScenario(**params)


def test_trajectory_starts_at_zero():
    scen = quiet_scenario()
    assert mean_field_trajectory(scen, [0.0])[0] == 0.0
    degen = quiet_scenario(kappa=2.0 * scen.dephasing_rate)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert mean_field_trajectory(degen, [0.0])[0] == 0.0


def test_trajectory_matches_ode_oracle():
    scen = quiet_scenario()
    times = np.linspace(0.0, 2e-6, 41)
    exact = mean_field_trajectory(scen, times)

    def rhs(t, y):
        drive = -1j * scen.coupling * (scen.n_spins / 2.0) * math.exp(
            -scen.dephasing_rate * t
        )
        return -0.5 * scen.kappa * y + drive

    sol = solve_ivp(
        rhs,
        (0.0, times[-1]),
        np.array([0.0 + 0.0j]),
        t_eval=times,
        method="DOP853",
        rtol=1e-11,
        atol=1e-14,
    )
    scale = float(np.max(np.abs(exact)))
    assert float(np.max(np.abs(sol.y[0] - exact))) < 1e-8 * scale


def test_trajectory_decays_to_zero():
    scen = quiet_scenario()
    late = np.array([50.0 / scen.kappa])
    peak = float(np.max(np.abs(mean_field_trajectory(scen, np.linspace(0, 2e-6, 101)))))
    assert float(np.abs(mean_field_trajectory(scen, late))[0]) < 1e-8 * peak


def test_trajectory_input_validation():
    scen = quiet_scenario()
    with pytest.raises(ValueError, match="non-negative"):
        mean_field_trajectory(scen, [-1e-9, 0.0])
    for field in ("coupling", "dephasing_rate", "kappa", "n_spins", "n_threshold"):
        with pytest.raises(ValueError, match=field):
            quiet_scenario(**{field: 0.0})
        with pytest.raises(ValueError, match=field):
            quiet_scenario(**{field: math.inf})


def test_removable_branch_is_continuous():
    delta = TWO_PI * 1e6
    times = np.linspace(0.0, 10.0 / delta, 101)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        on_branch = mean_field_trajectory(
            quiet_scenario(dephasing_rate=delta, kappa=2.0 * delta), times
        )
        nearby = mean_field_trajectory(
            quiet_scenario(dephasing_rate=delta, kappa=2.0 * delta * (1.0 + 3e-5)),
            times,
        )
        just_inside = mean_field_trajectory(
            quiet_scenario(dephasing_rate=delta, kappa=2.0 * delta * (1.0 + 1e-7)),
            times,
        )
    scale = float(np.max(np.abs(on_branch)))
    assert scale > 0
    assert float(np.max(np.abs(nearby - on_branch))) < 1e-3 * scale
    assert float(np.max(np.abs(just_inside - on_branch))) < 1e-5 * scale


def test_closed_form_is_accurate_through_the_removable_point():
    """Against a 50-digit reference, the trajectory (t <= 10/Delta) and the
    peak time hold 1e-14 relative at every offset of kappa from 2 Delta, from
    0.5 down to 1e-17 and 0, on both sides: no cancellation next to the
    limit, no tolerance band around it.  Each public call still warns once."""
    from decimal import Decimal, localcontext

    def reference(scen, t):
        g, n, k, d, t = map(Decimal, (scen.coupling, scen.n_spins, scen.kappa,
                                      scen.dephasing_rate, t))
        if 2 * d == k:
            return g * n / 2 * t * (-k * t / 2).exp()
        return g * n * ((-k * t / 2).exp() - (-d * t).exp()) / (2 * d - k)

    def reference_peak(scen):
        k, d = Decimal(scen.kappa), Decimal(scen.dephasing_rate)
        return 2 / k if 2 * d == k else (2 * d / k).ln() / (d - k / 2)

    delta = TWO_PI * 1e6
    times = np.linspace(0.0, 10.0 / delta, 41)
    offsets = [0.5, 1e-2, 1e-4, 1e-6, 1e-7, 1e-9, 1e-12, 1e-15, 1e-16, 1e-17]
    for kappa in [2.0 * delta] + [2.0 * delta * (1.0 + s * x) for x in offsets for s in (1, -1)]:
        scen = quiet_scenario(dephasing_rate=delta, kappa=kappa)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = mean_field_trajectory(scen, times)
            peak = peak_photon_number(scen)
        assert len(caught) == 2
        with localcontext() as ctx:
            ctx.prec = 50
            want = np.array([float(reference(scen, t)) for t in times])
            t_peak = float(reference_peak(scen))
            n_max = float(reference(scen, peak.t_peak) ** 2)
        assert float(np.max(np.abs(got - (-1j) * want))) <= 1e-14 * float(np.max(want))
        assert abs(peak.t_peak - t_peak) <= 1e-14 * t_peak
        assert abs(peak.exact_max - n_max) <= 1e-14 * n_max


def test_peak_estimate_reaches_one_photon():
    # N = 2 Delta / g puts the kappa << Delta peak estimate at exactly one
    delta = TWO_PI * 2.8e6
    g = TWO_PI * 10.0
    scen = quiet_scenario(kappa=delta / 10.0, n_spins=2.0 * delta / g)
    rep = peak_photon_number(scen)
    assert isinstance(rep, PeakPhotons)
    assert rep.analytic_estimate == pytest.approx(1.0, rel=1e-12)
    assert rep.exact_max < rep.analytic_estimate


@pytest.mark.parametrize(
    "ratio, frozen_dev",
    [(1e-1, 0.2703), (1e-2, 0.0519), (1e-3, 0.0076)],
)
def test_peak_estimate_convergence_to_exact(ratio, frozen_dev):
    # the kappa << Delta estimate overshoots the exact closed-form maximum
    # by a deviation bounded by (kappa/Delta) ln(2 e Delta / kappa)
    delta = TWO_PI * 2.8e6
    scen = quiet_scenario(kappa=delta * ratio, dephasing_rate=delta)
    rep = peak_photon_number(scen)
    dev = abs(rep.exact_max / rep.analytic_estimate - 1.0)
    assert dev == pytest.approx(frozen_dev, rel=2e-2)
    assert dev < ratio * math.log(2.0 * math.e / ratio)


def test_peak_time_is_the_trajectory_maximum():
    scen = quiet_scenario()
    rep = peak_photon_number(scen)
    at_peak = float(np.abs(mean_field_trajectory(scen, [rep.t_peak]))[0]) ** 2
    assert at_peak == pytest.approx(rep.exact_max, rel=1e-12)
    probe = rep.t_peak * np.linspace(0.5, 1.5, 201)
    squared = np.abs(mean_field_trajectory(scen, probe)) ** 2
    assert float(np.max(squared)) <= rep.exact_max * (1.0 + 1e-9)


def test_min_spins_reference_numbers():
    n_min = min_detectable_spins(10.0, 2.8e6, 0.05)
    assert n_min == pytest.approx(1.2522e5, rel=1e-4)
    assert 1.0e5 <= n_min <= 1.5e5
    # only the Delta/g ratio matters, so the unit cancels
    assert min_detectable_spins(TWO_PI * 10.0, TWO_PI * 2.8e6, 0.05) == pytest.approx(
        n_min, rel=1e-14
    )


def test_min_spins_threshold_scaling():
    g, delta = 10.0, 2.8e6
    assert min_detectable_spins(g, delta, 1.0) == pytest.approx(
        2.0 * delta / g, rel=1e-12
    )
    assert min_detectable_spins(g, delta, 0.2) / min_detectable_spins(
        g, delta, 0.05
    ) == pytest.approx(2.0, rel=1e-12)
    for bad in ({"coupling": 0.0}, {"dephasing_rate": -1.0}, {"n_threshold": 0.0}):
        kwargs = dict(coupling=g, dephasing_rate=delta, n_threshold=0.05)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            min_detectable_spins(**kwargs)


def test_threshold_round_trip_identity():
    # N_min inverted back through the peak estimate returns the threshold
    rng = np.random.default_rng(20260823)
    for _ in range(5):
        g = TWO_PI * rng.uniform(1.0, 100.0)
        delta = TWO_PI * rng.uniform(1e5, 1e7)
        n_th = rng.uniform(0.01, 1.0)
        n_min = min_detectable_spins(g, delta, n_th)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = peak_photon_number(
                WeakCouplingScenario(
                    coupling=g,
                    dephasing_rate=delta,
                    kappa=delta / 1e3,
                    n_spins=n_min,
                    n_threshold=n_th,
                )
            )
        assert rep.analytic_estimate == pytest.approx(n_th, rel=1e-10)


def test_regime_warnings():
    strong = quiet_scenario(coupling=TWO_PI * 100.0, n_spins=1e4, kappa=TWO_PI * 1e3)
    with pytest.warns(UserWarning, match="back-action"):
        mean_field_trajectory(strong, [0.0, 1e-7])
    lossy = quiet_scenario(
        coupling=TWO_PI * 0.01, kappa=TWO_PI * 1e5, dephasing_rate=TWO_PI * 1e5
    )
    with pytest.warns(UserWarning, match="not small against Delta"):
        peak_photon_number(lossy)
