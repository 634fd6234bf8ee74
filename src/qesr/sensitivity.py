"""Detection-floor estimates in the weak-coupling regime.

Complementary operating point to the transfer dynamics: N spins with
single-spin coupling g are excited to saturation by a hard pi/2 pulse and
radiate collectively into a cavity they are weakly coupled to
(g sqrt(N) << kappa << Delta, with Delta the inhomogeneous dephasing rate
of the free-induction signal).  Neglecting back-action, the intra-cavity
mean field in the frame rotating at the common resonance obeys

    d<a>/dt = -(kappa/2) <a> - i g <S_->,     <S_->(t) = (N/2) e^{-Delta t}

whose closed-form solution is

    <a>(t) = -i g N (e^{-kappa t/2} - e^{-Delta t}) / (2 Delta - kappa),

with the removable limit -i g (N/2) t e^{-kappa t/2} at kappa = 2 Delta.
For kappa << Delta the peak cavity photon number approaches
n = (g N / (2 Delta))^2, which inverts to the minimum detectable spin
number N_min = (2 Delta / g) sqrt(n_threshold).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import _warn

__all__ = [
    "WeakCouplingScenario",
    "PeakPhotons",
    "mean_field_trajectory",
    "peak_photon_number",
    "min_detectable_spins",
]

N_THRESHOLD = 0.05  # default detection threshold, in mean cavity photons


@dataclass(frozen=True)
class WeakCouplingScenario:
    """Spin ensemble radiating into a weakly coupled cavity.

    coupling: single-spin coupling g (rad/s); dephasing_rate: inhomogeneous
    free-induction decay rate Delta (rad/s); kappa: cavity energy decay rate
    (rad/s); n_spins: number of spins N; n_threshold: smallest mean cavity
    photon number the detector resolves.
    """

    coupling: float
    dephasing_rate: float
    kappa: float
    n_spins: float
    n_threshold: float = N_THRESHOLD

    def __post_init__(self):
        for name in ("coupling", "dephasing_rate", "kappa", "n_spins", "n_threshold"):
            v = getattr(self, name)
            if not (v > 0 and np.isfinite(v)):
                raise ValueError(f"WeakCouplingScenario.{name} must be positive and finite")

    def check_validity(self) -> None:
        """Warn when outside g sqrt(N) << kappa << Delta."""
        g_coll = self.coupling * math.sqrt(self.n_spins)
        if g_coll > self.kappa / 10.0:
            _warn(
                f"g*sqrt(N) = {g_coll:.3g} rad/s is not small against kappa = "
                f"{self.kappa:.3g} rad/s; back-action is not negligible"
            )
        if self.kappa > self.dephasing_rate / 10.0:
            _warn(
                f"kappa = {self.kappa:.3g} rad/s is not small against Delta = "
                f"{self.dephasing_rate:.3g} rad/s; the peak-photon estimate "
                "(g N / 2 Delta)^2 degrades"
            )


def _closed_form(scenario: WeakCouplingScenario):
    """The real amplitude i <a>(t) as a function of t, and the time t* of its
    peak: g N (e^{-kappa t/2} - e^{-Delta t}) / (2 Delta - kappa) and
    t* = ln(2 Delta/kappa)/(Delta - kappa/2).  With x = Delta - kappa/2, so
    that 2 Delta - kappa = 2x exactly, and s = min(Delta, kappa/2) they are
    g N e^{-s t} (-expm1(-|x| t)) / (2|x|) and log1p(2x/kappa)/x: no
    difference of close numbers at any x, and no overflow at any t.  Only
    x = 0 takes the limits g (N/2) t e^{-kappa t/2} and t* = 2/kappa.

    For kappa > 4 Delta, 2x/kappa nears -1 and log1p loses the digits of
    2 Delta/kappa, so t* takes log(2 Delta/kappa)/x there, or the sum of
    logs where 2 Delta/kappa is subnormal or 2x/kappa overflows."""
    g, n, k, d = scenario.coupling, scenario.n_spins, scenario.kappa, scenario.dephasing_rate
    x = d - 0.5 * k
    s = min(d, 0.5 * k)
    if x == 0.0:
        return (lambda t: g * (n / 2.0) * t * np.exp(-s * t)), 2.0 / k
    ax = abs(x)
    r, ratio = 2.0 * x / k, 2.0 * d / k
    if -0.5 <= r < math.inf:
        t_peak = math.log1p(r) / x
    elif r < -0.5 and ratio >= sys.float_info.min:
        t_peak = math.log(ratio) / x
    else:
        t_peak = (math.log(2.0) + math.log(d) - math.log(k)) / x
    return (lambda t: g * n * np.exp(-s * t) * -np.expm1(-ax * t) / (2.0 * ax)), t_peak


def mean_field_trajectory(scenario: WeakCouplingScenario, times) -> np.ndarray:
    """<a>(t) for t >= 0 in the rotating frame (complex array).

    Warns when the scenario sits outside the weak-coupling window.
    """
    scenario.check_validity()
    t = np.asarray(times, dtype=float)
    if np.any(t < 0):
        raise ValueError("times must be non-negative")
    amplitude, _ = _closed_form(scenario)
    return -1j * amplitude(t)


@dataclass(frozen=True)
class PeakPhotons:
    """Peak intra-cavity photon number and when it occurs."""

    analytic_estimate: float  # (g N / 2 Delta)^2, kappa << Delta limit
    exact_max: float  # max_t |<a>(t)|^2 of the closed-form trajectory
    t_peak: float


def peak_photon_number(scenario: WeakCouplingScenario) -> PeakPhotons:
    """Peak photon number: the kappa << Delta estimate and the exact maximum.

    The trajectory's extremum is at t* = ln(2 Delta/kappa)/(Delta - kappa/2)
    (t* = 2/kappa in the degenerate limit kappa = 2 Delta).  Warns when the
    scenario sits outside the weak-coupling window.
    """
    scenario.check_validity()
    amplitude, t_peak = _closed_form(scenario)
    amp = float(amplitude(t_peak))
    estimate = scenario.coupling * scenario.n_spins / (2.0 * scenario.dephasing_rate)
    return PeakPhotons(analytic_estimate=estimate * estimate, exact_max=amp * amp, t_peak=t_peak)


def min_detectable_spins(
    coupling: float, dephasing_rate: float, n_threshold: float = N_THRESHOLD
) -> float:
    """Smallest N whose peak emission reaches n_threshold cavity photons.

    Inverts the kappa << Delta estimate: N_min = (2 Delta / g) sqrt(n_th).
    coupling and dephasing_rate only enter as a ratio, so any consistent
    frequency unit works.
    """
    if not coupling > 0:
        raise ValueError("coupling must be positive")
    if not dephasing_rate > 0:
        raise ValueError("dephasing_rate must be positive")
    if not n_threshold > 0:
        raise ValueError("n_threshold must be positive")
    return (2.0 * dephasing_rate / coupling) * math.sqrt(n_threshold)
