"""Qubit-detected ESR protocol built on the transfer dynamics.

The measurement cycle modeled here: a single microwave photon's worth of
excitation is either (a) swapped from the qubit into the cavity, stored in
the ensemble, and swapped back (`simulate_swap`, which calibrates the swap
time), or (b) absorbed by the spin ensemble from a weak pump pulse and
retrieved through the cavity into the qubit (`esr_spectrum`).  The qubit and
its adiabatic swap are not dynamical here — they enter as one end-to-end
transfer efficiency and one readout fidelity, plus an optional dark-count
baseline.

Excited-state probability model, per pump pulse of n_pump photons:

    P_e = readout_fidelity * swap_efficiency * n_pump * |beta|^2 + baseline

clipped to [0, 1].  The model is linear in the excitation number, so a
guard raises once the unclipped value exceeds `saturation_guard` — beyond
that the one-excitation treatment is meaningless.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from ._blas import np
from ._shared import MODE_NARROW, ODE_RTOL, _SWAP_PERIODS, _SWAP_POINTS
from .dynamics import CavityModel, InversionSettings, PulseEnvelope
from .dynamics import _cavity_amplitude, _float_arg, time_domain_propagate, transfer_sweep
from .errors import NoOscillationError, NumericalGuardError, SaturationError, _warn
from .spin_model import SpinDistribution, _freeze, _write_csv

__all__ = [
    "QubitChain",
    "SwapTrace",
    "SwapCalibration",
    "SpectrumResult",
    "BudgetReport",
    "simulate_swap",
    "find_swap_time",
    "esr_spectrum",
    "spectrum_peaks",
    "excitation_budget",
]


@dataclass(frozen=True)
class QubitChain:
    """Detection-chain parameters for converting |beta|^2 into P_e."""

    swap_efficiency: float = 1.0
    readout_fidelity: float = 1.0
    baseline: float = 0.0
    saturation_guard: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.swap_efficiency <= 1.0:
            raise ValueError("swap_efficiency must be in (0, 1]")
        if not 0.0 < self.readout_fidelity <= 1.0:
            raise ValueError("readout_fidelity must be in (0, 1]")
        if not 0.0 <= self.baseline < 1.0:
            raise ValueError("baseline must be in [0, 1)")
        if not 0.0 < self.saturation_guard <= 1.0:
            raise ValueError("saturation_guard must be in (0, 1]")

    def excited_probability(self, abs2_beta, n_pump: float = 1.0) -> np.ndarray:
        """P_e from |beta|^2.

        Raises SaturationError when the mean transferred photon number
        n_pump * |beta|^2 exceeds the guard anywhere, and ValueError for a
        negative or non-finite n_pump or a NaN |beta|^2.
        """
        if not 0 <= n_pump < math.inf:  # a NaN fails too
            raise ValueError("n_pump must be non-negative and finite")
        abs2 = np.asarray(abs2_beta, dtype=float)
        if np.isnan(abs2).any():
            raise ValueError("abs2_beta must be free of NaN")
        transferred = n_pump * abs2
        worst = float(np.max(transferred, initial=0.0))  # 0.0: no pumps, no excess
        # a lossless trace sits at occupancy 1.0 up to integrator round-off;
        # the guard must not trip on that last-digit excess
        if worst > self.saturation_guard * (1.0 + 1e-9):
            raise SaturationError(
                f"transferred mean photon number {worst:.3f} exceeds the guard "
                f"{self.saturation_guard:.3f}"
            )
        raw = self.readout_fidelity * self.swap_efficiency * transferred + self.baseline
        return np.clip(raw, 0.0, 1.0)


@dataclass(frozen=True)
class SwapCalibration:
    """Swap-time calibration extracted from a storage trace."""

    tau_swap: float  # first cavity-population minimum (s)
    osc_frequency: float  # population oscillation frequency pi/tau_swap (rad/s)
    pop_min: float  # cavity population at tau_swap
    return_time: Optional[float] = None  # first population maximum after tau_swap
    return_pe: Optional[float] = None  # P_e at the photon-return peak


@dataclass(frozen=True)
class SwapTrace:
    """Cavity population and qubit P_e versus storage time, with calibration.

    calibration is None when no population dip is resolved (decoupled or
    overdamped trace).
    """

    taus: np.ndarray
    cavity_abs2: np.ndarray
    pe: np.ndarray
    calibration: Optional[SwapCalibration] = None

    def __post_init__(self):
        _freeze(self, taus=float, cavity_abs2=float, pe=float)

    @property
    def tau_swap(self) -> Optional[float]:
        return self.calibration.tau_swap if self.calibration else None

    @property
    def osc_frequency(self) -> Optional[float]:
        return self.calibration.osc_frequency if self.calibration else None

    def to_csv(self, path) -> None:
        _write_csv(path, "tau_s,cavity_abs2,p_e", self.taus, self.cavity_abs2, self.pe)


def _refine_parabolic(x: np.ndarray, y: np.ndarray, i: int) -> Tuple[float, float]:
    """Vertex of the parabola through points i-1, i, i+1 (falls back to i)."""
    if not 0 < i < y.size - 1:
        return float(x[i]), float(y[i])
    y0, y1, y2 = float(y[i - 1]), float(y[i]), float(y[i + 1])
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(x[i]), y1
    delta = float(np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5))
    return float(x[i] + delta * (x[i + 1] - x[i])), y1 - 0.25 * (y0 - y2) * delta


def _prominent_peaks(x: np.ndarray, prominence: float) -> np.ndarray:
    """Indices of the peaks of x whose prominence is at least `prominence`.

    The rules of SciPy's find_peaks(x, prominence=...): a peak is a strict
    local maximum, a flat top counts once at its middle sample (rounded
    down), and the end points are never peaks.  Each base is the lowest
    sample on its side before the first strictly higher one (or the end of
    x); the prominence is the peak's height above the higher base.
    """
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        return np.empty(0, dtype=np.intp)
    # runs of equal samples; a run is a peak when both neighbouring runs are lower
    last = np.flatnonzero(x[1:] != x[:-1])
    starts = np.concatenate(([0], last + 1))
    ends = np.concatenate((last, [x.size - 1]))
    v = x[starts]
    top = np.flatnonzero((v[:-2] < v[1:-1]) & (v[2:] < v[1:-1])) + 1
    peaks = (starts[top] + ends[top]) // 2
    keep = np.zeros(peaks.size, dtype=bool)
    for k, p in enumerate(peaks):
        higher = np.flatnonzero(x[:p] > x[p])
        left = x[higher[-1] + 1 if higher.size else 0 : p + 1].min()
        higher = np.flatnonzero(x[p:] > x[p])
        right = x[p : p + higher[0] if higher.size else x.size].min()
        keep[k] = x[p] - max(left, right) >= prominence
    return peaks[keep]


def _calibrate_trace(
    taus: np.ndarray, pop: np.ndarray, pe: np.ndarray, min_drop: float
) -> Optional[SwapCalibration]:
    top = float(np.max(pop))
    if top <= 0.0:
        return None
    dips = _prominent_peaks(-pop, min_drop * top)
    if dips.size == 0:
        return None
    i = int(dips[0])
    t_min, p_min = _refine_parabolic(taus, pop, i)
    if not t_min > 0.0:
        return None
    ret_t = ret_pe = None
    later = pop[i:]
    tops = _prominent_peaks(later, min_drop * top)
    if tops.size:
        j = i + int(tops[0])
        ret_t, _ = _refine_parabolic(taus, pop, j)
        _, ret_pe = _refine_parabolic(taus, pe, j)
    return SwapCalibration(
        tau_swap=t_min,
        osc_frequency=math.pi / t_min,
        pop_min=p_min,
        return_time=ret_t,
        return_pe=ret_pe,
    )


def _storage_taus(dist: SpinDistribution, taus) -> np.ndarray:
    taus = np.atleast_1d(_float_arg(taus, "taus", 1))
    if taus.size < 3:
        raise ValueError("need at least 3 storage times")
    if np.any(np.diff(taus) < 0):
        raise ValueError("storage times must be non-decreasing")
    period = math.pi / dist.g_collective if dist.g_collective > 0.0 else math.inf
    if float(np.max(np.diff(taus))) > period / 10.0:
        raise NumericalGuardError(
            "storage-time grid coarser than a tenth of the expected "
            "oscillation period pi/g_K; refine the tau grid"
        )
    return taus


def simulate_swap(
    dist: SpinDistribution,
    cavity: CavityModel,
    chain: QubitChain,
    taus,
    rtol: float = ODE_RTOL,
    min_drop: float = 0.05,
) -> SwapTrace:
    """Storage trace: the excitation starts in the cavity (already swapped in).

    The cavity correlation <a(t) a†(0)> is propagated directly;
    P_e(tau) = readout_fidelity * swap_efficiency * |<a(tau) a†(0)>|^2
    + baseline.  The first population minimum (full transfer into the
    ensemble) and the following photon-return maximum are identified and
    attached as `calibration`; min_drop sets the fractional prominence a dip
    must have to count.
    """
    taus = _storage_taus(dist, taus)
    if dist.g_collective == 0.0:
        _warn("collective coupling is zero; the trace shows bare cavity decay only")
    res = time_domain_propagate(dist, cavity, "cavity", taus, rtol=rtol)
    cavity_abs2 = res.abs2
    pe = chain.excited_probability(cavity_abs2)
    cal = _calibrate_trace(taus, cavity_abs2, pe, min_drop)
    return SwapTrace(taus=taus, cavity_abs2=cavity_abs2, pe=pe, calibration=cal)


def find_swap_time(
    dist: SpinDistribution,
    cavity: CavityModel,
    taus=None,
    rtol: Optional[float] = None,
    min_drop: float = 0.05,
) -> SwapCalibration:
    """Swap-time calibration: first cavity-population minimum, parabola-refined.

    With taus omitted, a storage grid of 1.2 oscillation periods at 400
    points per period is generated from g_K.  The cavity population comes
    from the contour route, by inversion of the cavity response t1 with
    default `InversionSettings`, lossless systems included; `simulate_swap`
    is the ODE route.  rtol is accepted for compatibility and has no effect.
    Raises NoOscillationError when the coupling is zero or the trace shows
    no resolvable dip; the message names g_K against the cavity's detuning
    and the widest spin line, and the losses when kappa or gamma0 is above 0.
    """
    if not dist.g_collective > 0.0:
        raise NoOscillationError("collective coupling is zero; nothing oscillates")
    if taus is None:
        taus = np.linspace(0.0, _SWAP_PERIODS * math.pi / dist.g_collective, _SWAP_POINTS)
    taus = _storage_taus(dist, taus)
    pop = np.abs(_cavity_amplitude(dist, cavity, taus)) ** 2
    cal = _calibrate_trace(taus, pop, pop, min_drop)  # P_e of an ideal chain is the population
    if cal is None:
        detuning = cavity.omega_c - float(dist.weights @ dist.omega_nodes)
        width = max(ln.fwhm for ln in dist.lines)
        losses = " and the losses (overdamped)" if cavity.kappa > 0.0 or cavity.gamma0 > 0.0 else ""
        raise NoOscillationError(
            f"no cavity-population minimum found: g_K = {dist.g_collective:.3e} rad/s too "
            f"weak against the cavity's detuning of {detuning:.3e} rad/s from the spins' "
            f"mean frequency, spin lines up to {width:.3e} rad/s wide{losses}, or the "
            "storage span too short"
        )
    return cal


@dataclass(frozen=True)
class SpectrumResult:
    """Qubit-detected ESR spectrum at fixed interaction time tau_s."""

    omega_p: np.ndarray
    abs2_beta: np.ndarray
    pe: np.ndarray
    tau_s: float
    n_excitations_peak: float  # pump photons n_pump in the probed mode
    scale: float  # readout_fidelity * swap_efficiency * n_pump

    def __post_init__(self):
        _freeze(self, omega_p=float, abs2_beta=float, pe=float)

    def to_csv(self, path) -> None:
        _write_csv(path, "omega_p_rad_per_s,abs2_beta,p_e", self.omega_p, self.abs2_beta, self.pe)


def esr_spectrum(
    dist: SpinDistribution,
    cavity: CavityModel,
    env: PulseEnvelope,
    chain: QubitChain,
    omega_ps,
    tau_s: float,
    n_pump: float = 1.0,
    mode: str = MODE_NARROW,
    settings: Optional[InversionSettings] = None,
) -> SpectrumResult:
    """P_e versus pump frequency: pump -> ensemble -> cavity -> qubit.

    beta(omega_p, tau_s) comes from the contour route (`transfer_sweep`);
    P_e = readout_fidelity * swap_efficiency * n_pump * |beta|^2 + baseline,
    guarded against saturation and clipped to [0, 1].  n_pump = 0 returns
    the baseline everywhere.
    """
    omega_ps = _float_arg(omega_ps, "omega_ps", 1)
    if not 0 <= n_pump < math.inf:  # a NaN fails too
        raise ValueError("n_pump must be non-negative and finite")
    if n_pump == 0.0:
        abs2 = np.zeros(omega_ps.shape)
    else:
        beta = transfer_sweep(dist, cavity, env, omega_ps, tau_s, mode=mode, settings=settings)
        abs2 = np.abs(beta) ** 2
    try:
        pe = chain.excited_probability(abs2, n_pump=n_pump)
    except SaturationError:
        i = int(np.argmax(abs2))
        raise SaturationError(
            f"transferred mean photon number {float(n_pump * abs2[i]):.3f} exceeds "
            f"the guard {chain.saturation_guard:.3f} at omega_p = "
            f"{float(omega_ps[i])!r} rad/s; reduce n_pump"
        ) from None
    return SpectrumResult(
        omega_p=omega_ps,
        abs2_beta=abs2,
        pe=pe,
        tau_s=float(tau_s),
        n_excitations_peak=float(n_pump),
        scale=chain.readout_fidelity * chain.swap_efficiency * float(n_pump),
    )


def spectrum_peaks(
    result: SpectrumResult, min_prominence: float = 0.05
) -> Tuple[np.ndarray, np.ndarray]:
    """Peak positions and heights in the spectrum, parabola-refined.

    min_prominence is a fraction of the full P_e range.  Returns
    (omega_peaks, pe_peaks) sorted by frequency.
    """
    pe = result.pe
    w = result.omega_p
    span = float(np.max(pe) - np.min(pe))
    if span <= 0.0:
        return np.empty(0), np.empty(0)
    idx = _prominent_peaks(pe, min_prominence * span)
    pos, height = [], []
    for i in idx:
        wi, hi = _refine_parabolic(w, pe, int(i))
        pos.append(wi)
        height.append(hi)
    order = np.argsort(pos)
    return np.asarray(pos, dtype=float)[order], np.asarray(height, dtype=float)[order]


@dataclass(frozen=True)
class BudgetReport:
    """How the pump excitation divides between probed mode and cavity."""

    omega_p: float
    tau_s: float
    n_bp_mode: float  # excitations in the pulse-excited collective mode
    n_transferred: float  # excitations reaching the cavity, n_bp * |beta|^2
    ratio: float  # n_bp_mode / n_transferred = 1 / |beta(tau_s)|^2
    retrieved_fraction: float  # |beta(tau_s)|^2


def excitation_budget(
    dist: SpinDistribution,
    cavity: CavityModel,
    env: PulseEnvelope,
    n_pump: float,
    omega_p: float,
    tau_s: float,
    mode: str = MODE_NARROW,
    settings: Optional[InversionSettings] = None,
) -> BudgetReport:
    """Excitation budget at one pump frequency and interaction time.

    The ratio is of order (effective sampled linewidth)/(pulse bandwidth):
    only the overlap of the pulse-excited mode with the superradiant mode
    reaches the cavity.
    """
    if not 0 < n_pump < math.inf:  # a NaN fails too
        raise ValueError("n_pump must be positive and finite")
    omega_p = float(_float_arg(omega_p, "omega_p", 0))
    beta = transfer_sweep(dist, cavity, env, omega_p, tau_s, mode=mode, settings=settings)
    frac = float(abs(beta[0]) ** 2)
    if frac <= 0.0:
        raise ValueError("retrieved fraction is zero at this pump frequency")
    return BudgetReport(
        omega_p=omega_p,
        tau_s=float(tau_s),
        n_bp_mode=float(n_pump),
        n_transferred=float(n_pump) * frac,
        ratio=1.0 / frac,
        retrieved_fraction=frac,
    )
