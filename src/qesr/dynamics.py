"""Linear cavity / spin-ensemble transfer dynamics.

In the low-excitation regime the coupled system is linear: the correlation
vector X(t) = (<a(t) c†(0)>, <b_1(t) c†(0)>, ...) obeys dX/dt = -i M X with
the arrow-structured matrix

    M = [[w_c - i k/2,  i g_1,        i g_2,       ...],
         [-i g_1,       w_1 - i y/2,  0,           ...],
         [-i g_2,       0,            w_2 - i y/2, ...]]

(k = cavity energy decay rate, y = spin linewidth gamma_0).  Two independent
routes to the transfer amplitude beta(t) are provided:

* a spectral route: resolvent matrix elements assembled from the memory
  kernel W and the cavity response t1, inverted to the time domain by a
  Bromwich integral evaluated on the line Im(omega) = eta > 0 (exact for any
  eta > 0 since all system poles lie in the closed lower half plane);
* a brute-force route: direct ODE propagation of dX/dt = -i M X by the
  8th-order Dormand-Prince method (`qesr._dop853`).

Phase convention: with the matrix above, the degenerate lossless ensemble
gives beta(t) = +exp(-i w t) sin(g_K t), i.e. beta * exp(+i w t) is real
positive at small t.

All frequencies are angular (rad/s); times are seconds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ._dop853 import dop853
from .errors import NumericalGuardError, PoleCollisionError, WindowTooSmallError, _warn
from .spin_model import SpinDistribution, _freeze, _write_csv, density_at

__all__ = [
    "CavityModel",
    "PulseEnvelope",
    "TransferResult",
    "InversionSettings",
    "MODE_NARROW",
    "MODE_EXACT",
    "memory_kernel_W",
    "cavity_amplitude_t1",
    "pulse_constant_A",
    "transfer_spectrum_t",
    "invert_to_time",
    "transfer_sweep",
    "time_domain_propagate",
]

MODE_NARROW = "narrow-pulse"
MODE_EXACT = "exact-convolution"
_MODES = (MODE_NARROW, MODE_EXACT)

_SQRT_8LN2 = 2.0 * math.sqrt(2.0 * math.log(2.0))


@dataclass(frozen=True)
class CavityModel:
    """Cavity frequency, energy decay rate kappa, and spin linewidth gamma_0.

    All rates angular (rad/s).  kappa = omega_c / Q for a loaded quality
    factor Q.
    """

    omega_c: float
    kappa: float
    gamma0: float = 0.0

    def __post_init__(self):
        if not (self.omega_c > 0 and np.isfinite(self.omega_c)):
            raise ValueError("CavityModel.omega_c must be positive and finite")
        if self.kappa < 0 or not np.isfinite(self.kappa):
            raise ValueError("CavityModel.kappa must be >= 0 and finite")
        if self.gamma0 < 0 or not np.isfinite(self.gamma0):
            raise ValueError("CavityModel.gamma0 must be >= 0 and finite")

    @classmethod
    def from_quality(cls, omega_c: float, q: float, gamma0: float = 0.0) -> "CavityModel":
        if not q > 0:
            raise ValueError("quality factor must be positive")
        return cls(omega_c=omega_c, kappa=omega_c / q, gamma0=gamma0)


@dataclass(frozen=True)
class PulseEnvelope:
    """Spectral amplitude envelope alpha(x) of the spectroscopy pulse.

    x is the detuning from the pulse carrier (rad/s).  Shapes:

    * "lorentzian": alpha(x) = 1 / (1 + (4x/delta)^2) with delta = `fwhm`.
      The amplitude profile has FWHM delta/2; this scale definition makes the
      spectral constant exactly A = sqrt(pi*delta/2).
    * "gaussian": alpha(x) = exp(-4 ln2 x^2 / delta^2), amplitude FWHM delta.
    * "rectangular": a flat drive of `duration` T in time,
      alpha(x) = sinc(x T / 2); `fwhm` is derived (7.5820/T).

    `bandwidth_scale`, derived, is the characteristic spectral half-width
    (fwhm/4, fwhm/sqrt(8 ln 2) or 2/T); it sets pole offsets and margins.
    """

    shape: str
    fwhm: Optional[float] = None
    duration: Optional[float] = None
    bandwidth_scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.shape not in ("lorentzian", "gaussian", "rectangular"):
            raise ValueError(f"unknown pulse shape {self.shape!r}")
        if self.shape == "rectangular":
            if not (self.duration and self.duration > 0):
                raise ValueError("rectangular pulse requires duration > 0")
            # amplitude half max of sinc at x*T/2 = 1.89549
            object.__setattr__(self, "fwhm", 4.0 * 1.8954942670339809 / self.duration)
            scale = 2.0 / self.duration
        else:
            if not (self.fwhm and self.fwhm > 0):
                raise ValueError(f"{self.shape} pulse requires fwhm > 0")
            if self.duration is not None:
                raise ValueError("duration applies to the rectangular shape only")
            scale = self.fwhm / (4.0 if self.shape == "lorentzian" else _SQRT_8LN2)
        object.__setattr__(self, "bandwidth_scale", scale)

    def amplitude(self, x):
        """alpha(x); real, peak value 1 at x = 0."""
        x = np.asarray(x, dtype=float)
        s = self.bandwidth_scale
        if self.shape == "lorentzian":
            return s * s / (x * x + s * s)
        if self.shape == "gaussian":
            return np.exp(-0.5 * (x / s) ** 2)
        return np.sinc(x * self.duration / (2.0 * np.pi))

    @property
    def norm_l1(self) -> float:
        """integral of alpha dx."""
        if self.shape == "lorentzian":
            return math.pi * self.bandwidth_scale
        if self.shape == "gaussian":
            return self.bandwidth_scale * math.sqrt(2.0 * math.pi)
        return 2.0 * math.pi / self.duration

    @property
    def norm_l2_sq(self) -> float:
        """integral of alpha^2 dx."""
        if self.shape == "lorentzian":
            return math.pi * self.bandwidth_scale / 2.0
        if self.shape == "gaussian":
            return self.bandwidth_scale * math.sqrt(math.pi)
        return 2.0 * math.pi / self.duration

    def cauchy(self, u):
        """integral of alpha(x) / (u - x) dx for Im(u) > 0 (closed forms).

        Tends to norm_l1 / u as |u| grows; real-axis values are the
        boundary limit from above (PV - i pi alpha).
        """
        u = np.asarray(u, dtype=complex)
        s = self.bandwidth_scale
        if self.shape == "lorentzian":
            return math.pi * s / (u + 1j * s)
        if self.shape == "gaussian":
            from scipy.special import wofz  # imported here: only this branch needs it

            return -1j * math.pi * wofz(u / (s * math.sqrt(2.0)))
        z = 0.5 * u * self.duration
        small = np.abs(z) < 1e-6
        zs = np.where(small, 1.0, z)
        out = (1.0 - np.exp(1j * zs)) / zs
        series = -1j + 0.5 * z  # (1 - e^{iz})/z to first order
        out = np.where(small, series, out)
        return out * math.pi


def pulse_constant_A(env: PulseEnvelope) -> float:
    """Spectral constant A = (int alpha) / sqrt(int alpha^2) in sqrt(rad/s).

    Closed forms: sqrt(pi*fwhm/2) (lorentzian), sqrt(2*sqrt(pi)*sigma)
    (gaussian), sqrt(2*pi/duration) (rectangular).
    """
    return env.norm_l1 / math.sqrt(env.norm_l2_sq)


@dataclass(frozen=True)
class TransferResult:
    """beta(t) = <a(t) b†(0)> on a time grid, for one pump frequency."""

    omega_p: float
    times: np.ndarray
    beta: np.ndarray
    method: str  # "contour" or "time-domain"

    def __post_init__(self):
        _freeze(self, times=float, beta=complex)

    @property
    def abs2(self) -> np.ndarray:
        return np.abs(self.beta) ** 2

    def to_csv(self, path) -> None:
        # per-element abs(b) ** 2: np.abs(beta) ** 2 differs in the last bit on some rows
        b = self.beta
        abs2 = (abs(x) ** 2 for x in b)
        _write_csv(path, "t_s,re_beta,im_beta,abs2_beta", self.times, b.real, b.imag, abs2)


# ---------------------------------------------------------------------------
# spectral building blocks


def _node_sums(dist: SpinDistribution, gamma0: float, zeta: np.ndarray, weights: np.ndarray):
    """sum_j weights_j / (zeta - w_j + i gamma0/2) at every zeta, dense.

    Chunked to bound memory.  Raises PoleCollisionError on an exact
    real-axis node hit with gamma0 = 0 (the caller must offset or
    complex-shift instead).
    """
    zeta = np.asarray(zeta, dtype=complex)
    flat = zeta.ravel()
    nodes = dist.omega_nodes
    if gamma0 == 0.0:
        real_mask = flat.imag == 0.0
        if np.any(real_mask) and np.any(np.isin(flat[real_mask].real, nodes)):
            raise PoleCollisionError(
                "evaluation frequency coincides with a spectral node and gamma_0 = 0; "
                "evaluate at a complex-shifted or offset frequency"
            )
    shift = 0.5j * gamma0
    out = np.empty(flat.shape, dtype=complex)
    step = max(1, 2_000_000 // max(nodes.size, 1))
    for s in range(0, flat.size, step):
        out[s : s + step] = (1.0 / (flat[s : s + step, None] - nodes[None, :] + shift)) @ weights
    return out.reshape(zeta.shape)


def memory_kernel_W(dist: SpinDistribution, cavity: CavityModel, omega):
    """Spin memory kernel W(omega) = sum_j g_j^2 / (omega - w_j + i gamma0/2).

    omega may be real or complex, scalar or array.  With gamma0 = 0 and a
    dense grid, evaluating at omega + i*eta (node spacing << eta << line
    width) approximates the continuum kernel; for a single Lorentzian line of
    FWHM w that limit is g_K^2 / (omega - w_s + i w/2).
    """
    scalar = np.isscalar(omega)
    W = _node_sums(dist, cavity.gamma0, omega, dist.couplings_sq)
    return complex(W) if scalar else W


def _t1(cavity: CavityModel, zeta: np.ndarray, W: np.ndarray) -> np.ndarray:
    return 1j / (zeta - cavity.omega_c + 0.5j * cavity.kappa - W)


def cavity_amplitude_t1(dist: SpinDistribution, cavity: CavityModel, omega):
    """Cavity response t1(-i omega) = i / (omega - w_c + i kappa/2 - W(omega))."""
    if cavity.kappa == 0.0 and cavity.gamma0 == 0.0:
        raise ValueError("cavity_amplitude_t1 requires kappa > 0 or gamma0 > 0")
    scalar = np.isscalar(omega)
    zeta = np.asarray(omega, dtype=complex)
    t1 = _t1(cavity, zeta, _node_sums(dist, cavity.gamma0, zeta, dist.couplings_sq))
    return complex(t1) if scalar else t1


def _narrow_scale(dist: SpinDistribution, env: PulseEnvelope, omega_p: float) -> float:
    """g_K * A * sqrt(rho(omega_p)) for the narrow-pulse factorization."""
    rho = density_at(dist, omega_p)
    return dist.g_collective * pulse_constant_A(env) * math.sqrt(max(rho, 0.0))


# Narrow-pulse mode is accurate to a few percent only for pulses narrower than
# the narrowest line by this factor (the bundled 1/10.7 and 1/16 are off by up
# to 4.8% and 4.0% of the peak).
_NARROW_RATIO = 20.0


def _check_narrow(dist: SpinDistribution, env: PulseEnvelope, mode: str) -> None:
    min_fwhm = min(ln.fwhm for ln in dist.lines)
    if mode == MODE_NARROW and env.fwhm > min_fwhm / _NARROW_RATIO:
        _warn(
            f"pulse bandwidth exceeds 1/{_NARROW_RATIO:g} of the narrowest line; "
            "narrow-pulse mode is inaccurate, use exact-convolution"
        )


def _no_overlap(dist: SpinDistribution, omega_p: float) -> NumericalGuardError:
    nodes = dist.omega_nodes
    return NumericalGuardError(
        f"pulse envelope at omega_p = {omega_p!r} rad/s has no overlap with the "
        f"spectral grid [{float(nodes[0])!r}, {float(nodes[-1])!r}] rad/s"
    )


def _exact_weights(dist: SpinDistribution, env: PulseEnvelope, omega_p: float):
    """Per-node alpha_j g_j^2 and the normalization D = sqrt(sum alpha^2 g^2).

    With zero coupling every weight is zero and D = 1, so beta = 0.
    """
    gsq = dist.couplings_sq
    if dist.g_collective == 0.0:
        return gsq, 1.0
    alpha = env.amplitude(dist.omega_nodes - omega_p)
    d_sq = float(np.sum(alpha * alpha * gsq))
    if not d_sq > 0.0:
        raise _no_overlap(dist, omega_p)
    return alpha * gsq, math.sqrt(d_sq)


def _pump_transfer(
    dist: SpinDistribution,
    cavity: CavityModel,
    env: PulseEnvelope,
    omega_p: float,
    zeta: np.ndarray,
    mode: str,
    t1: np.ndarray,
    numerator: Callable[[np.ndarray], np.ndarray],
) -> Tuple[np.ndarray, float]:
    """T = t_wp(-i zeta) at one pump, and its far-field coefficient c2.

    T tends to c2 / zeta^2 far from the spectrum.  t1 is the cavity response
    on zeta; numerator(weights) is the node sum of the weights on zeta
    (`_ContourGrid.convolve` on a contour, the dense `_node_sums` elsewhere),
    called once in exact mode and never in narrow mode.
    """
    if mode == MODE_NARROW:
        scale = _narrow_scale(dist, env, omega_p)
        shape = env.cauchy(zeta - omega_p + 0.5j * cavity.gamma0)
        return 1j * t1 * scale * shape / env.norm_l1, -scale
    extra, d_norm = _exact_weights(dist, env, omega_p)
    return 1j * t1 * numerator(extra) / d_norm, -float(np.sum(extra)) / d_norm


def transfer_spectrum_t(
    dist: SpinDistribution,
    cavity: CavityModel,
    env: PulseEnvelope,
    omega_p: float,
    omega,
    mode: str = MODE_NARROW,
):
    """Transfer spectrum t_wp(-i omega) = i t1(omega) N(omega) / D.

    In exact-convolution mode N and D are the node sums
    N = sum_k alpha(w_k - w_p) g_k^2 / (omega - w_k + i gamma0/2) and
    D = sqrt(sum_j alpha^2 g_j^2).  In narrow-pulse mode the ratio
    factorizes into g_K * A * sqrt(rho(w_p)) times the envelope's normalized
    Cauchy transform of (omega - w_p), which tends to 1/(omega - w_p) far
    from the pump.  omega may be complex (upper half plane for inversion).
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    _check_narrow(dist, env, mode)
    scalar = np.isscalar(omega)
    zeta = np.asarray(omega, dtype=complex)

    def numerator(weights):
        return _node_sums(dist, cavity.gamma0, zeta, weights)

    t1 = _t1(cavity, zeta, numerator(dist.couplings_sq))
    out, _ = _pump_transfer(dist, cavity, env, omega_p, zeta, mode, t1, numerator)
    return complex(out) if scalar else out


# ---------------------------------------------------------------------------
# contour inversion


# Auto-rule constants of the contour inversion (see InversionSettings).
_ETA_T = 0.25
_SAMPLES_PER_ETA = 8.0
_GROWTH = 1.6
_MAX_GROWTH = 6


@dataclass(frozen=True)
class InversionSettings:
    """Numerical controls for the Bromwich-contour inversion.

    Auto rules (used when a field is None): the contour offset is
    eta = 0.25 / t_max; the step is d_omega = eta / 8, which bounds the
    quadrature aliasing by e^{-eta (2 pi/d_omega - t_max)}, capped further at
    min(kappa, narrowest line FWHM)/20 so every spectral feature is resolved;
    the window starts from the line/cavity/outermost-pump structure plus
    margins scaled by g_K, the line widths, kappa and the pulse bandwidth,
    then grows by a factor 1.6 up to 6 times until, at both outermost pumps,
    the subtracted integrand at both window edges is at most
    edge_ratio * max|t1| * |c2| / (eta + pulse bandwidth), with c2 the pump's
    far-field coefficient (that quotient estimates the spectrum peak).  A
    window given here is used as is: if it fails that test,
    WindowTooSmallError is raised.

    Every grid, automatic or given, is snapped to the node lattice (see
    `_ContourGrid`): the step becomes the largest m h / q <= d_omega, for
    the smallest integer q that keeps it >= 3/4 d_omega (h = node spacing),
    and the window edges move outward onto the lattice, by less than a step.
    """

    window: Optional[Tuple[float, float]] = None
    d_omega: Optional[float] = None
    contour_offset: Optional[float] = None
    edge_ratio: float = 1e-4


def _auto_window(
    dist: SpinDistribution,
    cavity: CavityModel,
    pulse_scale: float,
    anchors: Sequence[float],
) -> Tuple[float, float]:
    margin = (
        4.0 * dist.g_collective
        + 8.0 * max(ln.fwhm for ln in dist.lines)
        + 10.0 * cavity.kappa
        + 30.0 * pulse_scale
        + 5.0 * cavity.gamma0
    )
    pts = [cavity.omega_c, float(dist.omega_nodes[0]), float(dist.omega_nodes[-1])]
    pts.extend(anchors)
    return min(pts) - margin, max(pts) + margin


def _grid_controls(
    settings: InversionSettings,
    t_max: float,
    dist: SpinDistribution,
    cavity: CavityModel,
):
    eta = settings.contour_offset
    if eta is None:
        eta = _ETA_T / t_max
    d_omega = settings.d_omega
    if d_omega is None:
        d_omega = eta / _SAMPLES_PER_ETA
        cap = min(ln.fwhm for ln in dist.lines) / 20.0
        if cavity.kappa > 0.0:
            cap = min(cap, cavity.kappa / 20.0)
        # On the shifted line Im(zeta) = eta every spectral feature is smoothed
        # to width >= eta, so eta/_SAMPLES_PER_ETA already resolves the
        # integrand; the linewidth cap only tightens the step where that is
        # affordable.  Floor it at eta/64 so near-singular lines cannot demand
        # astronomically fine grids.
        d_omega = min(d_omega, max(cap, eta / 64.0))
    if not (math.isfinite(eta) and math.isfinite(d_omega)):
        # 1/t_max overflows for a subnormal t_max; no grid can be snapped then
        raise NumericalGuardError(
            f"inversion grid needs a finite contour offset and step (eta = {eta:.3e}, "
            f"d_omega = {d_omega:.3e} rad/s at t_max = {t_max:.3e} s)"
        )
    return eta, d_omega


_MAX_GRID_POINTS = 4_000_000
# The kernel convolution runs over about (window + node span) / delta lattice
# points; its FFT work arrays take ~64 bytes per point.
_MAX_LATTICE_POINTS = 4 * _MAX_GRID_POINTS


def _size_guard(what: str, n, lo: float, hi: float, step: float) -> NumericalGuardError:
    from decimal import Decimal  # imported here: only this error path needs it

    count = f"{Decimal(n):.3e}" if isinstance(n, int) else f"{n:.3e}"  # ints can pass 1.8e308
    return NumericalGuardError(
        f"{what} would need {count} points "
        f"(window {hi - lo:.3e} rad/s wide at step {step:.3e}); "
        "pass a coarser d_omega or a narrower window in InversionSettings"
    )


def _node_lattice(nodes: np.ndarray) -> Tuple[float, float]:
    """Origin and spacing h of uniformly spaced nodes, as build_distribution
    makes them (np.linspace); other node sets cannot take the FFT kernel."""
    x0 = float(nodes[0])
    h = (float(nodes[-1]) - x0) / (nodes.size - 1)
    drift = float(np.max(np.abs(nodes - (x0 + h * np.arange(nodes.size)))))
    if drift > 8.0 * np.spacing(max(abs(x0), abs(float(nodes[-1])))):
        raise ValueError(
            "contour inversion needs uniformly spaced omega_nodes "
            f"(node {drift:.3e} rad/s off the lattice of spacing {h:.3e})"
        )
    return x0, h


def _snap(d_omega: float, h: float) -> Tuple[int, int]:
    """(m, q) with m h / q in [3/4 d_omega, d_omega] and q as small as possible."""
    if not (math.isfinite(d_omega / h) and math.isfinite(h / d_omega)):
        raise NumericalGuardError(
            f"inversion step d_omega = {d_omega:.3e} rad/s is not a finite multiple "
            f"of the node spacing h = {h:.3e} rad/s"
        )
    q = max(1, math.floor(h / d_omega))  # any smaller q leaves m = 0
    while True:
        m = math.floor(d_omega * q / h)
        if m * h / q > d_omega:  # rounding in the floor's argument
            m -= 1
        if m >= 1 and m * h / q >= 0.75 * d_omega:
            return m, q
        q += 1


def _fast_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy.fft transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


class _ContourGrid:
    """The contour zeta_k = omega_k + i eta on the node lattice, and its kernel.

    With nodes w_j = x0 + q j delta (delta = h / q) and grid points
    omega_k = x0 + (s + m k) delta, every denominator is
    zeta_k - w_j + i gamma0/2 = delta (s + m k - q j) + i b, b = eta + gamma0/2.
    A node sum sum_j x_j / (zeta_k - w_j + i gamma0/2) is then a strided
    Toeplitz product: the Cauchy row 1/(delta n + i b), n from s - q (N - 1)
    to s + m (K - 1), convolved with the weights x_j stuffed with q - 1 zeros
    and read every m-th point: `convolve`, the grid's one node sum.  The row
    is transformed once per grid, so W (built here) and each exact-mode
    numerator N cost one FFT product.  Where n_grid * n_nodes is at most the
    row's length, as for a few nodes, `direct` is set and `convolve` sums
    the nodes directly instead (`_node_sums`), with no row.  The grid covers
    [lo, hi] and exceeds it by less than one step on each side.
    """

    def __init__(self, dist: SpinDistribution, gamma0: float, eta: float,
                 d_omega: float, lo: float, hi: float):
        nodes = dist.omega_nodes
        x0, h = _node_lattice(nodes)
        # the snapped step is <= d_omega, so this bounds the snapped count from
        # below; it also keeps an infinite or NaN span away from floor/ceil
        steps = (hi - lo) / d_omega
        if not steps <= _MAX_GRID_POINTS - 1:
            n = math.ceil(steps) + 1 if math.isfinite(steps) else steps
            raise _size_guard("inversion grid", n, lo, hi, d_omega)
        m, q = _snap(d_omega, h)
        delta = h / q
        step = m * h / q
        # first lattice position s and last grid index k: the grid points
        # x0 + delta s and x0 + delta (s + m k) bracket [lo, hi]
        s = math.floor((lo - x0) / delta)
        while x0 + delta * s > lo:
            s -= 1
        k = math.ceil(((hi - x0) / delta - s) / m)
        while x0 + delta * (s + m * k) < hi:
            k += 1
        if k + 1 > _MAX_GRID_POINTS:
            raise _size_guard("inversion grid", k + 1, lo, hi, step)
        self._first = q * (nodes.size - 1)  # row index of the grid's first point
        length = self._first + m * k + 1
        if length > _MAX_LATTICE_POINTS:
            raise _size_guard("kernel lattice", length, lo, hi, delta)
        b = eta + 0.5 * gamma0
        if b == 0.0 and s - self._first <= 0 <= s + m * k:
            raise PoleCollisionError(
                "the contour runs through the spectral nodes (eta + gamma_0/2 = 0); "
                "use a positive contour offset"
            )
        # lattice positions as floats: exact below 2^53, and never an overflow
        self.positions = float(s) + m * np.arange(k + 1, dtype=float)
        self.omega = x0 + delta * self.positions
        self.zeta = self.omega + 1j * eta
        self.step, self.delta, self.m, self.q, self.b = step, delta, m, q, b
        self.direct = (k + 1) * nodes.size <= length
        if self.direct:
            self._dist, self._gamma0 = dist, gamma0
        else:
            row = 1.0 / (delta * (float(s - self._first) + np.arange(length, dtype=float)) + 1j * b)
            self._size = _fast_length(length)
            self._row_hat = np.fft.fft(row, self._size)
        self.W = self.convolve(dist.couplings_sq)

    def convolve(self, weights: np.ndarray) -> np.ndarray:
        """sum_j weights_j / (zeta_k - w_j + i gamma0/2) on every grid point."""
        if self.direct:
            return _node_sums(self._dist, self._gamma0, self.zeta, weights)
        stuffed = np.zeros(self._size)
        stuffed[: self._first + 1 : self.q] = weights
        out = np.fft.ifft(np.fft.fft(stuffed) * self._row_hat)
        return out[self._first : self._first + self.m * (self.omega.size - 1) + 1 : self.m]


# The contour primitive: one grid for every pump and time, the Fourier sum on
# it, and the analytic inverse of the subtracted two-pole asymptote
# T_far(zeta) = c2 / ((zeta - p1)(zeta - p2)), which matches T to order
# 1/zeta^2 so the quadrature only sees a 1/zeta^3 remainder.


def _phase_tables(n: int, step: float, times: np.ndarray):
    """Baby and giant tables of the factored time sum over n uniform points:
    with k1 = ceil(sqrt(n)) and k = p k1 + r, e^{-i t (k - c) step} (c =
    (n - 1) // 2) is e^{-i t r step} (baby, r < k1) times e^{-i t (p k1 - c)
    step} (giant, p < ceil(n / k1)), one row per time."""
    k1 = math.isqrt(n - 1) + 1
    giant = k1 * np.arange(-(-n // k1), dtype=float) - (n - 1) // 2
    ts = step * times[:, None]
    return np.exp(-1j * (ts * np.arange(k1, dtype=float))), np.exp(-1j * (ts * giant))


def _time_sum(z: np.ndarray, baby: np.ndarray, giant: np.ndarray) -> np.ndarray:
    """sum_k z_k e^{-i t (k - c) step} for each time of the tables, z zero-padded
    to k1 ceil(n / k1): one GEMM of the baby table with z in rows of k1, then a
    row-wise dot with the giant table."""
    return np.einsum("tp,pt->t", giant, z.reshape(giant.shape[1], -1) @ baby.T)


def _two_pole_inverse(c2: float, p1: complex, p2: complex, t):
    """Inverse transform of T_far: -i c2 (e^{-i p1 t} - e^{-i p2 t})/(p1 - p2),
    or its limit -c2 t e^{-i p1 t} for a double pole."""
    if p1 == p2:
        return -c2 * t * np.exp(-1j * p1 * t)
    return (-1j * c2 / (p1 - p2)) * (np.exp(-1j * p1 * t) - np.exp(-1j * p2 * t))


# Entries of the two phase tables of one chunk of times; each table and its
# temporaries hold a chunk at a time.
_PHASE_CHUNK = 131_072


def _contour_beta(
    dist: SpinDistribution,
    cavity: CavityModel,
    env: PulseEnvelope,
    omega_ps: np.ndarray,
    times: np.ndarray,
    mode: str,
    settings: Optional[InversionSettings],
) -> np.ndarray:
    """beta(omega_p, t) by contour inversion, shape (pumps, times).

    One grid serves every pump and time; its window passes the edge rule of
    `InversionSettings` at both outermost pumps.  Each grid attempt is one
    pass over the pumps, outermost first: a pump's residual is formed once,
    tested at the window edges if the pump is outermost, then summed over
    every chunk of times.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    if cavity.kappa == 0.0 and cavity.gamma0 == 0.0:
        raise ValueError(
            "contour inversion requires kappa > 0 or gamma0 > 0; "
            "use time_domain_propagate for the lossless case"
        )
    settings = settings or InversionSettings()
    if times.size == 0 or np.any(times < 0) or not times.max() > 0:
        raise ValueError("times must be non-empty, non-negative and reach beyond t = 0")
    if omega_ps.size == 0 or np.any(np.isnan(omega_ps)):
        raise ValueError("omega_ps must be non-empty and free of NaN")
    eta, d_omega = _grid_controls(settings, float(times.max()), dist, cavity)
    outer = [int(np.argmin(omega_ps)), int(np.argmax(omega_ps))]
    worst = [float(omega_ps[i]) for i in outer]
    lo, hi = settings.window or _auto_window(dist, cavity, env.bandwidth_scale, worst)
    _check_narrow(dist, env, mode)
    p1 = cavity.omega_c - 0.5j * cavity.kappa
    pumps = dict.fromkeys(outer + list(range(omega_ps.size)))  # outermost first, each once
    beta = np.empty((omega_ps.size, times.size), dtype=complex)
    for attempt in range(_MAX_GROWTH + 1):
        grid = _ContourGrid(dist, cavity.gamma0, eta, d_omega, lo, hi)
        t1 = _t1(cavity, grid.zeta, grid.W)
        # beta(t) = step e^{(eta - i omega_ref) t} / 2 pi sum_k w_k R_k e^{-i t (k - c) step}
        # + the inverse of T_far; trapezoid w_k = 1 (1/2 at the ends), omega_ref at k = c
        n = grid.omega.size
        omega_ref = grid.omega[(n - 1) // 2]
        step = max(1, _PHASE_CHUNK // (2 * math.isqrt(n) + 2))

        def tables(chunk):
            baby, giant = _phase_tables(n, grid.step, chunk)
            return baby, giant, grid.step * np.exp((eta - 1j * omega_ref) * chunk) / (2.0 * math.pi)

        first = tables(times[:step])  # the only chunk of a sweep, shared by its pumps
        z = np.zeros(first[0].shape[1] * first[1].shape[1], dtype=complex)  # w_k R_k, zero-padded
        for i in pumps:
            wp = float(omega_ps[i])
            T, c2 = _pump_transfer(dist, cavity, env, wp, grid.zeta, mode, t1, grid.convolve)
            p2 = wp - 1j * (0.5 * cavity.gamma0 + env.bandwidth_scale)
            np.subtract(T, c2 / ((grid.zeta - p1) * (grid.zeta - p2)), out=z[:n])
            if i in outer:
                edge = float(max(abs(z[0]), abs(z[n - 1])))
                peak = float(np.max(np.abs(t1))) * abs(c2) / (eta + env.bandwidth_scale)
                if not edge <= settings.edge_ratio * peak:  # a NaN edge fails too
                    break
            z[0] *= 0.5
            z[n - 1] *= 0.5
            for s in range(0, times.size, step):
                chunk = times[s : s + step]
                baby, giant, pref = tables(chunk) if s else first
                far = _two_pole_inverse(c2, p1, p2, chunk) + 0.0  # + 0.0: a zero beta has no -0.0
                beta[i, s : s + step] = pref * _time_sum(z, baby, giant) + far
        else:
            return beta
        if settings.window is not None or attempt == _MAX_GROWTH:
            raise WindowTooSmallError(
                f"inversion window [{lo:.6g}, {hi:.6g}] rad/s too small: edge "
                f"magnitude {edge:.3e} exceeds {settings.edge_ratio:.1e} x peak {peak:.3e}"
            )
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo) * _GROWTH
        lo, hi = center - half, center + half


def invert_to_time(
    dist: SpinDistribution,
    cavity: CavityModel,
    env: PulseEnvelope,
    omega_p: float,
    times,
    mode: str = MODE_EXACT,
    settings: Optional[InversionSettings] = None,
) -> TransferResult:
    """Transfer amplitude beta(omega_p, t) by contour inversion of t_wp.

    beta(t) = (e^{eta t}/2 pi) * integral e^{-i w t} t_wp(-i(w + i eta)) dw
    over the window, plus the analytically inverted two-pole asymptote, with
    eta set by max(times).  Raises WindowTooSmallError if the subtracted
    integrand at the window edges stays above edge_ratio times the peak
    estimate max|t1| |c2| / (eta + pulse bandwidth) after window growth.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    beta = _contour_beta(dist, cavity, env, np.array([float(omega_p)]), times, mode, settings)
    return TransferResult(omega_p=float(omega_p), times=times, beta=beta[0], method="contour")


def transfer_sweep(
    dist: SpinDistribution,
    cavity: CavityModel,
    env: PulseEnvelope,
    omega_ps,
    tau: float,
    mode: str = MODE_NARROW,
    settings: Optional[InversionSettings] = None,
) -> np.ndarray:
    """beta(omega_p, tau) for many pump frequencies (or one scalar) at one
    interaction time; the result has one entry per pump.

    The inversion of `invert_to_time`, sharing the grid, t1 and the phase
    tables across the sweep: a point costs O(n_grid) in narrow-pulse mode,
    plus one FFT product for N in exact-convolution mode.
    """
    omega_ps = np.atleast_1d(np.asarray(omega_ps, dtype=float))
    return _contour_beta(dist, cavity, env, omega_ps, np.array([float(tau)]), mode, settings)[:, 0]


# ---------------------------------------------------------------------------
# time-domain oracle


def _initial_vector(
    dist: SpinDistribution,
    initial: str,
    env: Optional[PulseEnvelope],
    omega_p: Optional[float],
) -> np.ndarray:
    n = dist.n_nodes
    x0 = np.zeros(n + 1, dtype=complex)
    if initial == "cavity":
        x0[0] = 1.0
        return x0
    if initial == "pulse":
        if env is None or omega_p is None:
            raise ValueError("pulse-excited start requires env and omega_p")
        if dist.g_collective == 0.0:
            return x0  # the cavity never sees the packet: beta = 0
        alpha = env.amplitude(dist.omega_nodes - omega_p)
        g = dist.g_collective * np.sqrt(dist.weights)
        norm_sq = float(np.sum((alpha * g) ** 2))
        if not norm_sq > 0.0:
            raise _no_overlap(dist, omega_p)
        x0[1:] = alpha * g / math.sqrt(norm_sq)
        return x0
    raise ValueError("initial must be 'cavity' or 'pulse'")


def _propagate_state(
    dist: SpinDistribution,
    cavity: CavityModel,
    x0: np.ndarray,
    times: np.ndarray,
    rtol: float,
    atol: float,
    rows: slice = slice(None),
):
    """Propagate dX/dt = -i M X in the frame rotating at omega_c.

    Returns the state rows `rows` (all by default) at each time, shape
    (n_rows, n_times); the lab-frame amplitudes are Y * exp(-i omega_c t).
    The steps do not depend on `rows`, so each row is the same bits either
    way.  The arrow structure of M keeps each right-hand side O(N).
    """
    g = dist.g_collective * np.sqrt(dist.weights)
    det = dist.omega_nodes - cavity.omega_c
    diag_spins = -1j * det - 0.5 * cavity.gamma0
    diag_cav = -0.5 * cavity.kappa

    def rhs(y):
        dy = np.empty_like(y)
        dy[0] = diag_cav * y[0] + np.dot(g, y[1:])
        dy[1:] = diag_spins * y[1:] - g * y[0]
        return dy

    return dop853(rhs, x0, times, rtol, atol, rows)


def time_domain_propagate(
    dist: SpinDistribution,
    cavity: CavityModel,
    initial: str,
    times,
    env: Optional[PulseEnvelope] = None,
    omega_p: Optional[float] = None,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    max_nodes: int = 200_000,
) -> TransferResult:
    """Brute-force transfer amplitude by direct ODE propagation.

    initial = "cavity" starts from X = (1, 0, ..., 0); initial = "pulse"
    starts from the pulse-excited spin packet X_j(0) proportional to
    alpha(w_j - w_p) g_j, normalized; with zero coupling beta = 0.  Works for
    lossless systems too (kappa = gamma0 = 0), unlike the contour route.
    times may repeat; times that are all 0 return the start.  Only the cavity
    row is interpolated, so memory is O(n_nodes + n_times).  Raises
    NumericalGuardError above max_nodes (the state size, the cost of every
    step), for a pulse with no overlap with the grid, and when the
    integrator fails.
    """
    if dist.n_nodes > max_nodes:
        raise NumericalGuardError(
            f"n_nodes = {dist.n_nodes} exceeds the memory budget ({max_nodes}); "
            "reduce the grid or raise max_nodes"
        )
    times = np.atleast_1d(np.asarray(times, dtype=float))
    bad = ~np.isfinite(times) | (times < 0)
    if times.size == 0 or bad.any() or np.any(np.diff(times) < 0):
        raise ValueError("times must be non-empty, finite, non-negative and non-decreasing")
    x0 = _initial_vector(dist, initial, env, omega_p)
    y = _propagate_state(dist, cavity, x0, times, rtol, atol, rows=slice(0, 1))
    # + 0.0 turns the -0.0 parts of a zero amplitude into 0.0, as on the contour route
    beta = y[0] * np.exp(-1j * cavity.omega_c * times) + 0.0
    return TransferResult(
        omega_p=float(omega_p) if omega_p is not None else float("nan"),
        times=times,
        beta=beta,
        method="time-domain",
    )
