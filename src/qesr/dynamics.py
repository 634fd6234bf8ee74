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

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ._dop853 import dop853
from .errors import NumericalGuardError, PoleCollisionError, WindowTooSmallError
from .spin_model import SpinDistribution, _csv_text, density_at

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
    """

    shape: str
    fwhm: Optional[float] = None
    duration: Optional[float] = None

    def __post_init__(self):
        if self.shape not in ("lorentzian", "gaussian", "rectangular"):
            raise ValueError(f"unknown pulse shape {self.shape!r}")
        if self.shape == "rectangular":
            if not (self.duration and self.duration > 0):
                raise ValueError("rectangular pulse requires duration > 0")
            # amplitude half max of sinc at x*T/2 = 1.89549
            object.__setattr__(self, "fwhm", 4.0 * 1.8954942670339809 / self.duration)
        else:
            if not (self.fwhm and self.fwhm > 0):
                raise ValueError(f"{self.shape} pulse requires fwhm > 0")
            if self.duration is not None:
                raise ValueError("duration applies to the rectangular shape only")

    @property
    def _lor_hwhm(self) -> float:
        return self.fwhm / 4.0

    @property
    def _gauss_sigma(self) -> float:
        return self.fwhm / _SQRT_8LN2

    @property
    def bandwidth_scale(self) -> float:
        """Characteristic spectral half-width (sets pole offsets and margins)."""
        if self.shape == "lorentzian":
            return self._lor_hwhm
        if self.shape == "gaussian":
            return self._gauss_sigma
        return 2.0 / self.duration

    def amplitude(self, x):
        """alpha(x); real, peak value 1 at x = 0."""
        x = np.asarray(x, dtype=float)
        if self.shape == "lorentzian":
            a = self._lor_hwhm
            return a * a / (x * x + a * a)
        if self.shape == "gaussian":
            s = self._gauss_sigma
            return np.exp(-0.5 * (x / s) ** 2)
        return np.sinc(x * self.duration / (2.0 * np.pi))

    @property
    def norm_l1(self) -> float:
        """integral of alpha dx."""
        if self.shape == "lorentzian":
            return math.pi * self._lor_hwhm
        if self.shape == "gaussian":
            return self._gauss_sigma * math.sqrt(2.0 * math.pi)
        return 2.0 * math.pi / self.duration

    @property
    def norm_l2_sq(self) -> float:
        """integral of alpha^2 dx."""
        if self.shape == "lorentzian":
            return math.pi * self._lor_hwhm / 2.0
        if self.shape == "gaussian":
            return self._gauss_sigma * math.sqrt(math.pi)
        return 2.0 * math.pi / self.duration

    def cauchy(self, u):
        """integral of alpha(x) / (u - x) dx for Im(u) > 0 (closed forms).

        Tends to norm_l1 / u as |u| grows; real-axis values are the
        boundary limit from above (PV - i pi alpha).
        """
        u = np.asarray(u, dtype=complex)
        if self.shape == "lorentzian":
            a = self._lor_hwhm
            return math.pi * a / (u + 1j * a)
        if self.shape == "gaussian":
            from scipy.special import wofz  # imported here: only this branch needs it

            s = self._gauss_sigma
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
        t = np.asarray(self.times, dtype=float)
        b = np.asarray(self.beta, dtype=complex)
        if t.shape != b.shape:
            raise ValueError("times and beta must have matching shapes")
        t.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "beta", b)

    @property
    def abs2(self) -> np.ndarray:
        return np.abs(self.beta) ** 2

    def to_csv(self, path) -> None:
        rows = ((t, b.real, b.imag, abs(b) ** 2) for t, b in zip(self.times, self.beta))
        with open(path, "w", newline="") as fh:
            fh.write(_csv_text("t_s,re_beta,im_beta,abs2_beta", rows))


# ---------------------------------------------------------------------------
# spectral building blocks


def _node_sums(
    dist: SpinDistribution,
    gamma0: float,
    zeta: np.ndarray,
    extra: Optional[np.ndarray] = None,
):
    """Sum g_j^2/(zeta - w_j + i gamma0/2) and optionally extra_j/(...).

    Shares the denominator matrix between the two sums; chunked to bound
    memory.  Raises PoleCollisionError on an exact real-axis node hit with
    gamma0 = 0 (the caller must offset or complex-shift instead).
    """
    zeta = np.asarray(zeta, dtype=complex)
    flat = zeta.ravel()
    nodes = dist.omega_nodes
    gsq = dist.couplings_sq
    if gamma0 == 0.0:
        real_mask = flat.imag == 0.0
        if np.any(real_mask) and np.any(np.isin(flat[real_mask].real, nodes)):
            raise PoleCollisionError(
                "evaluation frequency coincides with a spectral node and gamma_0 = 0; "
                "evaluate at a complex-shifted or offset frequency"
            )
    shift = 0.5j * gamma0
    W = np.empty(flat.shape, dtype=complex)
    E = np.empty(flat.shape, dtype=complex) if extra is not None else None
    step = max(1, 2_000_000 // max(nodes.size, 1))
    for s in range(0, flat.size, step):
        inv = 1.0 / (flat[s : s + step, None] - nodes[None, :] + shift)
        W[s : s + step] = inv @ gsq
        if extra is not None:
            E[s : s + step] = inv @ extra
    W = W.reshape(zeta.shape)
    if E is not None:
        E = E.reshape(zeta.shape)
    return W, E


def memory_kernel_W(dist: SpinDistribution, cavity: CavityModel, omega):
    """Spin memory kernel W(omega) = sum_j g_j^2 / (omega - w_j + i gamma0/2).

    omega may be real or complex, scalar or array.  With gamma0 = 0 and a
    dense grid, evaluating at omega + i*eta (node spacing << eta << line
    width) approximates the continuum kernel; for a single Lorentzian line of
    FWHM w that limit is g_K^2 / (omega - w_s + i w/2).
    """
    scalar = np.isscalar(omega)
    W, _ = _node_sums(dist, cavity.gamma0, np.asarray(omega, dtype=complex))
    return complex(W) if scalar else W


def _t1(cavity: CavityModel, zeta: np.ndarray, W: np.ndarray) -> np.ndarray:
    return 1j / (zeta - cavity.omega_c + 0.5j * cavity.kappa - W)


def cavity_amplitude_t1(dist: SpinDistribution, cavity: CavityModel, omega):
    """Cavity response t1(-i omega) = i / (omega - w_c + i kappa/2 - W(omega))."""
    if cavity.kappa == 0.0 and cavity.gamma0 == 0.0:
        raise ValueError("cavity_amplitude_t1 requires kappa > 0 or gamma0 > 0")
    scalar = np.isscalar(omega)
    zeta = np.asarray(omega, dtype=complex)
    W, _ = _node_sums(dist, cavity.gamma0, zeta)
    t1 = _t1(cavity, zeta, W)
    return complex(t1) if scalar else t1


def _narrow_scale(dist: SpinDistribution, env: PulseEnvelope, omega_p: float) -> float:
    """g_K * A * sqrt(rho(omega_p)) for the narrow-pulse factorization."""
    rho = density_at(dist, omega_p)
    return dist.g_collective * pulse_constant_A(env) * math.sqrt(max(rho, 0.0))


# Narrow-pulse mode is accurate to a few percent only for pulses narrower than
# the narrowest line by this factor (the bundled 1/10.7 and 1/16 are off by up
# to 4.8% and 4.0% of the peak).
_NARROW_RATIO = 20.0


def _check_narrow(dist: SpinDistribution, env: PulseEnvelope) -> None:
    min_fwhm = min(ln.fwhm for ln in dist.lines)
    if env.fwhm > min_fwhm / _NARROW_RATIO:
        warnings.warn(
            f"pulse bandwidth exceeds 1/{_NARROW_RATIO:g} of the narrowest line; "
            "narrow-pulse mode is inaccurate, use exact-convolution",
            stacklevel=3,
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
    t1: Optional[np.ndarray] = None,
    sums: Optional[Callable] = None,
) -> Tuple[np.ndarray, float]:
    """T = t_wp(-i zeta) at one pump, and its far-field coefficient c2.

    T tends to c2 / zeta^2 far from the spectrum.  sums(extra) returns the
    node sums (W, N) on zeta, N of the weights extra: the dense `_node_sums`
    by default, `_ContourGrid.sums` on a contour grid.  A t1 precomputed on
    the same zeta is shared as given; otherwise it comes from W.
    """
    if sums is None:
        sums = functools.partial(_node_sums, dist, cavity.gamma0, zeta)
    if mode == MODE_NARROW:
        if t1 is None:
            t1 = _t1(cavity, zeta, sums()[0])
        scale = _narrow_scale(dist, env, omega_p)
        shape = env.cauchy(zeta - omega_p + 0.5j * cavity.gamma0)
        return 1j * t1 * scale * shape / env.norm_l1, -scale
    extra, d_norm = _exact_weights(dist, env, omega_p)
    W, N = sums(extra)
    if t1 is None:
        t1 = _t1(cavity, zeta, W)
    return 1j * t1 * N / d_norm, -float(np.sum(extra)) / d_norm


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
    if mode == MODE_NARROW:
        _check_narrow(dist, env)
    scalar = np.isscalar(omega)
    out, _ = _pump_transfer(dist, cavity, env, omega_p, np.asarray(omega, dtype=complex), mode)
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
    the window starts from the line/cavity/pump structure plus margins scaled
    by g_K, the line widths, kappa and the pulse bandwidth, then grows by a
    factor 1.6 up to 6 times until the subtracted integrand at the edges
    drops below edge_ratio times the spectrum peak.  A window given here is
    used as is: if it fails that test, WindowTooSmallError is raised.

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
    return NumericalGuardError(
        f"{what} would need {n} points "
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
    and read every m-th point.  The row is transformed once per grid, so W and
    each exact-mode numerator N cost one FFT product.  The grid covers
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
        row = 1.0 / (delta * (float(s - self._first) + np.arange(length, dtype=float)) + 1j * b)
        self._size = _fast_length(length)
        self._row_hat = np.fft.fft(row, self._size)
        self.W = self._convolve(dist.couplings_sq)

    def _convolve(self, weights: np.ndarray) -> np.ndarray:
        stuffed = np.zeros(self._size)
        stuffed[: self._first + 1 : self.q] = weights
        out = np.fft.ifft(np.fft.fft(stuffed) * self._row_hat)
        return out[self._first : self._first + self.m * (self.omega.size - 1) + 1 : self.m]

    def sums(self, extra: Optional[np.ndarray] = None):
        """(W, N) on zeta, as `_node_sums` returns them; N is None without extra."""
        return self.W, (None if extra is None else self._convolve(extra))


# The contour primitive, in three parts: an adequate grid, the Fourier sum on
# it, and the analytic inverse of the subtracted two-pole asymptote
# T_far(zeta) = c2 / ((zeta - p1)(zeta - p2)), which matches T to order
# 1/zeta^2 so the quadrature only sees a 1/zeta^3 remainder.


def _adequate_grid(
    settings: InversionSettings,
    dist: SpinDistribution,
    gamma0: float,
    window: Tuple[float, float],
    eta: float,
    d_omega: float,
    probe: Callable[[_ContourGrid], Tuple[float, float, object]],
):
    """Grow the window until the caller's edge test passes on the contour.

    probe(grid) returns (edge, peak, payload); the grid passes when
    peak == 0 or edge <= edge_ratio * peak.  Returns the accepted
    `_ContourGrid` and its payload.  A window fixed in settings is never grown.
    """
    lo, hi = window
    for attempt in range(_MAX_GROWTH + 1):
        grid = _ContourGrid(dist, gamma0, eta, d_omega, lo, hi)
        edge, peak, payload = probe(grid)
        if peak == 0.0 or edge <= settings.edge_ratio * peak:
            return grid, payload
        if settings.window is not None or attempt == _MAX_GROWTH:
            raise WindowTooSmallError(
                f"inversion window [{lo:.6g}, {hi:.6g}] rad/s too small: edge "
                f"magnitude {edge:.3e} exceeds {settings.edge_ratio:.1e} x peak {peak:.3e}"
            )
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo) * _GROWTH
        lo, hi = center - half, center + half


def _phase_rows(grid: _ContourGrid, eta: float, times: np.ndarray):
    """Trapezoid-weighted rows w_k e^{-i t (omega_k - omega_ref)}, one per time,
    and the prefactors e^{(eta - i omega_ref) t} / 2 pi.

    beta(t) = prefactor * (row . R) for the subtracted integrand R on omega.
    """
    omega = grid.omega
    w_trap = np.full(omega.size, grid.step)
    w_trap[0] *= 0.5
    w_trap[-1] *= 0.5
    omega_ref = 0.5 * (omega[0] + omega[-1])
    rows = np.exp(-1j * np.outer(times, omega - omega_ref))
    rows *= w_trap
    return rows, np.exp((eta - 1j * omega_ref) * times) / (2.0 * math.pi)


def _two_pole(c2: float, p1: complex, p2: complex, zeta: np.ndarray) -> np.ndarray:
    return c2 / ((zeta - p1) * (zeta - p2))


def _two_pole_inverse(c2: float, p1: complex, p2: complex, t):
    """Inverse transform of _two_pole: -i c2 (e^{-i p1 t} - e^{-i p2 t})/(p1 - p2),
    or its limit -c2 t e^{-i p1 t} for a double pole."""
    if p1 == p2:
        return -c2 * t * np.exp(-1j * p1 * t)
    return (-1j * c2 / (p1 - p2)) * (np.exp(-1j * p1 * t) - np.exp(-1j * p2 * t))


def _require_dissipation(cavity: CavityModel) -> None:
    if cavity.kappa == 0.0 and cavity.gamma0 == 0.0:
        raise ValueError(
            "contour inversion requires kappa > 0 or gamma0 > 0; "
            "use time_domain_propagate for the lossless case"
        )


def _pump_pole(cavity: CavityModel, env: PulseEnvelope, omega_p: float) -> complex:
    return omega_p - 1j * (0.5 * cavity.gamma0 + env.bandwidth_scale)


# Entries of one chunk of phase rows in invert_to_time; the outer product, its
# -1j multiple and its exponential each hold a chunk at a time.
_PHASE_CHUNK = 500_000


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
    over the window, plus the analytically inverted two-pole asymptote.
    Raises WindowTooSmallError if the subtracted integrand at the window edge
    stays above edge_ratio times the spectrum peak after window growth.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    _require_dissipation(cavity)
    settings = settings or InversionSettings()
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0 or np.any(times < 0):
        raise ValueError("times must be non-empty and non-negative")
    t_max = float(times.max())
    if t_max <= 0:
        raise ValueError("times must reach beyond t = 0")
    eta, d_omega = _grid_controls(settings, t_max, dist, cavity)
    window = settings.window or _auto_window(dist, cavity, env.bandwidth_scale, [omega_p])
    if mode == MODE_NARROW:
        _check_narrow(dist, env)
    p1 = cavity.omega_c - 0.5j * cavity.kappa
    p2 = _pump_pole(cavity, env, omega_p)

    def probe(grid):
        T, c2 = _pump_transfer(dist, cavity, env, omega_p, grid.zeta, mode, sums=grid.sums)
        R = T - _two_pole(c2, p1, p2, grid.zeta)
        edge = float(max(abs(R[0]), abs(R[-1])))
        return edge, float(np.max(np.abs(T))), (R, c2)

    grid, (R, c2) = _adequate_grid(settings, dist, cavity.gamma0, window, eta, d_omega, probe)
    beta = np.empty(times.shape, dtype=complex)
    step = max(1, _PHASE_CHUNK // grid.omega.size)
    for s in range(0, times.size, step):
        rows, pref = _phase_rows(grid, eta, times[s : s + step])
        beta[s : s + step] = pref * (rows @ R)
    beta += _two_pole_inverse(c2, p1, p2, times)
    return TransferResult(omega_p=float(omega_p), times=times, beta=beta, method="contour")


def transfer_sweep(
    dist: SpinDistribution,
    cavity: CavityModel,
    env: PulseEnvelope,
    omega_ps,
    tau: float,
    mode: str = MODE_NARROW,
    settings: Optional[InversionSettings] = None,
) -> np.ndarray:
    """beta(omega_p, tau) for many pump frequencies at one interaction time.

    Shares the inversion grid, the cavity response t1 and the phase row for
    tau across the sweep; each point then costs O(n_grid) in narrow-pulse
    mode, plus one FFT product for N in exact-convolution mode.  The window is screened at the outermost pump frequencies,
    the worst cases for truncation, against a peak estimate from max|t1|.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    _require_dissipation(cavity)
    settings = settings or InversionSettings()
    omega_ps = np.asarray(omega_ps, dtype=float)
    if not tau > 0:
        raise ValueError("tau must be positive")
    eta, d_omega = _grid_controls(settings, float(tau), dist, cavity)
    worst = [float(omega_ps.min()), float(omega_ps.max())]
    window = settings.window or _auto_window(dist, cavity, env.bandwidth_scale, worst)
    if mode == MODE_NARROW:
        _check_narrow(dist, env)
    p1 = cavity.omega_c - 0.5j * cavity.kappa

    def probe(grid):
        t1 = _t1(cavity, grid.zeta, grid.W)
        ends = grid.zeta[[0, -1]]
        for wp in worst:
            T, c2 = _pump_transfer(dist, cavity, env, wp, ends, mode, t1=t1[[0, -1]])
            far = _two_pole(c2, p1, _pump_pole(cavity, env, wp), ends)
            edge = float(np.max(np.abs(T - far)))
            peak = max(
                float(np.max(np.abs(t1))) * abs(c2) / (eta + env.bandwidth_scale), 1e-300
            )
            if edge > settings.edge_ratio * peak:
                break
        return edge, peak, t1

    grid, t1 = _adequate_grid(settings, dist, cavity.gamma0, window, eta, d_omega, probe)
    zeta = grid.zeta
    rows, prefs = _phase_rows(grid, eta, np.array([tau], dtype=float))
    row, pref = rows[0], prefs[0]
    out = np.empty(omega_ps.shape, dtype=complex)
    for i, wp in enumerate(omega_ps):
        wp = float(wp)
        p2 = _pump_pole(cavity, env, wp)
        T, c2 = _pump_transfer(dist, cavity, env, wp, zeta, mode, t1=t1, sums=grid.sums)
        R = T - _two_pole(c2, p1, p2, zeta)
        out[i] = pref * np.dot(row, R) + _two_pole_inverse(c2, p1, p2, tau)
    return out


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
):
    """Propagate dX/dt = -i M X in the frame rotating at omega_c.

    Returns the full state matrix Y with shape (n_nodes + 1, n_times); the
    lab-frame amplitudes are Y * exp(-i omega_c t).  The arrow structure of M
    keeps each right-hand side O(N).
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

    return dop853(rhs, x0, times, rtol, atol)


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
    times may repeat; times that are all 0 return the start.  Raises
    NumericalGuardError above max_nodes, for a pulse with no overlap with the
    grid, and when the integrator fails.
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
    y = _propagate_state(dist, cavity, x0, times, rtol, atol)
    # + 0.0 turns the -0.0 parts of a zero amplitude into 0.0, as on the contour route
    beta = y[0] * np.exp(-1j * cavity.omega_c * times) + 0.0
    return TransferResult(
        omega_p=float(omega_p) if omega_p is not None else float("nan"),
        times=times,
        beta=beta,
        method="time-domain",
    )
