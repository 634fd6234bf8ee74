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
* a time-domain route: ODE propagation of dX/dt = -i M X, mapped onto the
  Lanczos chain of the spin measure, by the 8th-order Dormand-Prince method
  (`qesr._dop853`).

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
    "pulse_constant_A",
    "invert_to_time",
    "transfer_sweep",
    "time_domain_propagate",
]

MODE_NARROW = "narrow-pulse"
MODE_EXACT = "exact-convolution"
MODES = (MODE_NARROW, MODE_EXACT)
PULSE_SHAPES = ("lorentzian", "gaussian", "rectangular")
ODE_RTOL = 1e-9  # default relative tolerance of the DOP853 propagation

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
    `norm_l1` and `norm_l2_sq`, derived, are the integrals of alpha and of
    alpha^2 over x.
    """

    shape: str
    fwhm: Optional[float] = None
    duration: Optional[float] = None
    bandwidth_scale: float = field(init=False, repr=False, compare=False)
    norm_l1: float = field(init=False, repr=False, compare=False)
    norm_l2_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.shape not in PULSE_SHAPES:
            raise ValueError(f"unknown pulse shape {self.shape!r}")
        if self.shape == "rectangular":
            if self.duration is None or not 0 < self.duration < math.inf:
                raise ValueError("rectangular pulse requires a finite duration > 0")
            # amplitude half max of sinc at x*T/2 = 1.89549
            object.__setattr__(self, "fwhm", 4.0 * 1.8954942670339809 / self.duration)
            s = 2.0 / self.duration
            l1 = l2_sq = 2.0 * math.pi / self.duration
        else:
            if self.fwhm is None or not 0 < self.fwhm < math.inf:
                raise ValueError(f"{self.shape} pulse requires a finite fwhm > 0")
            if self.duration is not None:
                raise ValueError("duration applies to the rectangular shape only")
            if self.shape == "lorentzian":
                s = self.fwhm / 4.0
                if not math.isfinite(s * s):  # amplitude squares it
                    raise ValueError(
                        f"lorentzian pulse fwhm = {self.fwhm!r} rad/s: (fwhm/4)^2 overflows"
                    )
                l1, l2_sq = math.pi * s, math.pi * s / 2.0
            else:
                s = self.fwhm / _SQRT_8LN2
                l1, l2_sq = s * math.sqrt(2.0 * math.pi), s * math.sqrt(math.pi)
        object.__setattr__(self, "bandwidth_scale", s)
        object.__setattr__(self, "norm_l1", l1)
        object.__setattr__(self, "norm_l2_sq", l2_sq)

    def amplitude(self, x):
        """alpha(x); real, peak value 1 at x = 0."""
        x = np.asarray(x, dtype=float)
        s = self.bandwidth_scale
        if self.shape == "lorentzian":
            return s * s / (x * x + s * s)
        if self.shape == "gaussian":
            return np.exp(-0.5 * (x / s) ** 2)
        return np.sinc(x * self.duration / (2.0 * np.pi))

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
        b = self.beta
        _write_csv(path, "t_s,re_beta,im_beta,abs2_beta", self.times, b.real, b.imag, self.abs2)


def _float_arg(value, name: str, max_ndim: int) -> np.ndarray:
    """value as a float array; an array of more than max_ndim dimensions (0:
    a scalar, 1: a scalar or a 1-d array) raises a ValueError naming it."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim > max_ndim:
        kind = "a scalar" if max_ndim == 0 else "a scalar or a 1-d array"
        raise ValueError(f"{name} must be {kind}, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# spectral building blocks


# Entries of one block of every blocked loop: the pump-by-point entries of
# `_pole_sums` (its real work arrays take 16 bytes each, 0.5 MiB; this bounds
# every direct sum: the sweep's pole sums, the dense node sums, direct-sum
# grids) and the time-by-column entries of `_bromwich_sum`'s phase tables.
_BLOCK_ENTRIES = 32_768


def _blocks(n: int, width: int):
    """Slices of n rows, _BLOCK_ENTRIES // width at a time (at least one)."""
    step = max(1, _BLOCK_ENTRIES // width)
    return [slice(s, s + step) for s in range(0, n, step)]


def _pole_sums(omega: np.ndarray, b, omega_ps: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k y_k / (omega_k - w_p + i b_p) at every pump, b one value or one
    per pump: one real reciprocal r = 1/(D^2 + b_p^2) per entry (D = omega_k -
    w_p), then per block of pumps one real GEMM of [D r; r] with [Re y, Im y].
    The package's one direct Cauchy sum."""
    n = omega.size
    cols = np.ascontiguousarray(y, dtype=complex).view(float).reshape(n, 2)  # [Re y, Im y]
    b = np.broadcast_to(np.asarray(b, dtype=float), omega_ps.shape)
    out = np.empty((2, omega_ps.size, 2))
    for blk in _blocks(omega_ps.size, n):
        work = np.empty((2, omega_ps[blk].size, n))
        d, r = work
        np.subtract(omega, omega_ps[blk, None], out=d)
        np.multiply(d, d, out=r)
        r += np.square(b[blk])[:, None]
        np.reciprocal(r, out=r)
        d *= r
        out[:, blk] = (work.reshape(-1, n) @ cols).reshape(2, -1, 2)
    (dr, di), (rr, ri) = out.transpose(0, 2, 1)
    return (dr + b * ri) + 1j * (di - b * rr)


def memory_kernel_W(dist: SpinDistribution, cavity: CavityModel, omega):
    """Spin memory kernel W(omega) = sum_j g_j^2 / (omega - w_j + i gamma0/2).

    omega may be real or complex, scalar or array.  With gamma0 = 0 and a
    dense grid, evaluating at omega + i*eta (node spacing << eta << line
    width) approximates the continuum kernel; for a single Lorentzian line of
    FWHM w that limit is g_K^2 / (omega - w_s + i w/2).  The one dense node
    sum at arbitrary omega: the pole sums of `_pole_sums` with nodes and
    points swapped (omega_k = -w_j, w_p = -Re omega, b_p = Im omega +
    gamma0/2).  An omega on a pole w_j - i gamma0/2 (a real node when
    gamma0 = 0) raises PoleCollisionError.
    """
    scalar = np.isscalar(omega)
    zeta = np.asarray(omega, dtype=complex)
    flat = zeta.ravel()
    nodes = dist.omega_nodes
    b = flat.imag + 0.5 * cavity.gamma0
    on_poles = b == 0.0
    # np.isin only on a hit: on arrays of nodes its first call imports numpy.ma
    if on_poles.any() and np.any(np.isin(flat[on_poles].real, nodes)):
        raise PoleCollisionError(
            "evaluation frequency coincides with a pole w_j - i gamma_0/2 of the spin "
            "kernel; evaluate at a complex-shifted or offset frequency"
        )
    W = _pole_sums(-nodes, b, -flat.real, dist.couplings_sq).reshape(zeta.shape)
    return complex(W) if scalar else W


def _t1(cavity: CavityModel, zeta: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Cavity response t1(-i zeta) = i / (zeta - w_c + i kappa/2 - W(zeta))."""
    return 1j / (zeta - cavity.omega_c + 0.5j * cavity.kappa - W)


def _narrow_c2(dist: SpinDistribution, env: PulseEnvelope, omega_p):
    """The narrow-pulse far-field coefficient c2 = -g_K * A * sqrt(rho(omega_p)),
    at one pump or an array of them."""
    rho = density_at(dist, omega_p)
    return -dist.g_collective * pulse_constant_A(env) * np.sqrt(np.maximum(rho, 0.0))


# Narrow-pulse mode is accurate to a few percent only for pulses narrower than
# the narrowest line by this factor (the bundled 1/10.7 and 1/16 are off by up
# to 4.8% and 4.0% of the peak).
_NARROW_RATIO = 20.0


def _check_narrow(dist: SpinDistribution, env: PulseEnvelope, mode: str) -> None:
    """Reject an unknown mode; warn on a narrow-pulse run with a wide pulse."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
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


def _pump_weights(dist: SpinDistribution, env: PulseEnvelope, omega_ps: np.ndarray):
    """Exact-mode envelope rows alpha_pj = alpha(w_j - w_p) of a block of
    pumps, their norms D_p = sqrt(sum_j alpha_pj^2 g_j^2) and far-field
    coefficients c2_p = -sum_j alpha_pj g_j^2 / D_p.  With zero coupling
    D_p = 1, so beta = 0; a pump whose envelope misses every node raises."""
    gsq = dist.couplings_sq
    alpha = env.amplitude(dist.omega_nodes - omega_ps[:, None])
    d_sq = np.square(alpha) @ gsq
    if dist.g_collective == 0.0:
        d_sq[:] = 1.0
    missing = ~(d_sq > 0.0)
    if missing.any():
        raise _no_overlap(dist, float(omega_ps[np.argmax(missing)]))
    d = np.sqrt(d_sq)
    return alpha, d, -(alpha @ gsq) / d


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
    (`_ContourGrid.convolve` on a contour, dense pole sums at the window's
    end points), called once in exact mode and never in narrow mode.
    """
    if mode == MODE_NARROW:
        c2 = _narrow_c2(dist, env, omega_p)
        shape = env.cauchy(zeta - omega_p + 0.5j * cavity.gamma0)
        return -1j * t1 * c2 * shape / env.norm_l1, c2
    (alpha,), (d,), (c2,) = _pump_weights(dist, env, np.array([omega_p]))
    return 1j * t1 * numerator(alpha * dist.couplings_sq) / d, float(c2)


# ---------------------------------------------------------------------------
# contour inversion


# Auto-rule constants of the contour inversion (see InversionSettings).
_ETA_T = 0.25
# A given offset may reach eta t_max = 4: the window's truncation error, scaled
# by e^{eta t_max}, is then about twice the route's own error at the automatic
# 0.25, and it grows 50-fold by eta t_max = 8.
_MAX_ETA_T = 4.0
_SAMPLES_PER_ETA = 8.0
_GROWTH = 1.6
_MAX_GROWTH = 6


@dataclass(frozen=True)
class InversionSettings:
    """Numerical controls for the Bromwich-contour inversion.

    Auto rules (used when a field is None): the contour offset is
    eta = 0.25 / t_max (a given one must keep eta t_max <= 4, or
    NumericalGuardError is raised); the step is d_omega = eta / 8 on every
    system: every pole lies at least eta below the contour, so the trapezoid
    sum converges exponentially, with aliasing bounded by
    e^{-eta (2 pi/d_omega - t_max)},
    e^{-(16 pi - 0.25)} ~ 1e-22 at the automatic offset; the window starts
    from the line/cavity/outermost-pump structure plus margins scaled by
    g_K, the line widths, kappa and the pulse bandwidth, then grows by a
    factor 1.6 up to 6 times until, at both outermost pumps,
    the lowest first, the integrand less its far field, |T - T_far| with
    T_far the pump's far field (`_pump_far`), is at both window edges at most
    edge_ratio * max|t1| * |c2| / (eta + pulse bandwidth), with c2 the pump's
    1/zeta^2 coefficient (that quotient estimates the spectrum peak); the
    first pump to fail stops the test.  The swap calibration's cavity start,
    on these defaults, needs |t1 - t1_far| <= edge_ratio / (eta + kappa/2)
    at both edges instead.  A window given here is used as is: if it fails
    that test, WindowTooSmallError is raised.

    Every grid, automatic or given, is snapped to the node lattice (see
    `_ContourGrid`): the step becomes the largest m h / q <= d_omega, for
    the smallest integer q that keeps it >= 3/4 d_omega (h = node spacing),
    and the window edges move outward onto the lattice, by less than a step.
    """

    window: Optional[Tuple[float, float]] = None
    d_omega: Optional[float] = None
    contour_offset: Optional[float] = None
    edge_ratio: float = 1e-4

    def __post_init__(self):
        if self.window is not None:
            lo, hi = self.window
            if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
                raise ValueError("InversionSettings.window must be finite with hi > lo")
        for name in ("d_omega", "contour_offset"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"InversionSettings.{name} must be None or positive and finite")
        if not 0 < self.edge_ratio < math.inf:
            raise ValueError("InversionSettings.edge_ratio must be positive and finite")


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


def _grid_controls(settings: InversionSettings, t_max: float):
    eta = settings.contour_offset
    if eta is None:
        eta = _ETA_T / t_max
    d_omega = settings.d_omega
    if d_omega is None:
        d_omega = eta / _SAMPLES_PER_ETA
    if not (math.isfinite(eta) and math.isfinite(d_omega)):
        # 1/t_max overflows for a subnormal t_max; no grid can be snapped then
        raise NumericalGuardError(
            f"inversion grid needs a finite contour offset and step (eta = {eta:.3e}, "
            f"d_omega = {d_omega:.3e} rad/s at t_max = {t_max:.3e} s)"
        )
    if not eta * t_max <= _MAX_ETA_T:
        # the Bromwich sum scales the window's truncation error by e^{eta t}
        raise NumericalGuardError(
            f"inversion growth eta t_max = {eta * t_max:.3e} exceeds {_MAX_ETA_T:g} "
            f"(eta = {eta:.3e} rad/s, t_max = {t_max:.3e} s); pass a smaller contour offset"
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
    and read every m-th point: `convolve`, the grid's one node sum.  Its
    transpose, `correlate`, sums over the grid instead: sum_k x_k /
    (zeta_k - w_j + i gamma0/2) at every node j, the grid values stuffed
    every m-th point in reverse and convolved with the same row.  The row is
    transformed once per grid, so W (which the window search forms t1 from),
    each exact-mode numerator N of a trace and the one transposed product of
    an exact-mode sweep cost one FFT product each.  Where n_grid * n_nodes
    is at most the row's length, as for a few nodes, `direct` is set and
    both products are pole sums (`_pole_sums`, offset b) instead, with no
    row.  The grid covers [lo, hi] and exceeds it by less than one step on
    each side.
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
        self.direct = (k + 1) * nodes.size <= length
        # the FFT row holds the whole lattice; a direct sum builds no row, but
        # its grid stays on the lattice only while float positions are exact
        if length > (2**53 if self.direct else _MAX_LATTICE_POINTS):
            raise _size_guard("kernel lattice", length, lo, hi, delta)
        b = eta + 0.5 * gamma0  # > 0: InversionSettings and the auto rule keep eta > 0
        self.positions = float(s) + m * np.arange(k + 1, dtype=float)
        self.omega = x0 + delta * self.positions
        self.zeta = self.omega + 1j * eta
        self.step, self.delta, self.m, self.q, self.b = step, delta, m, q, b
        if self.direct:
            self._nodes = nodes
        else:
            row = 1.0 / (delta * (float(s - self._first) + np.arange(length, dtype=float)) + 1j * b)
            self._size = _fast_length(length)
            self._row_hat = np.fft.fft(row, self._size)

    def convolve(self, weights: np.ndarray) -> np.ndarray:
        """sum_j weights_j / (zeta_k - w_j + i gamma0/2) on every grid point."""
        if self.direct:
            return _pole_sums(-self._nodes, self.b, -self.omega, weights)
        out = self._row_product(weights, self.q)
        return out[self._first : self._first + self.m * (self.omega.size - 1) + 1 : self.m].copy()

    def correlate(self, values: np.ndarray) -> np.ndarray:
        """sum_k values_k / (zeta_k - w_j + i gamma0/2) at every node j: the
        transposed product of `convolve`, one FFT correlation (or pole sums)."""
        if self.direct:
            return _pole_sums(self.omega, self.b, self._nodes, values)
        span = self.m * (self.omega.size - 1) + 1
        out = self._row_product(values[::-1], self.m)
        return out[span - 1 : span + self._first : self.q][::-1].copy()

    def _row_product(self, values: np.ndarray, stride: int) -> np.ndarray:
        """The row convolved with values stuffed every stride-th point of one
        complex buffer, by FFT; at most two work arrays of the row's length
        are alive at a time, and the callers copy out their points so that
        none outlives the call."""
        spectrum = np.zeros(self._size, dtype=complex)
        spectrum[: stride * (values.size - 1) + 1 : stride] = values
        spectrum = np.fft.fft(spectrum)
        spectrum *= self._row_hat
        return np.fft.ifft(spectrum)


# The contour primitive: one grid for every pump and time, the Fourier sum on
# it, and the analytic inverse of a subtracted far field, `_FarField`: for a
# cavity start the two-mode response t1_far (`_two_mode_far`), for a pump
# start `_pump_far`.  Each matches its integrand to two orders beyond the
# leading 1/zeta^n, so the quadrature only sees the remainder's
# faster-decaying tail.


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


def _exp_divided_difference(poles: Sequence, t):
    """e^{-i z t}[x_0, ..., x_n] elementwise over the broadcast poles and t:
    the Newton table on the sorted poles, so that exactly equal ones sit
    together and a run of k + 1 of them takes the limit (-i t)^k e^{-i x t}/k!."""
    xs = np.sort(np.array(np.broadcast_arrays(*poles), dtype=complex), axis=0)
    table = [np.exp(-1j * x * t) for x in xs]
    for k in range(1, len(xs)):
        for i in range(len(xs) - k):
            same = xs[i] == xs[i + k]
            dx = np.where(same, 1.0, xs[i + k] - xs[i])
            limit = (-1j * t) ** k / math.factorial(k) * np.exp(-1j * xs[i] * t)
            table[i] = np.where(same, limit, (table[i + 1] - table[i]) / dx)
    return table[0]


@dataclass(frozen=True)
class _FarField:
    """F(zeta) = c (zeta - p_s) / prod_k (zeta - x_k) over two or three poles
    x_k, the far field that a contour start subtracts, and its inverse
    -i c [(x_0 - p_s) g[x_0, ..., x_n] + g[x_1, ..., x_n]], g(z) = e^{-i z t}.
    c and the poles may hold one entry per pump."""

    c: complex
    p_s: complex
    poles: Tuple

    def __call__(self, zeta):
        return self.c * (zeta - self.p_s) / math.prod(zeta - x for x in self.poles)

    def inverse(self, t):
        x, dd = self.poles, _exp_divided_difference
        return -1j * self.c * ((x[0] - self.p_s) * dd(x, t) + dd(x[1:], t))


def _two_mode_far(dist: SpinDistribution, cavity: CavityModel) -> _FarField:
    """The cavity coupled to one collective spin mode, as the far field of t1.

    The mode sits at p_s = sum_j w_j omega_j - i gamma0/2 with coupling g_K,
    which matches W to two moments, so t1 - t1_far is O(zeta^-5):
    t1_far(zeta) = i (zeta - p_s)/((zeta - l+)(zeta - l-)), l+- the roots of
    (zeta - p1)(zeta - p_s) = g_K^2, p1 = omega_c - i kappa/2.
    """
    p1 = cavity.omega_c - 0.5j * cavity.kappa
    p_s = float(dist.weights @ dist.omega_nodes) - 0.5j * cavity.gamma0
    half = 0.5 * (p1 - p_s)
    root = np.sqrt(half * half + dist.g_collective**2)
    return _FarField(1j, p_s, (p_s + half + root, p_s + half - root))


def _pump_far(t1_far: _FarField, cavity: CavityModel, env: PulseEnvelope, omega_p, c2):
    """A pump start's far field T_far = -i c2 t1_far(zeta)/(zeta - p2), at one
    pump or many: t1_far over the pump's pole p2 = omega_p - i (gamma0/2 +
    pulse bandwidth), so it tends to c2 / zeta^2 as T = t_wp(-i zeta) does
    and matches T two orders further.  Its poles are l+-, then p2."""
    p2 = omega_p - 1j * (0.5 * cavity.gamma0 + env.bandwidth_scale)
    return _FarField(c2, t1_far.p_s, t1_far.poles + (p2,))


def _contour_grid(
    dist: SpinDistribution,
    cavity: CavityModel,
    times: np.ndarray,
    settings: Optional[InversionSettings],
    pulse_scale: float,
    anchors: Sequence[float],
    remainders: Callable,
):
    """The window search: the first grid whose window passes the edge rule of
    `InversionSettings`, the rule's one owner.

    t1_far (`_two_mode_far`) is built once.  On each grid, t1 is formed
    from the grid's node sum W = `convolve`(g_j^2), and remainders(
    zeta_ends, t1, eta, t1_far) yields one (remainder, peak) pair per test,
    the start's integrand less its far field at the window's two end points;
    the grid passes when every max|remainder| <= edge_ratio * peak, and the
    first failure stops the tests.  The automatic window covers the spectrum,
    the anchors and margins scaled by pulse_scale.  Returns the grid, t1 on
    it, eta and t1_far.
    """
    settings = settings or InversionSettings()
    if times.size == 0 or np.any(~np.isfinite(times) | (times < 0)) or not times.max() > 0:
        raise ValueError("times must be non-empty, finite, non-negative and reach beyond t = 0")
    eta, d_omega = _grid_controls(settings, float(times.max()))
    lo, hi = settings.window or _auto_window(dist, cavity, pulse_scale, anchors)
    t1_far = _two_mode_far(dist, cavity)
    for attempt in range(_MAX_GROWTH + 1):
        grid = _ContourGrid(dist, cavity.gamma0, eta, d_omega, lo, hi)
        t1 = _t1(cavity, grid.zeta, grid.convolve(dist.couplings_sq))
        for remainder, peak in remainders(grid.zeta[[0, -1]], t1, eta, t1_far):
            edge = float(np.max(np.abs(remainder)))  # unlike max, np.max keeps a NaN
            if not edge <= settings.edge_ratio * peak:  # a NaN edge fails too
                break
        else:
            return grid, t1, eta, t1_far
        if settings.window is not None or attempt == _MAX_GROWTH:
            raise WindowTooSmallError(
                f"inversion window [{lo:.6g}, {hi:.6g}] rad/s too small: edge "
                f"magnitude {edge:.3e} exceeds {settings.edge_ratio:.1e} x peak {peak:.3e}"
            )
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo) * _GROWTH
        lo, hi = center - half, center + half


def _pump_grid(
    dist: SpinDistribution,
    cavity: CavityModel,
    env: PulseEnvelope,
    omega_ps: np.ndarray,
    times: np.ndarray,
    mode: str,
    settings: Optional[InversionSettings],
):
    """`_contour_grid` for a pump start.  Its remainders are each outermost
    pump's T - T_far (`_pump_far`) at the window's two end points, the lowest
    pump first, against max|t1| |c2| / (eta + pulse bandwidth): T in closed
    form in narrow-pulse mode, by dense node sums at those two points
    (`_pole_sums` with nodes and points swapped) in exact-convolution mode."""
    if omega_ps.size == 0 or np.any(np.isnan(omega_ps)):
        raise ValueError("omega_ps must be non-empty and free of NaN")
    _check_narrow(dist, env, mode)
    outer = [float(omega_ps.min()), float(omega_ps.max())]

    def remainders(zeta, t1, eta, t1_far):
        t1_max = float(np.max(np.abs(t1)))
        b = eta + 0.5 * cavity.gamma0  # > 0, so no end point sits on a pole
        for wp in dict.fromkeys(outer):
            T, c2 = _pump_transfer(
                dist, cavity, env, wp, zeta, mode, t1[[0, -1]],
                lambda weights: _pole_sums(-dist.omega_nodes, b, -zeta.real, weights),
            )
            far = _pump_far(t1_far, cavity, env, wp, c2)
            yield T - far(zeta), t1_max * abs(c2) / (eta + env.bandwidth_scale)

    return _contour_grid(dist, cavity, times, settings, env.bandwidth_scale, outer, remainders)


def _exact_sums(dist: SpinDistribution, env: PulseEnvelope, omega_ps: np.ndarray, u: np.ndarray):
    """(sum_j alpha_pj g_j^2 u_j / D_p, c2_p) at every pump, from the rows,
    norms and coefficients of `_pump_weights`, a block of pumps at a time."""
    gsq = dist.couplings_sq
    cols = np.stack([gsq * u.real, gsq * u.imag], axis=1)
    out = np.empty((omega_ps.size, 3))
    for blk in _blocks(omega_ps.size, dist.n_nodes):
        alpha, d, out[blk, 2] = _pump_weights(dist, env, omega_ps[blk])
        out[blk, :2] = (alpha @ cols) / d[:, None]
    re, im, c2 = out.T
    return re + 1j * im, c2


def _bromwich_sum(residual: np.ndarray, step: float, omega_ref: float, eta: float,
                  times: np.ndarray, far: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """step e^{(eta - i omega_ref) t} / 2 pi sum_k w_k R_k e^{-i t (k - c) step}
    + far(t) at every time: the trapezoid sum (w_k = 1, 1/2 at the ends) of the
    residual R on a uniform contour grid whose point c = (n - 1) // 2 sits at
    omega_ref, plus the inverse of the subtracted far field.  A block of times
    at a time (`_blocks`), by the factored time sum: n_times 2 sqrt(n_grid)
    exponentials in all."""
    n = residual.size
    k1 = math.isqrt(n - 1) + 1
    padded = np.zeros(k1 * -(-n // k1), dtype=complex)  # w_k R_k, zero-padded
    padded[:n] = residual
    padded[0] *= 0.5
    padded[n - 1] *= 0.5
    out = np.empty(times.size, dtype=complex)
    for blk in _blocks(times.size, 2 * k1 + 2):
        chunk = times[blk]
        baby, giant = _phase_tables(n, step, chunk)
        pref = step * np.exp((eta - 1j * omega_ref) * chunk) / (2.0 * math.pi)
        # + 0.0: a zero amplitude has no -0.0
        out[blk] = pref * _time_sum(padded, baby, giant) + (far(chunk) + 0.0)
    return out


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
    over the window of the residual T - T_far, plus the analytic inverse of
    the pump's far field T_far (`_pump_far`), with eta set by max(times).
    The window search, shared with `transfer_sweep`, tests the pump at each
    window's two end points; the pump's residual is formed once, on the
    accepted grid, and summed over every block of times by `_bromwich_sum`.
    Raises WindowTooSmallError if no window passes the edge rule of
    `InversionSettings`.
    """
    times = np.atleast_1d(_float_arg(times, "times", 1))
    omega_p = float(_float_arg(omega_p, "omega_p", 0))
    pumps = np.array([omega_p])
    grid, t1, eta, t1_far = _pump_grid(dist, cavity, env, pumps, times, mode, settings)
    T, c2 = _pump_transfer(dist, cavity, env, omega_p, grid.zeta, mode, t1, grid.convolve)
    far = _pump_far(t1_far, cavity, env, omega_p, c2)
    residual = T - far(grid.zeta)
    step, omega_ref = grid.step, grid.omega[(grid.omega.size - 1) // 2]
    del grid, t1, T  # the grid's FFT row is not needed by the time sum
    beta = _bromwich_sum(residual, step, omega_ref, eta, times, far.inverse)
    return TransferResult(omega_p=omega_p, times=times, beta=beta, method="contour")


def _cavity_amplitude(dist: SpinDistribution, cavity: CavityModel, times: np.ndarray) -> np.ndarray:
    """<a(t) a†(0)> at each time, for a photon that starts in the cavity, by
    contour inversion of t1 with the two-mode far field subtracted, on the
    automatic grid of the default `InversionSettings`.

    Its remainder is t1 - t1_far at the window's two end points, read off
    the grid's t1 that the inversion sums, against the peak 1 / (eta +
    kappa/2), which bounds |t1| on the contour because Im W <= 0 there.
    """

    def remainders(zeta, t1, eta, t1_far):
        yield t1[[0, -1]] - t1_far(zeta), 1.0 / (eta + 0.5 * cavity.kappa)

    grid, t1, eta, t1_far = _contour_grid(dist, cavity, times, None, 0.0, (), remainders)
    residual = t1 - t1_far(grid.zeta)
    step, omega_ref = grid.step, grid.omega[(grid.omega.size - 1) // 2]
    del grid, t1  # the grid's FFT row is not needed by the time sum
    return _bromwich_sum(residual, step, omega_ref, eta, times, t1_far.inverse)


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

    The inversion of `invert_to_time`, with its window search, as one
    contraction per grid: beta_p needs only sum_k v_k R_pk (v_k = w_k
    e^{-i tau (k - c) step}, the trapezoid-weighted phase row), so no residual
    R_pk is formed.  The rows x = i v t1 and y = i v t1_far are built once
    and contracted against blocks of pumps: with T_far = -i c2 t1_far /
    (zeta - p2) (`_pump_far`), the far field adds c2_p sum_k y_k /
    (zeta_k - p2_p), the pole sums of `_pole_sums`; in exact-convolution
    mode the numerators come from u = `_ContourGrid.correlate`(x), one FFT
    correlation per grid.  A pump costs O(n_grid + n_nodes) in either mode.
    A Lorentzian narrow-pulse numerator has the pole p2 too and folds into
    y as y - x; other shapes contract their Cauchy transform with x.
    """
    omega_ps = np.atleast_1d(_float_arg(omega_ps, "omega_ps", 1))
    tau = float(_float_arg(tau, "tau", 0))
    grid, t1, eta, t1_far = _pump_grid(dist, cavity, env, omega_ps, np.array([tau]), mode, settings)
    n = grid.omega.size
    c = (n - 1) // 2
    v = np.exp(-1j * ((grid.step * tau) * (np.arange(n, dtype=float) - c)))
    v[[0, -1]] *= 0.5
    x = 1j * v * t1
    y = 1j * v * t1_far(grid.zeta)
    # sum_k v_k R_pk = numerator_p + c2_p sum_k y_k / (zeta_k - p2_p)
    if mode == MODE_EXACT:
        numerator, c2 = _exact_sums(dist, env, omega_ps, grid.correlate(x))
    else:
        c2 = _narrow_c2(dist, env, omega_ps)
        if env.shape == "lorentzian":  # C(u) / |alpha|_1 = 1 / (zeta - p2)
            numerator = 0.0
            y -= x
        else:
            numerator = np.empty(omega_ps.size, dtype=complex)
            for blk in _blocks(omega_ps.size, n):
                detuning = grid.zeta - omega_ps[blk, None] + 0.5j * cavity.gamma0
                numerator[blk] = env.cauchy(detuning) @ x
            numerator *= -c2 / env.norm_l1
    far = _pump_far(t1_far, cavity, env, omega_ps, c2)
    # every p2 lies as far below the axis: zeta_k - p2_p = omega_k - w_p + i (eta - Im p2)
    sums = numerator + c2 * _pole_sums(grid.omega, eta - far.poles[-1][0].imag, omega_ps, y)
    pref = grid.step * np.exp((eta - 1j * grid.omega[c]) * tau) / (2.0 * math.pi)
    return pref * sums + (far.inverse(tau) + 0.0)


# ---------------------------------------------------------------------------
# time-domain route

# Caps of time_domain_propagate: the nodes, as every chain site costs a few
# passes over n_nodes + 1 entries and the work cap allows a few thousand sites,
# and the DOP853 work of one run, in states x steps, as `_chain_amplitude`
# estimates it before the recursion starts.
_MAX_ODE_NODES = 200_000
_MAX_ODE_WORK = 2**25
# The depth-L and depth-1.5L chains must agree within this share of rtol * max|beta|.
_DEPTH_AGREEMENT = 0.1


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
        # alpha_j g_j normalized; g_K cancels, and a tiny one would underflow
        packet = env.amplitude(dist.omega_nodes - omega_p) * np.sqrt(dist.weights)
        norm_sq = float(np.sum(packet**2))
        if not norm_sq > 0.0:
            raise _no_overlap(dist, omega_p)
        x0[1:] = packet / math.sqrt(norm_sq)
        return x0
    raise ValueError("initial must be 'cavity' or 'pulse'")


def _lanczos(g: np.ndarray, det: np.ndarray, packet: Optional[np.ndarray], depth: int):
    """The Lanczos recursion on the real arrow matrix H = [[0, g^T], [g, D]]
    (D = diag(det)) from e_0, `depth` sites deep: the diagonal a_k, the
    couplings b_k (site k to k + 1) and the projections p_k = q_k^T packet
    (None without a packet).

    The plain three-term recursion: two columns kept, no reorthogonalization.
    The chain's bilinear forms stay accurate all the same (Greenbaum, Linear
    Algebra Appl. 113 (1989) 7).  It stops early at a coupling that is not
    > 0 (0 for g = 0, NaN for a NaN system): the sites so far span an
    invariant space, so the shorter chain is exact.
    """
    a, b, p = np.zeros(depth), np.zeros(depth), np.zeros(depth)
    q = np.zeros(det.size + 1)
    q[0] = 1.0
    prev = np.zeros_like(q)
    w = np.empty_like(q)
    for k in range(depth):
        w[0] = g @ q[1:]
        np.multiply(det, q[1:], out=w[1:])
        w[1:] += g * q[0]
        if k:
            w -= b[k - 1] * prev
        a[k] = q @ w
        w -= a[k] * q
        if packet is not None:
            p[k] = q @ packet
        b[k] = np.linalg.norm(w)
        if not b[k] > 0.0:
            depth = k + 1
            break
        prev, q, w = q, w / b[k], prev
    return a[:depth], b[: depth - 1], p[:depth]


def _chain_amplitude(g: np.ndarray, det: np.ndarray, packet: Optional[np.ndarray],
                     cavity: CavityModel, times: np.ndarray, rtol: float, atol: float):
    """The cavity amplitude in the frame rotating at w_c, from the cavity
    (packet None) or from the packet, on the chain of `_lanczos`.

    The chain's generator G = -i T - gamma0/2 - (kappa - gamma0)/2 e_0 e_0^T
    is tridiagonal and complex symmetric, so a packet start, i p on the
    chain, reads e_0^T e^{G t} (i p) = i sum_k p_k c_k(t), c(t) = e^{G t} e_0:
    row 0 for either start.  The depth starts at L = ceil(1.2 half-span
    t_max) + 16, past the reach of both starts on the bundled spans and up
    to 10 us; there Krylov approximations of exp(-i H t) converge
    superlinearly (Hochbruck & Lubich, SIAM J. Numer. Anal. 34 (1997) 1911).
    One DOP853 run integrates the depth-L and depth-ceil(1.5 L) chains side
    by side, and the deeper one is taken once the two agree within
    _DEPTH_AGREEMENT * rtol of max|beta|, or are one chain that the
    recursion cut short; otherwise L grows to ceil(1.5 L).

    Before each recursion the run's work is estimated as t_max x the
    largest rate, max(max|det|, kappa/2, gamma0/2), x the pair's
    states; a NumericalGuardError refuses it above _MAX_ODE_WORK.
    """
    half_span, t_max = 0.5 * float(det.max() - det.min()), float(times[-1])
    rates = {"max|w_j - w_c|": float(np.max(np.abs(det))), "kappa/2": 0.5 * cavity.kappa,
             "gamma0/2": 0.5 * cavity.gamma0}
    rate = max(rates.values())
    # rate >= half-span, so a reach past the cap fails the work check below
    depth = math.ceil(1.2 * min(half_span * t_max, _MAX_ODE_WORK)) + 16
    while True:
        deep = math.ceil(1.5 * depth)
        work = t_max * rate * (depth + deep)  # Python floats: inf, with no warning
        if not work <= _MAX_ODE_WORK:
            factors = ", ".join(f"{k} = {v:.3e}" for k, v in rates.items())
            raise NumericalGuardError(
                f"the time-domain run would take about {work:.3e} state-steps, above the "
                f"budget ({_MAX_ODE_WORK}): t_max = {t_max:.3e} s x the largest rate ({factors} "
                f"rad/s) x {depth + deep} chain states; shorten the time span"
            )
        a, b, p = _lanczos(g, det, packet, deep)
        depths = (min(depth, a.size), a.size)
        diag = np.concatenate([-1j * a[:d] - 0.5 * cavity.gamma0 for d in depths])
        diag[[0, depths[0]]] -= 0.5 * (cavity.kappa - cavity.gamma0)
        # the pair's couplings, with a zero between the two chains
        off = np.concatenate([np.append(-1j * b[: d - 1], 0.0) for d in depths])[:-1]
        start = np.concatenate([np.eye(1, d)[0] if packet is None else 1j * p[:d] for d in depths])

        def rhs(y):  # a new array each call: dop853 keeps it as f, across rejected steps too
            dy = diag * y
            dy[:-1] += off * y[1:]
            dy[1:] += off * y[:-1]
            return dy

        rows = dop853(rhs, start, times, rtol, atol, rows=slice(0, depths[0] + 1, depths[0]))
        gap = np.max(np.abs(rows[1] - rows[0]))
        if depths[0] == depths[1] or gap <= _DEPTH_AGREEMENT * rtol * np.max(np.abs(rows[1])):
            return rows[1]
        depth = deep


def time_domain_propagate(
    dist: SpinDistribution,
    cavity: CavityModel,
    initial: str,
    times,
    env: Optional[PulseEnvelope] = None,
    omega_p: Optional[float] = None,
    rtol: float = ODE_RTOL,
    atol: float = 1e-12,
) -> TransferResult:
    """Transfer amplitude by ODE propagation on the spin measure's Lanczos chain.

    initial = "cavity" starts from X = (1, 0, ..., 0); initial = "pulse"
    starts from the pulse-excited spin packet X_j(0) proportional to
    alpha(w_j - w_p) g_j, normalized; with zero coupling beta = 0.  Works for
    lossless systems too (kappa = gamma0 = 0), as the contour route does.
    times may repeat; times that are all 0 return the start.

    The arrow system is not integrated state by state: the Lanczos recursion
    on H = [[0, g^T], [g, D]] from the cavity (`_lanczos`) maps it onto one
    chain, a few dozen sites deep for a few Rabi periods, which DOP853
    integrates at the given rtol/atol; a pulse start enters the same chain
    through the packet's projections.  The depth grows until a chain 1.5
    times deeper agrees (see `_chain_amplitude`).  The chain is built from
    the nodes and weights alone: no grid, no contour.  Raises
    NumericalGuardError above _MAX_ODE_NODES, for a run whose estimated
    work exceeds _MAX_ODE_WORK, for a pulse with no overlap with the grid,
    and when the integrator fails.
    """
    if omega_p is not None:
        omega_p = float(_float_arg(omega_p, "omega_p", 0))
    if dist.n_nodes > _MAX_ODE_NODES:
        raise NumericalGuardError(
            f"n_nodes = {dist.n_nodes} exceeds the memory budget ({_MAX_ODE_NODES}); "
            "reduce the grid"
        )
    times = np.atleast_1d(_float_arg(times, "times", 1))
    bad = ~np.isfinite(times) | (times < 0)
    if times.size == 0 or bad.any() or np.any(np.diff(times) < 0):
        raise ValueError("times must be non-empty, finite, non-negative and non-decreasing")
    x0 = _initial_vector(dist, initial, env, omega_p)
    y = np.zeros(times.size, dtype=complex)
    if x0.any():
        g = dist.g_collective * np.sqrt(dist.weights)
        # H's real couplings act on (X_0, i X_1, ..., i X_n): the packet starts as i x0
        packet = x0.real if initial == "pulse" else None
        y = _chain_amplitude(g, dist.omega_nodes - cavity.omega_c, packet, cavity, times, rtol, atol)
    # + 0.0 turns the -0.0 parts of a zero amplitude into 0.0, as on the contour route
    beta = y * np.exp(-1j * cavity.omega_c * times) + 0.0
    return TransferResult(
        omega_p=omega_p if omega_p is not None else float("nan"),
        times=times,
        beta=beta,
        method="time-domain",
    )
