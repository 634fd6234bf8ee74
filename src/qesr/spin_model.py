"""Inhomogeneous spin-ensemble spectral model.

An ensemble is described by a mixture of broadened lines with a collective
coupling strength g_K to the cavity mode.  The continuous density rho(omega)
is discretized on a uniform frequency grid into nodes omega_j with weights
w_j (trapezoid rule, renormalized so sum w_j = 1); each node carries a
coupling g_j^2 = g_K^2 * w_j.

All frequencies in this module are angular (rad/s).  The configuration layer
converts from Hz.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import _warn

__all__ = [
    "SpinLine",
    "GridSpec",
    "SpinDistribution",
    "Ensemble",
    "EnsembleCatalog",
    "build_distribution",
    "density_at",
]

LINE_SHAPES = ("lorentzian", "gaussian")

# Coverage margin (in FWHM) below which the grid window triggers a warning.
_COVERAGE_FWHM = 5.0
_GAUSS_SIGMA_PER_FWHM = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))


def _csv_text(header: str, *columns: Iterable) -> str:
    """CSV text of numeric columns (arrays or sequences) side by side; each
    value is written as repr(float(v)), which round-trips exactly."""
    cells = [map(repr, np.asarray(c, dtype=float).tolist()) for c in columns]
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"


def _write_csv(path, header: str, *columns) -> None:
    """Write the columns side by side as `_csv_text`."""
    with open(path, "w", newline="") as fh:
        fh.write(_csv_text(header, *columns))


def _freeze(obj, **dtypes) -> None:
    """Replace each named field of a frozen dataclass with a read-only copy of
    its dtype, so the caller's arrays stay writeable; the fields share one shape."""
    arrays = {name: np.array(getattr(obj, name), dtype=dt) for name, dt in dtypes.items()}
    if len({a.shape for a in arrays.values()}) > 1:
        *head, last = arrays
        raise ValueError(f"{', '.join(head)} and {last} must have matching shapes")
    for name, arr in arrays.items():
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class SpinLine:
    """One broadened transition: center and FWHM in rad/s, relative weight."""

    center: float
    fwhm: float
    weight: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.center):
            raise ValueError("SpinLine.center must be finite")
        if not (self.fwhm > 0.0 and np.isfinite(self.fwhm)):
            raise ValueError("SpinLine.fwhm must be positive and finite")
        if not (self.weight > 0.0 and np.isfinite(self.weight)):
            raise ValueError("SpinLine.weight must be positive and finite")


@dataclass(frozen=True)
class GridSpec:
    """Discretization grid: node count and window in rad/s.

    window = None means automatic: the union of all line centers extended by
    span_fwhm times the largest FWHM on each side.
    """

    n_nodes: int = 5001
    window: Optional[Tuple[float, float]] = None
    span_fwhm: float = 8.0

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError("GridSpec.n_nodes must be at least 2")
        if self.window is not None:
            lo, hi = self.window
            if not (hi > lo):
                raise ValueError("GridSpec.window must satisfy hi > lo")
        if self.span_fwhm <= 0:
            raise ValueError("GridSpec.span_fwhm must be positive")


def _profile(x, fwhm: float, shape: str):
    """Unit-area line profile evaluated at offset x from the line center."""
    if shape == "lorentzian":
        hw = 0.5 * fwhm
        return (hw / np.pi) / (x * x + hw * hw)
    if shape == "gaussian":
        sigma = fwhm * _GAUSS_SIGMA_PER_FWHM
        return np.exp(-0.5 * (x / sigma) ** 2) / (sigma * np.sqrt(2.0 * np.pi))
    raise ValueError(f"unknown line shape {shape!r}")


@dataclass(frozen=True)
class SpinDistribution:
    """Discretized spectral density plus the analytic mixture it came from.

    omega_nodes are strictly increasing; weights sum to one.  Instances are
    immutable (arrays are marked read-only) and safe to share across threads.
    """

    lines: Tuple[SpinLine, ...]
    g_collective: float
    omega_nodes: np.ndarray
    weights: np.ndarray
    shape: str = "lorentzian"
    n_spins_physical: Optional[float] = None  # reporting only; no dynamics role

    def __post_init__(self):
        nodes = np.asarray(self.omega_nodes, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("omega_nodes must be a 1-d array with >= 2 entries")
        if wts.shape != nodes.shape:
            raise ValueError("weights must have the same shape as omega_nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("omega_nodes must be finite")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("omega_nodes must be strictly increasing")
        if not np.all(np.isfinite(wts) & (wts >= 0)):
            raise ValueError("weights must be finite and non-negative")
        total = wts.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1 within 1e-9 (got {total!r})")
        g = self.g_collective
        if not (g >= 0.0 and np.isfinite(g)):
            raise ValueError("g_collective must be finite and >= 0")
        if not math.isfinite(float(g) * float(g)):  # couplings_sq and the far fields square it
            raise ValueError(f"g_collective = {float(g)!r} rad/s: its square overflows a double")
        if g > 0.0 and not math.isfinite(2.0 * math.pi / float(g)):  # the time spans scale with it
            raise ValueError(f"g_collective = {float(g)!r} rad/s: 2 pi/g_collective overflows a double")
        if self.shape not in LINE_SHAPES:
            raise ValueError(f"shape must be one of {LINE_SHAPES}")
        if self.n_spins_physical is not None and not self.n_spins_physical > 0:
            raise ValueError("n_spins_physical must be positive when given")
        _freeze(self, omega_nodes=float, weights=float)
        object.__setattr__(self, "lines", tuple(self.lines))

    @property
    def n_nodes(self) -> int:
        return self.omega_nodes.size

    @property
    def couplings_sq(self) -> np.ndarray:
        """Per-node g_j^2 = g_K^2 * w_j (rad^2/s^2)."""
        return self.g_collective**2 * self.weights

    def to_csv(self, path) -> None:
        """Write the node table as CSV with columns omega_rad_per_s, weight."""
        _write_csv(path, "omega_rad_per_s,weight", self.omega_nodes, self.weights)


@dataclass(frozen=True)
class Ensemble:
    """A named ensemble: its center frequency (cavity tuning target) and density."""

    name: str
    center: float
    distribution: SpinDistribution


@dataclass(frozen=True)
class EnsembleCatalog:
    """Uniquely named ensembles, as parsed from one configuration."""

    entries: Mapping[str, Ensemble] = field(default_factory=dict)

    def __post_init__(self):
        for name, ens in self.entries.items():
            if name != ens.name:
                raise ValueError(f"catalog key {name!r} != ensemble name {ens.name!r}")
        object.__setattr__(self, "entries", dict(self.entries))

    @property
    def names(self):
        return list(self.entries)

    def __getitem__(self, name: str) -> Ensemble:
        return self.entries[name]

    def __iter__(self):
        return iter(self.entries.values())

    def __len__(self):
        return len(self.entries)


def build_distribution(
    lines: Sequence[SpinLine],
    g_collective: float,
    satellites: Optional[Iterable] = None,
    grid: Optional[GridSpec] = None,
    shape: str = "lorentzian",
    n_spins_physical: Optional[float] = None,
) -> SpinDistribution:
    """Discretize a line mixture into a SpinDistribution.

    Parameters
    ----------
    lines:
        Main lines; their weights are normalized to sum to one.
    g_collective:
        Collective coupling g_K in rad/s.
    satellites:
        Optional iterable of (offset, weight) pairs (or dicts with keys
        "offset"/"weight", rad/s and fractional).  Each satellite replicates
        every main line shifted by offset with the given weight fraction; the
        main lines are scaled by (1 - total satellite weight) so the total
        stays one.
    grid:
        GridSpec; defaults to 5001 nodes over the automatic window.
    shape:
        "lorentzian" (default) or "gaussian", applied to every line.

    Notes
    -----
    Node weights are trapezoid quadrature weights of the analytic mixture,
    renormalized to sum to exactly one.  For Lorentzian lines the default
    +-8 FWHM window truncates a few percent of the tails; the renormalization
    absorbs that.
    """
    lines = tuple(lines)
    if not lines:
        raise ValueError("lines must not be empty")
    if not (g_collective >= 0 and np.isfinite(g_collective)):
        raise ValueError("g_collective must be finite and >= 0")
    if shape not in LINE_SHAPES:
        raise ValueError(f"shape must be one of {LINE_SHAPES}")
    grid = grid or GridSpec()

    sat_pairs = []
    for sat in satellites or ():
        if isinstance(sat, Mapping):
            off, wt = float(sat["offset"]), float(sat["weight"])
        else:
            off, wt = float(sat[0]), float(sat[1])
        if not (0.0 < wt < 1.0):
            raise ValueError("satellite weight must lie in (0, 1)")
        sat_pairs.append((off, wt))
    sat_total = sum(wt for _, wt in sat_pairs)
    if sat_total >= 1.0:
        raise ValueError("total satellite weight must be < 1")

    wsum = sum(ln.weight for ln in lines)
    full = []
    for ln in lines:
        base = ln.weight / wsum
        full.append(SpinLine(ln.center, ln.fwhm, base * (1.0 - sat_total)))
        for off, wt in sat_pairs:
            full.append(SpinLine(ln.center + off, ln.fwhm, base * wt))
    full = tuple(full)

    if grid.window is not None:
        lo, hi = grid.window
    else:
        span = grid.span_fwhm * max(ln.fwhm for ln in full)
        lo = min(ln.center for ln in full) - span
        hi = max(ln.center for ln in full) + span
    for ln in full:
        if ln.center - _COVERAGE_FWHM * ln.fwhm < lo or ln.center + _COVERAGE_FWHM * ln.fwhm > hi:
            _warn(
                f"grid window [{lo:.6g}, {hi:.6g}] rad/s covers less than "
                f"{_COVERAGE_FWHM} FWHM around the line at {ln.center:.6g} rad/s"
            )

    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"grid window [{lo:.6g}, {hi:.6g}] rad/s is not finite")
    nodes = np.linspace(lo, hi, grid.n_nodes)
    if not np.all(np.diff(nodes) > 0):
        raise ValueError(
            f"grid window [{lo!r}, {hi!r}] rad/s is too narrow for "
            f"{grid.n_nodes} distinct nodes at this frequency"
        )
    dens = _mixture(full, shape, nodes)
    trap = np.full(grid.n_nodes, nodes[1] - nodes[0])
    trap[0] *= 0.5
    trap[-1] *= 0.5
    wts = dens * trap
    total = wts.sum()
    if not total > 0:
        raise ValueError(f"grid window [{lo:.6g}, {hi:.6g}] rad/s carries no spectral weight")
    wts = wts / total
    return SpinDistribution(
        lines=full,
        g_collective=float(g_collective),
        omega_nodes=nodes,
        weights=wts,
        shape=shape,
        n_spins_physical=n_spins_physical,
    )


def _mixture(lines: Sequence[SpinLine], shape: str, omega):
    out = np.zeros_like(np.asarray(omega, dtype=float))
    for ln in lines:
        out = out + ln.weight * _profile(np.asarray(omega, dtype=float) - ln.center, ln.fwhm, shape)
    return out


def density_at(dist: SpinDistribution, omega):
    """Analytic mixture density rho(omega) in s/rad (unit total area).

    Accepts a scalar or array omega; returns the same shape.
    """
    om = np.asarray(omega, dtype=float)
    out = _mixture(dist.lines, dist.shape, om)
    return float(out) if np.isscalar(omega) else out
