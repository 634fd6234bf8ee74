"""The choices, defaults and caps that the config schema and the CLI share
with the numerical modules, and the CSV formatter, without NumPy.

Each value is defined here once; `spin_model`, `dynamics`, `protocol` and
`sensitivity` import (and export) their own from this module, so resolving a
config or running `sensitivity` loads no numerical module.
"""
from __future__ import annotations

from typing import Iterable

LINE_SHAPES = ("lorentzian", "gaussian")
MODE_NARROW = "narrow-pulse"
MODE_EXACT = "exact-convolution"
MODES = (MODE_NARROW, MODE_EXACT)
PULSE_SHAPES = ("lorentzian", "gaussian", "rectangular")
ODE_RTOL = 1e-9  # default relative tolerance of the DOP853 propagation
N_THRESHOLD = 0.05  # default detection threshold, in mean cavity photons

# GridSpec's node count and automatic span (in line FWHMs), and
# InversionSettings' window-edge test ratio
_N_NODES = 5001
_SPAN_FWHM = 8.0
_EDGE_RATIO = 1e-4

_MAX_GRID_POINTS = 4_000_000
# The kernel convolution runs over about (window + node span) / delta lattice
# points; its FFT work arrays take ~64 bytes per point.
_MAX_LATTICE_POINTS = 4 * _MAX_GRID_POINTS

# Default storage grid of find_swap_time and the swap command: 1.2 periods pi/g_K, 481 points
_SWAP_PERIODS, _SWAP_POINTS = 1.2, 481


def _csv_text(header: str, *columns: Iterable) -> str:
    """CSV text of numeric columns (arrays or sequences) side by side; each
    value is written as repr(float(v)), which round-trips exactly."""
    cells = [
        map(repr, map(float, c.tolist() if hasattr(c, "tolist") else c)) for c in columns
    ]
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"
