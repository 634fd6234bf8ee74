"""Independent reference for the transfer amplitude beta.

The low-excitation dynamics of a cavity coupled to N spin nodes is linear,
dX/dt = A X, with X = (cavity, spin_1, ..., spin_N).  In the frame rotating
at the cavity frequency w_c the generator is the sparse arrow matrix

    A[0, 0] = -kappa/2            A[0, j] = +g_j
    A[j, 0] = -g_j                A[j, j] = -i (w_j - w_c) - gamma0/2

so X(t) = expm(A t) X(0).  The action of the matrix exponential on X(0) is
evaluated with scipy.sparse.linalg.expm_multiply (Al-Mohy & Higham, SIAM J.
Sci. Comput. 33, 2011).  Nothing here imports qesr: the spin grid is
discretized again from the config, and beta is neither a contour inversion
nor an ODE integration, so the reference can check both of the program's
routes.

All frequencies are angular (rad/s) and times are seconds.  Amplitudes are
returned in the rotating frame; multiply by exp(-i w_c t) for the lab frame.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CoupledModes:
    """Cavity plus discretized spins: node frequencies, weights and rates."""

    nodes: np.ndarray  # spin node frequencies w_j (rad/s)
    weights: np.ndarray  # node weights, summing to one
    g_collective: float  # g_K (rad/s); node couplings g_j = g_K sqrt(weight_j)
    omega_c: float
    kappa: float = 0.0
    gamma0: float = 0.0

    @property
    def couplings(self) -> np.ndarray:
        return self.g_collective * np.sqrt(self.weights)

    def generator(self) -> sparse.csr_matrix:
        """The arrow matrix A of dX/dt = A X in the frame rotating at w_c."""
        n = self.nodes.size
        g = self.couplings
        spins = np.arange(1, n + 1)
        rows = np.concatenate(([0], np.zeros(n, int), spins, spins))
        cols = np.concatenate(([0], spins, np.zeros(n, int), spins))
        vals = np.concatenate(
            (
                [-0.5 * self.kappa + 0j],
                g,
                -g,
                -1j * (self.nodes - self.omega_c) - 0.5 * self.gamma0,
            )
        )
        return sparse.csr_matrix((vals, (rows, cols)), shape=(n + 1, n + 1))

    def cavity_start(self) -> np.ndarray:
        x0 = np.zeros(self.nodes.size + 1, dtype=complex)
        x0[0] = 1.0
        return x0

    def pulse_start(self, pulse_fwhm: float, omega_p: float) -> np.ndarray:
        """Spin packet excited by a Lorentzian pulse centred at omega_p.

        The pulse's spectral amplitude is alpha(x) = 1/(1 + (4x/fwhm)^2) at
        detuning x from the carrier, and node j is excited in proportion to
        alpha(w_j - omega_p) g_j; the packet is normalized to one excitation.
        """
        a = 0.25 * pulse_fwhm
        x = self.nodes - omega_p
        amp = a * a / (x * x + a * a) * self.couplings
        x0 = np.zeros(self.nodes.size + 1, dtype=complex)
        x0[1:] = amp / np.linalg.norm(amp)
        return x0


def propagate(model: CoupledModes, x0: np.ndarray, times) -> np.ndarray:
    """States X(t), one row per time, in the rotating frame.

    `times` is one time or a uniform grid (e.g. np.linspace); a grid is
    evaluated in one expm_multiply sweep.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    A = model.generator()
    if times.size == 1:
        return expm_multiply(A * times[0], x0)[None, :]
    step = np.diff(times)
    if not np.allclose(step, step[0], rtol=1e-9, atol=0.0):
        raise ValueError("times must be a uniform grid")
    return expm_multiply(
        A, x0, start=times[0], stop=times[-1], num=times.size, endpoint=True
    )


def cavity_amplitude(model: CoupledModes, x0: np.ndarray, times) -> np.ndarray:
    """Rotating-frame cavity amplitude X_0(t)."""
    return propagate(model, x0, times)[:, 0]


def lab_frame(model: CoupledModes, amplitude: np.ndarray, times) -> np.ndarray:
    return amplitude * np.exp(-1j * model.omega_c * np.asarray(times, dtype=float))


# ---------------------------------------------------------------------------
# discretization of a qesr config, written from the config reference alone


def _lorentzian_mixture(lines, omega: np.ndarray) -> np.ndarray:
    total = sum(ln["weight"] for ln in lines)
    out = np.zeros_like(omega)
    for ln in lines:
        hw = 0.5 * TWO_PI * ln["fwhm_hz"]
        x = omega - TWO_PI * ln["center_hz"]
        out += (ln["weight"] / total) * (hw / math.pi) / (x * x + hw * hw)
    return out


def discretize(ensemble: dict):
    """Node frequencies and weights for one `ensembles[]` entry of a config.

    Uniform nodes over the line centres widened by span_fwhm times the
    largest FWHM on each side; weights are the Lorentzian line mixture times
    trapezoid weights, normalized to sum to one.  Only the features the
    benchmark's configs use are supported; anything else is refused.
    """
    if ensemble.get("shape", "lorentzian") != "lorentzian":
        raise ValueError("reference supports Lorentzian lines only")
    if ensemble.get("satellites"):
        raise ValueError("reference does not model satellite lines")
    grid = ensemble["grid"]
    if grid.get("window_hz") is not None:
        raise ValueError("reference supports the automatic grid window only")
    lines = ensemble["lines"]
    span = grid["span_fwhm"] * max(TWO_PI * ln["fwhm_hz"] for ln in lines)
    lo = min(TWO_PI * ln["center_hz"] for ln in lines) - span
    hi = max(TWO_PI * ln["center_hz"] for ln in lines) + span
    nodes = np.linspace(lo, hi, grid["n_nodes"])
    trap = np.full(nodes.size, nodes[1] - nodes[0])
    trap[[0, -1]] *= 0.5
    weights = _lorentzian_mixture(lines, nodes) * trap
    return nodes, weights / weights.sum()


def ensemble_centre(ensemble: dict) -> float:
    """Ensemble centre in rad/s: configured, else the weighted line centre."""
    if ensemble.get("center_hz") is not None:
        return TWO_PI * ensemble["center_hz"]
    lines = ensemble["lines"]
    total = sum(ln["weight"] for ln in lines)
    return TWO_PI * sum(ln["weight"] * ln["center_hz"] for ln in lines) / total


def model_from_config(config: dict, ensemble: dict) -> CoupledModes:
    """CoupledModes for one ensemble of a config, cavity tuned as configured."""
    cav = config.get("cavity", {})
    omega_c = (
        TWO_PI * cav["omega_c_hz"]
        if cav.get("omega_c_hz") is not None
        else ensemble_centre(ensemble)
    )
    if cav.get("kappa_hz") is not None:
        kappa = TWO_PI * cav["kappa_hz"]
    else:
        kappa = omega_c / (cav.get("q") or 1e4)
    nodes, weights = discretize(ensemble)
    return CoupledModes(
        nodes=nodes,
        weights=weights,
        g_collective=TWO_PI * ensemble["g_collective_hz"],
        omega_c=omega_c,
        kappa=kappa,
        gamma0=TWO_PI * (cav.get("gamma0_hz") or 0.0),
    )
