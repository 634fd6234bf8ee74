"""Properties the matrix-exponential reference must have.

Run with `python -m pytest perfbench`.  The expected values are closed forms
and conservation laws, not program output.
"""
import math

import numpy as np
import pytest

import reference as ref

W_C = ref.TWO_PI * 2.91e9
G_K = ref.TWO_PI * 2.9e6
PULSE_FWHM = ref.TWO_PI * 1.5e5


@pytest.mark.parametrize("n_nodes", [1, 7])
def test_degenerate_two_mode_limit(n_nodes):
    """Spins all at the cavity frequency, no loss: |beta(t)| = |sin(g_K t)|."""
    weights = np.random.default_rng(0).uniform(0.5, 1.5, n_nodes)
    m = ref.CoupledModes(
        nodes=np.full(n_nodes, W_C),
        weights=weights / weights.sum(),
        g_collective=G_K,
        omega_c=W_C,
    )
    times = np.linspace(0.0, 3.0 * math.pi / G_K, 301)
    x0 = m.pulse_start(PULSE_FWHM, W_C)
    want = np.abs(np.sin(G_K * times))
    grid = np.abs(ref.cavity_amplitude(m, x0, times))
    np.testing.assert_allclose(grid, want, rtol=0, atol=1e-12)
    single = [abs(ref.cavity_amplitude(m, x0, t)[0]) for t in times[::50]]
    np.testing.assert_allclose(single, want[::50], rtol=0, atol=1e-12)


@pytest.mark.parametrize("start", ["cavity", "pulse"])
def test_lossless_norm_conservation(start):
    """With kappa = gamma0 = 0 the generator is anti-Hermitian: |X(t)| = 1."""
    ensemble = {
        "name": "triplet",
        "lines": [
            {"center_hz": 2.9078e9, "fwhm_hz": 1.6e6, "weight": 1.0},
            {"center_hz": 2.9100e9, "fwhm_hz": 1.6e6, "weight": 1.0},
            {"center_hz": 2.9122e9, "fwhm_hz": 1.6e6, "weight": 1.0},
        ],
        "grid": {"n_nodes": 801, "span_fwhm": 8.0, "window_hz": None},
    }
    nodes, weights = ref.discretize(ensemble)
    m = ref.CoupledModes(nodes, weights, G_K, W_C)
    x0 = m.cavity_start() if start == "cavity" else m.pulse_start(PULSE_FWHM, W_C + 1e6)
    states = ref.propagate(m, x0, np.linspace(0.0, 4.0 * math.pi / m.g_collective, 121))
    np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, rtol=0, atol=1e-10)
    # sanity: the excitation really moves between cavity and spins
    assert np.ptp(np.abs(states[:, 0])) > 0.1
