"""The full-state time-domain reference: DOP853 on the whole (n_nodes + 1)-entry
arrow state, with no Krylov chain.  The tests compare the chain route of
`time_domain_propagate` against it, and check DOP853 and the lossless norm on it."""
from __future__ import annotations

import numpy as np

from qesr._dop853 import dop853
from qesr.dynamics import CavityModel
from qesr.spin_model import SpinDistribution


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
    g = (dist.g_collective * np.sqrt(dist.weights)).astype(complex)  # as y's products cast it
    diag_spins = -1j * (dist.omega_nodes - cavity.omega_c) - 0.5 * cavity.gamma0
    diag_cav = -0.5 * cavity.kappa
    work = np.empty_like(g)

    def rhs(y):  # a new array each call: dop853 keeps it as f, across rejected steps too
        dy = np.empty_like(y)
        dy[0] = diag_cav * y[0] + np.dot(g, y[1:])
        spins = np.multiply(diag_spins, y[1:], out=dy[1:])
        spins -= np.multiply(g, y[0], out=work)
        return dy

    return dop853(rhs, x0, times, rtol, atol, rows)
