"""qesr: qubit-detected electron spin resonance simulator.

Core pieces: spin-ensemble spectral densities (`spin_model`), cavity/spin
transfer dynamics with two independent evaluation routes (`dynamics`), the
spectroscopy protocol (`protocol`), weak-coupling sensitivity estimates
(`sensitivity`), and a deterministic CLI (`qesr`).

The package exports exactly the names in each submodule's `__all__`.

Importing qesr before NumPy loads NumPy with one OpenBLAS thread for the
rest of the process, unless the environment sets `OPENBLAS_NUM_THREADS`,
`GOTO_NUM_THREADS` or `OMP_NUM_THREADS`; set one of them (or import NumPy
first) to keep a larger pool for the caller's own linear algebra.  During
that import `OPENBLAS_NUM_THREADS=1` is briefly in `os.environ`.
"""
import os as _os

# OpenBLAS sizes its thread pool once, when numpy first loads it, from the
# first of these variables that is set.  A cold process that sets none loads
# numpy on one thread.  Every bundled command runs as fast on one thread as on
# two, and a cold CLI's bytes then do not depend on the machine's core count
# (exact `spectrum` on a 200,001-node grid differs in its last digits between
# one thread and two).  Large contour grids pay: their time-sum GEMM
# (`_time_sum`) gains from a second thread, and a transfer trace 20 times the
# default span runs 15-20% slower on one.  An explicit setting, or a numpy
# loaded earlier, wins; os.environ is restored before the submodules load.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & _os.environ.keys():
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]
del _os

from . import errors, spin_model, dynamics, protocol, sensitivity, config
from .errors import *  # noqa: F401,F403
from .spin_model import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .protocol import *  # noqa: F401,F403
from .sensitivity import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, spin_model, dynamics, protocol, sensitivity, config)
    for name in module.__all__
] + ["__version__"]
