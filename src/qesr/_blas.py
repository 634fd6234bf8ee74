"""NumPy, and SciPy where a gaussian pulse needs it, on one OpenBLAS thread.

OpenBLAS sizes its thread pool once, when a library loads it, from the first
of `OPENBLAS_NUM_THREADS`, `GOTO_NUM_THREADS` and `OMP_NUM_THREADS` that is
set.  NumPy and SciPy each bundle their own OpenBLAS.  Every qesr module
takes NumPy from here (`from ._blas import np`), and the gaussian pulse takes
`scipy.special` through `load`, so a process that sets none of the variables
loads each library on one thread.  Every bundled command runs as fast on one
thread as on two, and a cold CLI's bytes then do not depend on the machine's
core count (exact `spectrum` on a 200,001-node grid differs in its last
digits between one thread and two).  Large contour grids pay: their
time-sum GEMM (`_time_sum`) gains from a second thread, and a transfer trace
20 times the default span runs 15-20% slower on one.  An explicit setting,
or a library loaded before qesr loads it, wins; `os.environ` holds
`OPENBLAS_NUM_THREADS=1` only while the library loads.
"""
import importlib
import os
import sys

_THREAD_VARS = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}


def load(name: str):
    """Import module `name`; a first import in an environment that sets no
    thread variable runs with `OPENBLAS_NUM_THREADS=1`."""
    if name in sys.modules or _THREAD_VARS & os.environ.keys():
        return importlib.import_module(name)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        return importlib.import_module(name)
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


np = load("numpy")
