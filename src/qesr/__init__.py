"""qesr: qubit-detected electron spin resonance simulator.

Core pieces: spin-ensemble spectral densities (`spin_model`), cavity/spin
transfer dynamics with two independent evaluation routes (`dynamics`), the
spectroscopy protocol (`protocol`), weak-coupling sensitivity estimates
(`sensitivity`), and a deterministic CLI (`qesr`).

The package exports exactly the names in each submodule's `__all__`.
"""
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
