"""qesr: qubit-detected electron spin resonance simulator.

Core pieces: spin-ensemble spectral densities (`spin_model`), cavity/spin
transfer dynamics with two independent evaluation routes (`dynamics`), the
spectroscopy protocol (`protocol`), weak-coupling sensitivity estimates
(`sensitivity`), and a deterministic CLI (`qesr`).

The package exports exactly the names in each submodule's `__all__`.
`import qesr` loads none of them: the first exported name asked for loads
the six submodules and binds their exports, and a submodule name such as
`qesr.config` loads that submodule alone.

The first qesr module to load NumPy loads it with one OpenBLAS thread for
the rest of the process, unless the environment sets `OPENBLAS_NUM_THREADS`,
`GOTO_NUM_THREADS` or `OMP_NUM_THREADS`; set one of them (or import NumPy
first) to keep a larger pool for the caller's own linear algebra.  While
NumPy loads, `OPENBLAS_NUM_THREADS=1` is in `os.environ`.  A gaussian pulse
loads `scipy.special` on the same terms.
"""
import importlib as _importlib

__version__ = "0.1.0"

_SUBMODULES = ("errors", "spin_model", "dynamics", "protocol", "sensitivity", "config")

# the union of the submodules' __all__, kept in their order
__all__ = [
    # errors
    "QesrError", "ConfigError", "NumericalGuardError", "PoleCollisionError",
    "WindowTooSmallError", "SaturationError", "NoOscillationError",
    # spin_model
    "SpinLine", "GridSpec", "SpinDistribution", "Ensemble", "EnsembleCatalog",
    "build_distribution", "density_at",
    # dynamics
    "CavityModel", "PulseEnvelope", "TransferResult", "InversionSettings",
    "MODE_NARROW", "MODE_EXACT", "memory_kernel_W", "pulse_constant_A",
    "invert_to_time", "transfer_sweep", "time_domain_propagate",
    # protocol
    "QubitChain", "SwapTrace", "SwapCalibration", "SpectrumResult", "BudgetReport",
    "simulate_swap", "find_swap_time", "esr_spectrum", "spectrum_peaks",
    "excitation_budget",
    # sensitivity
    "WeakCouplingScenario", "PeakPhotons", "mean_field_trajectory",
    "peak_photon_number", "min_detectable_spins",
    # config
    "RunConfig", "parse_config", "resolve", "canonical_json",
    "__version__",
]


def _attribute(name: str):
    """A public name on first use (PEP 562): a submodule, or an export, for
    which the six submodules load and bind theirs.  Any other name loads
    nothing.  Submodules resolve against `__package__`, which is `qesr`
    however this file was imported."""
    if name in _SUBMODULES or name == "cli":
        return _importlib.import_module(f".{name}", __package__)
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for sub in _SUBMODULES:
        module = _importlib.import_module(f".{sub}", __package__)
        globals().update((export, getattr(module, export)) for export in module.__all__)
    return globals()[name]


def _names():
    """dir(qesr): the bound names and every export, loaded or not."""
    return sorted(set(globals()) | set(__all__))


__getattr__, __dir__ = _attribute, _names
