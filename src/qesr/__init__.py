"""qesr: qubit-detected electron spin resonance simulator.

Core pieces: spin-ensemble spectral densities (`spin_model`), cavity/spin
transfer dynamics with two independent evaluation routes (`dynamics`), the
spectroscopy protocol (`protocol`), weak-coupling sensitivity estimates
(`sensitivity`), and a deterministic CLI (`qesr`).
"""
from .errors import (
    ConfigError,
    NoOscillationError,
    NumericalGuardError,
    PoleCollisionError,
    QesrError,
    SaturationError,
    WindowTooSmallError,
)
from .spin_model import (
    Ensemble,
    EnsembleCatalog,
    GridSpec,
    SpinDistribution,
    SpinLine,
    build_distribution,
    density_at,
)
from .dynamics import (
    MODE_EXACT,
    MODE_NARROW,
    CavityModel,
    InversionSettings,
    PulseEnvelope,
    TransferResult,
    cavity_amplitude_t1,
    invert_to_time,
    memory_kernel_W,
    pulse_constant_A,
    time_domain_propagate,
    transfer_spectrum_t,
    transfer_sweep,
)
from .protocol import (
    BudgetReport,
    QubitChain,
    SpectrumResult,
    SwapCalibration,
    SwapTrace,
    esr_spectrum,
    excitation_budget,
    find_swap_time,
    simulate_swap,
    spectrum_peaks,
)
from .sensitivity import (
    PeakPhotons,
    WeakCouplingScenario,
    mean_field_trajectory,
    min_detectable_spins,
    peak_photon_number,
)
from .config import RunConfig, canonical_json, parse_config, resolve

__version__ = "0.1.0"

__all__ = [
    "QesrError",
    "ConfigError",
    "NumericalGuardError",
    "PoleCollisionError",
    "WindowTooSmallError",
    "SaturationError",
    "NoOscillationError",
    "SpinLine",
    "GridSpec",
    "SpinDistribution",
    "Ensemble",
    "EnsembleCatalog",
    "build_distribution",
    "density_at",
    "CavityModel",
    "PulseEnvelope",
    "TransferResult",
    "InversionSettings",
    "MODE_NARROW",
    "MODE_EXACT",
    "memory_kernel_W",
    "cavity_amplitude_t1",
    "pulse_constant_A",
    "transfer_spectrum_t",
    "invert_to_time",
    "transfer_sweep",
    "time_domain_propagate",
    "QubitChain",
    "SwapTrace",
    "SwapCalibration",
    "SpectrumResult",
    "BudgetReport",
    "simulate_swap",
    "find_swap_time",
    "esr_spectrum",
    "spectrum_peaks",
    "excitation_budget",
    "WeakCouplingScenario",
    "PeakPhotons",
    "mean_field_trajectory",
    "peak_photon_number",
    "min_detectable_spins",
    "RunConfig",
    "parse_config",
    "resolve",
    "canonical_json",
    "__version__",
]
