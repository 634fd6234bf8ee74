"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, any
NumericalGuardError subclass -> 3, OSError -> 4.
"""

__all__ = [
    "QesrError",
    "ConfigError",
    "NumericalGuardError",
    "PoleCollisionError",
    "WindowTooSmallError",
    "SaturationError",
    "NoOscillationError",
]


class QesrError(Exception):
    """Base class for package-specific errors."""


class ConfigError(QesrError):
    """Invalid, unknown, or missing configuration input."""


class NumericalGuardError(QesrError):
    """A numerical validity guard was violated.

    Raised instead of silently degrading accuracy; the message names the
    offending quantity.
    """


class PoleCollisionError(NumericalGuardError):
    """Evaluation frequency hit a spectral node exactly with gamma_0 = 0.

    Evaluate at a complex-shifted or offset frequency instead; the kernel is
    never regularized behind the caller's back.
    """


class WindowTooSmallError(NumericalGuardError):
    """Inversion window edge magnitude exceeds the configured threshold."""


class SaturationError(NumericalGuardError):
    """Transferred excitation exceeded the qubit saturation guard."""


class NoOscillationError(NumericalGuardError):
    """No swap oscillation minimum could be identified on the trace."""
