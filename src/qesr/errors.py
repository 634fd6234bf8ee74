"""Exception types and the warning helper shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, any
NumericalGuardError subclass -> 3, OSError -> 4.
"""
import sys
import warnings

__all__ = [
    "QesrError",
    "ConfigError",
    "NumericalGuardError",
    "PoleCollisionError",
    "WindowTooSmallError",
    "SaturationError",
    "NoOscillationError",
]


def _warn(message: str) -> None:
    """A UserWarning attributed, at any call depth, to the first stack frame
    outside the qesr package (`python -m qesr.cli` is inside it)."""
    frame = sys._getframe(1)
    while frame.f_back is not None and frame.f_globals.get("__package__") == __package__:
        frame = frame.f_back
    scope = frame.f_globals
    registry = scope.setdefault("__warningregistry__", {})
    warnings.warn_explicit(message, UserWarning, frame.f_code.co_filename, frame.f_lineno,
                           scope.get("__name__", "<string>"), registry)


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
