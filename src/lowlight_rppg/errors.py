"""Exception hierarchy for the rPPG pipeline, and the number checks of
the config classes."""

import math
import numbers


class RppgError(Exception):
    """Base class for all pipeline errors."""


# Also the base of configuration errors that are found where a value is
# used, such as a filter band above the trace's Nyquist frequency.
class ConfigError(RppgError):
    """Invalid configuration value."""


def check_real(name, value) -> float:
    """``value`` as a float; ConfigError unless it is a finite real
    number, not a bool."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{name} must be a finite real number, got {value!r}")


def check_count(name, value, least: int) -> None:
    """ConfigError unless ``value`` is an integer, not a bool, >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


# --- ingestion ---

class EmptyRoi(RppgError):
    """ROI frame contains no pixels."""


class NonMonotonicFrames(RppgError):
    """Frame indices are unsorted or duplicated."""


class MissingFrames(RppgError):
    """Frame index sequence has gaps."""

    def __init__(self, gaps):
        self.gaps = list(gaps)
        super().__init__(f"missing frame indices: {self.gaps}")


class ParseError(RppgError):
    """Malformed line in an input file."""

    def __init__(self, message, line_number=None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class InvalidHeader(RppgError):
    """Trace file header is missing or carries invalid values."""


# --- preprocessing ---

class SeriesTooShort(RppgError):
    """Input series has too few samples for the operation."""


class NonFiniteInput(RppgError):
    """Input contains NaN or infinite values."""


class NyquistViolation(ConfigError):
    """Requested filter band exceeds the Nyquist frequency."""


# --- SSA ---

class InvalidWindowLength(RppgError):
    """Embedding window length outside [2, T/2]."""


class DecompositionFailure(RppgError):
    """SVD failed to converge."""


# --- selection / reconstruction ---

class ZeroSignal(RppgError):
    """All-zero input where a spectral peak is required."""


class NoComponents(RppgError):
    """Decomposition produced no usable components."""


class NoAcceptedComponents(RppgError):
    """Spectral mask rejected every candidate and no fallback was applied."""


class WindowSpacingError(RppgError):
    """Overlap-add windows are not spaced exactly one hop apart."""


class TraceTooShort(RppgError):
    """Trace shorter than one analysis window."""


# --- evaluation ---

class PairingError(RppgError):
    """Estimated and reference HR sequences cannot be paired."""
