"""Exception hierarchy for the rPPG pipeline."""


class RppgError(Exception):
    """Base class for all pipeline errors."""


# Also the base of configuration errors that are found where a value is
# used, such as a filter band above the trace's Nyquist frequency.
class ConfigError(RppgError):
    """Invalid configuration value."""


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
