"""Smoothness-priors detrending and zero-phase Butterworth bandpass."""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import solveh_banded
from scipy.signal import butter, sosfiltfilt

from .errors import NonFiniteInput, NyquistViolation, SeriesTooShort

PULSE_BAND = (0.7, 4.0)
DEFAULT_LAMBDA = 100.0

# Row stencil of the second-difference operator D2.
_D2_STENCIL = (1.0, -2.0, 1.0)


def _smoother_bands(n: int, lam: float) -> np.ndarray:
    """``I + lam^2 D2' D2`` for an n-sample series, in the upper banded
    storage of ``scipy.linalg.solveh_banded`` (row 2 is the diagonal,
    rows 1 and 0 the first and second superdiagonals)."""
    ab = np.zeros((3, n))
    # Row k of D2 holds the stencil at columns k..k+2, so it adds
    # c[m] * c[m + d] at (k + m, k + m + d) for every k in [0, n - 3].
    for d in range(3):
        for m in range(3 - d):
            ab[2 - d, m + d:m + d + n - 2] += _D2_STENCIL[m] * _D2_STENCIL[m + d]
    ab *= lam**2
    ab[2] += 1.0
    return ab


def detrend(series, lam: float = DEFAULT_LAMBDA) -> np.ndarray:
    """Remove the low-frequency trend along the last axis.

    Smoothness-priors detrending: the trend is the solution of
    ``(I + lam^2 * D2' D2) z = x`` and the output is ``x - z``, where D2 is
    the second-difference operator.  ``I + lam^2 * D2' D2`` is pentadiagonal
    symmetric positive definite; it is Cholesky-factored once per call in
    banded form, so the solve is O(T) per row.

    Parameters
    ----------
    series : array_like, shape (..., T)
        A 1-D signal, or a stack of equal-length signals such as the
        ``(n_windows, T)`` analysis windows of ``run_pipeline``; each row
        is detrended on its own.
    lam : float
        Smoothing parameter; larger values remove slower trends only.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 3:
        raise SeriesTooShort(f"detrend needs T >= 3, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("detrend input contains NaN or inf")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    n = x.shape[-1]
    trend = solveh_banded(_smoother_bands(n, lam), x.reshape(-1, n).T,
                          check_finite=False)
    return x - trend.T.reshape(x.shape)


def _settling_length(sos) -> int:
    """Samples for the slowest pole to decay below 1%."""
    poles = np.concatenate([np.roots([1.0, s[4], s[5]]) for s in sos])
    r = np.max(np.abs(poles))
    if r >= 1.0:
        return np.iinfo(np.int32).max
    return int(np.ceil(np.log(1e-2) / np.log(r)))


def bandpass(series, fs: float, low: float = PULSE_BAND[0],
             high: float = PULSE_BAND[1], order: int = 3) -> np.ndarray:
    """Zero-phase Butterworth bandpass (forward-backward filtering) along
    the last axis.

    ``series`` is a 1-D signal or an ``(..., T)`` stack of equal-length
    signals, such as the ``(n_windows, T)`` analysis windows of
    ``run_pipeline``; the filter is designed once per call and applied to
    every row.  Zero-phase keeps component/time alignment for the
    overlap-add stage; HR estimation uses spectral peaks so phase is
    irrelevant anyway.  Both signal ends are reflection-padded to suppress
    edge transients.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim == 0:
        raise ValueError("bandpass expects an array of shape (..., T)")
    if not (0 < low < high):
        raise ValueError(f"need 0 < low < high, got [{low}, {high}]")
    if high >= fs / 2:
        raise NyquistViolation(f"high cutoff {high} Hz >= Nyquist {fs / 2} Hz")
    sos = butter(order, [low, high], btype="bandpass", output="sos", fs=fs)
    settle = _settling_length(sos)
    n = x.shape[-1]
    if n < 3 * settle:
        warnings.warn(
            f"series of {n} samples is shorter than 3x the filter "
            f"settling length ({settle} samples); edge transients may remain",
            RuntimeWarning,
            stacklevel=2,
        )
    padlen = min(n - 1, 3 * settle)
    return sosfiltfilt(sos, x, axis=-1, padtype="odd", padlen=padlen)
