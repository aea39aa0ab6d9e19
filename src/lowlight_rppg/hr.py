"""Heart-rate estimation from the pulse-wave spectrum."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, SeriesTooShort, ZeroSignal
from .preprocess import PULSE_BAND

# Zero-pad target: <= 0.11 bpm resolution at fs = 30 Hz.
_MIN_NFFT = 2**14

# sliding_hr searches this many windows per spectral_peak call: their
# 2^14-point spectra take about 2 MB, whatever the series length.
_BLOCK_ROWS = 16


def spectral_peak(x, fs: float, band: tuple[float, float], nfft: int) -> np.ndarray:
    """Frequency of the largest rFFT magnitude inside ``band``, per series.

    ``x`` is one series or an ``(..., T)`` stack of them; each series
    along the last axis is zero-padded to ``nfft`` points, which must be
    at least T.  ``band`` is inclusive; a band above the Nyquist
    frequency holds no bins and is a ConfigError.  Ties resolve to the
    lower frequency because argmax returns the first maximum.  The result
    has shape ``x.shape[:-1]``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] > nfft:
        raise ValueError(f"nfft {nfft} is shorter than the series ({x.shape[-1]})")
    freqs = np.fft.rfftfreq(nfft, d=1.0 / fs)
    bins = np.flatnonzero((freqs >= band[0]) & (freqs <= band[1]))
    if bins.size == 0:
        raise ConfigError(f"band {band} contains no FFT bins at fs={fs}")
    keep = slice(bins[0], bins[-1] + 1)
    mag = np.abs(np.fft.rfft(x, n=nfft, axis=-1)[..., keep])
    return freqs[keep][np.argmax(mag, axis=-1)]


@dataclass(frozen=True)
class HrEstimate:
    bpm: float
    peak_freq: float


def _zscore(x):
    """Rows of ``x`` (along the last axis) at zero mean and unit std."""
    x = x - x.mean(axis=-1, keepdims=True)
    std = x.std(axis=-1, keepdims=True)
    if np.any(std == 0.0):
        raise ZeroSignal("constant pulse wave has no spectral peak")
    return x / std


def estimate_hr_series(samples, fs: float, min_duration_s: float = 10.0,
                       band: tuple[float, float] = PULSE_BAND) -> HrEstimate:
    """HR (bpm) from the spectral power peak of a pulse signal.

    The signal is z-score normalized (making the estimate amplitude
    invariant) and zero-padded to at least 2^14 points; HR is 60 times its
    ``spectral_peak`` within ``band`` (Hz).  Ties break toward the lower
    frequency (favoring the fundamental over a harmonic); no peak
    interpolation is applied.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < min_duration_s * fs:
        raise SeriesTooShort(
            f"need at least {min_duration_s} s of samples, got {x.size / fs:.2f} s")
    peak = float(spectral_peak(_zscore(x), fs, band, max(_MIN_NFFT, x.size)))
    return HrEstimate(bpm=60.0 * peak, peak_freq=peak)


def estimate_hr(pulse, band: tuple[float, float] = PULSE_BAND) -> HrEstimate:
    """HR estimate from a PulseWave (or any object with samples and fs)."""
    return estimate_hr_series(pulse.samples, pulse.fs, band=band)


def sliding_hr(samples, fs: float, win_s: float = 10.0, step_s: float = 1.0,
               band: tuple[float, float] = PULSE_BAND) -> list[tuple[float, float]]:
    """Per-window HR estimates as (window center time, bpm) pairs.

    Each window is estimated as by ``estimate_hr_series``; the window
    stack is z-scored and searched by ``spectral_peak`` in blocks of
    ``_BLOCK_ROWS`` rows.
    """
    x = np.asarray(samples, dtype=float)
    win = int(round(win_s * fs))
    step = int(round(step_s * fs))
    if win < 1 or step < 1:
        raise ConfigError(f"window ({win}) and step ({step}) must be at least one sample")
    if x.size < win or win < win_s * fs:
        raise SeriesTooShort(f"need at least {win_s} s of samples")
    windows = sliding_window_view(x, win)[::step]
    nfft = max(_MIN_NFFT, win)
    peaks = np.concatenate([spectral_peak(_zscore(windows[b:b + _BLOCK_ROWS]), fs, band, nfft)
                            for b in range(0, len(windows), _BLOCK_ROWS)])
    return [(i * step / fs + win_s / 2.0, 60.0 * float(f)) for i, f in enumerate(peaks)]
