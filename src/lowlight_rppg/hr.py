"""Heart-rate estimation from the pulse-wave spectrum."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SeriesTooShort, ZeroSignal
from .preprocess import PULSE_BAND

# Zero-pad target: <= 0.11 bpm resolution at fs = 30 Hz.
_MIN_NFFT = 2**14


def _band_spectrum(x, fs: float, band: tuple[float, float], nfft: int):
    """(freqs, magnitude) of the ``nfft``-point rFFT along the last axis,
    restricted to the bins inside ``band`` (inclusive)."""
    freqs = np.fft.rfftfreq(nfft, d=1.0 / fs)
    bins = np.flatnonzero((freqs >= band[0]) & (freqs <= band[1]))
    if bins.size == 0:
        raise ValueError(f"band {band} contains no FFT bins at fs={fs}")
    keep = slice(bins[0], bins[-1] + 1)
    return freqs[keep], np.abs(np.fft.rfft(x, n=nfft, axis=-1)[..., keep])


def spectral_peak(x, fs: float, band: tuple[float, float], nfft: int) -> np.ndarray:
    """Frequency of the largest rFFT magnitude inside ``band``, per series.

    ``x`` is one series or an ``(..., T)`` stack of them; each series
    along the last axis is zero-padded to ``nfft`` points, which must be
    at least T.  Ties resolve to the lower frequency because argmax
    returns the first maximum.  The result has shape ``x.shape[:-1]``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] > nfft:
        raise ValueError(f"nfft {nfft} is shorter than the series ({x.shape[-1]})")
    freqs, mag = _band_spectrum(x, fs, band, nfft)
    return freqs[np.argmax(mag, axis=-1)]


@dataclass(frozen=True)
class HrEstimate:
    bpm: float
    peak_freq: float
    spectrum: tuple[np.ndarray, np.ndarray]  # (freqs, power) over the pulse band


def estimate_hr_series(samples, fs: float, min_duration_s: float = 10.0) -> HrEstimate:
    """HR (bpm) from the spectral power peak of a pulse signal.

    The signal is z-score normalized (making the estimate amplitude
    invariant) and zero-padded to at least 2^14 points; HR is 60 times the
    argmax frequency of the FFT magnitude within [0.7, 4.0] Hz, picked as
    in ``spectral_peak``.  Ties break toward the lower frequency (favoring
    the fundamental over a harmonic); no peak interpolation is applied.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < min_duration_s * fs:
        raise SeriesTooShort(
            f"need at least {min_duration_s} s of samples, got {x.size / fs:.2f} s")
    x = x - x.mean()
    std = x.std()
    if std == 0.0:
        raise ZeroSignal("constant pulse wave has no spectral peak")
    x = x / std
    band_freqs, mag = _band_spectrum(x, fs, PULSE_BAND, max(_MIN_NFFT, x.size))
    peak = float(band_freqs[np.argmax(mag)])
    return HrEstimate(bpm=60.0 * peak, peak_freq=peak,
                      spectrum=(band_freqs, mag**2))


def estimate_hr(pulse) -> HrEstimate:
    """HR estimate from a PulseWave (or any object with samples and fs)."""
    return estimate_hr_series(pulse.samples, pulse.fs)


def sliding_hr(samples, fs: float, win_s: float = 10.0,
               step_s: float = 1.0) -> list[tuple[float, float]]:
    """Per-window HR estimates as (window center time, bpm) pairs."""
    x = np.asarray(samples, dtype=float)
    win = int(round(win_s * fs))
    step = int(round(step_s * fs))
    if win < 1 or step < 1:
        raise ConfigError(f"window ({win}) and step ({step}) must be at least one sample")
    if x.size < win:
        raise SeriesTooShort(f"need at least {win_s} s of samples")
    out = []
    for start in range(0, x.size - win + 1, step):
        est = estimate_hr_series(x[start:start + win], fs, min_duration_s=win_s)
        out.append((start / fs + win_s / 2.0, est.bpm))
    return out
