"""Heart-rate estimation from the pulse-wave spectrum."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, SeriesTooShort, ZeroSignal
from .preprocess import PULSE_BAND, pow2_scaled, sample_count

# Zero-pad target of the HR estimates: <= 0.11 bpm resolution at fs = 30 Hz.
_HR_MIN_NFFT = 2**14

# sliding_hr searches this many windows per spectral_peak call.  On the
# cosine route, which 10 s windows at 30 and 60 Hz take, each call streams
# the whole table (300 x 1802 entries, 4.3 MB, at 30 Hz) once, so larger
# blocks stream it fewer times.
_BLOCK_ROWS = 64

# spectral_peak's FFT route transforms this many rows at a time, so its
# zero-padded spectra (16 x 4097 complex values, 1 MB, at 8192 points)
# do not grow with the row count.
_FFT_ROWS = 16

# spectral_peak takes the cosine route when its table has at most this
# many entries (8 MB); larger searches (full-spectrum candidate scoring,
# single series of a minute or more) were measured faster on the FFT.
_MAX_TABLE_ENTRIES = 2**20


@functools.lru_cache(maxsize=4)
def _cosine_table(T: int, nfft: int, k0: int, m: int) -> np.ndarray:
    """Read-only ``(T, m)`` table ``w_tau cos(2 pi tau k / nfft)`` over lags
    ``tau < T`` and bins ``k0 <= k < k0 + m``, with ``w_0 = 1`` and
    ``w_tau = 2`` otherwise.

    Phases are exact integers ``tau k mod nfft`` looked up in one
    nfft-point wave, and lags are filled 64 at a time, so the temporaries
    are that wave and a 64-lag block of phases.  At most four tables
    (32 MB) are kept.
    """
    wave = 2.0 * np.cos(np.arange(nfft) * (2.0 * np.pi / nfft))
    table = np.empty((T, m))
    table[:1] = 1.0
    k = np.arange(k0, k0 + m)
    for lag in range(1, T, 64):
        phase = np.arange(lag, min(lag + 64, T))[:, None] * k
        phase %= nfft
        np.take(wave, phase, out=table[lag:lag + len(phase)])
    table.flags.writeable = False
    return table


def _autocorrelation(x) -> np.ndarray:
    """Lags ``0..T-1`` of each row's autocorrelation, from one
    ``rfft``/``irfft`` pair of ``2^ceil(log2(2T - 1))`` points.

    Rows are first divided by a power of two near their max ``|x|``
    (``pow2_scaled``), so ``|F|^2`` neither overflows nor underflows.
    """
    T = x.shape[-1]
    n = 1 << (2 * T - 2).bit_length()
    spectrum = np.fft.rfft(pow2_scaled(x)[0], n=n, axis=-1)
    return np.fft.irfft(spectrum.real**2 + spectrum.imag**2, n=n, axis=-1)[..., :T]


def spectral_peak(x, fs: float, band: tuple[float, float], nfft: int) -> np.ndarray:
    """Frequency of the largest ``nfft``-point rFFT magnitude inside
    ``band``, per series.

    ``x`` is one series or an ``(..., T)`` stack of them; each series
    along the last axis is searched as if zero-padded to ``nfft`` points,
    which must be at least T.  ``band`` is inclusive; a band above the
    Nyquist frequency holds no bins and is a ConfigError.  Ties resolve
    to the lower frequency because argmax returns the first maximum.
    The result has shape ``x.shape[:-1]``.

    Two routes give the zero-padded FFT's argmax up to rounding.  When
    the band's m bins times T is at most ``_MAX_TABLE_ENTRIES``, the
    in-band power is ``P[k] = sum_tau w_tau r[tau] cos(2 pi tau k / nfft)``
    from each row's autocorrelation ``r``: one GEMM against a cached
    cosine table (``_cosine_table``).  Otherwise the rows are zero-padded
    and transformed ``_FFT_ROWS`` at a time, so the spectra held at once
    do not grow with the row count.  The route depends only on
    ``(T, nfft, band)``, so a stack and its single rows take the same one.
    """
    x = np.asarray(x, dtype=float)
    T = x.shape[-1]
    if T > nfft:
        raise ValueError(f"nfft {nfft} is shorter than the series ({T})")
    freqs = np.fft.rfftfreq(nfft, d=1.0 / fs)
    bins = np.flatnonzero((freqs >= band[0]) & (freqs <= band[1]))
    if bins.size == 0:
        raise ConfigError(f"band {band} contains no FFT bins at fs={fs}")
    k0, m = int(bins[0]), bins.size
    if T * m <= _MAX_TABLE_ENTRIES:
        peak = np.argmax(_autocorrelation(x) @ _cosine_table(T, nfft, k0, m), axis=-1)
    else:
        rows = x.reshape(-1, T)
        peak = np.empty(len(rows), dtype=np.intp)
        for b in range(0, len(rows), _FFT_ROWS):
            spectra = np.fft.rfft(rows[b:b + _FFT_ROWS], n=nfft, axis=-1)[:, k0:k0 + m]
            peak[b:b + len(spectra)] = np.argmax(np.abs(spectra), axis=-1)
        peak = peak.reshape(x.shape[:-1])
    return freqs[k0:k0 + m][peak]


def dominant_frequencies(x, fs: float, band: tuple[float, float],
                         min_nfft: int = 8192) -> np.ndarray:
    """Frequency of the largest zero-padded FFT magnitude within ``band``,
    per series: the one entry point of every spectral-peak search.

    ``x`` is one series or an ``(..., T)`` stack of them.  Each series is
    divided by a power of two near its max ``|x|`` (``pow2_scaled``), so
    no scale overflows or underflows the search, and mean-removed, so
    zero-padding does not smear a DC offset across the spectrum.  A
    constant series, one whose samples all equal its first, has no peak
    (``ZeroSignal``), whether or not its mean rounds.  Each series is
    searched by ``spectral_peak`` at ``max(min_nfft, T)`` points: the
    default 8192 serves the spectral mask, and the HR estimates pass
    2^14.  The result has shape ``x.shape[:-1]``.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.any(x != x[..., :1], axis=-1)):
        raise ZeroSignal("constant series has no spectral peak")
    x = pow2_scaled(x)[0]
    x = x - x.mean(axis=-1, keepdims=True)
    return spectral_peak(x, fs, band, max(min_nfft, x.shape[-1]))


@dataclass(frozen=True)
class HrEstimate:
    bpm: float
    peak_freq: float


def estimate_hr_series(samples, fs: float, min_duration_s: float = 10.0,
                       band: tuple[float, float] = PULSE_BAND) -> HrEstimate:
    """HR (bpm) from the spectral power peak of a pulse signal.

    HR is 60 times the signal's ``dominant_frequencies`` within ``band``
    (Hz), zero-padded to at least 2^14 points.  Ties break toward the lower
    frequency (favoring the fundamental over a harmonic); no peak
    interpolation is applied.
    """
    x = np.asarray(samples, dtype=float)
    need = sample_count(min_duration_s, fs)  # rounded as sliding_hr's window
    if x.size < need:
        raise SeriesTooShort(f"need at least {need} samples ({min_duration_s} s), got {x.size}")
    peak = float(dominant_frequencies(x, fs, band, _HR_MIN_NFFT))
    return HrEstimate(bpm=60.0 * peak, peak_freq=peak)


def estimate_hr(pulse, band: tuple[float, float] = PULSE_BAND,
                min_duration_s: float = 10.0) -> HrEstimate:
    """HR estimate from a PulseWave (or any object with samples and fs)."""
    return estimate_hr_series(pulse.samples, pulse.fs, min_duration_s, band)


def sliding_hr(samples, fs: float, win_s: float = 10.0, step_s: float = 1.0,
               band: tuple[float, float] = PULSE_BAND) -> list[tuple[float, float]]:
    """Per-window HR estimates as (window center time, bpm) pairs.

    Windows are ``round(win_s * fs)`` samples every ``round(step_s * fs)``;
    a window's time is the centre of the samples it searched,
    ``(i * step + win / 2) / fs`` in seconds from the first sample, as in
    ``metrics.spectrogram``.  Each window is estimated as by
    ``estimate_hr_series``; the window stack is searched by
    ``dominant_frequencies`` in blocks of ``_BLOCK_ROWS`` rows.
    """
    x = np.asarray(samples, dtype=float)
    win = sample_count(win_s, fs)
    step = sample_count(step_s, fs)
    if win < 1 or step < 1:
        raise ConfigError(f"window ({win}) and step ({step}) must be at least one sample")
    if x.size < win:
        raise SeriesTooShort(f"need at least {win_s} s of samples")
    windows = sliding_window_view(x, win)[::step]
    peaks = np.concatenate([dominant_frequencies(windows[b:b + _BLOCK_ROWS], fs, band,
                                                 _HR_MIN_NFFT)
                            for b in range(0, len(windows), _BLOCK_ROWS)])
    times = (win / 2 + step * np.arange(len(peaks))) / fs
    return list(zip(times.tolist(), (60.0 * peaks).tolist()))
