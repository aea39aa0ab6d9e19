"""Heart-rate estimation from the pulse-wave spectrum."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteInput, SeriesTooShort, ZeroSignal
from .preprocess import PULSE_BAND, pow2_scaled, sample_count, window_stack

# Zero-pad target of the HR estimates: <= 0.11 bpm resolution at fs = 30 Hz.
_HR_MIN_NFFT = 2**14

# sliding_hr searches this many windows per dominant_frequencies call.
# On the cosine route, which 10 s windows at 30 and 60 Hz take, each call
# streams the whole table (300 x 1802 entries, 4.3 MB, at 30 Hz) once, so
# larger blocks stream it fewer times.
_BLOCK_ROWS = 64

# The complex spectra that dominant_frequencies holds at once, in either
# route, fit in this many bytes (3 rows at 8192 points, 31 autocorrelation
# rows of a 300-sample series), or are one row.  glibc hands a larger
# transient back to the kernel after every call and faults it in again on
# the next: 1 MB blocks cost about 1500 minor faults per 60 s / 30 Hz
# run_pipeline call, about 3.5 ms of 18.6 on a 2-vCPU VM.
_SPECTRUM_BYTES = 2**18

# dominant_frequencies takes the cosine route when its table has at most
# this many entries (8 MB); larger searches (full-spectrum candidate
# scoring, single series of a minute or more) measured faster on the FFT.
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


def _spectrum_rows(n: int) -> int:
    """How many rows' ``n``-point real spectra fit ``_SPECTRUM_BYTES``, at
    least one."""
    return max(1, _SPECTRUM_BYTES // (16 * (n // 2 + 1)))


def _autocorrelation(x) -> np.ndarray:
    """Lags ``0..T-1`` of each row's autocorrelation, from one
    ``rfft``/``irfft`` pair of ``n = 2^ceil(log2(2T - 1))`` points, run on
    ``_spectrum_rows(n)`` rows at a time.  The rows are taken as given:
    ``dominant_frequencies`` has scaled them, so ``|F|^2`` neither
    overflows nor underflows."""
    T = x.shape[-1]
    n = 1 << (2 * T - 2).bit_length()
    rows = x.reshape(-1, T)
    out = np.empty(rows.shape)
    step = _spectrum_rows(n)
    for b in range(0, len(rows), step):
        spectrum = np.fft.rfft(rows[b:b + step], n=n, axis=-1)
        out[b:b + step] = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, n=n, axis=-1)[:, :T]
    return out.reshape(x.shape)


def dominant_frequencies(x, fs: float, band: tuple[float, float],
                         min_nfft: int = 8192) -> np.ndarray:
    """Frequency of the largest zero-padded FFT magnitude within ``band``,
    per series: the one spectral-peak search of the package.

    ``x`` is one series or an ``(..., T)`` stack of them.  Each series is
    divided by a power of two near its max ``|x|`` (``pow2_scaled``), so
    no scale overflows or underflows the search, and mean-removed, so
    zero-padding does not smear a DC offset across the spectrum.  A series
    holding a NaN or infinity has no peak (``NonFiniteInput``); a
    constant series, one whose samples all equal its first, has no peak
    (``ZeroSignal``), whether or not its mean rounds.  Each series is
    searched as if zero-padded to ``nfft = max(min_nfft, T)`` points: the
    default 8192 serves the spectral mask, and the HR estimates pass
    2^14.  ``band`` is inclusive; a band above the Nyquist frequency holds
    no bins and is a ConfigError.  Ties resolve to the lower frequency
    because argmax returns the first maximum.  The result has shape
    ``x.shape[:-1]``.

    Two routes give the zero-padded FFT's argmax up to rounding.  When
    the band's m bins times T is at most ``_MAX_TABLE_ENTRIES``, the
    in-band power is ``P[k] = sum_tau w_tau r[tau] cos(2 pi tau k / nfft)``
    from each row's autocorrelation ``r``: one GEMM against a cached
    cosine table (``_cosine_table``).  Otherwise the rows are zero-padded
    and transformed ``_spectrum_rows(nfft)`` at a time.  Either way the
    spectra held at once fit ``_SPECTRUM_BYTES``, whatever the row count.
    The route depends only on ``(T, nfft, band)``, so a stack and its
    single rows take the same one.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("dominant_frequencies input contains NaN or inf")
    if not np.all(np.any(x != x[..., :1], axis=-1)):
        raise ZeroSignal("constant series has no spectral peak")
    x = pow2_scaled(x)[0]
    x = x - x.mean(axis=-1, keepdims=True)
    T = x.shape[-1]
    nfft = max(min_nfft, T)
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
        step = _spectrum_rows(nfft)
        for b in range(0, len(rows), step):
            spectra = np.fft.rfft(rows[b:b + step], n=nfft, axis=-1)[:, k0:k0 + m]
            peak[b:b + len(spectra)] = np.argmax(np.abs(spectra), axis=-1)
        peak = peak.reshape(x.shape[:-1])
    return freqs[k0:k0 + m][peak]


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
    """Per-window HR estimates as (window centre time, bpm) pairs.

    The windows and their times are ``preprocess.window_stack``'s.  Each
    window is estimated as by ``estimate_hr_series``; the window stack is
    searched by ``dominant_frequencies`` in blocks of ``_BLOCK_ROWS`` rows.
    """
    windows, times = window_stack(samples, win_s, step_s, fs)
    peaks = np.concatenate([dominant_frequencies(windows[b:b + _BLOCK_ROWS], fs, band,
                                                 _HR_MIN_NFFT)
                            for b in range(0, len(windows), _BLOCK_ROWS)])
    return list(zip(times.tolist(), (60.0 * peaks).tolist()))
