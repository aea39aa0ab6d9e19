"""Evaluation metrics: band-relative SNR, MAE, RMSE, spectrum, spectrogram."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, PairingError, SeriesTooShort
from .preprocess import PULSE_BAND, pow2_scaled, sample_count
from .reconstruct import periodic_hann

SNR_CAP_DB = 60.0          # reported ceiling for zero-residual (pure tone) inputs
FUND_HALFWIDTH_HZ = 0.1    # signal band around the HR fundamental
HARM_HALFWIDTH_HZ = 0.2    # signal band around the first harmonic


def snr(series, fs: float, hr_ref_bpm: float) -> float:
    """Band-relative SNR in dB.

    10*log10(P_in / P_out) where P_in is the spectral power within
    +-0.1 Hz of the reference HR frequency and +-0.2 Hz of its first
    harmonic (both clipped to [0.7, 4] Hz), and P_out is the remaining
    power inside [0.7, 4] Hz.  Returns +inf when the residual power is
    exactly zero; reports cap that at SNR_CAP_DB.

    The [0.7, 4] Hz band is part of the metric's definition and does not
    follow a configured pulse band, so SNR values stay comparable across
    configurations.  The power is taken of the series divided by a power
    of two near its max ``|x|`` (``pow2_scaled``), which leaves the ratio
    unchanged but keeps it from overflowing or underflowing.
    """
    f_ref = hr_ref_bpm / 60.0
    if not (PULSE_BAND[0] <= f_ref <= PULSE_BAND[1]):
        raise ConfigError(f"reference HR {hr_ref_bpm} bpm outside the pulse band")
    freqs, power = spectrum(pow2_scaled(np.asarray(series, dtype=float))[0], fs)
    in_band = (freqs >= PULSE_BAND[0]) & (freqs <= PULSE_BAND[1])
    sig = (np.abs(freqs - f_ref) <= FUND_HALFWIDTH_HZ) | \
          (np.abs(freqs - 2.0 * f_ref) <= HARM_HALFWIDTH_HZ)
    p_in = power[in_band & sig].sum()
    p_out = power[in_band & ~sig].sum()
    if p_out == 0.0:
        return np.inf
    return float(10.0 * np.log10(p_in / p_out))


def cap_snr(value: float) -> float:
    return float(min(value, SNR_CAP_DB))


def mae(est, ref) -> float:
    """Mean absolute error in bpm."""
    est = np.asarray(est, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if est.shape != ref.shape or est.size == 0:
        raise PairingError(f"length mismatch: {est.shape} vs {ref.shape}")
    return float(np.mean(np.abs(est - ref)))


def rmse(est, ref) -> float:
    """Root mean squared error in bpm."""
    est = np.asarray(est, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if est.shape != ref.shape or est.size == 0:
        raise PairingError(f"length mismatch: {est.shape} vs {ref.shape}")
    return float(np.sqrt(np.mean((est - ref) ** 2)))


def spectrum(series, fs: float):
    """(freqs, power) of the mean-removed series, single-sided."""
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    power = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(x.size, d=1.0 / fs)
    return freqs, power


def spectrogram(series, fs: float, win_s: float = 10.0, hop_s: float = 1.0,
                max_freq: float = 5.0):
    """Hann-windowed short-time FFT power, band-limited for plotting.

    Returns (times, freqs, power) with power of shape (n_slices, n_freqs)
    and freqs limited to [0, max_freq] Hz.  The series is mean-removed and
    cut into segments of ``round(win_s * fs)`` samples every
    ``round(hop_s * fs)``; each segment loses its own mean, takes the
    periodic Hann window ``w`` (``periodic_hann``) and gives
    ``|rfft|^2 / (sum w)^2``, doubled at every bin but DC and Nyquist.
    Slice times are segment centres.  This is ``scipy.signal.spectrogram``
    with ``window="hann"``, ``scaling="spectrum"`` and ``mode="psd"``, in
    numpy.
    """
    x = np.asarray(series, dtype=float)
    nperseg = sample_count(win_s, fs)
    step = sample_count(hop_s, fs)
    if nperseg < 1 or step < 1:
        raise ConfigError(f"window {win_s} s or hop {hop_s} s is under one sample at {fs} Hz")
    if x.size < nperseg:
        raise SeriesTooShort(f"need at least {win_s} s of samples")
    segs = sliding_window_view(x - x.mean(), nperseg)[::step]
    segs = segs - segs.mean(axis=1, keepdims=True)
    window = periodic_hann(nperseg)
    power = np.abs(np.fft.rfft(segs * window, axis=1)) ** 2 / window.sum() ** 2
    power[:, 1:(nperseg + 1) // 2] *= 2.0
    freqs = np.fft.rfftfreq(nperseg, d=1.0 / fs)
    times = (nperseg / 2 + step * np.arange(len(segs))) / fs
    keep = freqs <= max_freq
    return times, freqs[keep], power[:, keep]


def pair_by_timestamp(est_windows, ref_windows, tol_s: float = 0.5):
    """Pair (t, bpm) estimates with references by nearest timestamp.

    Every estimate must find a reference within ``tol_s`` seconds,
    otherwise a PairingError is raised; a NaN time is never within it.
    """
    if not est_windows or not ref_windows:
        raise PairingError("empty estimate or reference sequence")
    ref_t = np.array([t for t, _ in ref_windows])
    ref_v = np.array([v for _, v in ref_windows])
    pairs = []
    for t, v in est_windows:
        i = int(np.argmin(np.abs(ref_t - t)))
        if not abs(ref_t[i] - t) <= tol_s:
            raise PairingError(f"no reference within {tol_s} s of t={t:.2f} s")
        pairs.append((float(t), float(v), float(ref_v[i])))
    return pairs


@dataclass(frozen=True)
class EvalReport:
    """Aggregate metrics plus the per-window (t, est, ref) pairing."""

    snr_db: float
    mae_bpm: float
    rmse_bpm: float
    per_window: tuple[tuple[float, float, float], ...]

    def to_dict(self):
        return {
            "snr_db": self.snr_db,
            "mae_bpm": self.mae_bpm,
            "rmse_bpm": self.rmse_bpm,
            "per_window": [
                {"t": t, "hr_est": e, "hr_ref": r} for t, e, r in self.per_window
            ],
        }


def evaluate(signal, fs: float, est_windows, ref_windows,
             tol_s: float = 0.5) -> EvalReport:
    """Build an EvalReport for a signal and per-window HR estimates.

    The SNR reference frequency is the mean of the paired reference HR
    values; the reported SNR is capped at SNR_CAP_DB.
    """
    pairs = pair_by_timestamp(est_windows, ref_windows, tol_s=tol_s)
    est = [e for _, e, _ in pairs]
    ref = [r for _, _, r in pairs]
    snr_db = cap_snr(snr(signal, fs, float(np.mean(ref))))
    return EvalReport(snr_db=snr_db, mae_bpm=mae(est, ref),
                      rmse_bpm=rmse(est, ref), per_window=tuple(pairs))
