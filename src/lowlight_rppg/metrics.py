"""Evaluation metrics: band-relative SNR, MAE, RMSE, spectrum, spectrogram."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PairingError, ZeroSignal
from .preprocess import PULSE_BAND, pow2_scaled, window_stack
from .reconstruct import periodic_hann

SNR_CAP_DB = 60.0          # reported ceiling for zero-residual (pure tone) inputs
FUND_HALFWIDTH_HZ = 0.1    # signal band around the HR fundamental
HARM_HALFWIDTH_HZ = 0.2    # signal band around the first harmonic
SPECTROGRAM_MAX_HZ = 5.0   # spectrogram rows stop here, for plotting
PAIR_TOL_S = 0.5           # an estimate's reference is at most this far off


def snr(series, fs: float, hr_ref_bpm: float) -> float:
    """Band-relative SNR in dB.

    10*log10(P_in / P_out) where P_in is the spectral power within
    +-0.1 Hz of the reference HR frequency and +-0.2 Hz of its first
    harmonic (both clipped to [0.7, 4] Hz), and P_out is the remaining
    power inside [0.7, 4] Hz.  Returns +inf when the residual power is
    exactly zero (a pure tone); reports cap that at SNR_CAP_DB.  A series
    with no power in [0.7, 4] Hz, such as a constant one, has no SNR
    (``ZeroSignal``) rather than the best possible one.

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
    if p_in == p_out == 0.0:
        raise ZeroSignal("series has no power in the [0.7, 4] Hz band")
    return float(10.0 * np.log10(p_in / p_out)) if p_out else np.inf


def cap_snr(value: float) -> float:
    return float(min(value, SNR_CAP_DB))


def _errors(est, ref) -> np.ndarray:
    """``est - ref`` for two sequences of one non-empty shape, else a
    PairingError."""
    est = np.asarray(est, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if est.shape != ref.shape or est.size == 0:
        raise PairingError(f"length mismatch: {est.shape} vs {ref.shape}")
    return est - ref


def mae(est, ref) -> float:
    """Mean absolute error in bpm."""
    return float(np.mean(np.abs(_errors(est, ref))))


def rmse(est, ref) -> float:
    """Root mean squared error in bpm."""
    return float(np.sqrt(np.mean(_errors(est, ref) ** 2)))


def spectrum(series, fs: float):
    """(freqs, power) of the mean-removed series, single-sided."""
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    power = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(x.size, d=1.0 / fs)
    return freqs, power


def spectrogram(series, fs: float, win_s: float = 10.0, hop_s: float = 1.0):
    """Hann-windowed short-time FFT power, band-limited for plotting.

    Returns (times, freqs, power) with power of shape (n_slices, n_freqs)
    and freqs limited to [0, SPECTROGRAM_MAX_HZ] Hz.  The series is
    mean-removed and cut into ``preprocess.window_stack``'s windows, with
    ``hop_s`` the step, which give the slice times; each segment loses its
    own mean, takes the periodic Hann window ``w`` (``periodic_hann``) and
    gives ``|rfft|^2 / (sum w)^2``, doubled at every bin but DC and
    Nyquist.
    This is ``scipy.signal.spectrogram`` with ``window="hann"``,
    ``scaling="spectrum"`` and ``mode="psd"``, in numpy.
    """
    x = np.asarray(series, dtype=float)
    segs, times = window_stack(x, win_s, hop_s, fs)
    nperseg = segs.shape[1]
    segs = segs - x.mean()
    segs -= segs.mean(axis=1, keepdims=True)
    window = periodic_hann(nperseg)
    power = np.abs(np.fft.rfft(segs * window, axis=1)) ** 2 / window.sum() ** 2
    power[:, 1:(nperseg + 1) // 2] *= 2.0
    freqs = np.fft.rfftfreq(nperseg, d=1.0 / fs)
    keep = freqs <= SPECTROGRAM_MAX_HZ
    return times, freqs[keep], power[:, keep]


def pair_by_timestamp(est_windows, ref_windows):
    """Pair (t, bpm) estimates with references by nearest timestamp.

    Every estimate must find a reference within ``PAIR_TOL_S`` seconds,
    otherwise a PairingError is raised; a NaN time is never within it.
    """
    if not est_windows or not ref_windows:
        raise PairingError("empty estimate or reference sequence")
    ref_t = np.array([t for t, _ in ref_windows])
    ref_v = np.array([v for _, v in ref_windows])
    pairs = []
    for t, v in est_windows:
        i = int(np.argmin(np.abs(ref_t - t)))
        if not abs(ref_t[i] - t) <= PAIR_TOL_S:
            raise PairingError(f"no reference within {PAIR_TOL_S} s of t={t:.2f} s")
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


def evaluate(signal, fs: float, est_windows, ref_windows) -> EvalReport:
    """Build an EvalReport for a signal and per-window HR estimates.

    The SNR reference frequency is the mean of the paired reference HR
    values; the reported SNR is capped at SNR_CAP_DB.
    """
    pairs = pair_by_timestamp(est_windows, ref_windows)
    est = [e for _, e, _ in pairs]
    ref = [r for _, _, r in pairs]
    snr_db = cap_snr(snr(signal, fs, float(np.mean(ref))))
    return EvalReport(snr_db=snr_db, mae_bpm=mae(est, ref),
                      rmse_bpm=rmse(est, ref), per_window=tuple(pairs))
