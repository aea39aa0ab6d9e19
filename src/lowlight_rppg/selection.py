"""Reference-HR tracking and spectral-mask component selection."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoComponents, SeriesTooShort, ZeroSignal
from .hr import spectral_peak
from .preprocess import PULSE_BAND
from .ssa import SsaDecomposition

SIGMA_INIT = 0.05   # Hz, mask half-width seed before any HR history exists
SIGMA_FLOOR = 0.01  # Hz, keeps the mask from collapsing when HR is constant
DEFAULT_SEC_CHN = 10

# Minimum FFT length for dominant-frequency search, so the frequency
# resolution is at most fs/8192.
_MIN_NFFT = 8192


@dataclass(frozen=True)
class ReferenceHrState:
    """Reference HR ``f_r`` of one window and its dispersion ``sigma_fr``,
    in Hz: the centre and half-width of the spectral mask, and the mean
    and spread of the fusion weights."""

    f_r: float
    sigma_fr: float

    def __post_init__(self):
        if not self.sigma_fr > 0:
            raise ValueError(f"sigma_fr must be positive, got {self.sigma_fr}")


@dataclass(frozen=True)
class CandidateComponent:
    series: np.ndarray
    dominant_freq: float
    singular_value: float


class MaskReason(enum.Enum):
    FUNDAMENTAL_MATCH = "fundamental-match"
    HARMONIC_MATCH = "harmonic-match"
    BAND_REJECT = "band-reject"
    WINDOW_REJECT = "window-reject"


@dataclass(frozen=True)
class MaskDecision:
    accepted: bool
    reason: MaskReason


def dominant_frequencies(rows, fs: float, band: tuple[float, float]) -> np.ndarray:
    """Frequency of the largest FFT magnitude within ``band``, per row.

    ``rows`` is an ``(n, T)`` array; each row is mean-removed, zero-padded
    to at least 8192 points and searched with ``spectral_peak``, so ties
    resolve to the lower frequency.  Returns shape ``(n,)``.
    """
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected an (n, T) array, got shape {x.shape}")
    if x.shape[1] < 2:
        raise SeriesTooShort("dominant frequency needs at least 2 samples")
    # remove the mean so zero-padding does not smear a DC offset across
    # the whole spectrum
    x = x - x.mean(axis=1, keepdims=True)
    if not np.all(np.any(x, axis=1)):
        raise ZeroSignal("constant series has no dominant frequency")
    return spectral_peak(x, fs, band, max(_MIN_NFFT, x.shape[1]))


def dominant_frequency(series, fs: float, band: tuple[float, float] = PULSE_BAND) -> float:
    """``dominant_frequencies`` of a single series."""
    return float(dominant_frequencies(np.reshape(series, (1, -1)), fs, band)[0])


def reference_sigmas(f_r, sigma_init: float) -> np.ndarray:
    """Mask half-width (Hz) after each prefix of the reference HRs ``f_r``.

    Entry k is the sample standard deviation of ``f_r[:k + 1]``, floored at
    SIGMA_FLOOR, and ``sigma_init`` for k = 0.  One pass of Welford's
    update, so n windows cost O(n), and entry k depends on ``f_r[:k + 1]``
    alone.
    """
    sigma = []
    mean = m2 = 0.0
    for k, f in enumerate(np.asarray(f_r, dtype=float).tolist()):
        delta = f - mean
        mean += delta / (k + 1)
        m2 += delta * (f - mean)
        sigma.append(max(math.sqrt(m2 / k), SIGMA_FLOOR) if k else sigma_init)
    return np.array(sigma, dtype=float)


def spectral_mask(candidates, state: ReferenceHrState,
                  band: tuple[float, float] = PULSE_BAND) -> list[MaskDecision]:
    """Accept candidates near the reference HR or its first harmonic.

    A candidate at frequency f_i is accepted iff it lies inside ``band``
    (the pulse band [0.7, 4] Hz by default) and either |f_i - f_r| <= 3*sigma
    (fundamental) or |f_i/2 - f_r| <= 3*sigma (first harmonic, twice the
    reference).
    """
    f_r, tol = state.f_r, 3.0 * state.sigma_fr
    decisions = []
    for cand in candidates:
        f_i = cand.dominant_freq
        if not (band[0] <= f_i <= band[1]):
            decisions.append(MaskDecision(False, MaskReason.BAND_REJECT))
        elif abs(f_i - f_r) <= tol:
            decisions.append(MaskDecision(True, MaskReason.FUNDAMENTAL_MATCH))
        elif abs(f_i / 2.0 - f_r) <= tol:
            decisions.append(MaskDecision(True, MaskReason.HARMONIC_MATCH))
        else:
            decisions.append(MaskDecision(False, MaskReason.WINDOW_REJECT))
    return decisions


@dataclass(frozen=True)
class SelectionResult:
    accepted: list[CandidateComponent]
    decisions: list[MaskDecision]
    candidates: list[CandidateComponent]
    fallback_used: bool


def select_candidates(decomposition: SsaDecomposition, fs: float,
                      state: ReferenceHrState,
                      sec_chn: int = DEFAULT_SEC_CHN,
                      band: tuple[float, float] = PULSE_BAND) -> SelectionResult:
    """Apply the spectral mask (pulse ``band``) to the top-``sec_chn``
    components.

    Candidate dominant frequencies are searched over the full spectrum
    (excluding DC), all components in one batched call, so that
    out-of-band components such as residual drift get their true
    frequency and are band-rejected.  If the mask rejects
    everything, the single component closest to the reference HR is kept
    (flagged) so downstream fusion never receives an empty window.
    """
    if len(decomposition) == 0:
        raise NoComponents("decomposition has no components above the cutoff")
    components = decomposition.components[:sec_chn]
    freqs = dominant_frequencies(components, fs, band=(0.05, fs / 2.0))
    candidates = [CandidateComponent(series=series, dominant_freq=float(f),
                                     singular_value=float(sv))
                  for series, f, sv in zip(components, freqs,
                                           decomposition.singular_values)]
    decisions = spectral_mask(candidates, state, band)
    accepted = [c for c, d in zip(candidates, decisions) if d.accepted]
    fallback = False
    if not accepted:
        fallback = True
        nearest = min(candidates, key=lambda c: abs(c.dominant_freq - state.f_r))
        accepted = [nearest]
    return SelectionResult(accepted=accepted, decisions=decisions,
                           candidates=candidates, fallback_used=fallback)
