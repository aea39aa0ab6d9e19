"""Reference-HR tracking and spectral-mask component selection."""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import NoComponents
from .hr import dominant_frequencies
from .preprocess import PULSE_BAND

SIGMA_INIT = 0.05   # Hz, mask half-width seed before any HR history exists
SIGMA_FLOOR = 0.01  # Hz, keeps the mask from collapsing when HR is constant
DEFAULT_SEC_CHN = 10


class MaskReason(enum.Enum):
    FUNDAMENTAL_MATCH = "fundamental-match"
    HARMONIC_MATCH = "harmonic-match"
    BAND_REJECT = "band-reject"
    WINDOW_REJECT = "window-reject"


# A spectral_mask code is the position of its MaskReason in this tuple.
_REASONS = tuple(MaskReason)
# Per code, whether the reason accepts the candidate.
_ACCEPTS = np.array([r in (MaskReason.FUNDAMENTAL_MATCH, MaskReason.HARMONIC_MATCH)
                     for r in _REASONS])


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


def spectral_mask(freqs, f_r, sigma_fr, band: tuple[float, float] = PULSE_BAND) -> np.ndarray:
    """Accept candidates near the reference HR or its first harmonic.

    ``freqs`` holds ``(n, k)`` candidate frequencies, row i checked against
    the reference HR ``f_r[i]`` and dispersion ``sigma_fr[i]`` (Hz).  A
    candidate at f is accepted iff it lies inside ``band`` (the pulse band
    [0.7, 4] Hz by default) and either |f - f_r| <= 3*sigma (fundamental)
    or |f/2 - f_r| <= 3*sigma (first harmonic, twice the reference).
    Returns the ``(n, k)`` codes: code c means ``list(MaskReason)[c]``.
    """
    f_r = np.asarray(f_r, dtype=float)[:, None]
    with np.errstate(over="ignore"):  # inf past about 6e307: every in-band candidate matches
        tol = 3.0 * np.asarray(sigma_fr, dtype=float)[:, None]
    freqs = np.asarray(freqs, dtype=float)
    in_band = (band[0] <= freqs) & (freqs <= band[1])
    code = _REASONS.index
    return np.select([~in_band, np.abs(freqs - f_r) <= tol, np.abs(freqs / 2.0 - f_r) <= tol],
                     [code(MaskReason.BAND_REJECT), code(MaskReason.FUNDAMENTAL_MATCH),
                      code(MaskReason.HARMONIC_MATCH)], code(MaskReason.WINDOW_REJECT))


def candidate_frequencies(components, singular_values, fs: float) -> np.ndarray:
    """The ``(n, k)`` dominant frequencies of the ``decompose_rows``
    components of n windows, inf in empty slots.

    They are searched over the full spectrum (excluding DC), with one
    ``hr.dominant_frequencies`` call at its default 8192 points for every
    kept component, so that out-of-band components such as residual drift
    get their true frequency and are band-rejected.  A window must keep a
    component (``NoComponents``).  No reference HR is needed.
    """
    kept = singular_values > 0
    if kept.shape[1] == 0 or not np.all(kept[:, 0]):
        raise NoComponents("decomposition has no components above the cutoff")
    freqs = np.full(kept.shape, np.inf)
    freqs[kept] = dominant_frequencies(components[kept], fs, band=(0.05, fs / 2.0))
    return freqs


def select_rows(freqs, f_r, sigma_fr, band: tuple[float, float]):
    """Apply the spectral mask (pulse ``band``) to the ``(n, k)``
    ``candidate_frequencies`` of n windows against their ``(n,)``
    references.

    If the mask rejects all of a window's candidates, the one closest to
    its reference HR (the first on a tie) is kept and the window flagged,
    so fusion never receives an empty window.  Returns the ``(n, k)``
    accepted components, fallbacks included, and the ``(n,)`` fallback
    flags.
    """
    accepted = _ACCEPTS[spectral_mask(freqs, f_r, sigma_fr, band)]
    fallback = ~np.any(accepted, axis=1)
    nearest = np.argmin(np.abs(freqs - np.asarray(f_r)[:, None]), axis=1)
    accepted[fallback, nearest[fallback]] = True
    return accepted, fallback
