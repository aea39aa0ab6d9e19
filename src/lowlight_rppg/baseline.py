"""Naive green-channel baseline: detrend + bandpass + spectral argmax.

Bundled so that sweeps always compare the proposed pipeline against the
classic single-channel method.
"""

from __future__ import annotations

import numpy as np

from .hr import HrEstimate, estimate_hr_series
from .ingest import RawTrace
from .preprocess import DEFAULT_LAMBDA, PULSE_BAND, bandpass, detrend


def green_baseline_signal(trace: RawTrace, lam: float = DEFAULT_LAMBDA,
                          band=PULSE_BAND) -> np.ndarray:
    """Detrended, bandpassed green channel."""
    return bandpass(detrend(trace.green(), lam), trace.fs, band[0], band[1])


def green_baseline_hr(trace: RawTrace, lam: float = DEFAULT_LAMBDA,
                      band=PULSE_BAND) -> HrEstimate:
    """HR of the baseline signal, searched over ``band``."""
    return estimate_hr_series(green_baseline_signal(trace, lam, band), trace.fs,
                              band=band)

