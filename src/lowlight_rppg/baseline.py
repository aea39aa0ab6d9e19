"""Naive green-channel baseline: detrend + bandpass; its HR is the
spectral argmax (``hr.estimate_hr_series``).

Bundled so that sweeps always compare the proposed pipeline against the
classic single-channel method.
"""

from __future__ import annotations

import numpy as np

from .ingest import RawTrace
from .preprocess import DEFAULT_LAMBDA, PULSE_BAND, bandpass, detrend


def green_baseline_signal(trace: RawTrace, lam: float = DEFAULT_LAMBDA,
                          band=PULSE_BAND) -> np.ndarray:
    """Detrended, bandpassed green channel."""
    return bandpass(detrend(trace.green(), lam), trace.fs, band[0], band[1])

