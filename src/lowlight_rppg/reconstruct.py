"""Gaussian-weighted component fusion and Hann overlap-add assembly."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigError,
    NoAcceptedComponents,
    TraceTooShort,
    WindowSpacingError,
)
from .ingest import RawTrace
from .preprocess import PULSE_BAND, DEFAULT_LAMBDA, bandpass, check_lambda, detrend
from .selection import (
    DEFAULT_SEC_CHN,
    SIGMA_INIT,
    ReferenceHrState,
    dominant_frequencies,
    reference_sigmas,
    select_candidates,
)
from .ssa import decompose, default_window_length

# run_pipeline preprocesses and scores the window stack this many rows at
# a time: their 8192-point spectra take about 4 MB, so peak memory does
# not grow with the trace length.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class GaussianWeightParams:
    """Mean (reference HR) and spread of the component weight function, Hz."""

    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


def gaussian_weight(f: float, params: GaussianWeightParams) -> float:
    """Gaussian density w(f) = exp(-(f-mu)^2 / 2 sigma^2) / (sqrt(2 pi) sigma)."""
    z = (f - params.mu) / params.sigma
    return float(np.exp(-0.5 * z * z) / (np.sqrt(2.0 * np.pi) * params.sigma))


def fuse_window(accepted, params: GaussianWeightParams) -> np.ndarray:
    """Weighted average of component series with scalar weights w(f_p).

    Weights are evaluated in log space relative to the best-matching
    component, so far-off candidates underflow to zero weight instead of
    producing 0/0.  The normalization makes the result invariant to
    uniform weight scaling.
    """
    accepted = list(accepted)
    if not accepted:
        raise NoAcceptedComponents("fuse_window needs at least one component")
    freqs = np.array([c.dominant_freq for c in accepted])
    exponents = -0.5 * ((freqs - params.mu) / params.sigma) ** 2
    w = np.exp(exponents - exponents.max())
    stack = np.vstack([c.series for c in accepted])
    if stack.shape[0] != len(w) or len({len(c.series) for c in accepted}) != 1:
        raise ValueError("all component series must have the same length")
    return (w[:, None] * stack).sum(axis=0) / w.sum()


def periodic_hann(n: int) -> np.ndarray:
    """The periodic (``sym=False``) Hann window ``0.5 - 0.5 cos(2 pi k / n)``."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def overlap_add(windows, window_len: int, hop: int | None = None) -> np.ndarray:
    """Sum Hann-tapered windows at their start offsets.

    ``windows`` is a time-ordered list of (start_index, vector) pairs
    spaced exactly ``hop`` apart with hop = window_len / 2.  The periodic
    Hann window at 50% hop satisfies constant overlap-add with sum 1.0,
    so the interior of a constant stream reconstructs the constant.
    The taper is ``periodic_hann(window_len)``.
    """
    if hop is None:
        hop = window_len // 2
    if 2 * hop != window_len:
        raise WindowSpacingError(f"hop must be window_len/2, got {hop} vs {window_len}")
    windows = list(windows)
    if not windows:
        raise WindowSpacingError("no windows to assemble")
    starts = [s for s, _ in windows]
    for a, b in zip(starts, starts[1:]):
        if b - a != hop:
            raise WindowSpacingError(f"window starts {a} and {b} are not {hop} apart")
    taper = periodic_hann(window_len)
    out = np.zeros(starts[-1] + window_len)
    for start, vec in windows:
        vec = np.asarray(vec, dtype=float)
        if vec.size != window_len:
            raise WindowSpacingError(
                f"window at {start} has length {vec.size}, expected {window_len}")
        out[start:start + window_len] += taper * vec
    return out


@dataclass(frozen=True)
class WindowRecord:
    """Per-analysis-window metadata emitted alongside the pulse wave."""

    t_start: float
    f_r: float
    sigma_fr: float
    n_accepted: int
    fallback: bool
    emitted: bool

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class PulseWave:
    """Final fused pulse signal plus per-window pipeline metadata."""

    samples: np.ndarray
    fs: float
    window_flags: tuple[WindowRecord, ...] = ()

    def __len__(self):
        return self.samples.shape[0]


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline settings; out-of-range values raise ConfigError here.

    ``band`` is the pulse band in Hz: it sets the bandpass, the range
    searched for the reference HR and the band of the spectral mask.  Its
    upper edge is checked against the trace's Nyquist frequency by
    ``bandpass``.  ``lam`` is at most ``preprocess.MAX_LAMBDA``.
    """

    window_s: float = 10.0
    step_s: float = 1.0
    ssa_window: int | None = None  # None: T/3 clamped to [2*fs, T/2]
    sec_chn: int = DEFAULT_SEC_CHN
    lam: float = DEFAULT_LAMBDA
    band: tuple[float, float] = PULSE_BAND
    sigma_init: float = SIGMA_INIT

    def __post_init__(self):
        positive = {"window_s": self.window_s, "step_s": self.step_s,
                    "sigma_init": self.sigma_init}
        for name, value in positive.items():
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        check_lambda(self.lam)
        if self.sec_chn < 1:
            raise ConfigError(f"sec_chn must be >= 1, got {self.sec_chn}")
        if self.ssa_window is not None and self.ssa_window < 2:
            raise ConfigError(f"ssa_window must be >= 2, got {self.ssa_window}")
        low, high = self.band
        if not (np.isfinite(high) and 0 < low < high):
            raise ConfigError(f"band needs 0 < low < high, got [{low}, {high}]")


def run_pipeline(trace: RawTrace, config: PipelineConfig = PipelineConfig()) -> PulseWave:
    """Extract the pulse wave from a raw trace.

    The green channel is cut into 10 s windows every ``step_s``, an
    ``(n_windows, T)`` stack that is processed as array stages in blocks
    of rows: one ``detrend``, one ``bandpass`` and one
    ``dominant_frequencies`` call per block give every window's
    preprocessed samples and reference HR.  The reference-HR dispersion
    then follows ``reference_sigmas`` over the reference HRs so far.
    Windows starting on half-window boundaries are additionally
    SSA-decomposed, mask-selected, fused with Gaussian weights centered
    on the reference HR, and assembled by Hann overlap-add at 50% hop;
    only those windows are kept past their block.  Analysis runs at the
    fine step purely for reference-HR tracking; emitting every window
    would break the constant-overlap-add normalization.
    """
    fs = trace.fs
    win = int(round(config.window_s * fs))
    step = int(round(config.step_s * fs))
    hop = win // 2
    if win % 2 or step < 1:
        raise ConfigError("window must be an even number of samples and step >= 1")
    if hop % step:
        raise ConfigError(f"step ({step}) must divide the half-window hop ({hop})")
    T = len(trace)
    if T < win:
        raise TraceTooShort(f"trace has {T} samples, need at least {win}")

    windows = sliding_window_view(trace.green(), win)[::step]
    every = hop // step  # every this many windows, one is emitted
    f_r = np.empty(len(windows))
    emitted_segs = []
    for b in range(0, len(windows), _BLOCK_ROWS):
        segs = bandpass(detrend(windows[b:b + _BLOCK_ROWS], config.lam), fs,
                        config.band[0], config.band[1])
        f_r[b:b + len(segs)] = dominant_frequencies(segs, fs, config.band)
        # keep a compact copy of the emitted rows, not views of the block
        emitted_segs.extend(segs[(-b) % every::every].copy())
    sigma_fr = reference_sigmas(f_r, config.sigma_init).tolist()

    L = config.ssa_window or default_window_length(win, fs)
    emitted = []
    records = []
    for i, (f, sigma) in enumerate(zip(f_r.tolist(), sigma_fr)):
        start = i * step
        emit = i % every == 0
        n_accepted = 0
        fallback = False
        if emit:
            state = ReferenceHrState(f_r=f, sigma_fr=sigma)
            dec = decompose(emitted_segs[i // every], L, max_components=config.sec_chn)
            sel = select_candidates(dec, fs, state, config.sec_chn, config.band)
            params = GaussianWeightParams(mu=state.f_r, sigma=state.sigma_fr)
            emitted.append((start, fuse_window(sel.accepted, params)))
            n_accepted = len(sel.accepted)
            fallback = sel.fallback_used
        records.append(WindowRecord(
            t_start=start / fs, f_r=f, sigma_fr=sigma,
            n_accepted=n_accepted, fallback=fallback, emitted=emit))
    samples = overlap_add(emitted, win, hop)
    return PulseWave(samples=samples, fs=fs, window_flags=tuple(records))
