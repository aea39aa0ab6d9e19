"""Gaussian-weighted component fusion and Hann overlap-add assembly."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigError,
    NoAcceptedComponents,
    TraceTooShort,
    WindowSpacingError,
    check_count,
    check_real,
)
from .hr import dominant_frequencies
from .ingest import RawTrace
from .preprocess import (PULSE_BAND, DEFAULT_LAMBDA, bandpass, check_lambda, detrend,
                         sample_count)
from .selection import DEFAULT_SEC_CHN, SIGMA_INIT, reference_sigmas, select_rows
from .ssa import decompose_rows, default_window_length

# run_pipeline takes the window stack through preprocessing and the
# reference search, and the emitted windows through SSA, selection and
# fusion, this many rows at a time, so peak memory does not grow with
# the trace length.
_BLOCK_ROWS = 64


def fuse_rows(components, freqs, accepted, f_r, sigma_fr) -> np.ndarray:
    """Per window of ``(n, k, T)`` components, the average of those that
    ``accepted`` marks, with weights w(f_p) =
    exp(-(f_p - f_r)^2 / 2 sigma_fr^2) taken in log space relative to the
    best-matching component, so far-off candidates underflow to zero
    weight instead of producing 0/0.  Every row must accept a component
    (``NoAcceptedComponents``) and every ``sigma_fr`` must be positive
    (``ValueError``), since either would make the row NaN.
    """
    f_r, sigma_fr = np.asarray(f_r)[:, None], np.asarray(sigma_fr)[:, None]
    if not np.all(np.any(accepted, axis=1)):
        raise NoAcceptedComponents("every window needs at least one accepted component")
    if not np.all(sigma_fr > 0):
        raise ValueError(f"sigma_fr must be positive, got {np.min(sigma_fr)}")
    exponents = np.where(accepted, -0.5 * ((freqs - f_r) / sigma_fr) ** 2, -np.inf)
    w = np.exp(exponents - exponents.max(axis=1, keepdims=True))
    return (w[..., None] * components).sum(axis=1) / w.sum(axis=1, keepdims=True)


def periodic_hann(n: int) -> np.ndarray:
    """The periodic (``sym=False``) Hann window ``0.5 - 0.5 cos(2 pi k / n)``."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def overlap_add_rows(out, rows, hop: int) -> None:
    """Add the Hann-tapered ``(n, 2 hop)`` rows to ``out``, a contiguous
    run of ``(n + 1) * hop`` samples, row j at ``j * hop``, by two strided
    adds: every sample sums the same two terms as a window-by-window loop.
    The periodic Hann window at 50% hop satisfies constant overlap-add with
    sum 1.0, so the interior of a constant stream reconstructs the constant.
    """
    if rows.shape[1:] != (2 * hop,) or out.shape != ((len(rows) + 1) * hop,):
        raise WindowSpacingError(f"need (n, {2 * hop}) rows and (n + 1) * {hop} samples, "
                                 f"got rows {rows.shape} and {out.shape[0]} samples")
    tapered = rows * periodic_hann(2 * hop)
    blocks = out.reshape(-1, hop)
    blocks[:-1] += tapered[:, :hop]
    blocks[1:] += tapered[:, hop:]


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
        return dict(vars(self))  # asdict's result for scalar fields, without its deep copy


@dataclass(frozen=True)
class PulseWave:
    """Final fused pulse signal plus per-window pipeline metadata."""

    samples: np.ndarray
    fs: float
    window_flags: tuple[WindowRecord, ...] = ()


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline settings; out-of-range values, and values of the wrong
    type (a bool or a string where a number belongs), raise ConfigError
    here.

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
        for name in ("window_s", "step_s", "sigma_init"):
            value = check_real(name, getattr(self, name))
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        check_lambda(check_real("lam", self.lam))
        check_count("sec_chn", self.sec_chn, 1)
        if self.ssa_window is not None:
            check_count("ssa_window", self.ssa_window, 2)
        if np.shape(self.band) != (2,):
            raise ConfigError(f"band must be a (low, high) pair, got {self.band!r}")
        low, high = (check_real("band edge", edge) for edge in self.band)
        if not 0 < low < high:
            raise ConfigError(f"band needs 0 < low < high, got [{low}, {high}]")


def run_pipeline(trace: RawTrace, config: PipelineConfig = PipelineConfig()) -> PulseWave:
    """Extract the pulse wave from a raw trace.

    The green channel is cut into 10 s windows every ``step_s``, an
    ``(n_windows, T)`` stack that runs through array stages in blocks of
    ``_BLOCK_ROWS`` rows: ``detrend``, ``bandpass`` and
    ``hr.dominant_frequencies`` (within ``band``, at 8192 points) give
    every window's samples and reference HR, and ``reference_sigmas`` its
    dispersion.  The windows starting on
    half-window boundaries are then emitted, in blocks too: a per-window
    SVD, and for the whole block one component convolution
    (``decompose_rows``), one candidate search and mask (``select_rows``),
    one Gaussian fusion (``fuse_rows``) and one Hann overlap-add at 50%
    hop.  Analysis runs at the fine step purely for reference-HR
    tracking; emitting every window would break the constant-overlap-add
    normalization.
    """
    fs = trace.fs
    win = sample_count(config.window_s, fs)
    step = sample_count(config.step_s, fs)
    hop = win // 2
    if win % 2 or step < 1:
        raise ConfigError("window must be an even number of samples and step >= 1")
    if hop % step:
        raise ConfigError(f"step ({step}) must divide the half-window hop ({hop})")
    L = config.ssa_window or default_window_length(win, fs)
    if not 2 <= L <= hop:
        raise ConfigError(f"SSA window must satisfy 2 <= L <= {hop} "
                          f"(half the {win}-sample window), got L={L}")
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
    sigma_fr = reference_sigmas(f_r, config.sigma_init)

    n_accepted = np.zeros(len(windows), dtype=int)  # 0 and False where not emitted
    fallback = np.zeros(len(windows), dtype=bool)
    samples = np.zeros((len(emitted_segs) + 1) * hop)
    for c in range(0, len(emitted_segs), _BLOCK_ROWS):
        part = slice(c, c + _BLOCK_ROWS)
        ref = f_r[::every][part], sigma_fr[::every][part]
        comps, sv = decompose_rows(np.array(emitted_segs[part]), L, config.sec_chn)
        freqs, accepted, fallback[::every][part] = select_rows(comps, sv, fs, *ref, config.band)
        n_accepted[::every][part] = accepted.sum(axis=1)
        fused = fuse_rows(comps, freqs, accepted, *ref)
        overlap_add_rows(samples[c * hop:(c + len(fused) + 1) * hop], fused, hop)
    records = tuple(WindowRecord(t_start=i * step / fs, f_r=f, sigma_fr=sigma, n_accepted=n,
                                 fallback=fb, emitted=i % every == 0)
                    for i, (f, sigma, n, fb) in enumerate(zip(
                        f_r.tolist(), sigma_fr.tolist(), n_accepted.tolist(), fallback.tolist())))
    return PulseWave(samples=samples, fs=fs, window_flags=records)
