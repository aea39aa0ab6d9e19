"""Gaussian-weighted component fusion and Hann overlap-add assembly."""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    NoAcceptedComponents,
    WindowSpacingError,
    check_count,
    check_real,
)
from .hr import dominant_frequencies
from .ingest import RawTrace
from .preprocess import (PULSE_BAND, DEFAULT_LAMBDA, bandpass, check_lambda, detrend,
                         pow2_scaled, sample_count, window_stack)
from .selection import DEFAULT_SEC_CHN, SIGMA_INIT, reference_sigmas, select_rows
from .ssa import _NUMPY_LAPACK, decompose_rows, default_window_length

# run_pipeline takes the window stack through preprocessing and the
# reference search, and the emitted windows through SSA, selection and
# fusion, this many rows at a time, so peak memory does not grow with
# the trace length.
_BLOCK_ROWS = 64

# OpenBLAS's thread-count getters, found through numpy's LAPACK module
# (``ssa._NUMPY_LAPACK``), which links its BLAS.  With more BLAS threads per
# call, window threads oversubscribe the cores; with no getter (MKL,
# Accelerate, Windows, whose loader does not search a module's dependencies)
# the count is unknown, so there are none.
_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads")


def _openblas_threads(lib):
    """The first of ``_GETTERS`` in ``lib``, as ``int f(void)``, or None."""
    getter = next((getattr(lib, name) for name in _GETTERS if hasattr(lib, name)), None)
    if getter is not None:
        getter.argtypes, getter.restype = [], ctypes.c_int
    return getter


_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)
_blas_threads = _openblas_threads(_NUMPY_LAPACK)


def fuse_rows(components, freqs, accepted, f_r, sigma_fr) -> np.ndarray:
    """Per window of ``(n, k, T)`` components, the average of those that
    ``accepted`` marks, with weights w(f_p) =
    exp(-(f_p - f_r)^2 / 2 sigma_fr^2) taken in log space relative to the
    best-matching component, so far-off candidates underflow to zero
    weight instead of producing 0/0; a row whose every accepted exponent
    overflows to -inf (a tiny sigma) takes the sigma -> 0 limit, the mean
    of its accepted components nearest ``f_r``.  Every row must accept a
    component (``NoAcceptedComponents``) and every ``sigma_fr`` must be
    positive (``ValueError``), since either would make the row NaN.
    """
    f_r, sigma_fr = np.asarray(f_r)[:, None], np.asarray(sigma_fr)[:, None]
    if not np.all(np.any(accepted, axis=1)):
        raise NoAcceptedComponents("every window needs at least one accepted component")
    if not np.all(sigma_fr > 0):
        raise ValueError(f"sigma_fr must be positive, got {np.min(sigma_fr)}")
    with np.errstate(over="ignore"):  # -inf exponents, handled below
        exponents = np.where(accepted, -0.5 * ((freqs - f_r) / sigma_fr) ** 2, -np.inf)
    limit = np.isneginf(exponents.max(axis=1))
    if limit.any():
        distance = np.where(accepted[limit], np.abs(freqs[limit] - f_r[limit]), np.inf)
        exponents[limit] = np.where(distance == distance.min(axis=1, keepdims=True), 0.0, -np.inf)
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


def _run_parts(func, start: int, stop: int, parts: int, *, _caller_waits: bool = False) -> list:
    """``[func(s) for s in slices]`` over ``parts`` contiguous slices of
    ``range(start, stop)`` (none empty), in order.  The caller runs the
    first slice, and a new thread each of the others in a copy of the
    caller's context, so that ``np.errstate`` holds there too; with
    ``_caller_waits``, a new thread runs the first slice as well, unless it
    is the only one.  Once every slice has ended, the exception of the
    lowest-numbered one that failed is raised.
    """
    n = stop - start
    edges = [start + n * i // parts for i in range(parts + 1)]
    slices = [slice(a, b) for a, b in zip(edges, edges[1:]) if b > a]
    results, errors = [None] * len(slices), [None] * len(slices)

    def run(i):
        try:
            results[i] = func(slices[i])
        except BaseException as exc:  # raised below, on the caller's thread
            errors[i] = exc

    own = 0 if _caller_waits and len(slices) > 1 else 1  # slices the caller runs
    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(run, i))
               for i in range(own, len(slices))]
    for t in helpers:
        t.start()
    for i in range(own):
        run(i)
    for t in helpers:
        t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def run_pipeline(trace: RawTrace, config: PipelineConfig = PipelineConfig()) -> PulseWave:
    """Extract the pulse wave from a raw trace.

    The green channel is cut into ``window_s`` windows every ``step_s``
    by ``window_stack`` (a trace shorter than one window is
    SeriesTooShort), an ``(n_windows, T)`` stack that runs through array
    stages in blocks of ``_BLOCK_ROWS`` rows: ``detrend``, ``bandpass``
    and ``hr.dominant_frequencies`` (within ``band``, at 8192 points) give
    every window's samples and reference HR, and ``reference_sigmas`` its
    dispersion.  The windows starting on half-window boundaries are then
    emitted, in blocks too: a per-window SVD, and for the whole block one
    component convolution (``decompose_rows``), one candidate search and
    mask (``select_rows``), one Gaussian fusion (``fuse_rows``) and one
    Hann overlap-add at 50% hop.  Analysis runs at the fine step purely for reference-HR
    tracking; emitting every window would break the constant-overlap-add
    normalization.

    Called from the main thread while OpenBLAS reports one thread per call
    (asked at each call), the emitted windows of each block are split into
    contiguous parts, one per core: the caller takes the first and a new
    thread each of the others.  No window's result depends on the others
    in its block, so the output is byte-identical to that of one part.
    The first pass is split the same way by whole blocks, when there are
    two or more, each part on a new thread while the caller waits; every
    block is still filtered as the same stack, so its rounding is kept.
    Other threads, such as ``sweep_report``'s workers, run one part.
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

    # Scaled by a power of two near max |x|, and the pulse back: exact, so
    # no finite trace overflows or underflows a stage.
    green, exponent = pow2_scaled(trace.green(), axis=None)
    windows, _ = window_stack(green, config.window_s, config.step_s, fs)
    every = hop // step  # every this many windows, one is emitted
    parts = (_CORES if threading.current_thread() is threading.main_thread()
             and _blas_threads is not None and _blas_threads() == 1 else 1)
    f_r = np.empty(len(windows))
    blocks = range(0, len(windows), _BLOCK_ROWS)

    def first_pass(part: slice) -> list:
        """Filter the blocks ``part`` of ``blocks``, write their reference
        HRs and return copies of their emitted rows."""
        emitted_rows = []
        for b in blocks[part]:
            segs = bandpass(detrend(windows[b:b + _BLOCK_ROWS], config.lam), fs,
                            config.band[0], config.band[1])
            f_r[b:b + len(segs)] = dominant_frequencies(segs, fs, config.band)
            # keep a compact copy of the emitted rows, not views of the block
            emitted_rows.extend(segs[(-b) % every::every].copy())
        return emitted_rows

    # The caller waits: a tracer's span around detrend on the caller would
    # otherwise enclose other threads' spans that it does not cover.
    emitted_segs = [row for rows in _run_parts(first_pass, 0, len(blocks), parts,
                                               _caller_waits=True) for row in rows]
    sigma_fr = reference_sigmas(f_r, config.sigma_init)

    n_accepted = np.zeros(len(windows), dtype=int)  # 0 and False where not emitted
    fallback = np.zeros(len(windows), dtype=bool)
    emitted = (f_r[::every], sigma_fr[::every], n_accepted[::every], fallback[::every])

    def fuse(rows: slice) -> np.ndarray:
        """Fuse the emitted windows ``rows`` and write their flags."""
        f, sigma, n_acc, fb = (a[rows] for a in emitted)
        comps, sv = decompose_rows(np.array(emitted_segs[rows]), L, config.sec_chn)
        freqs, accepted, fb[:] = select_rows(comps, sv, fs, f, sigma, config.band)
        n_acc[:] = accepted.sum(axis=1)
        return fuse_rows(comps, freqs, accepted, f, sigma)

    samples = np.zeros((len(emitted_segs) + 1) * hop)
    for c in range(0, len(emitted_segs), _BLOCK_ROWS):
        stop = min(c + _BLOCK_ROWS, len(emitted_segs))
        fused = np.concatenate(_run_parts(fuse, c, stop, parts))
        overlap_add_rows(samples[c * hop:(stop + 1) * hop], fused, hop)
    records = tuple(WindowRecord(t_start=i * step / fs, f_r=f, sigma_fr=sigma, n_accepted=n,
                                 fallback=fb, emitted=i % every == 0)
                    for i, (f, sigma, n, fb) in enumerate(zip(
                        f_r.tolist(), sigma_fr.tolist(), n_accepted.tolist(), fallback.tolist())))
    return PulseWave(samples=np.ldexp(samples, exponent), fs=fs, window_flags=records)
