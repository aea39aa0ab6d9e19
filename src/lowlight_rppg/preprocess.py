"""Smoothness-priors detrending and zero-phase Butterworth bandpass.

Both are plain numpy.  ``detrend`` solves its smoothing system with one
real FFT pair per row and a rank-2 correction (a DCT diagonalises the
interior of the system); ``bandpass`` designs its Butterworth sections
here and runs the forward-backward filter as a block state-space kernel.
Importing the package loads no ``scipy`` module.
"""

from __future__ import annotations

import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, NonFiniteInput, NyquistViolation, SeriesTooShort

PULSE_BAND = (0.7, 4.0)
DEFAULT_LAMBDA = 100.0
# Both detrend routes lose about eps * lam^2 of relative accuracy on some
# inputs (1e-4 at lam = 1e6), and lam^2 overflows near 1e154.
MAX_LAMBDA = 1e6


def check_lambda(lam) -> float:
    """``lam`` as a float, or ConfigError unless 0 < lam <= MAX_LAMBDA."""
    if not (np.isfinite(lam) and 0 < lam <= MAX_LAMBDA):
        raise ConfigError(f"lambda must be in (0, {MAX_LAMBDA:g}], got {lam}")
    return float(lam)


def sample_count(seconds: float, fs: float) -> int:
    """``round(seconds * fs)``, the samples that ``seconds`` span at ``fs``
    Hz; a product that is not finite, such as 1e308 s at 30 Hz, is a
    ConfigError."""
    n = float(seconds) * float(fs)
    if not np.isfinite(n):
        raise ConfigError(f"{seconds} s at {fs} Hz is not a finite number of samples")
    return int(round(n))


def pow2_scaled(x, axis=-1):
    """``(x / 2**e, e)``, with ``2**e`` the power of two just above max
    ``|x|`` along ``axis`` (``None``: all of ``x``) and ``e`` kept
    broadcastable.

    The division is exact unless it takes an entry below the normal
    range, so anything scale-invariant computed from the scaled copy is
    unchanged, while a sum of its squares neither overflows nor, unless
    the slice is all zero, underflows to zero.  An all-zero slice keeps
    ``e = 0``.
    """
    _, exponent = np.frexp(np.max(np.abs(x), axis=axis, keepdims=True, initial=0.0))
    return np.ldexp(x, -exponent), exponent


def _trend_operator(n: int, lam: float):
    """``(g, p, w)`` such that the trend of n-sample rows ``x`` is
    ``irfft(g * rfft([x, x[::-1]]))[:n] + (x @ p.T) @ w``.

    With ``D1`` the first and ``D2`` the second difference and
    ``N = D1' D1``, ``D2' D2 = N^2 - u u' - v v'`` for
    ``u = (-1, 1, 0, ..., 0)`` and ``v = (0, ..., 0, -1, 1)``.  The DCT-II
    diagonalises ``N`` (eigenvalues ``4 sin^2(pi k / 2n)``), so
    ``B = I + lam^2 N^2`` is inverted by the filter ``g`` on the
    even extension, and Woodbury's identity restores the rank-2 part:
    ``A^-1 = B^-1 + P S^-1 P'`` with ``P = B^-1 [u, v]`` (the rows of
    ``p``; ``B^-1 v`` is ``-B^-1 u`` reversed) and
    ``S = I / lam^2 - [u, v]' P``; ``w = S^-1 p``.
    """
    mu = 4.0 * np.sin(np.pi * np.arange(n + 1) / (2 * n)) ** 2
    g = 1.0 / (1.0 + (lam * mu) ** 2)
    u = np.zeros(2 * n)
    u[[0, 1, -2, -1]] = -1.0, 1.0, 1.0, -1.0  # u and its mirror image
    pu = np.fft.irfft(g * np.fft.rfft(u), 2 * n)[:n]
    p = np.stack([pu, -pu[::-1]])
    s = np.eye(2) / lam**2 - (p[:, [1, -1]] - p[:, [0, -2]]).T
    return g, p, np.linalg.solve(s, p)


def detrend(series, lam: float = DEFAULT_LAMBDA) -> np.ndarray:
    """Remove the low-frequency trend along the last axis.

    Smoothness-priors detrending (Tarvainen et al., IEEE TBME 2002): the
    trend is the solution of ``(I + lam^2 * D2' D2) z = x`` and the
    output is ``x - z``, where D2 is the second-difference operator.  The
    system is solved with one real FFT pair of length 2T per row plus a
    rank-2 correction (``_trend_operator``).  That correction amplifies
    rounding by about ``(lam mu_1)^2``, ``mu_1 = 4 sin^2(pi / 2T)``, which
    is large only for very short rows: where ``lam mu_1^2 > 4`` the
    output is computed instead as ``D2' (I / lam^2 + D2 D2')^-1 D2 x``, a
    dense solve of T - 2 unknowns whose conditioning is about
    ``16 / mu_1^2`` at most (T is at most 70 there for every allowed
    ``lam``).
    Constant and linear rows map to zero up to rounding.

    Parameters
    ----------
    series : array_like, shape (..., T)
        A 1-D signal, or a stack of equal-length signals such as the
        ``(n_windows, T)`` analysis windows of ``run_pipeline``; each row
        is detrended on its own.
    lam : float
        Smoothing parameter in (0, MAX_LAMBDA]; larger values remove
        slower trends only.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 3:
        raise SeriesTooShort(f"detrend needs T >= 3, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("detrend input contains NaN or inf")
    lam = check_lambda(lam)
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    mu_1 = 4.0 * np.sin(np.pi / (2 * n)) ** 2
    if lam * mu_1**2 > 4.0:
        d2 = np.diff(np.eye(n), 2, axis=0)
        dual = np.linalg.solve(np.eye(n - 2) / lam**2 + d2 @ d2.T, d2 @ rows.T)
        return (d2.T @ dual).T.reshape(x.shape)
    g, p, w = _trend_operator(n, lam)
    even = np.fft.rfft(np.concatenate([rows, rows[:, ::-1]], axis=1))
    trend = np.fft.irfft(g * even, 2 * n)[:, :n] + (rows @ p.T) @ w
    return (rows - trend).reshape(x.shape)


def butter_bandpass_sos(order: int, low: float, high: float, fs: float) -> np.ndarray:
    """Digital Butterworth bandpass of the given order as ``order``
    second-order sections, shape ``(order, 6)`` (``[b0, b1, b2, 1, a1, a2]``
    per row).

    The band edges are pre-warped, the analog low-pass prototype poles
    are moved to the band by the low-pass to band-pass transform, and the
    bilinear transform maps them to the z-plane.  Each prototype pole in
    the upper half-plane gives two band-pass poles, each of which forms a
    section with its conjugate; the real prototype pole of an odd order
    gives two poles, conjugate or both real, that share one section.  All
    zeros sit at z = +1 and z = -1, one of each per section, so every
    numerator is ``[1, 0, -1]``; the gain goes on the first section.
    The frequency response is ``scipy.signal.butter``'s; the sections
    may pair and order the zeros differently.
    """
    if order < 1 or order != int(order):
        raise ValueError(f"filter order must be a positive integer, got {order}")
    if not (0 < low < high < fs / 2):
        raise ValueError(f"need 0 < low < high < fs/2, got [{low}, {high}] at fs={fs}")
    order = int(order)
    fs2 = 4.0  # bilinear transform at the normalized rate 2
    warped = fs2 * np.tan(np.pi * np.array([low, high]) / fs)
    bw = warped[1] - warped[0]
    wo = np.sqrt(warped[0] * warped[1])
    m = np.arange(1 - order, 1, 2)  # upper-half and real prototype poles
    half = -np.exp(1j * np.pi * m / (2 * order)) * bw / 2
    root = np.sqrt(half**2 - wo**2)
    upper, real = m < 0, m == 0
    s1 = np.concatenate([half[upper] + root[upper], half[upper] - root[upper],
                         half[real] + root[real]])
    s2 = np.concatenate([np.conj(s1[:2 * upper.sum()]), half[real] - root[real]])
    z1, z2 = (fs2 + s1) / (fs2 - s1), (fs2 + s2) / (fs2 - s2)
    gain = (bw * fs2) ** order / np.prod((fs2 - s1) * (fs2 - s2)).real
    # poles nearest the unit circle last: the order that keeps the
    # cascade's intermediate signals, and its rounding, smallest
    last = np.argsort(np.maximum(np.abs(z1), np.abs(z2)), kind="stable")
    z1, z2 = z1[last], z2[last]
    sos = np.zeros((order, 6))
    sos[:, 0], sos[:, 2] = 1.0, -1.0
    sos[:, 3], sos[:, 4], sos[:, 5] = 1.0, -(z1 + z2).real, (z1 * z2).real
    sos[0, :3] *= gain
    return sos


def _state_space(sos):
    """(A, B, C, D) of the section cascade.

    Each section gets a normal-form state: a conjugate pole pair
    ``sigma +- i omega`` the rotation-scaling block
    ``[[sigma, -omega], [omega, sigma]]``, two real poles a triangular
    block.  Unlike the direct-form delays, whose companion matrices grow
    transients by orders of magnitude when poles crowd z = 1, the powers
    of these blocks stay well conditioned, so the chunk operators built
    from them keep full precision.
    """
    n = 2 * len(sos)
    A, B, C, D = np.zeros((n, n)), np.zeros(n), np.zeros(n), 1.0
    for k, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        # strictly proper part: (e1 z + e2) / (z^2 + a1 z + a2)
        e1, e2 = b1 - a1 * b0, b2 - a2 * b0
        sigma, disc = -a1 / 2, a1 * a1 / 4 - a2
        if disc < 0:
            omega = np.sqrt(-disc)
            block = [[sigma, -omega], [omega, sigma]]
            c = (e1, (e2 + sigma * e1) / omega)
        else:
            p1 = sigma + np.copysign(np.sqrt(disc), sigma)
            p2 = a2 / p1
            block = [[p1, 0.0], [1.0, p2]]
            c = (e1, e2 + e1 * p2)
        scale = np.sqrt(np.hypot(*c))  # evens out the input and output gains
        i = 2 * k
        # the section's input is the cascade's output so far, C s + D x
        A[i, :i] = scale * C[:i]
        A[i:i + 2, i:i + 2] = block
        B[i] = scale * D
        C[:i] *= b0
        C[i:i + 2] = np.divide(c, scale)
        D *= b0
    return A, B, C, D


class _BlockFilter:
    """The cascade ``sos`` applied from rest to the rows of a stack,
    ``Lc`` samples at a time (``Lc`` a power of two).

    Within a chunk the output is ``T x_c + O s``: ``T`` is the
    ``Lc x Lc`` lower-triangular Toeplitz matrix of the first ``Lc``
    impulse-response samples and ``O`` maps the state at the chunk start
    to the free response.  The state moves to the next chunk as
    ``s <- A^Lc s + Gamma x_c``.  ``Gamma x_c`` of every chunk of every
    row is one GEMM, and so is ``[T | O] [x_c; s]``; only the state
    recursion loops over chunks.  Nothing is truncated, so the result is
    exact up to rounding.
    """

    def __init__(self, sos, chunk: int):
        A, B, C, D = _state_space(sos)
        # rows C A^i and columns A^i B for i < chunk, by doubling
        obs, ctrl, power = C[None, :], B[:, None], A
        while len(obs) < chunk:
            obs = np.vstack([obs, obs @ power])
            ctrl = np.hstack([ctrl, power @ ctrl])
            power = power @ power
        self.chunk = chunk
        self.carry = power.T               # A^chunk, acting on row states
        self.gamma = ctrl[:, ::-1].T       # row j: A^(chunk-1-j) B
        impulse = np.concatenate([np.zeros(chunk - 1), [D], obs[:-1] @ B])
        # [T | O] transposed, for row-major chunks [x_c, s]
        self.out = np.vstack([sliding_window_view(impulse, chunk)[::-1], obs.T])

    def __call__(self, x):
        rows, n = x.shape
        chunk, size = self.chunk, len(self.carry)
        nc, full = -(-n // chunk), n // chunk
        # per row and chunk: the chunk's samples, then its start state
        work = np.zeros((rows, nc, chunk + size))
        work[:, :full, :chunk] = x[:, :full * chunk].reshape(rows, full, chunk)
        work[:, full:, :n - full * chunk] = x[:, None, full * chunk:]
        drive = (work[..., :chunk].reshape(-1, chunk) @ self.gamma).reshape(rows, nc, size)
        states = work[..., chunk:]
        for c in range(1, nc):
            states[:, c] = states[:, c - 1] @ self.carry + drive[:, c - 1]
        y = work.reshape(-1, chunk + size) @ self.out
        return y.reshape(rows, nc * chunk)[:, :n]


def _chunk_length(rows: int, n: int) -> int:
    """Chunk length for ``rows`` series of n samples: 64 for a stack of
    16 rows or more, else 128, and at most the next power of two above n.
    Each chunk costs one step of the state recursion, and each sample
    ``Lc`` multiply-adds in the Toeplitz GEMM, so a tall stack takes
    shorter chunks than a single series."""
    return min(64 if rows >= 16 else 128, 1 << int(np.ceil(np.log2(n))))


def _filtfilt(sos, x, padlen: int) -> np.ndarray:
    """Forward-backward filtering of the rows of ``x`` after odd
    extension by ``padlen`` samples at both ends, as
    ``scipy.signal.sosfiltfilt`` with ``padtype="odd"``.

    sosfiltfilt starts each pass from the steady state for a constant
    input equal to the pass's first sample.  A bandpass has a zero at DC,
    so from that state the constant contributes no output: each pass is
    the response from rest to its input minus the first sample.  The
    backward pass stops where the discarded left padding begins.
    """
    rows, n = x.shape
    filt = _BlockFilter(sos, _chunk_length(rows, n + 2 * padlen))
    ext = np.concatenate([2 * x[:, :1] - x[:, padlen:0:-1], x,
                          2 * x[:, -1:] - x[:, -2:-padlen - 2:-1]], axis=1)
    ext -= ext[:, :1].copy()
    # the forward output and the extension are freed before the backward
    # pass allocates its own
    back = _reversed_after(filt(ext), padlen)
    del ext
    back = back - back[:, :1]
    return _reversed_after(filt(back), padlen)


def _reversed_after(y, padlen: int) -> np.ndarray:
    """Rows of ``y`` reversed, without their first ``padlen`` samples."""
    return y[:, :padlen - 1:-1] if padlen else y[:, ::-1]


def _settling_length(sos) -> int:
    """Samples for the slowest pole to decay below 1%."""
    a1, a2 = sos[:, 4], sos[:, 5]
    disc = a1 * a1 / 4 - a2
    # |pole| of a conjugate pair is sqrt(a2); of two real poles, the larger
    r = np.max(np.where(disc < 0, np.sqrt(np.abs(a2)),
                        np.abs(a1) / 2 + np.sqrt(np.abs(disc))))
    if r >= 1.0:
        return np.iinfo(np.int32).max
    return int(np.ceil(np.log(1e-2) / np.log(r)))


def bandpass(series, fs: float, low: float = PULSE_BAND[0],
             high: float = PULSE_BAND[1], order: int = 3) -> np.ndarray:
    """Zero-phase Butterworth bandpass (forward-backward filtering) along
    the last axis.

    ``series`` is a 1-D signal or an ``(..., T)`` stack of equal-length
    signals, such as the ``(n_windows, T)`` analysis windows of
    ``run_pipeline``; the filter is designed (``butter_bandpass_sos``) and
    its chunk operators built once per call, then applied to every row in
    both directions.  Zero-phase keeps component/time alignment for the
    overlap-add stage; HR estimation uses spectral peaks so phase is
    irrelevant anyway.  Both signal ends are odd-reflection-padded by
    ``min(T - 1, 3 x settling length)`` samples to suppress edge
    transients.  The output is ``scipy.signal.sosfiltfilt``'s with
    ``padtype="odd"`` and that ``padlen``, up to rounding.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError("bandpass expects an array of shape (..., T), T >= 1")
    if not (0 < low < high):
        raise ValueError(f"need 0 < low < high, got [{low}, {high}]")
    if high >= fs / 2:
        raise NyquistViolation(f"high cutoff {high} Hz >= Nyquist {fs / 2} Hz")
    sos = butter_bandpass_sos(order, low, high, fs)
    settle = _settling_length(sos)
    n = x.shape[-1]
    if n < 3 * settle:
        warnings.warn(
            f"series of {n} samples is shorter than 3x the filter "
            f"settling length ({settle} samples); edge transients may remain",
            RuntimeWarning,
            stacklevel=2,
        )
    padlen = min(n - 1, 3 * settle)
    y = _filtfilt(sos, x.reshape(-1, n), padlen)
    return y.reshape(x.shape)
