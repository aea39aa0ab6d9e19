"""Smoothness-priors detrending and zero-phase Butterworth bandpass.

Both are plain numpy and ``scipy.linalg``: the Butterworth sections are
designed here and the forward-backward filter runs as a block
state-space kernel, so importing the package does not load
``scipy.signal``.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import solveh_banded
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NonFiniteInput, NyquistViolation, SeriesTooShort

PULSE_BAND = (0.7, 4.0)
DEFAULT_LAMBDA = 100.0

# Row stencil of the second-difference operator D2.
_D2_STENCIL = (1.0, -2.0, 1.0)


def _smoother_bands(n: int, lam: float) -> np.ndarray:
    """``I + lam^2 D2' D2`` for an n-sample series, in the upper banded
    storage of ``scipy.linalg.solveh_banded`` (row 2 is the diagonal,
    rows 1 and 0 the first and second superdiagonals)."""
    ab = np.zeros((3, n))
    # Row k of D2 holds the stencil at columns k..k+2, so it adds
    # c[m] * c[m + d] at (k + m, k + m + d) for every k in [0, n - 3].
    for d in range(3):
        for m in range(3 - d):
            ab[2 - d, m + d:m + d + n - 2] += _D2_STENCIL[m] * _D2_STENCIL[m + d]
    ab *= lam**2
    ab[2] += 1.0
    return ab


def detrend(series, lam: float = DEFAULT_LAMBDA) -> np.ndarray:
    """Remove the low-frequency trend along the last axis.

    Smoothness-priors detrending: the trend is the solution of
    ``(I + lam^2 * D2' D2) z = x`` and the output is ``x - z``, where D2 is
    the second-difference operator.  ``I + lam^2 * D2' D2`` is pentadiagonal
    symmetric positive definite; it is Cholesky-factored once per call in
    banded form, so the solve is O(T) per row.

    Parameters
    ----------
    series : array_like, shape (..., T)
        A 1-D signal, or a stack of equal-length signals such as the
        ``(n_windows, T)`` analysis windows of ``run_pipeline``; each row
        is detrended on its own.
    lam : float
        Smoothing parameter; larger values remove slower trends only.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 3:
        raise SeriesTooShort(f"detrend needs T >= 3, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("detrend input contains NaN or inf")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    n = x.shape[-1]
    trend = solveh_banded(_smoother_bands(n, lam), x.reshape(-1, n).T,
                          check_finite=False)
    return x - trend.T.reshape(x.shape)


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
