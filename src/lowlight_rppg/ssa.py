"""Singular spectrum analysis: Hankel embedding, SVD, diagonal averaging."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DecompositionFailure, InvalidWindowLength, NonFiniteInput
from .preprocess import pow2_scaled

# Directions with singular values below this fraction of the largest are
# numerically zero and discarded.
SV_CUTOFF = 1e-12


def validate_window_length(L: int, T: int) -> None:
    # L = T/2 is admitted for even T as a boundary convenience.
    if not (2 <= L and 2 * L <= T):
        raise InvalidWindowLength(f"need 2 <= L <= T/2, got L={L}, T={T}")


def default_window_length(T: int, fs: float) -> int:
    """T/3, clamped to [2*fs, T/2] so a window spans at least 2 seconds."""
    lo = int(round(2 * fs))
    hi = T // 2
    return int(np.clip(T // 3, min(lo, hi), hi))


def hankel_embed(series, L: int) -> np.ndarray:
    """L x K trajectory matrix, X[i, j] = series[i + j], K = T - L + 1."""
    x = np.asarray(series, dtype=float)
    validate_window_length(L, x.size)
    return np.ascontiguousarray(sliding_window_view(x, x.size - L + 1)[:L])


def _top_svd(X, k: int):
    """Top-``k`` SVD ``(u, s, vt)`` of an L x K matrix.

    The top-``k`` eigenvectors Q of the L x L lag covariance X X' span the
    leading left singular subspace; the exact SVD of the small k x K
    projection Q'X then gives the triples, with u = Q u_b.
    """
    _, vecs = np.linalg.eigh(X @ X.T)
    Q = vecs[:, ::-1][:, :k]  # eigh sorts ascending
    ub, s, vt = np.linalg.svd(Q.T @ X, full_matrices=False)
    return Q @ ub, s, vt


def svd_components(X, k: int | None = None) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Leading singular triples (sigma_i, u_i, v_i) of X, descending sigma.

    With ``k`` at most half of L, the row count, and L <= K, only the
    leading ``k`` triples are computed: ``eigh`` of the L x L lag
    covariance X X' gives an orthonormal basis Q of the leading left
    singular subspace, and the exact SVD of the k x K projection Q'X gives
    the triples.  Forming X X' squares the condition number, so ``eigh``
    separates only directions with sigma above about sqrt(eps) *
    sigma_max (1.5e-8 relative); those triples come out as accurate as an
    SVD of X itself (about eps * sigma_max), because their singular values
    come from the SVD of Q'X, not from the eigenvalues.  Triples below
    that level come from a mixed subspace, so they are not the true
    triples, but their rank-k sum still differs from the true one by
    about 1e-8 * sigma_max at most.  The route saves work only when ``k``
    is small against L (it costs more than a full SVD above about
    0.6 L), so larger ``k``, ``k`` None and tall X (L > K, which the
    Hankel matrices of ``decompose_rows`` never are) go to ``np.linalg.svd``.

    Triples with sigma below ``SV_CUTOFF`` times the largest singular
    value are dropped, so fewer than ``k`` may be returned.  Both routes
    factor X divided by a power of two near its max ``|X|``
    (``pow2_scaled``) and scale sigma back, so X X' neither overflows nor
    underflows; for normal-range X the triples are unchanged.
    """
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise NonFiniteInput("svd_components input contains NaN or inf")
    X, exponent = pow2_scaled(X, axis=None)
    try:
        if k is not None and X.ndim == 2 and 2 * k <= X.shape[0] <= X.shape[1]:
            u, s, vt = _top_svd(X, k)
        else:
            u, s, vt = np.linalg.svd(X, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailure(str(exc)) from exc
    s = np.ldexp(s, exponent.item())
    if s.size == 0 or s[0] == 0.0:
        return []
    keep = np.flatnonzero(s > SV_CUTOFF * s[0])[:k]
    return [(s[i], u[:, i], vt[i]) for i in keep]


def diagonal_average(Xi) -> np.ndarray:
    """Average the anti-diagonals of an L x K matrix into a length
    L + K - 1 series (orthogonal projection onto Hankel matrices
    followed by de-embedding)."""
    Xi = np.asarray(Xi, dtype=float)
    if not np.all(np.isfinite(Xi)):
        raise NonFiniteInput("diagonal_average input contains NaN or inf")
    L, K = Xi.shape
    out = np.zeros(L + K - 1)
    for i in range(L):
        out[i:i + K] += Xi[i]
    counts = np.convolve(np.ones(L), np.ones(K))
    return out / counts


def decompose_rows(rows, L: int, k: int):
    """Top ``k`` elementary reconstructed components of each row of an
    ``(n, T)`` array: the diagonal averages of the leading rank-1 terms
    sigma_p u_p v_p' of the row's L x K Hankel matrix (see
    ``svd_components``), descending sigma.

    Returns components and singular values of shapes ``(n, min(k, L), T)``
    and ``(n, min(k, L))`` that are zero past a row's kept triples; one
    series is the call on ``series[None]``.  The SVD runs row by row; the
    components, convolutions of sigma_p u_p with v_p over the anti-diagonal
    counts, come from one ``rfft``/``irfft`` pair of 2^ceil(log2 T) points.
    """
    rows = np.asarray(rows, dtype=float)
    n, T = rows.shape
    K = T - L + 1
    slots = min(k, L)
    su, v, sv = np.zeros((n, slots, L)), np.zeros((n, slots, K)), np.zeros((n, slots))
    for i, row in enumerate(rows):
        triples = svd_components(hankel_embed(row, L), k)[:k]
        if triples:
            s, u_i, v_i = map(np.array, zip(*triples))
            sv[i, :len(s)], su[i, :len(s)], v[i, :len(s)] = s, s[:, None] * u_i, v_i
    nfft = 1 << (T - 1).bit_length()
    conv = np.fft.irfft(np.fft.rfft(su, nfft) * np.fft.rfft(v, nfft), nfft)[..., :T]
    return conv / np.convolve(np.ones(L), np.ones(K)), sv
