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


def _top_svd(X, k: int, gram=None):
    """Top-``k`` SVD ``(u, s, vt)`` of an L x K matrix.

    The top-``k`` eigenvectors Q of the L x L lag covariance X X' (written
    into ``gram`` when given) span the leading left singular subspace; the
    exact SVD of the small k x K projection Q'X then gives the triples,
    with u = Q u_b.
    """
    _, vecs = np.linalg.eigh(np.matmul(X, X.T, out=gram))
    Q = vecs[:, ::-1][:, :k]  # eigh sorts ascending
    ub, s, vt = np.linalg.svd(Q.T @ X, full_matrices=False)
    return Q @ ub, s, vt


def _leading_triples(X, k: int | None, exponent: int, gram=None):
    """Kept leading triples ``(s, u, vt)`` of ``X * 2**exponent``, descending
    sigma: ``s[p]`` pairs with column p of ``u`` and row p of ``vt``.

    The one SSA core, run on every row by ``decompose_rows``.  X must be
    finite and already divided by ``2**exponent``, a power of two near
    its max ``|X|`` (``pow2_scaled``), so X X' neither overflows nor
    underflows; for normal-range X the triples are those of X itself.

    With ``k`` at most half of L, the row count, and L <= K, only the
    leading ``k`` triples are computed (``_top_svd``; ``gram`` is an
    L x L buffer for its lag covariance X X').  Forming X X'
    squares the condition number, so ``eigh`` separates only directions
    with sigma above about sqrt(eps) * sigma_max (1.5e-8 relative); those
    triples come out as accurate as an SVD of X itself (about
    eps * sigma_max), because their singular values come from the SVD of
    Q'X, not from the eigenvalues.  Triples below that level come from a
    mixed subspace, so they are not the true triples, but their rank-k sum
    still differs from the true one by about 1e-8 * sigma_max at most.
    The route saves work only when ``k`` is small against L (it costs more
    than a full SVD above about 0.6 L), so larger ``k``, ``k`` None and
    tall X (L > K, which the Hankel matrices of ``decompose_rows`` never
    are) go to ``np.linalg.svd``.

    Triples with sigma below ``SV_CUTOFF`` times the largest singular
    value are dropped, so fewer than ``k`` may be returned.
    """
    try:
        if k is not None and X.ndim == 2 and 2 * k <= X.shape[0] <= X.shape[1]:
            u, s, vt = _top_svd(X, k, gram)
        else:
            u, s, vt = np.linalg.svd(X, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailure(str(exc)) from exc
    s = np.ldexp(s, exponent)
    keep = np.flatnonzero(s > SV_CUTOFF * s[:1])[:k]  # empty if s is empty or all zero
    return s[keep], u[:, keep], vt[keep]


def decompose_rows(rows, L: int, k: int):
    """Top ``k`` elementary reconstructed components of each row of an
    ``(n, T)`` array: the diagonal averages of the leading rank-1 terms
    sigma_p u_p v_p' of the row's L x K Hankel matrix (see
    ``_leading_triples``, which each row goes through), descending sigma.

    Returns components and singular values of shapes ``(n, min(k, L), T)``
    and ``(n, min(k, L))`` that are zero past a row's kept triples; one
    series is the call on ``series[None]``.  The rows are checked and
    divided by their power of two (``pow2_scaled``) once: a row's Hankel
    matrix holds exactly its T samples, so the row's exponent is the
    matrix's.  The SVD then runs row by row on one reused Hankel buffer
    and lag covariance buffer; the components, convolutions of sigma_p u_p
    with v_p over the anti-diagonal counts, come from one
    ``rfft``/``irfft`` pair of 2^ceil(log2 T) points.
    """
    rows = np.asarray(rows, dtype=float)
    n, T = rows.shape
    validate_window_length(L, T)
    if not np.all(np.isfinite(rows)):
        raise NonFiniteInput("decompose_rows input contains NaN or inf")
    rows, exponents = pow2_scaled(rows)
    K = T - L + 1
    slots = min(k, L)
    su, v, sv = np.zeros((n, slots, L)), np.zeros((n, slots, K)), np.zeros((n, slots))
    X, gram = np.empty((L, K)), np.empty((L, L))
    hankels = sliding_window_view(rows, K, axis=-1)  # (n, L, K) views
    for i, exponent in enumerate(exponents[:, 0].tolist()):
        np.copyto(X, hankels[i])
        s, u, vt = _leading_triples(X, k, exponent, gram)
        sv[i, :len(s)], v[i, :len(s)] = s, vt
        np.multiply(s[:, None], u.T, out=su[i, :len(s)])
    nfft = 1 << (T - 1).bit_length()
    conv = np.fft.irfft(np.fft.rfft(su, nfft) * np.fft.rfft(v, nfft), nfft)[..., :T]
    return conv / np.convolve(np.ones(L), np.ones(K)), sv
