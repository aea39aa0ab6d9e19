"""Singular spectrum analysis: Hankel embedding, SVD, diagonal averaging."""

from __future__ import annotations

import ctypes

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


# LAPACKE's subset eigensolver dsyevr (the MRRR method), under the names whose
# ``64_`` suffix fixes its integers at 64 bits; an unsuffixed
# ``LAPACKE_dsyevr_work`` may take 32- or 64-bit ones, and a wrong guess
# corrupts memory.
_DSYEVR_NAMES = ("scipy_LAPACKE_dsyevr_work64_", "LAPACKE_dsyevr_work64_")


def _lapacke_dsyevr(lib):
    """The first of ``_DSYEVR_NAMES`` in ``lib``, with its C prototype, or None."""
    func = next((getattr(lib, name) for name in _DSYEVR_NAMES if hasattr(lib, name)), None)
    if func is not None:
        i, d, c, p = ctypes.c_int64, ctypes.c_double, ctypes.c_char, ctypes.c_void_p
        func.argtypes = [ctypes.c_int, c, c, c, i, p, i, d, d, i, i, d, p, p, p, i, p, p, i, p, i]
        func.restype = i
    return func


# numpy's LAPACK module, which links its LAPACK and BLAS; reconstruct looks
# up OpenBLAS's thread getter in it too.
_NUMPY_LAPACK = ctypes.CDLL(np.linalg._umath_linalg.__file__)
# None (numpy on MKL or Accelerate, Windows): ``np.linalg.eigh``.
_DSYEVR = _lapacke_dsyevr(_NUMPY_LAPACK)


def _leading_basis(L: int, k: int):
    """A function giving the eigenvectors of the ``k`` largest eigenvalues
    of the lag covariance X X' of an L x K matrix X, as the columns of an
    (L, k) array, descending, valid until its next call.

    It owns one L x L buffer for X X' and, with ``_DSYEVR``, that solver's
    workspace, sized by one query here: the rows of one ``decompose_rows``
    call share them, and no two calls (or threads) do.  ``dsyevr``
    computes only the ``k`` eigenpairs; without it ``np.linalg.eigh``
    computes all L.
    """
    gram = np.empty((L, L))
    if _DSYEVR is None:
        return lambda X: np.linalg.eigh(np.matmul(X, X.T, out=gram))[1][:, ::-1][:, :k]
    m, w, z, isuppz = (np.empty(1, np.int64), np.empty(L), np.empty((k, L)),
                       np.empty(2 * k, np.int64))

    def dsyevr(work, iwork, lwork: int, liwork: int) -> None:
        # eigenpairs L-k+1..L (1-based, ascending) of gram, read in place as
        # column-major, which its symmetry allows; vectors in the rows of z.
        # lwork = liwork = -1 writes the workspace sizes to work and iwork.
        info = _DSYEVR(102, b"V", b"I", b"U", L, gram.ctypes.data, L, 0.0, 0.0, L - k + 1, L,
                       0.0, m.ctypes.data, w.ctypes.data, z.ctypes.data, L, isuppz.ctypes.data,
                       work.ctypes.data, lwork, iwork.ctypes.data, liwork)
        if info:
            raise DecompositionFailure(f"dsyevr failed with info {info}")

    work, iwork = np.empty(1), np.empty(1, np.int64)
    dsyevr(work, iwork, -1, -1)
    work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), np.int64)

    def basis(X):
        np.matmul(X, X.T, out=gram)
        dsyevr(work, iwork, len(work), len(iwork))
        return z[::-1].T
    return basis


def _top_svd(X, k: int, basis=None):
    """Top-``k`` SVD ``(u, s, vt)`` of an L x K matrix.

    The top-``k`` eigenvectors Q of the L x L lag covariance X X' (from
    ``basis``, a ``_leading_basis(L, k)``, made here when not given) span
    the leading left singular subspace; the exact SVD of the small
    k x K projection Q'X then gives the triples, with u = Q u_b.
    """
    Q = (basis or _leading_basis(len(X), k))(X)
    ub, s, vt = np.linalg.svd(Q.T @ X, full_matrices=False)
    return Q @ ub, s, vt


def _leading_triples(X, k: int | None, exponent: int, basis=None):
    """Kept leading triples ``(s, u, vt)`` of ``X * 2**exponent``, descending
    sigma: ``s[p]`` pairs with column p of ``u`` and row p of ``vt``.

    The one SSA core, run on every row by ``decompose_rows``.  X must be
    finite and already divided by ``2**exponent``, a power of two near
    its max ``|X|`` (``pow2_scaled``), so X X' neither overflows nor
    underflows; for normal-range X the triples are those of X itself.

    With ``k`` at most half of L, the row count, and L <= K, only the
    leading ``k`` triples are computed (``_top_svd``, with ``basis``, its
    ``_leading_basis(L, k)``, when given).  Forming X X' squares the
    condition number, so its eigenvectors separate only directions
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
            u, s, vt = _top_svd(X, k, basis)
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
    matrix's.  The SVD then runs row by row on one reused Hankel buffer,
    lag covariance buffer and eigensolver workspace (``_leading_basis``),
    made per call, so that threads share none; the components,
    convolutions of sigma_p u_p with v_p over the anti-diagonal counts,
    come from one ``rfft``/``irfft`` pair of 2^ceil(log2 T) points.
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
    X = np.empty((L, K))
    basis = _leading_basis(L, k) if 2 * k <= L else None  # else the full SVD
    hankels = sliding_window_view(rows, K, axis=-1)  # (n, L, K) views
    for i, exponent in enumerate(exponents[:, 0].tolist()):
        np.copyto(X, hankels[i])
        s, u, vt = _leading_triples(X, k, exponent, basis)
        sv[i, :len(s)], v[i, :len(s)] = s, vt
        np.multiply(s[:, None], u.T, out=su[i, :len(s)])
    nfft = 1 << (T - 1).bit_length()
    conv = np.fft.irfft(np.fft.rfft(su, nfft) * np.fft.rfft(v, nfft), nfft)[..., :T]
    return conv / np.convolve(np.ones(L), np.ones(K)), sv
