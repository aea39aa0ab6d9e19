"""Singular spectrum analysis: Hankel embedding, SVD, diagonal averaging."""

from __future__ import annotations

import ctypes

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DecompositionFailure, InvalidWindowLength, NonFiniteInput, check_count
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


# LAPACKE's routines for the top eigenpairs of a symmetric matrix: dsytrd
# reduces the matrix to tridiagonal form, dsterf finds all the tridiagonal's
# eigenvalues (root-free QL/QR), dstein finds the wanted ones' eigenvectors
# by inverse iteration and dormtr maps them back.  dstemr (MRRR) and dsyevr
# find an index subset's eigenvalues by bisection, which costs more at the
# L of a window than dsterf finding all of them.  Each routine is taken under
# the first of these names, whose ``64_`` suffix fixes its integers at 64
# bits; an unsuffixed ``LAPACKE_*_work`` may take 32- or 64-bit ones, and a
# wrong guess corrupts memory.
_LAPACKE_NAMES = ("scipy_LAPACKE_{}_work64_", "LAPACKE_{}_work64_")
_i, _c, _p = ctypes.c_int64, ctypes.c_char, ctypes.c_void_p
_PROTOTYPES = {
    # layout, uplo, n, a, lda, d, e, tau, work, lwork
    "dsytrd": [ctypes.c_int, _c, _i, _p, _i, _p, _p, _p, _p, _i],
    # n, d, e
    "dsterf": [_i, _p, _p],
    # layout, n, d, e, m, w, iblock, isplit, z, ldz, work, iwork, ifailv
    "dstein": [ctypes.c_int, _i, _p, _p, _i, _p, _p, _p, _p, _i, _p, _p, _p],
    # layout, side, uplo, trans, m, n, a, lda, tau, c, ldc, work, lwork
    "dormtr": [ctypes.c_int, _c, _c, _c, _i, _i, _p, _i, _p, _p, _i, _p, _i],
}
_COLUMN_MAJOR = 102


def _lapacke_routines(lib):
    """``(dsytrd, dsterf, dstein, dormtr)`` from ``lib``, under the first
    of ``_LAPACKE_NAMES`` each is found by, with their C prototypes; None
    if ``lib`` lacks any of them."""
    routines = []
    for routine, argtypes in _PROTOTYPES.items():
        names = [name.format(routine) for name in _LAPACKE_NAMES]
        func = next((getattr(lib, name) for name in names if hasattr(lib, name)), None)
        if func is None:
            return None
        func.argtypes, func.restype = argtypes, ctypes.c_int64
        routines.append(func)
    return tuple(routines)


# numpy's LAPACK module, which links its LAPACK and BLAS; reconstruct looks
# up OpenBLAS's thread getter in it too.
_NUMPY_LAPACK = ctypes.CDLL(np.linalg._umath_linalg.__file__)
# None (numpy on MKL or Accelerate, Windows): ``np.linalg.eigh``.
_LAPACKE = _lapacke_routines(_NUMPY_LAPACK)


def _checked(routine: str, info: int) -> None:
    if info:
        raise DecompositionFailure(f"{routine} failed with info {info}")


def _leading_basis(L: int, k: int):
    """A function giving the eigenvectors of the ``k`` largest eigenvalues
    of the lag covariance X X' of an L x K matrix X, as the columns of an
    (L, k) array, descending, valid until its next call.

    With ``_LAPACKE``, only those ``k`` eigenvectors are computed:
    ``dsytrd`` reduces X X' to a tridiagonal, ``dsterf`` finds all its L
    eigenvalues, ``dstein`` the eigenvectors of the top ``k`` by inverse
    iteration, and ``dormtr`` maps the ``k`` vectors back.  A window where
    ``dsterf`` or ``dstein`` reports an internal failure (info > 0), or
    whose tridiagonal is zero (X = 0, where inverse iteration has no scale),
    takes the ``np.linalg.eigh`` route, as every window does without
    ``_LAPACKE``; ``eigh`` computes all L eigenpairs.

    It owns one L x L buffer for X X', the tridiagonal and the vectors,
    and one workspace that the four routines use in turn, sized by one
    query of ``dsytrd`` and ``dormtr`` here (``dstein`` takes 5 L): the
    rows of one ``decompose_rows`` call share them, and no two calls (or
    threads) do.
    """
    gram = np.empty((L, L))

    def eigh(X):
        return np.linalg.eigh(np.matmul(X, X.T, out=gram))[1][:, ::-1][:, :k]
    if _LAPACKE is None:
        return eigh
    dsytrd, dsterf, dstein, dormtr = _LAPACKE
    # the diagonal, the off-diagonal (its last element unused, zeroed so
    # nothing reads memory no routine wrote), the copies dsterf overwrites
    # with the eigenvalues (ascending) and the reflectors' scalars
    d, e, values, e_copy, tau = np.empty(L), np.zeros(L), np.empty(L), np.empty(L), np.empty(L)
    # dstein's arguments for the top k eigenvalues, all in the one block
    # that ends at row L
    iblock, isplit = np.ones(k, np.int64), np.array([L], np.int64)
    iwork, ifail = np.empty(L, np.int64), np.empty(k, np.int64)
    z = np.empty((k, L))

    # gram is read in place as column-major, which its symmetry allows, and
    # the vectors land in the rows of z.  lwork = -1 writes the workspace
    # size to work[0].
    def tridiagonalize(work, lwork: int) -> int:
        return dsytrd(_COLUMN_MAJOR, b"U", L, gram.ctypes.data, L, d.ctypes.data, e.ctypes.data,
                      tau.ctypes.data, work.ctypes.data, lwork)

    def back_transform(work, lwork: int) -> int:
        return dormtr(_COLUMN_MAJOR, b"L", b"U", b"N", L, k, gram.ctypes.data, L,
                      tau.ctypes.data, z.ctypes.data, L, work.ctypes.data, lwork)

    work = np.empty(1)
    _checked("dsytrd", tridiagonalize(work, -1))
    lwork = work[0]
    _checked("dormtr", back_transform(work, -1))
    work = np.empty(int(max(lwork, work[0], 5 * L)))

    def basis(X):
        np.matmul(X, X.T, out=gram)
        _checked("dsytrd", tridiagonalize(work, len(work)))
        if not (d.any() or e.any()):
            return eigh(X)
        np.copyto(values, d)
        np.copyto(e_copy, e)
        info = dsterf(L, values.ctypes.data, e_copy.ctypes.data)
        if info > 0:
            return eigh(X)
        _checked("dsterf", info)
        top = values[L - k:]  # ascending, as dstein wants them
        info = dstein(_COLUMN_MAJOR, L, d.ctypes.data, e.ctypes.data, k, top.ctypes.data,
                      iblock.ctypes.data, isplit.ctypes.data, z.ctypes.data, L,
                      work.ctypes.data, iwork.ctypes.data, ifail.ctypes.data)
        if info > 0:
            return eigh(X)
        _checked("dstein", info)
        _checked("dormtr", back_transform(work, len(work)))
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
    series is the call on ``series[None]``.  ``k`` and ``L`` must be
    integers with k >= 1 and L >= 2 (else ConfigError, before any LAPACK
    call) and 2 L <= T (else InvalidWindowLength), and ``rows`` must be
    2-D (else ValueError).  The rows are checked and
    divided by their power of two (``pow2_scaled``) once: a row's Hankel
    matrix holds exactly its T samples, so the row's exponent is the
    matrix's.  The SVD then runs row by row on one reused Hankel buffer,
    lag covariance buffer and eigensolver workspace (``_leading_basis``:
    all eigenvalues of the tridiagonal, then the top ``k`` eigenvectors by
    inverse iteration), made per call, so that threads share none; the components,
    convolutions of sigma_p u_p with v_p over the anti-diagonal counts,
    come from one ``rfft``/``irfft`` pair of 2^ceil(log2 T) points.
    """
    check_count("k", k, 1)
    check_count("L", L, 2)
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"decompose_rows expects an (n, T) array, got shape {rows.shape}")
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
