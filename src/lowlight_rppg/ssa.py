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


# LAPACKE's routines for the top eigenpairs of a symmetric matrix by MRRR
# (multiple relatively robust representations): dsytrd reduces the matrix to
# tridiagonal form, dstemr finds the wanted eigenpairs of the tridiagonal and
# dormtr maps their vectors back.  LAPACK's driver dsyevr chains the same
# steps but takes dstemr only when every eigenvalue is wanted; for an index
# subset it falls back to bisection and inverse iteration (dstebz + dstein).
# Each is taken under the first of these names, whose ``64_`` suffix fixes
# its integers at 64 bits; an unsuffixed ``LAPACKE_*_work`` may take 32- or
# 64-bit ones, and a wrong guess corrupts memory.
_LAPACKE_NAMES = ("scipy_LAPACKE_{}_work64_", "LAPACKE_{}_work64_")
_i, _d, _c, _p = ctypes.c_int64, ctypes.c_double, ctypes.c_char, ctypes.c_void_p
_PROTOTYPES = {
    # layout, uplo, n, a, lda, d, e, tau, work, lwork
    "dsytrd": [ctypes.c_int, _c, _i, _p, _i, _p, _p, _p, _p, _i],
    # layout, jobz, range, n, d, e, vl, vu, il, iu, m, w, z, ldz, nzc, isuppz,
    # tryrac, work, lwork, iwork, liwork
    "dstemr": [ctypes.c_int, _c, _c, _i, _p, _p, _d, _d, _i, _i, _p, _p, _p, _i, _i, _p, _p,
               _p, _i, _p, _i],
    # layout, side, uplo, trans, m, n, a, lda, tau, c, ldc, work, lwork
    "dormtr": [ctypes.c_int, _c, _c, _c, _i, _i, _p, _i, _p, _p, _i, _p, _i],
}
_COLUMN_MAJOR = 102


def _lapacke_mrrr(lib):
    """``(dsytrd, dstemr, dormtr)`` from ``lib``, under the first of
    ``_LAPACKE_NAMES`` each is found by, with their C prototypes; None if
    ``lib`` lacks any of them."""
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
_MRRR = _lapacke_mrrr(_NUMPY_LAPACK)


def _checked(routine: str, info: int) -> None:
    if info:
        raise DecompositionFailure(f"{routine} failed with info {info}")


def _leading_basis(L: int, k: int):
    """A function giving the eigenvectors of the ``k`` largest eigenvalues
    of the lag covariance X X' of an L x K matrix X, as the columns of an
    (L, k) array, descending, valid until its next call.

    With ``_MRRR``, only those ``k`` eigenpairs are computed: ``dsytrd``
    reduces X X' to a tridiagonal, ``dstemr`` takes its top ``k``
    eigenpairs by MRRR, and ``dormtr`` maps the ``k`` vectors back.  A
    window where ``dstemr`` reports an internal failure (info > 0) takes
    the ``np.linalg.eigh`` route, as every window does without
    ``_MRRR``; ``eigh`` computes all L eigenpairs.

    It owns one L x L buffer for X X', the tridiagonal and the vectors,
    and one workspace that the three routines use in turn, sized by one
    query of each here: the rows of one ``decompose_rows`` call share
    them, and no two calls (or threads) do.
    """
    gram = np.empty((L, L))

    def eigh(X):
        return np.linalg.eigh(np.matmul(X, X.T, out=gram))[1][:, ::-1][:, :k]
    if _MRRR is None:
        return eigh
    dsytrd, dstemr, dormtr = _MRRR
    # the diagonal, the off-diagonal (whose last element dstemr uses as
    # workspace), the reflectors' scalars and the eigenvalues
    d, e, tau, w = np.empty(L), np.empty(L), np.empty(L), np.empty(L)
    z, isuppz = np.empty((k, L)), np.empty(2 * k, np.int64)
    m, tryrac = np.empty(1, np.int64), np.empty(1, np.int64)

    # gram is read in place as column-major, which its symmetry allows, and
    # the vectors land in the rows of z.  lwork = liwork = -1 writes the
    # workspace sizes to work[0] and iwork[0].
    def tridiagonalize(work, lwork: int) -> int:
        return dsytrd(_COLUMN_MAJOR, b"U", L, gram.ctypes.data, L, d.ctypes.data, e.ctypes.data,
                      tau.ctypes.data, work.ctypes.data, lwork)

    def solve(work, lwork: int, iwork, liwork: int) -> int:
        # eigenpairs L-k+1..L (1-based, ascending); dstemr clears tryrac
        # where it cannot reach high relative accuracy
        tryrac[0] = 1
        return dstemr(_COLUMN_MAJOR, b"V", b"I", L, d.ctypes.data, e.ctypes.data, 0.0, 0.0,
                      L - k + 1, L, m.ctypes.data, w.ctypes.data, z.ctypes.data, L, k,
                      isuppz.ctypes.data, tryrac.ctypes.data, work.ctypes.data, lwork,
                      iwork.ctypes.data, liwork)

    def back_transform(work, lwork: int) -> int:
        return dormtr(_COLUMN_MAJOR, b"L", b"U", b"N", L, k, gram.ctypes.data, L,
                      tau.ctypes.data, z.ctypes.data, L, work.ctypes.data, lwork)

    work, iwork = np.empty(1), np.empty(1, np.int64)
    _checked("dsytrd", tridiagonalize(work, -1))
    lwork = work[0]
    _checked("dormtr", back_transform(work, -1))
    lwork = max(lwork, work[0])
    _checked("dstemr", solve(work, -1, iwork, -1))
    work, iwork = np.empty(int(max(lwork, work[0]))), np.empty(int(iwork[0]), np.int64)

    def basis(X):
        np.matmul(X, X.T, out=gram)
        _checked("dsytrd", tridiagonalize(work, len(work)))
        info = solve(work, len(work), iwork, len(iwork))
        if info > 0:
            return eigh(X)
        _checked("dstemr", info)
        if m[0] != k:
            raise DecompositionFailure(f"dstemr found {m[0]} of {k} eigenpairs")
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
    the top ``k`` eigenpairs by MRRR), made per call, so that threads share none; the components,
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
