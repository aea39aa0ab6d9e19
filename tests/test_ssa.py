import itertools
import re
import sys
import threading

import numpy as np
import pytest
from scipy.linalg import hankel

from lowlight_rppg import decompose_rows, dominant_frequencies, ssa
from lowlight_rppg.errors import (ConfigError, DecompositionFailure, InvalidWindowLength,
                                  NonFiniteInput)
from lowlight_rppg.preprocess import PULSE_BAND, bandpass
from lowlight_rppg.ssa import default_window_length
from oracles import diagonal_average, hankel_embed, svd_components


def brute_force_diagonal_average(Xi):
    L, K = Xi.shape
    sums = np.zeros(L + K - 1)
    counts = np.zeros(L + K - 1)
    for i in range(L):
        for j in range(K):
            sums[i + j] += Xi[i, j]
            counts[i + j] += 1
    return sums / counts


class TestHankelEmbed:
    def test_five_point_definition(self):
        X = hankel_embed([1, 2, 3, 4, 5], L=2)
        assert X.tolist() == [[1, 2, 3, 4], [2, 3, 4, 5]]

    def test_four_point(self):
        X = hankel_embed([1, 2, 3, 4], L=2)
        assert X.tolist() == [[1, 2, 3], [2, 3, 4]]

    def test_anti_diagonals_constant(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=64)
        X = hankel_embed(x, L=20)
        L, K = X.shape
        for k in range(L + K - 1):
            vals = [X[i, k - i] for i in range(max(0, k - K + 1), min(L, k + 1))]
            assert np.ptp(vals) == 0.0

    @pytest.mark.parametrize("L", [1, 0, 33, 100])
    def test_window_out_of_range(self, L):
        with pytest.raises(InvalidWindowLength):
            hankel_embed(np.zeros(64), L=L)

    @pytest.mark.parametrize("T, L", [(300, 100), (600, 200), (7, 3), (10, 5)])
    def test_matches_scipy_hankel(self, T, L):
        x = np.random.default_rng(T).normal(size=T)
        X = hankel_embed(x, L)
        np.testing.assert_array_equal(X, hankel(x[:L], x[L - 1:]))
        assert X.flags.c_contiguous and X.flags.writeable

    def test_half_length_admitted_for_even_T(self):
        X = hankel_embed(np.arange(10.0), L=5)
        assert X.shape == (5, 6)


class TestSvdComponents:
    def test_rank_one(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=6)
        u /= np.linalg.norm(u)
        v = rng.normal(size=9)
        v /= np.linalg.norm(v)
        triples = svd_components(np.outer(u, v))
        assert len(triples) == 1
        s, uu, vv = triples[0]
        assert abs(s - 1.0) < 1e-12
        sign = np.sign(np.dot(uu, u))
        assert np.allclose(sign * uu, u, atol=1e-12)
        assert np.allclose(sign * vv, v, atol=1e-12)

    def test_identity(self):
        triples = svd_components(np.eye(3))
        assert len(triples) == 3
        assert all(abs(s - 1.0) < 1e-12 for s, _, _ in triples)

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 20))
        rec = sum(s * np.outer(u, v) for s, u, v in svd_components(X))
        assert np.linalg.norm(rec - X) / np.linalg.norm(X) < 1e-10

    def test_descending_and_unit_norm(self):
        rng = np.random.default_rng(3)
        triples = svd_components(rng.normal(size=(8, 15)))
        sigmas = [s for s, _, _ in triples]
        assert sigmas == sorted(sigmas, reverse=True)
        for _, u, v in triples:
            assert abs(np.linalg.norm(u) - 1.0) < 1e-12
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def _rank_k_sum(triples):
    return sum(s * np.outer(u, v) for s, u, v in triples)


def _sinusoid_hankel(freqs, T=300, L=100, fs=30.0):
    t = np.arange(T) / fs
    return hankel_embed(sum(np.sin(2 * np.pi * f * t) for f in freqs), L)


class TestTruncatedSvd:
    """The top-k route (2k <= L <= K) against the full SVD."""

    @pytest.mark.parametrize("X, k", [
        (np.random.default_rng(10).normal(size=(40, 81)), 5),
        (np.random.default_rng(11).normal(size=(100, 201)), 10),
        # two tones 0.05 Hz apart: their singular values nearly coincide
        (_sinusoid_hankel([1.2, 1.25]), 4),
    ], ids=["40x81", "100x201", "near-degenerate-pair"])
    def test_matches_full_svd(self, X, k):
        full = svd_components(X)[:k]
        top = svd_components(X, k)
        assert len(top) == k
        s_full = np.array([s for s, _, _ in full])
        s_top = np.array([s for s, _, _ in top])
        assert np.max(np.abs(s_top - s_full) / s_full) <= 1e-12
        assert np.max(np.abs(_rank_k_sum(top) - _rank_k_sum(full))) <= 1e-10 * np.max(np.abs(X))
        for _, u, v in top:
            assert abs(np.linalg.norm(u) - 1.0) < 1e-12
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tone_over_noise_below_the_eigh_resolution(self, seed):
        # the noise triples sit near 1e-11 sigma_max: above SV_CUTOFF but
        # below what eigh of X X' can separate (about 1.5e-8 sigma_max)
        t = np.arange(300) / 30.0
        x = (np.sin(2 * np.pi * 1.2 * t)
             + 1e-10 * np.random.default_rng(seed).normal(size=t.size))
        X = hankel_embed(x, 100)
        full = svd_components(X)[:10]
        top = svd_components(X, 10)
        assert len(top) == len(full) == 10
        assert np.max(np.abs(_rank_k_sum(top) - _rank_k_sum(full))) <= 1e-8 * np.max(np.abs(X))
        for (s_top, _, _), (s_full, _, _) in zip(top[:2], full[:2]):
            assert abs(s_top - s_full) <= 1e-12 * s_full

    @pytest.mark.parametrize("shape, k", [((81, 40), 7), ((40, 81), 21)],
                             ids=["tall", "k-above-half-L"])
    def test_other_shapes_take_the_full_svd(self, shape, k):
        X = np.random.default_rng(12).normal(size=shape)
        top = svd_components(X, k)
        assert len(top) == k
        for (s_top, u_top, v_top), (s_full, u_full, v_full) in zip(top, svd_components(X)):
            assert s_top == s_full
            assert np.array_equal(u_top, u_full) and np.array_equal(v_top, v_full)

    @pytest.mark.parametrize("X, n", [
        (_sinusoid_hankel([1.2]), 2),
        (_sinusoid_hankel([1.2, 2.4]), 4),
        (np.zeros((100, 201)), 0),
    ], ids=["rank-2", "rank-4", "zero"])
    def test_cutoff_keeps_the_same_triples(self, X, n):
        assert len(svd_components(X)) == len(svd_components(X, 10)) == n

    @pytest.mark.parametrize("k", [20, 21, 100])
    def test_k_at_least_min_dim_is_the_full_svd(self, k):
        X = np.random.default_rng(13).normal(size=(20, 45))
        triples = svd_components(X, k)
        assert len(triples) == 20
        assert np.linalg.norm(_rank_k_sum(triples) - X) / np.linalg.norm(X) < 1e-10


def _window(T, L, fs=30.0, seed=0):
    """A bandpassed noisy 72 bpm window of T samples, as run_pipeline
    decomposes them (L = T/3)."""
    t = np.arange(T) / fs
    x = np.sin(2 * np.pi * 1.2 * t) + np.random.default_rng(seed).normal(size=T)
    return bandpass(x, fs)


def _failing(routine: str, info: int, calls=None):
    """``ssa._LAPACKE`` with ``routine`` returning ``info`` on its solves
    (its workspace query, if it has one, passes), or only on the solves
    whose 0-based index is in ``calls``."""
    names = tuple(ssa._PROTOTYPES)  # the order of ssa._LAPACKE
    real = ssa._LAPACKE[names.index(routine)]
    queried = routine in ("dsytrd", "dormtr")  # both take lwork last
    solves = itertools.count()

    def fake(*args):
        if queried and args[-1] == -1:
            return real(*args)
        return info if calls is None or next(solves) in calls else real(*args)
    return tuple(fake if name == routine else func for name, func in zip(names, ssa._LAPACKE))


_L100 = hankel_embed(_window(300, 100), 100)
_L200 = hankel_embed(_window(600, 200, fs=60.0), 200)
_PURE_TONE = _sinusoid_hankel([1.2])
# a sine/cosine pair of near-equal sigma over noise at 3e-4 sigma_max
_SINE_COSINE_PAIR = hankel_embed(np.sin(2 * np.pi * 1.2 * np.arange(300) / 30.0)
                                 + 1e-3 * np.random.default_rng(15).normal(size=300), 100)


@pytest.mark.skipif(ssa._LAPACKE is None,
                    reason="numpy's LAPACK exports no 64-bit dsytrd, dsterf, dstein and dormtr")
class TestSubsetSolver:
    """The top-k route's eigenvectors from LAPACK's dsytrd, dsterf, dstein
    and dormtr, against those of np.linalg.eigh (``_LAPACKE`` patched to
    None)."""

    # The kept triples' rank-1 sums agree within ``tol`` of max |X|: both
    # routes take the SVD of Q'X in an orthonormal basis of the leading
    # subspace, which moves by about eps sigma_max^2 over the gap of the
    # last kept sigma^2 to the next.  Measured: 1e-14 with gaps of 1e-2
    # sigma_max and more; 9e-12 where the kept noise sits at 3e-4 sigma_max.
    @pytest.mark.parametrize("X, tol", [
        (_L100, 1e-13),
        (_L200, 1e-13),
        (np.random.default_rng(14).normal(size=(200, 401)), 1e-13),
        # rank 2: 8 of the 10 eigenpairs are zero, dropped by SV_CUTOFF
        (_PURE_TONE, 1e-13),
        (_SINE_COSINE_PAIR, 1e-10),
        (np.zeros((100, 201)), 0.0),
        (np.random.default_rng(16).normal(size=(20, 41)), 1e-13),  # 2k = L
    ], ids=["L100", "L200", "noise-L200", "pure-tone", "sine-cosine-pair", "zero", "2k-equals-L"])
    def test_matches_eigh_route(self, monkeypatch, X, tol):
        subset = svd_components(X, 10)
        monkeypatch.setattr(ssa, "_LAPACKE", None)
        full = svd_components(X, 10)
        assert len(subset) == len(full)
        diff = np.abs(_rank_k_sum(subset) - _rank_k_sum(full))
        assert np.max(diff, initial=0.0) <= tol * np.max(np.abs(X))
        for (s_a, _, _), (s_b, _, _) in zip(subset, full):
            assert abs(s_a - s_b) <= 1e-13 * full[0][0]

    # Inverse iteration reorthogonalises only eigenvalues closer than
    # 1e-3 |T|; the SVD of Q'X takes Q to be orthonormal.
    @pytest.mark.parametrize("X", [_L100, _L200, _PURE_TONE, _SINE_COSINE_PAIR],
                             ids=["L100", "L200", "pure-tone", "sine-cosine-pair"])
    def test_kept_basis_is_orthonormal(self, X):
        Q = ssa._leading_basis(len(X), 10)(X)
        assert np.max(np.abs(Q.T @ Q - np.eye(10))) <= 1e-13

    def test_a_tone_is_a_near_equal_pair_of_rank_2(self):
        (s1, _, _), (s2, _, _) = svd_components(_sinusoid_hankel([1.2]), 10)
        assert abs(s1 - s2) <= 0.01 * s1

    @pytest.mark.parametrize("routine", ["dsytrd", "dstein", "dormtr"])
    def test_routine_failure_is_a_decomposition_failure(self, monkeypatch, routine):
        monkeypatch.setattr(ssa, "_LAPACKE", _failing(routine, -3))
        with pytest.raises(DecompositionFailure, match=f"{routine} failed with info -3"):
            decompose_rows(np.random.default_rng(18).normal(size=(2, 300)), 100, 10)

    @pytest.mark.parametrize("routine", ["dsterf", "dstein"])
    def test_solver_failure_sends_that_row_to_eigh(self, monkeypatch, routine):
        rows = np.array([_window(300, 100, seed=s) for s in range(3)])
        lapacke = decompose_rows(rows, 100, 10)
        failing = _failing(routine, 2, calls={1})
        monkeypatch.setattr(ssa, "_LAPACKE", None)
        eigh = decompose_rows(rows, 100, 10)
        monkeypatch.setattr(ssa, "_LAPACKE", failing)
        mixed = decompose_rows(rows, 100, 10)
        for got, want_lapacke, want_eigh in zip(mixed, lapacke, eigh):
            assert want_lapacke[1].tobytes() != want_eigh[1].tobytes()  # the routes differ
            assert got[1].tobytes() == want_eigh[1].tobytes()
            for i in (0, 2):
                assert got[i].tobytes() == want_lapacke[i].tobytes()

    def test_threads_give_the_serial_bytes(self):
        # each decompose_rows call owns its solver workspace: four threads
        # on two shapes, switching every 10 us, give the serial bytes
        rng = np.random.default_rng(17)
        stacks = [np.array([_window(600, 200, fs=60.0, seed=s) for s in range(4 * i, 4 * i + 4)])
                  for i in range(4)] + [rng.normal(size=(4, 300))]
        shapes = [200] * 4 + [100]
        serial = [decompose_rows(rows, L, 10) for rows, L in zip(stacks, shapes)]
        start = threading.Barrier(4, timeout=60)
        results = [[] for _ in range(4)]

        def run(t):
            start.wait()
            for _ in range(3):
                for i in range(len(stacks)):
                    j = (i + t) % len(stacks)
                    results[t].append((j, decompose_rows(stacks[j], shapes[j], 10)))
        threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sum(len(r) for r in results) == 4 * 3 * len(stacks)
        for j, (comps, sv) in itertools.chain.from_iterable(results):
            assert comps.tobytes() == serial[j][0].tobytes()
            assert sv.tobytes() == serial[j][1].tobytes()


@pytest.mark.parametrize("routine", ["dsytrd", "dsterf", "dstein", "dormtr"])
def test_mrrr_routine_found_where_numpy_exports_scipy_openblas(routine):
    # guards the LAPACKE route against a wheel whose LAPACK no longer exports a
    # routine under a 64-bit name, which would send every window to eigh
    getters = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")
    if not any(hasattr(ssa._NUMPY_LAPACK, name) for name in getters):
        pytest.skip("numpy's LAPACK module exports no scipy_openblas symbols")
    names = [name.format(routine) for name in ssa._LAPACKE_NAMES]
    assert any(hasattr(ssa._NUMPY_LAPACK, name) for name in names), names


class TestDiagonalAverage:
    def test_three_point_definition(self):
        assert diagonal_average([[1, 3], [5, 7]]).tolist() == [1, 4, 7]

    def test_hankel_fixed_point(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=40)
        assert np.allclose(diagonal_average(hankel_embed(x, 12)), x, atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        Xi = rng.normal(size=(8, 12))
        assert np.allclose(diagonal_average(Xi), brute_force_diagonal_average(Xi),
                           atol=1e-12)


def kept_components(x, L, k):
    """decompose_rows of one series: its kept components and singular values."""
    comps, sv = decompose_rows(np.asarray(x, dtype=float)[None], L, k)
    kept = sv[0] > 0
    return comps[0, kept], sv[0, kept]


class TestDecompose:
    fs = 30.0

    def test_sine_is_rank_two(self):
        t = np.arange(300) / self.fs
        x = np.sin(2 * np.pi * 1.2 * t)
        components, _ = kept_components(x, L=90, k=10)
        top2 = components[:2].sum(axis=0)
        energy = np.sum(top2**2) / np.sum(x**2)
        assert energy >= 0.99

    def test_zero_series_has_no_components(self):
        comps, sv = decompose_rows(np.zeros((1, 100)), L=30, k=10)
        assert comps.shape == (1, 10, 100) and sv.shape == (1, 10)
        assert not np.any(sv) and not np.any(comps)

    def test_two_tones_top_four(self):
        t = np.arange(600) / self.fs
        x = np.sin(2 * np.pi * 1.2 * t) + np.sin(2 * np.pi * 2.4 * t)
        components, _ = kept_components(x, L=200, k=10)
        top4 = components[:4].sum(axis=0)
        assert np.sum(top4**2) / np.sum(x**2) >= 0.99
        # a 600-sample tone only localizes its peak to the natural
        # resolution fs/T, regardless of zero-padding
        bin_width = self.fs / 600
        for comp in components[:4]:
            f = dominant_frequencies(comp, self.fs, PULSE_BAND)
            assert min(abs(f - 1.2), abs(f - 2.4)) <= bin_width + 1e-9

    def test_full_reconstruction_identity(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=120)
        components, _ = kept_components(x, L=40, k=40)
        rec = components.sum(axis=0)
        assert np.linalg.norm(rec - x) / np.linalg.norm(x) < 1e-8

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=90)
        comps_a, sv_a = kept_components(x, L=30, k=5)
        comps_b, sv_b = kept_components(4.0 * x, L=30, k=5)
        assert np.allclose(comps_b, 4.0 * comps_a, atol=1e-10)
        assert np.allclose(sv_b / sv_b[0], sv_a / sv_a[0], atol=1e-12)

    def test_energy_ordering_on_sinusoids(self):
        t = np.arange(300) / self.fs
        x = np.sin(2 * np.pi * 1.2 * t) + 0.4 * np.sin(2 * np.pi * 2.0 * t)
        components, _ = kept_components(x, L=100, k=4)
        norms = [np.linalg.norm(c) for c in components]
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-9

    @pytest.mark.parametrize("T, L, k, tones", [
        (300, 100, 10, None),
        (600, 200, 10, None),
        (120, 40, 40, None),  # k above L/2: the full-SVD route
        (61, 20, 7, None),    # odd T, nfft well above T
        # noiseless tones keep 2 triples each of 10; the other slots are empty
        (300, 100, 10, [1.2]),
        (300, 100, 10, [1.2, 2.4]),
    ], ids=["300-100-10", "600-200-10", "full-svd", "odd-T", "one-tone-empty-slots",
            "two-tones-empty-slots"])
    def test_components_match_diagonal_average_oracle(self, T, L, k, tones):
        rng = np.random.default_rng(T + L + k)
        if tones is None:
            rows = rng.normal(size=(3, T))
        else:
            t = np.arange(T) / self.fs
            rows = np.array([sum(a * np.sin(2 * np.pi * f * t + p) for f in tones)
                             for a, p in [(1.0, 0.0), (3.0, 1.0)]])
        comps, sv = decompose_rows(rows, L, k)
        assert comps.shape == (len(rows), min(k, L), T) and sv.shape == comps.shape[:2]
        for row, row_comps, row_sv in zip(rows, comps, sv):
            triples = svd_components(hankel_embed(row, L), k)
            assert len(triples) == np.count_nonzero(row_sv)
            if tones is not None:
                assert len(triples) == 2 * len(tones) < k
            for p, (s, u, v) in enumerate(triples):
                oracle = diagonal_average(s * np.outer(u, v))
                assert row_sv[p] == s
                assert np.max(np.abs(row_comps[p] - oracle)) <= 1e-12 * np.max(np.abs(oracle))
            assert not np.any(row_comps[len(triples):]) and not np.any(row_sv[len(triples):])


    @pytest.mark.parametrize("L, k", [(100, 10), (40, 30)], ids=["top-k", "full-svd"])
    def test_stack_equals_one_row_calls(self, L, k):
        # every row reuses one Hankel and one lag covariance buffer; a pure
        # tone (2 of k slots kept) before full-rank rows, a zero row and
        # rows at extreme scales must carry nothing into the next row
        T = 3 * L
        t = np.arange(T) / self.fs
        rng = np.random.default_rng(L + k)
        rows = np.array([np.sin(2 * np.pi * 1.2 * t), rng.normal(size=T), np.zeros(T),
                         1e300 * rng.normal(size=T), np.sin(2 * np.pi * 2.0 * t),
                         1e-300 * rng.normal(size=T), rng.normal(size=T)])
        comps, sv = decompose_rows(rows, L, k)
        singles = [decompose_rows(row[None], L, k) for row in rows]
        assert np.array_equal(comps, np.concatenate([c for c, _ in singles]))
        assert np.array_equal(sv, np.concatenate([s for _, s in singles]))
        assert [np.count_nonzero(row_sv) for row_sv in sv] == [2, k, 0, k, 2, k, k]

    @pytest.mark.parametrize("L, k, name", [
        (100, 0, "k"), (100, -1, "k"), (100, 10.0, "k"), (100, True, "k"),
        (100.0, 10, "L"), (np.float64(100), 10, "L"), (1, 10, "L"),
    ], ids=["k-zero", "k-negative", "k-float", "k-bool", "L-float", "L-numpy-float", "L-one"])
    def test_bad_counts_are_config_errors_before_lapack(self, capfd, L, k, name):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            decompose_rows(np.ones((2, 300)), L, k)
        assert capfd.readouterr().err == ""  # nothing from LAPACK's argument check

    @pytest.mark.parametrize("shape", [(300,), (), (2, 3, 300)])
    def test_rows_not_2d_raise_value_error(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            decompose_rows(np.ones(shape), 100, 10)

    @pytest.mark.parametrize("row", [0, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_raises(self, row, bad):
        rows = np.random.default_rng(8).normal(size=(3, 90))
        rows[row, 45] = bad
        with pytest.raises(NonFiniteInput):
            decompose_rows(rows, 30, 10)


def test_default_window_length():
    assert default_window_length(300, 30.0) == 100
    # clamped up to 2 seconds of samples
    assert default_window_length(200, 30.0) == 66
    assert default_window_length(130, 30.0) == 60
    # never exceeds T/2
    assert default_window_length(100, 30.0) == 50
