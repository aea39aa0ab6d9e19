import numpy as np
import pytest

from lowlight_rppg import (
    MaskReason,
    PipelineConfig,
    SynthConfig,
    decompose_rows,
    dominant_frequencies,
    fuse_rows,
    generate,
    run_pipeline,
    select_rows,
    spectral_mask,
)
from lowlight_rppg.errors import NoComponents, ZeroSignal
from lowlight_rppg.preprocess import PULSE_BAND
from lowlight_rppg.selection import SIGMA_FLOOR, reference_sigmas

FS = 30.0
MATCHES = (MaskReason.FUNDAMENTAL_MATCH, MaskReason.HARMONIC_MATCH)


def mask(freqs, f_r, sigma, band=PULSE_BAND):
    """spectral_mask of one window's candidate frequencies, as reasons."""
    return [list(MaskReason)[c] for c in spectral_mask([freqs], [f_r], [sigma], band)[0]]


def select(x, f_r, sigma, fs=FS, L=100, k=10):
    """decompose_rows and select_rows of one series: its components,
    candidate frequencies, accepted flags and fallback flag."""
    comps, sv = decompose_rows(np.asarray(x)[None], L, k)
    freqs, accepted, fallback = select_rows(comps, sv, fs, [f_r], [sigma], PULSE_BAND)
    kept = sv[0] > 0
    return comps[0, kept], freqs[0, kept], accepted[0, kept], bool(fallback[0])


class TestDominantFrequency:
    def test_single_tone(self):
        t = np.arange(300) / FS
        f = dominant_frequencies(np.sin(2 * np.pi * 1.2 * t), FS, PULSE_BAND)
        assert abs(f - 1.2) <= 0.01

    def test_band_restriction_wins(self):
        t = np.arange(600) / FS
        x = 10 * np.sin(2 * np.pi * 0.3 * t) + np.sin(2 * np.pi * 1.0 * t)
        assert abs(dominant_frequencies(x, FS, PULSE_BAND) - 1.0) <= 0.01

    def test_two_tone_against_dense_dft(self):
        t = np.arange(450) / FS
        x = 1.0 * np.sin(2 * np.pi * 1.1 * t) + 0.8 * np.sin(2 * np.pi * 2.0 * t)
        # dense DFT oracle over the band
        grid = np.arange(0.7, 4.0, 0.001)
        mags = [abs(np.sum(x * np.exp(-2j * np.pi * f * t))) for f in grid]
        oracle = grid[int(np.argmax(mags))]
        got = dominant_frequencies(x, FS, PULSE_BAND)
        assert abs(oracle - 1.1) < 0.01
        assert abs(got - oracle) < 0.02

    def test_zero_signal(self):
        with pytest.raises(ZeroSignal):
            dominant_frequencies(np.zeros(300), FS, PULSE_BAND)

    def test_resolution_from_padding(self):
        # frequency grid spacing must be at most fs/8192
        t = np.arange(300) / FS
        f = dominant_frequencies(np.sin(2 * np.pi * 1.23 * t), FS, PULSE_BAND)
        assert abs(f - 1.23) <= FS / 8192 + 1e-9


class TestUpdateReference:
    """Per-window reference-HR tracking as run_pipeline does it."""

    def test_band_limits_the_search(self):
        # the fundamental at 1.2 Hz is outside the band; its harmonic at
        # 2.4 Hz becomes the reference HR of every window.  The harmonic is
        # weak enough that the fundamental left after band-pass filtering
        # would still win a search over the whole pulse band.
        trace = generate(SynthConfig(hr_bpm=72.0, duration_s=30.0,
                                     harmonic_ratio=0.05))
        flags = run_pipeline(trace, PipelineConfig(band=(1.5, 4.0))).window_flags
        assert flags
        assert all(abs(r.f_r - 2.4) < 0.01 for r in flags)

    def test_degenerate_history_hits_floor(self):
        trace = generate(SynthConfig(hr_bpm=72.0, duration_s=30.0,
                                     harmonic_ratio=0.0))
        flags = run_pipeline(trace).window_flags
        assert len(flags) >= 3
        assert flags[0].sigma_fr == 0.05
        assert all(r.sigma_fr == SIGMA_FLOOR == 0.01 for r in flags[1:])


class TestReferenceHrState:
    def test_sigma_must_be_positive(self):
        for sigma in (0.0, -0.05, float("nan")):
            with pytest.raises(ValueError):
                fuse_rows(np.ones((1, 1, 4)), [[1.0]], np.ones((1, 1), bool), [1.0], [sigma])


class TestReferenceSigmas:
    @pytest.mark.parametrize("f_r", [
        np.random.default_rng(0).uniform(0.7, 4.0, 500),
        1.2 + 0.02 * np.random.default_rng(1).standard_normal(2000),
        np.r_[4.0, 1.0 + 0.05 * np.random.default_rng(2).standard_normal(3000)],
        np.linspace(0.8, 3.5, 400),
    ], ids=["uniform", "near-floor", "outlier-first", "ramp"])
    def test_matches_prefix_std(self, f_r):
        got = reference_sigmas(f_r, 0.05)
        want = [0.05] + [max(np.std(f_r[:k + 1], ddof=1), SIGMA_FLOOR)
                         for k in range(1, len(f_r))]
        assert got.shape == f_r.shape
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_floor_and_sigma_init(self):
        got = reference_sigmas([1.2, 1.2, 1.2, 1.25], 0.3)
        assert got[0] == 0.3
        assert got[1] == got[2] == SIGMA_FLOOR
        assert abs(got[3] - 0.025) <= 1e-12

    def test_empty(self):
        assert reference_sigmas([], 0.05).shape == (0,)


class TestSpectralMask:
    def test_fundamental_match(self):
        assert mask([1.25], 1.2, 0.05) == [MaskReason.FUNDAMENTAL_MATCH]

    def test_harmonic_match(self):
        assert mask([2.4], 1.2, 0.05) == [MaskReason.HARMONIC_MATCH]

    def test_window_reject(self):
        assert mask([3.0], 1.2, 0.05) == [MaskReason.WINDOW_REJECT]

    def test_band_reject(self):
        assert mask([7.0], 3.5, 0.05) == [MaskReason.BAND_REJECT]

    def test_band_reject_follows_band(self):
        assert mask([1.25], 1.2, 0.05, band=(1.5, 4.0)) == [MaskReason.BAND_REJECT]

    def test_monotone_in_sigma(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            f_i = rng.uniform(0.5, 5.0)
            f_r = rng.uniform(0.7, 4.0)
            sigma = rng.uniform(0.01, 0.5)
            (small,) = mask([f_i], f_r, sigma)
            (big,) = mask([f_i], f_r, 2 * sigma)
            if small in MATCHES:
                assert big in MATCHES

    def test_amplitude_invariant(self):
        t = np.arange(300) / FS
        x = np.sin(2 * np.pi * 1.2 * t) + 0.5 * np.random.default_rng(3).normal(size=300)
        comps, sv = decompose_rows(x[None], 100, 10)
        a = select_rows(comps, sv, FS, [1.2], [0.05], PULSE_BAND)
        b = select_rows(100 * comps, 100 * sv, FS, [1.2], [0.05], PULSE_BAND)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_accepted_implies_in_band(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            f_i = rng.uniform(0.0, 8.0)
            (reason,) = mask([f_i], rng.uniform(0.7, 4.0), rng.uniform(0.01, 1.0))
            if reason in MATCHES:
                assert 0.7 <= f_i <= 4.0

    def test_harmonic_pair_both_accepted(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            f_r, sigma = rng.uniform(0.8, 1.9), rng.uniform(0.01, 0.1)
            f = rng.uniform(f_r - 3 * sigma, f_r + 3 * sigma)
            if not (0.7 <= f <= 4.0 and 0.7 <= 2 * f <= 4.0):
                continue
            assert all(r in MATCHES for r in mask([f, 2 * f], f_r, sigma))

    def test_rows_match_one_row_calls(self):
        rng = np.random.default_rng(5)
        freqs = rng.uniform(0.0, 8.0, (40, 6))
        freqs[::7, -2:] = np.inf  # empty slots
        f_r, sigma = rng.uniform(0.7, 4.0, 40), rng.uniform(0.01, 0.5, 40)
        codes = spectral_mask(freqs, f_r, sigma)
        assert codes.shape == freqs.shape
        for row, f, s, c in zip(freqs, f_r, sigma, codes):
            assert [list(MaskReason)[i] for i in c] == mask(row, f, s)
        assert np.all(codes[::7, -2:] == list(MaskReason).index(MaskReason.BAND_REJECT))


class TestSelectCandidates:
    def test_pure_sine_selects_top_two(self):
        t = np.arange(300) / FS
        _, freqs, accepted, fallback = select(np.sin(2 * np.pi * 1.2 * t), 1.2, 0.05)
        assert accepted.sum() == 2
        assert not fallback
        assert np.all(np.abs(freqs[accepted] - 1.2) < 0.05)

    def test_drift_band_rejected(self):
        t = np.arange(300) / FS
        x = np.sin(2 * np.pi * 1.2 * t) + 5.0 * np.sin(2 * np.pi * 0.4 * t)
        _, freqs, accepted, _ = select(x, 1.2, 0.05)
        # per-component FFT oracle: drift components live near 0.4 Hz
        drift = np.abs(freqs - 0.4) < 0.1
        assert np.any(drift)
        assert not np.any(accepted[drift])
        assert mask(freqs[drift], 1.2, 0.05) == [MaskReason.BAND_REJECT] * drift.sum()
        assert np.all(np.abs(freqs[accepted] - 1.2) < 0.05)

    def test_candidate_freqs_match_per_component_search(self):
        rng = np.random.default_rng(4)
        t = np.arange(300) / FS
        x = np.sin(2 * np.pi * 1.2 * t) + 0.5 * rng.normal(size=300)
        comps, freqs, _, _ = select(x, 1.2, 0.05)
        expected = [dominant_frequencies(c, FS, band=(0.05, FS / 2)) for c in comps]
        assert freqs.tolist() == expected

    def test_fallback_returns_nearest(self):
        t = np.arange(300) / FS
        _, freqs, accepted, fallback = select(np.sin(2 * np.pi * 3.9 * t), 1.2, 0.05)
        assert fallback
        assert accepted.sum() == 1
        assert abs(freqs[accepted][0] - 3.9) < 0.05

    @pytest.mark.parametrize("tones", [(1.0, 1.5), (1.5, 1.0)])
    def test_fallback_tie_keeps_the_first_candidate(self, tones):
        # at 32 Hz the 8192-point bins are multiples of 2^-8 Hz, so the
        # distances to the midpoint of two candidates are exactly equal
        fs = 32.0
        t = np.arange(300) / fs
        comps = np.array([[np.sin(2 * np.pi * f * t) for f in tones]])
        first, second = (dominant_frequencies(c, fs, band=(0.05, fs / 2)) for c in comps[0])
        f_r = (first + second) / 2
        assert abs(first - f_r) == abs(second - f_r) > 3 * 0.01
        freqs, accepted, fallback = select_rows(comps, np.array([[2.0, 1.0]]), fs,
                                                [f_r], [0.01], PULSE_BAND)
        assert fallback.tolist() == [True]
        assert accepted.tolist() == [[True, False]]
        assert freqs.tolist() == [[first, second]]

    def test_empty_decomposition(self):
        with pytest.raises(NoComponents):
            select_rows(np.empty((1, 0, 100)), np.empty((1, 0)), FS, [1.2], [0.05],
                        PULSE_BAND)
