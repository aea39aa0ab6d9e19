import numpy as np
import pytest

from lowlight_rppg import (
    CandidateComponent,
    PipelineConfig,
    ReferenceHrState,
    SynthConfig,
    decompose,
    dominant_frequency,
    generate,
    run_pipeline,
    select_candidates,
    spectral_mask,
)
from lowlight_rppg.errors import NoComponents, ZeroSignal
from lowlight_rppg.selection import SIGMA_FLOOR, MaskReason, reference_sigmas
from lowlight_rppg.ssa import SsaDecomposition

FS = 30.0


def cand(f, sv=1.0, series=None):
    if series is None:
        series = np.zeros(4)
    return CandidateComponent(series=series, dominant_freq=f, singular_value=sv)


def state(f_r, sigma):
    return ReferenceHrState(f_r=f_r, sigma_fr=sigma)


class TestDominantFrequency:
    def test_single_tone(self):
        t = np.arange(300) / FS
        f = dominant_frequency(np.sin(2 * np.pi * 1.2 * t), FS)
        assert abs(f - 1.2) <= 0.01

    def test_band_restriction_wins(self):
        t = np.arange(600) / FS
        x = 10 * np.sin(2 * np.pi * 0.3 * t) + np.sin(2 * np.pi * 1.0 * t)
        assert abs(dominant_frequency(x, FS) - 1.0) <= 0.01

    def test_two_tone_against_dense_dft(self):
        t = np.arange(450) / FS
        x = 1.0 * np.sin(2 * np.pi * 1.1 * t) + 0.8 * np.sin(2 * np.pi * 2.0 * t)
        # dense DFT oracle over the band
        grid = np.arange(0.7, 4.0, 0.001)
        mags = [abs(np.sum(x * np.exp(-2j * np.pi * f * t))) for f in grid]
        oracle = grid[int(np.argmax(mags))]
        got = dominant_frequency(x, FS)
        assert abs(oracle - 1.1) < 0.01
        assert abs(got - oracle) < 0.02

    def test_zero_signal(self):
        with pytest.raises(ZeroSignal):
            dominant_frequency(np.zeros(300), FS)

    def test_resolution_from_padding(self):
        # frequency grid spacing must be at most fs/8192
        t = np.arange(300) / FS
        f = dominant_frequency(np.sin(2 * np.pi * 1.23 * t), FS)
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
                ReferenceHrState(f_r=1.0, sigma_fr=sigma)


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
        (d,) = spectral_mask([cand(1.25)], state(1.2, 0.05))
        assert d.accepted and d.reason is MaskReason.FUNDAMENTAL_MATCH

    def test_harmonic_match(self):
        (d,) = spectral_mask([cand(2.4)], state(1.2, 0.05))
        assert d.accepted and d.reason is MaskReason.HARMONIC_MATCH

    def test_window_reject(self):
        (d,) = spectral_mask([cand(3.0)], state(1.2, 0.05))
        assert not d.accepted and d.reason is MaskReason.WINDOW_REJECT

    def test_band_reject(self):
        (d,) = spectral_mask([cand(7.0)], state(3.5, 0.05))
        assert not d.accepted and d.reason is MaskReason.BAND_REJECT

    def test_band_reject_follows_band(self):
        (d,) = spectral_mask([cand(1.25)], state(1.2, 0.05), band=(1.5, 4.0))
        assert not d.accepted and d.reason is MaskReason.BAND_REJECT

    def test_monotone_in_sigma(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            f_i = rng.uniform(0.5, 5.0)
            f_r = rng.uniform(0.7, 4.0)
            sigma = rng.uniform(0.01, 0.5)
            (small,) = spectral_mask([cand(f_i)], state(f_r, sigma))
            (big,) = spectral_mask([cand(f_i)], state(f_r, 2 * sigma))
            if small.accepted:
                assert big.accepted

    def test_amplitude_invariant(self):
        series = np.sin(np.linspace(0, 10, 300))
        st = state(1.2, 0.05)
        a = spectral_mask([cand(1.25, series=series)], st)
        b = spectral_mask([cand(1.25, series=100 * series)], st)
        assert a == b

    def test_accepted_implies_in_band(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            f_i = rng.uniform(0.0, 8.0)
            st = state(rng.uniform(0.7, 4.0), rng.uniform(0.01, 1.0))
            (d,) = spectral_mask([cand(f_i)], st)
            if d.accepted:
                assert 0.7 <= f_i <= 4.0

    def test_harmonic_pair_both_accepted(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            st = state(rng.uniform(0.8, 1.9), rng.uniform(0.01, 0.1))
            f = rng.uniform(st.f_r - 3 * st.sigma_fr, st.f_r + 3 * st.sigma_fr)
            if not (0.7 <= f <= 4.0 and 0.7 <= 2 * f <= 4.0):
                continue
            decisions = spectral_mask([cand(f), cand(2 * f)], st)
            assert all(d.accepted for d in decisions)


class TestSelectCandidates:
    def test_pure_sine_selects_top_two(self):
        t = np.arange(300) / FS
        x = np.sin(2 * np.pi * 1.2 * t)
        dec = decompose(x, L=100, max_components=10)
        sel = select_candidates(dec, FS, state(1.2, 0.05))
        assert len(sel.accepted) == 2
        assert not sel.fallback_used
        for c in sel.accepted:
            assert abs(c.dominant_freq - 1.2) < 0.05

    def test_drift_band_rejected(self):
        t = np.arange(300) / FS
        x = np.sin(2 * np.pi * 1.2 * t) + 5.0 * np.sin(2 * np.pi * 0.4 * t)
        dec = decompose(x, L=100, max_components=10)
        sel = select_candidates(dec, FS, state(1.2, 0.05))
        # per-component FFT oracle: drift components live near 0.4 Hz
        for c, d in zip(sel.candidates, sel.decisions):
            if abs(c.dominant_freq - 0.4) < 0.1:
                assert not d.accepted
                assert d.reason is MaskReason.BAND_REJECT
        assert any(abs(c.dominant_freq - 0.4) < 0.1 for c in sel.candidates)
        for c in sel.accepted:
            assert abs(c.dominant_freq - 1.2) < 0.05

    def test_candidate_freqs_match_per_component_search(self):
        rng = np.random.default_rng(4)
        t = np.arange(300) / FS
        x = np.sin(2 * np.pi * 1.2 * t) + 0.5 * rng.normal(size=300)
        dec = decompose(x, L=100, max_components=10)
        sel = select_candidates(dec, FS, state(1.2, 0.05))
        expected = [dominant_frequency(c, FS, band=(0.05, FS / 2)) for c in dec.components]
        assert [c.dominant_freq for c in sel.candidates] == expected

    def test_fallback_returns_nearest(self):
        t = np.arange(300) / FS
        x = np.sin(2 * np.pi * 3.9 * t)
        dec = decompose(x, L=100, max_components=10)
        sel = select_candidates(dec, FS, state(1.2, 0.05))
        assert sel.fallback_used
        assert len(sel.accepted) == 1
        assert abs(sel.accepted[0].dominant_freq - 3.9) < 0.05

    @pytest.mark.parametrize("tones", [(1.0, 1.5), (1.5, 1.0)])
    def test_fallback_tie_keeps_the_first_candidate(self, tones):
        # at 32 Hz the 8192-point bins are multiples of 2^-8 Hz, so the
        # distances to the midpoint of two candidates are exactly equal
        fs = 32.0
        t = np.arange(300) / fs
        comps = np.array([np.sin(2 * np.pi * f * t) for f in tones])
        dec = SsaDecomposition(components=comps, singular_values=np.array([2.0, 1.0]),
                               window_length=100, source_length=300)
        first, second = (dominant_frequency(c, fs, band=(0.05, fs / 2)) for c in comps)
        f_r = (first + second) / 2
        assert abs(first - f_r) == abs(second - f_r) > 3 * 0.01
        sel = select_candidates(dec, fs, state(f_r, 0.01))
        assert sel.fallback_used
        assert [c.dominant_freq for c in sel.accepted] == [first]
        assert sel.accepted[0].series is sel.candidates[0].series

    def test_empty_decomposition(self):
        dec = SsaDecomposition(components=np.empty((0, 100)),
                               singular_values=np.empty(0),
                               window_length=30, source_length=100)
        with pytest.raises(NoComponents):
            select_candidates(dec, FS, state(1.2, 0.05))
