import numpy as np
import pytest

from lowlight_rppg import (
    CandidateComponent,
    PipelineConfig,
    ReferenceHrState,
    bandpass,
    decompose,
    detrend,
    dominant_frequency,
    estimate_hr,
    fuse_window,
    generate,
    overlap_add,
    run_pipeline,
    select_candidates,
    snr,
    SynthConfig,
)
from lowlight_rppg.errors import (
    ConfigError,
    NoAcceptedComponents,
    TraceTooShort,
    WindowSpacingError,
)
from lowlight_rppg import ssa
from lowlight_rppg.selection import reference_sigmas
from lowlight_rppg.ssa import default_window_length

FS = 30.0


def cand(f, series):
    return CandidateComponent(series=np.asarray(series, dtype=float),
                              dominant_freq=f, singular_value=1.0)


def fused_weight_ratio(f_r, sigma, f_b):
    """w(f_b) / w(f_r) as fuse_window applies it: the fusion of a series
    of zeros at f_r and a series of ones at f_b is w_b / (w_r + w_b)."""
    out = fuse_window([cand(f_r, np.zeros(4)), cand(f_b, np.ones(4))],
                      ReferenceHrState(f_r=f_r, sigma_fr=sigma))
    assert np.ptp(out) == 0.0
    return out[0] / (1.0 - out[0])


class TestGaussianWeight:
    """The Gaussian weight of fuse_window, as ratios to the weight at the
    reference HR (the normalisation removes the density constant)."""

    def test_one_sigma_ratio(self):
        assert abs(fused_weight_ratio(1.2, 0.1, 1.3) - np.exp(-0.5)) < 1e-12

    def test_three_sigma_ratio(self):
        assert abs(fused_weight_ratio(1.0, 0.05, 1.15) - np.exp(-4.5)) < 1e-12
        assert abs(np.exp(-4.5) - 0.011109) < 1e-6


class TestFuseWindow:
    state = ReferenceHrState(f_r=1.2, sigma_fr=0.1)

    def test_single_component_identity(self):
        s = np.sin(np.linspace(0, 7, 50))
        out = fuse_window([cand(2.0, s)], self.state)
        assert np.allclose(out, s, atol=1e-15)

    def test_identical_components(self):
        s = np.sin(np.linspace(0, 7, 50))
        out = fuse_window([cand(1.2, s), cand(2.4, s)], self.state)
        assert np.allclose(out, s, atol=1e-12)

    def test_hand_computed_weight_ratio(self):
        a = np.ones(10)
        b = np.full(10, 3.0)
        # b sits two sigmas off the mean: w_b / w_a = exp(-2)
        out = fuse_window([cand(1.2, a), cand(1.4, b)], self.state)
        w = np.exp(-2.0)
        expected = (1.0 * 1.0 + w * 3.0) / (1.0 + w)
        assert np.allclose(out, expected, atol=1e-12)

    def test_convex_combination(self):
        rng = np.random.default_rng(0)
        comps = [cand(rng.uniform(0.8, 3.5), rng.normal(size=40)) for _ in range(5)]
        out = fuse_window(comps, self.state)
        stack = np.vstack([c.series for c in comps])
        assert np.all(out >= stack.min(axis=0) - 1e-12)
        assert np.all(out <= stack.max(axis=0) + 1e-12)

    def test_far_off_component_does_not_nan(self):
        # with sigma floored at 0.01 Hz, raw densities underflow; the
        # log-space normalization must keep the fusion finite
        st = ReferenceHrState(f_r=1.2, sigma_fr=0.01)
        out = fuse_window([cand(3.9, np.ones(5)), cand(3.8, np.full(5, 2.0))], st)
        assert np.all(np.isfinite(out))

    def test_empty_list(self):
        with pytest.raises(NoAcceptedComponents):
            fuse_window([], self.state)


class TestOverlapAdd:
    def test_single_window_is_hann_curve(self):
        from scipy.signal.windows import hann
        out = overlap_add([(0, np.ones(300))], window_len=300)
        assert np.max(np.abs(out - hann(300, sym=False))) <= 1e-15

    @pytest.mark.parametrize("win", [2, 600, 1200])
    def test_single_window_is_hann_curve_other_lengths(self, win):
        from scipy.signal.windows import hann
        out = overlap_add([(0, np.ones(win))], window_len=win)
        assert np.max(np.abs(out - hann(win, sym=False))) <= 1e-15

    def test_cola_constant(self):
        windows = [(k * 150, np.ones(300)) for k in range(8)]
        out = overlap_add(windows, window_len=300)
        interior = out[150:-150]
        assert np.max(np.abs(interior - 1.0)) < 1e-9

    def test_split_reassemble_round_trip(self):
        t = np.arange(1800) / FS
        x = np.sin(2 * np.pi * 1.2 * t)
        win, hop = 300, 150
        windows = [(s, x[s:s + win]) for s in range(0, len(x) - win + 1, hop)]
        out = overlap_add(windows, window_len=win)
        interior = slice(hop, len(out) - hop)
        err = np.linalg.norm(out[interior] - x[interior]) / np.linalg.norm(x[interior])
        assert err < 1e-9

    def test_inconsistent_spacing(self):
        with pytest.raises(WindowSpacingError):
            overlap_add([(0, np.ones(300)), (100, np.ones(300))], window_len=300)

    def test_wrong_window_length(self):
        with pytest.raises(WindowSpacingError):
            overlap_add([(0, np.ones(299))], window_len=300)


def per_window_pipeline(trace, config):
    """The pipeline one window at a time: per-window preprocessing, a
    per-window ``dominant_frequency`` and the last entry of
    ``reference_sigmas`` over the reference HRs so far, as the reference
    for the batched stages of run_pipeline.  Returns the pulse and
    per-window (f_r, sigma)."""
    fs = trace.fs
    win = int(round(config.window_s * fs))
    step = int(round(config.step_s * fs))
    hop = win // 2
    L = config.ssa_window or default_window_length(win, fs)
    green = trace.green()
    history, emitted, refs = [], [], []
    for start in range(0, len(trace) - win + 1, step):
        seg = bandpass(detrend(green[start:start + win], config.lam), fs,
                       config.band[0], config.band[1])
        history.append(dominant_frequency(seg, fs, config.band))
        state = ReferenceHrState(
            f_r=history[-1],
            sigma_fr=float(reference_sigmas(history, config.sigma_init)[-1]))
        refs.append((state.f_r, state.sigma_fr))
        if start % hop == 0:
            dec = decompose(seg, L, max_components=config.sec_chn)
            sel = select_candidates(dec, fs, state, config.sec_chn, config.band)
            emitted.append((start, fuse_window(sel.accepted, state)))
    return overlap_add(emitted, win, hop), refs


class TestRunPipeline:
    @pytest.mark.parametrize("fs, duration_s, config", [
        (30.0, 30.0, PipelineConfig()),
        (60.0, 30.0, PipelineConfig(band=(0.8, 3.5), sigma_init=0.1, sec_chn=6)),
        # 71 windows: more than one row block, and a block boundary that
        # falls between two emitted windows
        (30.0, 80.0, PipelineConfig()),
    ])
    def test_matches_per_window_loop(self, fs, duration_s, config):
        trace = generate(SynthConfig(hr_bpm=84.0, fs=fs, duration_s=duration_s,
                                     drift_amp=2.0, noise_rms=(0.8, 0.8, 0.8),
                                     seed=13))
        pulse = run_pipeline(trace, config)
        samples, refs = per_window_pipeline(trace, config)
        assert [(r.f_r, r.sigma_fr) for r in pulse.window_flags] == refs
        assert pulse.samples.shape == samples.shape
        assert (np.max(np.abs(pulse.samples - samples))
                <= 1e-9 * np.max(np.abs(samples)))

    @pytest.mark.parametrize("fs", [30.0, 60.0])
    def test_truncated_svd_keeps_records_of_full_svd(self, fs, monkeypatch):
        trace = generate(SynthConfig(hr_bpm=96.0, fs=fs, duration_s=30.0,
                                     drift_amp=2.0, noise_rms=(1.0, 1.0, 1.0),
                                     seed=21))
        pulse = run_pipeline(trace)
        full_svd = ssa.svd_components
        monkeypatch.setattr(ssa, "svd_components", lambda X, k=None: full_svd(X))
        full = run_pipeline(trace)
        fields = lambda r: (r.f_r, r.sigma_fr, r.n_accepted, r.fallback, r.emitted)
        assert [fields(r) for r in pulse.window_flags] == \
            [fields(r) for r in full.window_flags]
        assert (np.max(np.abs(pulse.samples - full.samples))
                <= 1e-9 * np.max(np.abs(full.samples)))

    def test_sigma_init_seeds_the_first_window(self):
        trace = generate(SynthConfig(hr_bpm=72.0, duration_s=30.0,
                                     noise_rms=(0.5, 0.5, 0.5), seed=3))
        pulse = run_pipeline(trace, PipelineConfig(sigma_init=0.5))
        assert pulse.window_flags[0].sigma_fr == 0.5
        assert run_pipeline(trace).window_flags[0].sigma_fr == 0.05

    def test_band_reaches_reference_tracking(self):
        # a band that excludes the 1.2 Hz HR must move the reference HR
        trace = generate(SynthConfig(hr_bpm=72.0, duration_s=30.0,
                                     harmonic_ratio=0.0))
        default = run_pipeline(trace)
        assert all(abs(r.f_r - 1.2) < 0.05 for r in default.window_flags)
        moved = run_pipeline(trace, PipelineConfig(band=(1.5, 4.0)))
        assert all(1.5 <= r.f_r <= 4.0 for r in moved.window_flags)

    @pytest.mark.parametrize("field, value", [
        ("sec_chn", 0), ("sigma_init", 0.0), ("lam", -1.0), ("window_s", 0.0),
        ("band", (4.0, 0.7)), ("band", (0.7, float("inf"))), ("lam", 1e8),
    ])
    def test_config_rejects_out_of_range_values(self, field, value):
        with pytest.raises(ConfigError):
            PipelineConfig(**{field: value})

    def test_clean_sine_recovers_hr(self):
        trace = generate(SynthConfig(hr_bpm=72.0, duration_s=60.0,
                                     noise_rms=(0.0, 0.0, 0.0)))
        pulse = run_pipeline(trace)
        assert abs(estimate_hr(pulse).bpm - 72.0) <= 1.0
        assert len(pulse.window_flags) > 0

    def test_noisy_sine_recovers_hr_and_improves_snr(self):
        # noise RMS equal to the green pulse RMS
        amp = 1.0
        trace = generate(SynthConfig(
            hr_bpm=72.0, duration_s=60.0, pulse_amp=(0.3, amp, 0.2),
            harmonic_ratio=0.0, noise_rms=3 * (amp / np.sqrt(2),), seed=11))
        pulse = run_pipeline(trace)
        assert abs(estimate_hr(pulse).bpm - 72.0) <= 2.0
        gain = snr(pulse.samples, FS, 72.0) - snr(trace.green(), FS, 72.0)
        assert gain >= 3.0

    def test_all_noise_completes(self):
        trace = generate(SynthConfig(hr_bpm=72.0, duration_s=60.0,
                                     pulse_amp=(0.0, 0.0, 0.0),
                                     noise_rms=(1.0, 1.0, 1.0), seed=5))
        pulse = run_pipeline(trace)
        assert np.all(np.isfinite(pulse.samples))
        assert len(pulse.window_flags) == 51
        # flags carry the fallback/acceptance bookkeeping per window
        assert all(rec.f_r > 0 for rec in pulse.window_flags)
        emitted = [rec for rec in pulse.window_flags if rec.emitted]
        assert all(rec.n_accepted >= 1 for rec in emitted)

    def test_amplitude_equivariance(self):
        trace = generate(SynthConfig(hr_bpm=66.0, duration_s=40.0,
                                     noise_rms=(0.3, 0.3, 0.3), seed=7))
        pulse = run_pipeline(trace)
        for alpha in (0.1, 10.0):
            scaled = type(trace)(samples=trace.samples * alpha, fs=trace.fs)
            pulse_a = run_pipeline(scaled)
            rel = (np.linalg.norm(pulse_a.samples - alpha * pulse.samples)
                   / np.linalg.norm(alpha * pulse.samples))
            assert rel < 1e-6
            assert estimate_hr(pulse_a).bpm == estimate_hr(pulse).bpm

    def test_trace_too_short(self):
        trace = generate(SynthConfig(hr_bpm=72.0, duration_s=10.0))
        short = type(trace)(samples=trace.samples[:200], fs=trace.fs)
        with pytest.raises(TraceTooShort):
            run_pipeline(short)

    def test_step_must_divide_hop(self):
        trace = generate(SynthConfig(hr_bpm=72.0, duration_s=20.0))
        with pytest.raises(ConfigError):
            run_pipeline(trace, PipelineConfig(step_s=1.3))
