import numpy as np
import pytest

from lowlight_rppg import (
    PipelineConfig,
    bandpass,
    candidate_frequencies,
    decompose_rows,
    detrend,
    dominant_frequencies,
    estimate_hr,
    fuse_rows,
    generate,
    overlap_add_rows,
    run_pipeline,
    select_rows,
    snr,
    SynthConfig,
)
from lowlight_rppg.errors import (
    ConfigError,
    NoAcceptedComponents,
    SeriesTooShort,
    WindowSpacingError,
)
from lowlight_rppg import ssa
from lowlight_rppg.selection import reference_sigmas
from lowlight_rppg.ssa import default_window_length

FS = 30.0


def fuse(series, freqs, f_r, sigma):
    """fuse_rows of one window whose candidates all pass the mask."""
    comps = np.array([series], dtype=float)
    return fuse_rows(comps, np.array([freqs]), np.ones(comps.shape[:2], bool),
                     [f_r], [sigma])[0]


def fused_weight_ratio(f_r, sigma, f_b):
    """w(f_b) / w(f_r) as fuse_rows applies it: the fusion of a series
    of zeros at f_r and a series of ones at f_b is w_b / (w_r + w_b)."""
    out = fuse([np.zeros(4), np.ones(4)], [f_r, f_b], f_r, sigma)
    assert np.ptp(out) == 0.0
    return out[0] / (1.0 - out[0])


class TestGaussianWeight:
    """The Gaussian weight of fuse_rows, as ratios to the weight at the
    reference HR (the normalisation removes the density constant)."""

    def test_one_sigma_ratio(self):
        assert abs(fused_weight_ratio(1.2, 0.1, 1.3) - np.exp(-0.5)) < 1e-12

    def test_three_sigma_ratio(self):
        assert abs(fused_weight_ratio(1.0, 0.05, 1.15) - np.exp(-4.5)) < 1e-12
        assert abs(np.exp(-4.5) - 0.011109) < 1e-6


class TestFuseWindow:
    f_r, sigma = 1.2, 0.1

    def test_single_component_identity(self):
        s = np.sin(np.linspace(0, 7, 50))
        out = fuse([s], [2.0], self.f_r, self.sigma)
        assert np.allclose(out, s, atol=1e-15)

    def test_identical_components(self):
        s = np.sin(np.linspace(0, 7, 50))
        out = fuse([s, s], [1.2, 2.4], self.f_r, self.sigma)
        assert np.allclose(out, s, atol=1e-12)

    def test_hand_computed_weight_ratio(self):
        a = np.ones(10)
        b = np.full(10, 3.0)
        # b sits two sigmas off the mean: w_b / w_a = exp(-2)
        out = fuse([a, b], [1.2, 1.4], self.f_r, self.sigma)
        w = np.exp(-2.0)
        expected = (1.0 * 1.0 + w * 3.0) / (1.0 + w)
        assert np.allclose(out, expected, atol=1e-12)

    def test_convex_combination(self):
        rng = np.random.default_rng(0)
        freqs = [rng.uniform(0.8, 3.5) for _ in range(5)]
        stack = rng.normal(size=(5, 40))
        out = fuse(stack, freqs, self.f_r, self.sigma)
        assert np.all(out >= stack.min(axis=0) - 1e-12)
        assert np.all(out <= stack.max(axis=0) + 1e-12)

    def test_far_off_component_does_not_nan(self):
        # with sigma floored at 0.01 Hz, raw densities underflow; the
        # log-space normalization must keep the fusion finite
        out = fuse([np.ones(5), np.full(5, 2.0)], [3.9, 3.8], 1.2, 0.01)
        assert np.all(np.isfinite(out))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sigma_takes_the_nearest_accepted_components(self):
        # at sigma 1e-300 every offset squares to inf: such rows used to be
        # -inf - -inf = NaN.  Now they take the sigma -> 0 limit, the mean
        # of the accepted components nearest f_r: row 0 the two at 1.25
        # (0.75 is as near but not accepted), row 1 a harmonic match alone;
        # row 2, with a component at f_r, keeps its finite exponents
        comps = np.broadcast_to(np.array([1.0, 2.0, 4.0, 8.0])[:, None], (3, 4, 5))
        freqs = np.array([[0.5, 1.25, 0.75, 1.25], [2.0, 0.5, np.inf, np.inf],
                          [1.0, 1.25, np.inf, np.inf]])
        accepted = np.array([[True, True, False, True], [True, False, False, False],
                             [True, True, False, False]])
        out = fuse_rows(comps, freqs, accepted, [1.0] * 3, [1e-300] * 3)
        assert out.tolist() == [[5.0] * 5, [1.0] * 5, [1.0] * 5]

    @pytest.mark.filterwarnings("error")
    def test_tiny_sigma_init_gives_a_finite_pulse(self):
        # extract with --sigma-init 1e-300 used to write the first
        # window's 300 samples as nan and report the band's lower edge
        trace = generate(SynthConfig(duration_s=20.0, noise_rms=(3.0,) * 3, seed=1))
        tiny = run_pipeline(trace, PipelineConfig(sigma_init=1e-300))
        small = run_pipeline(trace, PipelineConfig(sigma_init=1e-150))
        assert np.all(np.isfinite(tiny.samples))
        assert tiny.samples.tobytes() == small.samples.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_huge_sigma_init_gives_no_overflow_warning(self):
        # extract with --sigma-init 1e308 printed numpy's overflow warning
        # from the mask's 3 sigma; an infinite tolerance is the limit of a
        # huge one, so the files are those of 1e300
        trace = generate(SynthConfig(duration_s=20.0, noise_rms=(3.0,) * 3, seed=1))
        huge = run_pipeline(trace, PipelineConfig(sigma_init=1e308))
        large = run_pipeline(trace, PipelineConfig(sigma_init=1e300))
        assert huge.samples.tobytes() == large.samples.tobytes()
        assert [r.n_accepted for r in huge.window_flags] == \
            [r.n_accepted for r in large.window_flags]

    def test_empty_list(self):
        with pytest.raises(NoAcceptedComponents):
            fuse_rows(np.ones((1, 2, 4)), np.array([[1.2, 1.3]]), np.zeros((1, 2), bool),
                      [self.f_r], [self.sigma])


def assemble(rows, hop):
    """overlap_add_rows of time-ordered windows into a fresh buffer."""
    rows = np.asarray(rows, dtype=float)
    out = np.zeros((len(rows) + 1) * hop)
    overlap_add_rows(out, rows, hop)
    return out


class TestOverlapAdd:
    def test_single_window_is_hann_curve(self):
        from scipy.signal.windows import hann
        out = assemble([np.ones(300)], hop=150)
        assert np.max(np.abs(out - hann(300, sym=False))) <= 1e-15

    @pytest.mark.parametrize("win", [2, 600, 1200])
    def test_single_window_is_hann_curve_other_lengths(self, win):
        from scipy.signal.windows import hann
        out = assemble([np.ones(win)], hop=win // 2)
        assert np.max(np.abs(out - hann(win, sym=False))) <= 1e-15

    def test_cola_constant(self):
        out = assemble(np.ones((8, 300)), hop=150)
        interior = out[150:-150]
        assert np.max(np.abs(interior - 1.0)) < 1e-9

    def test_split_reassemble_round_trip(self):
        t = np.arange(1800) / FS
        x = np.sin(2 * np.pi * 1.2 * t)
        win, hop = 300, 150
        out = assemble([x[s:s + win] for s in range(0, len(x) - win + 1, hop)], hop)
        interior = slice(hop, len(out) - hop)
        err = np.linalg.norm(out[interior] - x[interior]) / np.linalg.norm(x[interior])
        assert err < 1e-9

    def test_wrong_window_length(self):
        with pytest.raises(WindowSpacingError):
            assemble([np.ones(299)], hop=150)
        with pytest.raises(WindowSpacingError):
            overlap_add_rows(np.zeros(300), np.ones((2, 300)), 150)


def per_window_pipeline(trace, config):
    """The pipeline one window at a time: per-window preprocessing, a
    per-window ``dominant_frequencies`` and the last entry of
    ``reference_sigmas`` over the reference HRs so far, and one-row
    ``decompose_rows``/``candidate_frequencies``/``select_rows``/
    ``fuse_rows``/``overlap_add_rows`` calls per emitted window, as the
    reference for the 64-row blocks of run_pipeline.  Returns the pulse
    and per-window (f_r, sigma, n_accepted, fallback)."""
    fs = trace.fs
    win = int(round(config.window_s * fs))
    step = int(round(config.step_s * fs))
    hop = win // 2
    L = config.ssa_window or default_window_length(win, fs)
    green = trace.green()
    starts = range(0, len(trace) - win + 1, step)
    pulse = np.zeros((len(starts[::hop // step]) + 1) * hop)
    history, refs = [], []
    for start in starts:
        seg = bandpass(detrend(green[start:start + win], config.lam), fs,
                       config.band[0], config.band[1])
        history.append(dominant_frequencies(seg, fs, config.band))
        ref = [history[-1]], [float(reference_sigmas(history, config.sigma_init)[-1])]
        n_accepted, fallback = 0, False
        if start % hop == 0:
            comps, sv = decompose_rows(seg[None], L, config.sec_chn)
            freqs = candidate_frequencies(comps, sv, fs)
            accepted, fallbacks = select_rows(freqs, *ref, config.band)
            fused = fuse_rows(comps, freqs, accepted, *ref)
            overlap_add_rows(pulse[start:start + win], fused, hop)
            n_accepted, fallback = int(accepted.sum()), bool(fallbacks[0])
        refs.append((ref[0][0], ref[1][0], n_accepted, fallback))
    return pulse, refs


class TestRunPipeline:
    @pytest.mark.parametrize("fs, duration_s, config, noise", [
        pytest.param(30.0, 30.0, PipelineConfig(), 0.8, id="30.0-30.0-config0"),
        pytest.param(60.0, 30.0, PipelineConfig(band=(0.8, 3.5), sigma_init=0.1, sec_chn=6),
                     0.8, id="60.0-30.0-config1"),
        # 71 windows: more than one row block, and a block boundary that
        # falls between two emitted windows
        pytest.param(30.0, 80.0, PipelineConfig(), 0.8, id="30.0-80.0-config2"),
        # without noise the windows keep 20 of 30 triples, so the
        # component stacks have empty slots
        pytest.param(30.0, 30.0, PipelineConfig(sec_chn=30), 0.0, id="noiseless-empty-slots"),
        # sec_chn above L/2 = 50 takes the full-SVD route
        pytest.param(30.0, 30.0, PipelineConfig(sec_chn=60), 0.8, id="full-svd"),
        # 66 emitted windows: more than one row block of emitted windows
        pytest.param(30.0, 335.0, PipelineConfig(), 0.8, id="two-emitted-blocks"),
    ])
    def test_matches_per_window_loop(self, fs, duration_s, config, noise):
        trace = generate(SynthConfig(hr_bpm=84.0, fs=fs, duration_s=duration_s,
                                     drift_amp=2.0, noise_rms=(noise, noise, noise),
                                     seed=13))
        pulse = run_pipeline(trace, config)
        samples, refs = per_window_pipeline(trace, config)
        assert [(r.f_r, r.sigma_fr, r.n_accepted, r.fallback)
                for r in pulse.window_flags] == refs
        assert pulse.samples.shape == samples.shape
        assert (np.max(np.abs(pulse.samples - samples))
                <= 1e-9 * np.max(np.abs(samples)))

    @pytest.mark.parametrize("fs", [30.0, 60.0])
    def test_truncated_svd_keeps_records_of_full_svd(self, fs, monkeypatch):
        trace = generate(SynthConfig(hr_bpm=96.0, fs=fs, duration_s=30.0,
                                     drift_amp=2.0, noise_rms=(1.0, 1.0, 1.0),
                                     seed=21))
        pulse = run_pipeline(trace)

        def full_svd(X, k, gram=None):
            u, s, vt = np.linalg.svd(X, full_matrices=False)
            return u[:, :k], s[:k], vt[:k]

        monkeypatch.setattr(ssa, "_top_svd", full_svd)
        full = run_pipeline(trace)
        assert full.samples.tobytes() != pulse.samples.tobytes()  # the patch is reached
        fields = lambda r: (r.f_r, r.sigma_fr, r.n_accepted, r.fallback, r.emitted)
        assert [fields(r) for r in pulse.window_flags] == \
            [fields(r) for r in full.window_flags]
        assert (np.max(np.abs(pulse.samples - full.samples))
                <= 1e-9 * np.max(np.abs(full.samples)))

    @pytest.mark.parametrize("exponent", [600, -600])
    def test_power_of_two_scale_is_exact(self, exponent):
        # the squares of a trace at 2^600 overflow, and at 2^-600 underflow
        trace = generate(SynthConfig(hr_bpm=72.0, duration_s=60.0,
                                     noise_rms=(0.5, 0.5, 0.5), seed=2))
        pulse = run_pipeline(trace)
        scaled = run_pipeline(type(trace)(samples=np.ldexp(trace.samples, exponent),
                                          fs=trace.fs))
        assert scaled.window_flags == pulse.window_flags
        assert np.array_equal(scaled.samples, np.ldexp(pulse.samples, exponent))

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
        # wrong types: each used to reach run_pipeline, or unpack, unchecked
        ("sec_chn", 2.5), ("sec_chn", True), ("ssa_window", 50.5), ("band", (0.7, 2.0, 4.0)),
        # a float field of the wrong type raised TypeError, and a bool was a number
        ("lam", "100"), ("sigma_init", None), ("band", ("0.7", "4")), ("step_s", "1"),
        ("window_s", True), ("step_s", True), ("sigma_init", True), ("lam", True),
        ("band", (0.5, True)), ("band", (True, 4.0)),
        # non-finite values; an int beyond the float range was a TypeError
        ("lam", float("nan")), ("sigma_init", float("inf")), ("step_s", -float("inf")),
        pytest.param("window_s", 10**400, id="window_s-huge-int"),
        ("band", (0.7, 10**400)),
        # lam^2 underflows, and detrend returned NaN
        ("lam", 1e-300),
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
        with pytest.raises(SeriesTooShort):
            run_pipeline(short)

    def test_step_must_divide_hop(self):
        trace = generate(SynthConfig(hr_bpm=72.0, duration_s=20.0))
        with pytest.raises(ConfigError):
            run_pipeline(trace, PipelineConfig(step_s=1.3))

    @pytest.mark.parametrize("window_s", [0.01, 0.04, 0.07])
    def test_window_under_four_samples_blames_the_window(self, window_s):
        # 0, 1 and 2 samples at 30 Hz: 0 and 2 passed the odd-window check
        # and then failed on the SSA window, a setting left unset
        trace = generate(SynthConfig(hr_bpm=72.0, duration_s=20.0))
        with pytest.raises(ConfigError, match=f"window_s={window_s} ") as err:
            run_pipeline(trace, PipelineConfig(window_s=window_s))
        assert "SSA" not in str(err.value)
