import numpy as np
import pytest

from lowlight_rppg import (
    SynthConfig,
    estimate_hr_series,
    generate,
    green_baseline_signal,
    run_pipeline,
    sliding_hr,
    spectral_peak,
)
from lowlight_rppg.errors import ConfigError, SeriesTooShort, ZeroSignal

FS = 30.0


def test_single_tone():
    t = np.arange(1800) / FS
    est = estimate_hr_series(np.sin(2 * np.pi * 1.2 * t), FS)
    assert abs(est.bpm - 72.0) <= 0.2
    assert est.bpm == 60.0 * est.peak_freq


def test_fundamental_dominates_harmonic():
    t = np.arange(1800) / FS
    x = np.sin(2 * np.pi * 1.0 * t) + 0.5 * np.sin(2 * np.pi * 2.0 * t)
    assert abs(estimate_hr_series(x, FS).bpm - 60.0) <= 0.2


def test_chirp_matches_dense_dft_oracle():
    t = np.arange(1800) / FS
    f0, f1 = 1.0, 1.4
    phase = 2 * np.pi * (f0 * t + (f1 - f0) * t**2 / (2 * t[-1]))
    x = np.sin(phase)
    est = estimate_hr_series(x, FS)
    assert 60.0 <= est.bpm <= 84.0
    xn = (x - x.mean()) / x.std()
    grid = np.arange(0.7, 4.0, 0.0005)
    mags = np.abs(np.exp(-2j * np.pi * np.outer(grid, t)) @ xn)
    oracle = 60.0 * grid[int(np.argmax(mags))]
    bin_bpm = 60.0 * FS / 2**14
    assert abs(est.bpm - oracle) <= bin_bpm + 60.0 * 0.0005


def test_amplitude_invariance():
    rng = np.random.default_rng(0)
    x = rng.normal(size=900) + np.sin(2 * np.pi * 1.3 * np.arange(900) / FS)
    assert estimate_hr_series(x, FS).bpm == estimate_hr_series(7.5 * x, FS).bpm


def test_output_within_band():
    rng = np.random.default_rng(1)
    for seed in range(10):
        x = np.random.default_rng(seed).normal(size=600)
        bpm = estimate_hr_series(x, FS).bpm
        assert 42.0 <= bpm <= 240.0


def test_padding_refinement():
    # doubling the padding moves the estimate by less than one
    # pre-padding bin width
    t = np.arange(900) / FS
    x = np.sin(2 * np.pi * 1.23 * t)
    est = estimate_hr_series(x, FS)
    n2 = 2**15
    power = np.abs(np.fft.rfft((x - x.mean()) / x.std(), n=n2))**2
    freqs = np.fft.rfftfreq(n2, d=1.0 / FS)
    mask = (freqs >= 0.7) & (freqs <= 4.0)
    refined = 60.0 * freqs[mask][np.argmax(power[mask])]
    assert abs(est.bpm - refined) < 60.0 * FS / 2**14


def test_zero_signal():
    with pytest.raises(ZeroSignal):
        estimate_hr_series(np.full(600, 3.0), FS)


def test_too_short():
    with pytest.raises(SeriesTooShort):
        estimate_hr_series(np.sin(np.arange(100)), FS)


def test_sliding_hr_tracks_tone():
    t = np.arange(1800) / FS
    windows = sliding_hr(np.sin(2 * np.pi * 1.2 * t), FS)
    assert len(windows) == 51
    assert windows[0][0] == 5.0
    for _, bpm in windows:
        assert abs(bpm - 72.0) <= 0.5


def test_spectral_peak_rows_match_single_series():
    rng = np.random.default_rng(3)
    t = np.arange(300) / FS
    f0 = rng.uniform(0.8, 3.5, size=40)
    x = np.sin(2 * np.pi * f0[:, None] * t) + 0.3 * rng.normal(size=(40, 300))
    peaks = spectral_peak(x, FS, (0.7, 4.0), 8192)
    assert peaks.shape == (40,)
    assert [float(spectral_peak(row, FS, (0.7, 4.0), 8192)) for row in x] == peaks.tolist()
    assert np.all(np.abs(peaks - f0) <= 0.05)


def per_window_sliding_hr(x, fs, win_s=10.0, step_s=1.0):
    """sliding_hr one window at a time, as the reference for its batching."""
    win, step = int(round(win_s * fs)), int(round(step_s * fs))
    return [(start / fs + win_s / 2.0,
             estimate_hr_series(x[start:start + win], fs, min_duration_s=win_s).bpm)
            for start in range(0, x.size - win + 1, step)]


@pytest.mark.parametrize("signal", ["green-baseline", "pipeline-pulse"])
def test_sliding_hr_equals_per_window_loop(signal):
    # 80 s: 71 windows, more than one row block of the window stack
    trace = generate(SynthConfig(hr_bpm=84.0, duration_s=80.0, drift_amp=2.0,
                                 noise_rms=(1.0, 1.0, 1.0), seed=4))
    if signal == "green-baseline":
        x = green_baseline_signal(trace)
    else:
        x = run_pipeline(trace).samples
    windows = sliding_hr(x, FS)
    assert len(windows) == 71
    assert windows == per_window_sliding_hr(x, FS)


def test_sliding_hr_errors():
    t = np.arange(600) / FS
    with pytest.raises(SeriesTooShort):
        sliding_hr(np.sin(t), FS, win_s=30.0)
    with pytest.raises(ConfigError):
        sliding_hr(np.sin(t), FS, step_s=0.01)
    x = np.sin(t)
    x[300:] = 1.0  # the last windows are constant
    with pytest.raises(ZeroSignal):
        sliding_hr(x, FS)


def test_band_below_default_reaches_hr():
    # a 0.6 Hz (36 bpm) tone lies outside the default [0.7, 4] Hz band
    t = np.arange(1800) / FS
    x = np.sin(2 * np.pi * 0.6 * t)
    assert estimate_hr_series(x, FS).bpm >= 42.0
    assert abs(estimate_hr_series(x, FS, band=(0.5, 4.0)).bpm - 36.0) <= 0.2
    for _, bpm in sliding_hr(x, FS, band=(0.5, 4.0)):
        assert abs(bpm - 36.0) <= 0.5
