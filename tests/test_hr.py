import sys
import threading
import tracemalloc

import numpy as np
import pytest

from lowlight_rppg import (
    SynthConfig,
    candidate_frequencies,
    decompose_rows,
    dominant_frequencies,
    estimate_hr_series,
    generate,
    green_baseline_signal,
    hr,
    run_pipeline,
    select_rows,
    sliding_hr,
    spectrogram,
)
from lowlight_rppg.errors import ConfigError, NonFiniteInput, SeriesTooShort, ZeroSignal

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
    # the squares of x overflow at 1e155 and underflow at 1e-200
    for scale in (7.5, 1e155, 1e-200):
        assert estimate_hr_series(x, FS).bpm == estimate_hr_series(scale * x, FS).bpm
        assert sliding_hr(x, FS) == sliding_hr(scale * x, FS)


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


@pytest.mark.parametrize("value", [0.1, 100.3])
@pytest.mark.parametrize("search", [
    lambda x: dominant_frequencies(x, FS, (0.7, 4.0)),
    lambda x: estimate_hr_series(x, FS),
    lambda x: sliding_hr(x, FS),
], ids=["dominant_frequencies", "estimate_hr_series", "sliding_hr"])
def test_constant_with_inexact_mean_is_zero_signal(search, value):
    # the mean of 300 copies of 0.1 is not 0.1 in floating point: the
    # mean-removed residue used to pass as a signal and give a peak
    x = np.full(300, value)
    assert x.mean() != value
    with pytest.raises(ZeroSignal):
        search(x)


@pytest.mark.parametrize("route", ["cosine", "fft"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_row_raises(bad, route, monkeypatch):
    # a NaN spectrum's argmax is bin 0: a NaN row used to give the band's
    # lower edge (0.703125 Hz), and a 72 bpm tone with one NaN 42.08 bpm
    if route == "fft":
        monkeypatch.setattr(hr, "_MAX_TABLE_ENTRIES", 0)
    with pytest.raises(NonFiniteInput):
        dominant_frequencies(np.full((1, 300), bad), FS, (0.7, 4.0))
    tone = np.sin(2 * np.pi * 1.2 * np.arange(600) / FS)
    stack = np.stack([tone[:300], tone[300:]])
    stack[1, 17] = bad
    with pytest.raises(NonFiniteInput):
        dominant_frequencies(stack, FS, (0.7, 4.0))
    tone[17] = bad
    with pytest.raises(NonFiniteInput):
        estimate_hr_series(tone, FS)


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
    # row counts on both sides of dominant_frequencies' blocks: 3 rows on
    # the FFT route at 8192 points, and 31 (30 Hz) or 15 (60 Hz) rows of
    # autocorrelation on the cosine route
    assert (hr._spectrum_rows(8192), hr._spectrum_rows(1024), hr._spectrum_rows(2048)) == (3, 31, 15)
    for fs in (30.0, 60.0):
        T = int(10 * fs)
        t = np.arange(T) / fs
        freqs = np.fft.rfftfreq(8192, d=1.0 / fs)
        for n_rows in (1, 2, 3, 4, 7, 15, 16, 31, 32, 110):
            rng = np.random.default_rng(n_rows)
            f0 = rng.uniform(0.8, 3.5, size=n_rows)
            x = np.sin(2 * np.pi * f0[:, None] * t) + 0.3 * rng.normal(size=(n_rows, T))
            # the pulse band takes the cosine route; the full band, as
            # candidate scoring searches it, takes the FFT route
            for band, fft_route in [((0.7, 4.0), False), ((0.05, fs / 2), True)]:
                m = np.count_nonzero((freqs >= band[0]) & (freqs <= band[1]))
                assert (T * m > hr._MAX_TABLE_ENTRIES) == fft_route
                peaks = dominant_frequencies(x, fs, band, 8192)
                assert peaks.shape == (n_rows,)
                rows = [float(dominant_frequencies(row, fs, band, 8192)) for row in x]
                assert rows == peaks.tolist(), (fs, n_rows, band)
                assert np.all(np.abs(peaks - f0) <= 0.05), (fs, n_rows, band)


# The traced peak above the input, in KB.  numpy reports its buffers to
# tracemalloc; in blocks of 16 rows the two searches read 2374 and 3924 KB.
@pytest.mark.parametrize("fs, shape, band, bound_kb", [
    (30.0, (110, 300), (0.05, 15.0), 1024),  # candidate scoring, FFT route
    (60.0, (64, 600), (0.7, 4.0), 2048),     # reference search, cosine route
], ids=["full-band-30hz", "pulse-band-60hz"])
def test_transient_spectra_stay_bounded(fs, shape, band, bound_kb):
    x = np.random.default_rng(0).normal(size=shape)
    dominant_frequencies(x, fs, band)  # builds the cached cosine table
    tracemalloc.start()
    try:
        dominant_frequencies(x, fs, band)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_kb * 1024


def per_window_sliding_hr(x, fs, win_s=10.0, step_s=1.0):
    """sliding_hr one window at a time, as the reference for its batching."""
    win, step = int(round(win_s * fs)), int(round(step_s * fs))
    return [((start + win / 2) / fs,
             estimate_hr_series(x[start:start + win], fs, min_duration_s=win / fs).bpm)
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


@pytest.mark.parametrize("fs", [30.04, 25.02])
def test_sliding_hr_at_rate_whose_window_rounds_down(fs):
    # round(10 fs) < 10 fs: a window is round(win_s * fs) samples
    t = np.arange(int(60.0 * fs)) / fs
    windows = sliding_hr(np.sin(2 * np.pi * 1.2 * t), fs)
    assert len(windows) == 51
    for _, bpm in windows:
        assert abs(bpm - 72.0) <= 0.5


@pytest.mark.parametrize("fs, win_s", [(29.97, 10.0), (30.0, 10.01)])
def test_sliding_hr_times_are_centres_of_searched_samples(fs, win_s):
    # 300-sample windows every 30 samples, centred at (30 i + 150) / fs
    # as spectrogram's slices are
    x = np.sin(2 * np.pi * 1.2 * np.arange(int(60 * fs)) / fs)
    times = [t for t, _ in sliding_hr(x, fs, win_s=win_s)]
    assert times == spectrogram(x, fs, win_s=win_s)[0].tolist()
    assert times[:2] == [150 / fs, 180 / fs]


# (fs, T, nfft) of the searches that take the cosine route: the 30 Hz and
# 60 Hz reference searches and sliding_hr at 30 Hz.
COSINE_SHAPES = [(30.0, 300, 8192), (60.0, 600, 8192), (30.0, 300, 16384)]
BAND = (0.7, 4.0)


def search_stacks(fs, T, seed=0):
    """A noisy-tone stack and a random-walk stack of 64 rows each."""
    rng = np.random.default_rng(seed)
    t = np.arange(T) / fs
    f0 = rng.uniform(0.8, 3.8, size=64)
    tones = np.sin(2 * np.pi * f0[:, None] * t + rng.uniform(0, 6.3, size=(64, 1)))
    tones += rng.normal(scale=1.5, size=(64, T))
    walks = np.cumsum(rng.normal(size=(64, T)), axis=1)
    return [tones, walks - walks.mean(axis=1, keepdims=True)]


def band_bins(fs, nfft):
    freqs = np.fft.rfftfreq(nfft, d=1.0 / fs)
    bins = np.flatnonzero((freqs >= BAND[0]) & (freqs <= BAND[1]))
    return int(bins[0]), bins.size


@pytest.mark.parametrize("fs, T, nfft", COSINE_SHAPES)
def test_cosine_route_matches_fft_route(fs, T, nfft, monkeypatch):
    hr._cosine_table.cache_clear()
    stacks = search_stacks(fs, T)
    cosine = [dominant_frequencies(x, fs, BAND, nfft) for x in stacks]
    assert hr._cosine_table.cache_info().currsize == 1
    monkeypatch.setattr(hr, "_MAX_TABLE_ENTRIES", 0)
    fft = [dominant_frequencies(x, fs, BAND, nfft) for x in stacks]
    for a, b in zip(cosine, fft):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("fs, T, nfft", COSINE_SHAPES)
def test_cosine_power_is_zero_padded_power(fs, T, nfft):
    k0, m = band_bins(fs, nfft)
    for x in search_stacks(fs, T, seed=1):
        # max |x| = 0.75 per row, a scale as dominant_frequencies leaves rows
        x = 0.75 * x / np.max(np.abs(x), axis=1, keepdims=True)
        power = np.abs(np.fft.rfft(x, n=nfft, axis=1))**2
        cosine = hr._autocorrelation(x) @ hr._cosine_table(T, nfft, k0, m)
        err = np.max(np.abs(cosine - power[:, k0:k0 + m]), axis=1)
        assert np.all(err <= 1e-12 * power.max(axis=1))


@pytest.mark.parametrize("cap", [hr._MAX_TABLE_ENTRIES, 0], ids=["cosine", "fft"])
@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_extreme_scale_keeps_peak(cap, scale, monkeypatch):
    monkeypatch.setattr(hr, "_MAX_TABLE_ENTRIES", cap)
    x = np.sin(2 * np.pi * 1.3 * np.arange(300) / FS)
    unscaled = float(dominant_frequencies(x, FS, BAND, 8192))
    assert abs(unscaled - 1.3) <= FS / 8192
    assert float(dominant_frequencies(scale * x, FS, BAND, 8192)) == unscaled


@pytest.mark.parametrize("cap", [hr._MAX_TABLE_ENTRIES, 0], ids=["cosine", "fft"])
@pytest.mark.parametrize("scale", [1e308, 1e-320])
def test_dominant_frequencies_extreme_scale_keeps_peak(cap, scale, monkeypatch):
    # at 1e308 the row mean used to overflow, and the peak fell on the band
    # edge; 1e-320 is subnormal
    monkeypatch.setattr(hr, "_MAX_TABLE_ENTRIES", cap)
    x = np.sin(2 * np.pi * 1.2 * np.arange(300) / FS)
    for band in [BAND, (0.05, FS / 2)]:
        unscaled = float(dominant_frequencies(x, FS, band))
        assert abs(unscaled - 1.2) <= FS / 8192
        assert float(dominant_frequencies(scale * x, FS, band)) == unscaled


def test_large_searches_take_fft_route(monkeypatch):
    def no_table(*args):
        raise AssertionError("cosine table built for a large search")

    monkeypatch.setattr(hr, "_cosine_table", no_table)
    for fs, T in [(30.0, 300), (60.0, 600)]:
        t = np.arange(T) / fs
        x = np.sin(2 * np.pi * 1.2 * t) + 0.5 * np.sin(2 * np.pi * 0.3 * t)
        comps, sv = decompose_rows(x[None], L=T // 3, k=10)
        freqs = candidate_frequencies(comps, sv, fs)
        accepted, _ = select_rows(freqs, [1.2], [0.05], BAND)
        assert np.any(np.abs(freqs[accepted] - 1.2) < 0.05)
    t = np.arange(1800) / FS
    assert abs(estimate_hr_series(np.sin(2 * np.pi * 1.2 * t), FS).bpm - 72.0) <= 0.2


def test_cosine_table_cache_is_bounded_and_read_only():
    hr._cosine_table.cache_clear()
    for k0 in range(6):
        table = hr._cosine_table(8, 64, k0, 3)
    assert hr._cosine_table.cache_info().currsize == 4
    with pytest.raises(ValueError):
        table[1, 1] = 0.0
    tau, k = np.arange(8)[:, None], np.arange(5, 8)
    expected = np.where(tau == 0, 1.0, 2.0) * np.cos(2 * np.pi * (tau * k % 64) / 64)
    assert np.array_equal(table, expected)


def test_shared_table_cache_under_threads():
    t = np.arange(1800) / FS
    rng = np.random.default_rng(7)
    signals = [np.sin(2 * np.pi * f * t) + rng.normal(scale=0.5, size=t.size)
               for f in (1.0, 1.3, 1.7, 2.2)]
    results = [None] * len(signals)

    def work(i):
        results[i] = sliding_hr(signals[i], FS)

    hr._cosine_table.cache_clear()
    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(signals))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [sliding_hr(x, FS) for x in signals]
