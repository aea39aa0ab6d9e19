import warnings

import numpy as np
import pytest
from scipy.signal import butter, sosfreqz

from lowlight_rppg import bandpass, detrend
from lowlight_rppg.errors import NonFiniteInput, NyquistViolation, SeriesTooShort


def dense_detrend_oracle(x, lam):
    """Explicit dense solve of (I - (I + lam^2 D2'D2)^-1) x."""
    n = len(x)
    d2 = np.zeros((n - 2, n))
    for i in range(n - 2):
        d2[i, i:i + 3] = [1.0, -2.0, 1.0]
    a = np.eye(n) + lam**2 * (d2.T @ d2)
    return x - np.linalg.solve(a, x)


class TestDetrend:
    def test_constant_maps_to_zero(self):
        out = detrend(np.full(100, 5.0), 100.0)
        assert np.max(np.abs(out)) < 1e-9

    def test_linear_ramp_maps_to_zero(self):
        # a line is in the null space of the second-difference operator
        x = np.arange(100, dtype=float)
        out = detrend(x, 100.0)
        assert np.max(np.abs(out)) <= 1e-6 * np.max(np.abs(x))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=300)
        assert np.allclose(detrend(x, 100.0), dense_detrend_oracle(x, 100.0),
                           atol=1e-8)

    def test_ramp_plus_sine_keeps_sine(self):
        fs = 30.0
        t = np.arange(300) / fs
        sine = np.sin(2 * np.pi * 1.5 * t)
        x = 0.5 * t + sine
        out = detrend(x, 100.0)
        assert np.allclose(out, dense_detrend_oracle(x, 100.0), atol=1e-8)
        r = np.corrcoef(out, sine)[0, 1]
        assert r > 0.99

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(2, 200))
        lhs = detrend(2.5 * x - 1.5 * y, 100.0)
        rhs = 2.5 * detrend(x, 100.0) - 1.5 * detrend(y, 100.0)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_pulse_band_sine_mostly_preserved(self):
        # The interior gain of the smoother at frequency f is
        # g = lam^2 (2-2cos w)^2 / (1 + lam^2 (2-2cos w)^2); at 0.7 Hz
        # (fs=30, lam=100) g is only 0.82, so 95% preservation starts
        # around 1.0 Hz. Asserted at 1.1 Hz.
        fs = 30.0
        t = np.arange(600) / fs
        x = np.sin(2 * np.pi * 1.1 * t)
        out = detrend(x, 100.0)
        assert np.sqrt(np.mean(out**2)) >= 0.95 * np.sqrt(np.mean(x**2))

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            detrend([1.0, 2.0], 100.0)

    def test_non_finite(self):
        with pytest.raises(NonFiniteInput):
            detrend([1.0, np.nan, 2.0, 3.0], 100.0)


class TestBandpass:
    fs = 30.0

    def test_midband_passthrough(self):
        t = np.arange(600) / self.fs
        x = np.sin(2 * np.pi * 1.5 * t)
        y = bandpass(x, self.fs)
        mid = slice(150, 450)
        amp = (y[mid].max() - y[mid].min()) / 2
        assert abs(amp - 1.0) < 0.05
        # zero-phase: peak cross-correlation at lag 0
        lags = range(-5, 6)
        corr = [np.dot(y[mid], np.roll(x, k)[mid]) for k in lags]
        assert list(lags)[int(np.argmax(corr))] == 0

    def test_stopband_low_frequency(self):
        t = np.arange(600) / self.fs
        x = np.sin(2 * np.pi * 0.1 * t)
        y = bandpass(x, self.fs)
        assert np.sqrt(np.mean(y**2)) < 0.05 * np.sqrt(np.mean(x**2))

    def test_white_noise_out_of_band_power(self):
        # analytic oracle: for flat input PSD the expected out-of-band
        # fraction is the integral of the zero-phase power response |H|^4
        # outside the passband over its integral everywhere
        sos = butter(3, [0.7, 4.0], btype="bandpass", output="sos",
                     fs=self.fs)
        w, h = sosfreqz(sos, worN=200000, fs=self.fs)
        p = np.abs(h) ** 4
        oob = (w < 0.7) | (w > 4.0)
        expected = p[oob].sum() / p.sum()

        rng = np.random.default_rng(2)
        x = rng.normal(size=3000)
        y = bandpass(x, self.fs)
        power = np.abs(np.fft.rfft(y))**2
        freqs = np.fft.rfftfreq(y.size, d=1.0 / self.fs)
        measured = power[(freqs < 0.7) | (freqs > 4.0)].sum() / power.sum()
        assert measured < 2.0 * expected
        assert measured < 0.08

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(2, 600))
        lhs = bandpass(3.0 * x + 2.0 * y, self.fs)
        rhs = 3.0 * bandpass(x, self.fs) + 2.0 * bandpass(y, self.fs)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_double_application_squares_response(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=6000)
        once = bandpass(x, self.fs)
        twice = bandpass(once, self.fs)
        p1 = np.abs(np.fft.rfft(once))**2
        p2 = np.abs(np.fft.rfft(twice))**2
        freqs = np.fft.rfftfreq(x.size, d=1.0 / self.fs)
        mid = (freqs > 1.2) & (freqs < 2.5)
        # mid-band |H|^2 ~ 1, so power should be nearly unchanged there
        ratio = p2[mid].sum() / p1[mid].sum()
        assert abs(ratio - 1.0) < 0.10

    def test_edge_attenuation_at_least_40db(self):
        sos = butter(3, [0.7, 4.0], btype="bandpass", output="sos", fs=self.fs)
        w, h = sosfreqz(sos, worN=[1e-9, 1.5, self.fs / 2 - 1e-9], fs=self.fs)
        # forward-backward application squares the magnitude response
        gain_db = 20 * np.log10(np.abs(h)**2 + 1e-300)
        assert gain_db[0] <= gain_db[1] - 40
        assert gain_db[2] <= gain_db[1] - 40

    def test_dc_rejected_in_time_domain(self):
        y = bandpass(np.full(600, 7.0), self.fs)
        assert np.max(np.abs(y)) < 1e-6

    def test_nyquist_violation(self):
        with pytest.raises(NyquistViolation):
            bandpass(np.zeros(100), fs=7.0, low=0.7, high=4.0)

    def test_short_series_warns(self):
        t = np.arange(60) / self.fs
        with pytest.warns(RuntimeWarning):
            bandpass(np.sin(2 * np.pi * 1.5 * t), self.fs)

    def test_short_stack_warns_once_per_call(self):
        t = np.arange(60) / self.fs
        x = np.tile(np.sin(2 * np.pi * 1.5 * t), (5, 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bandpass(x, self.fs)
        assert [w.category for w in caught] == [RuntimeWarning]


@pytest.mark.parametrize("fs", [30.0, 60.0])
def test_window_stack_matches_row_by_row_calls(fs):
    # run_pipeline preprocesses all (n_windows, T) analysis windows in one
    # call; each row must equal the 1-D call on that window
    rng = np.random.default_rng(6)
    win = int(10 * fs)
    t = np.arange(win) / fs
    x = (100.0 + np.cumsum(rng.normal(size=(12, win)), axis=1)
         + np.sin(2 * np.pi * 1.2 * t))
    detrended = detrend(x, 100.0)
    filtered = bandpass(detrended, fs)
    for row, d_row, f_row in zip(x, detrended, filtered):
        d_ref = detrend(row, 100.0)
        f_ref = bandpass(d_ref, fs)
        assert np.max(np.abs(d_row - d_ref)) <= 1e-9 * np.max(np.abs(d_ref))
        assert np.max(np.abs(f_row - f_ref)) <= 1e-9 * np.max(np.abs(f_ref))
    stacked = x.reshape(3, 4, win)
    np.testing.assert_array_equal(detrend(stacked, 100.0).reshape(x.shape), detrended)
    np.testing.assert_array_equal(bandpass(detrended.reshape(3, 4, win), fs)
                                  .reshape(x.shape), filtered)
