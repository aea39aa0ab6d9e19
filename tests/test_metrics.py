import numpy as np
import pytest
from scipy import signal

from lowlight_rppg import evaluate, mae, rmse, snr, spectrogram
from lowlight_rppg.errors import PairingError, ZeroSignal
from lowlight_rppg.metrics import cap_snr, pair_by_timestamp

FS = 30.0


class TestSnr:
    def test_pure_tone_caps_at_60(self):
        # spectral leakage leaves a tiny but nonzero out-of-band residue,
        # so the raw ratio is finite yet far above the reporting cap
        t = np.arange(1800) / FS
        x = np.sin(2 * np.pi * 1.2 * t)
        assert snr(x, FS, 72.0) > 60.0
        assert cap_snr(snr(x, FS, 72.0)) == 60.0
        assert cap_snr(np.inf) == 60.0

    @pytest.mark.parametrize("x", [np.zeros(300), np.full(300, 5.0), np.full(300, 0.1)],
                             ids=["zeros", "constant", "constant-inexact-mean"])
    def test_no_power_is_zero_signal(self, x):
        # 0/0: not +inf, which reports would cap to the best score, 60 dB
        with pytest.raises(ZeroSignal):
            snr(x, FS, 72.0)

    def test_zero_residual_is_inf(self):
        # a 1.2 Hz tone at fs/4, 4.8 Hz: its FFT is exact, so every bin
        # outside the signal bands holds exactly zero power
        assert snr(np.tile([1.0, 0.0, -1.0, 0.0], 64), 4.8, 72.0) == np.inf

    def test_equal_power_two_tone_is_zero_db(self):
        # second tone at f_ref + 1 Hz, outside both signal bands for
        # f_ref = 1.5 Hz (harmonic band is [2.8, 3.2])
        t = np.arange(1800) / FS
        x = np.sin(2 * np.pi * 1.5 * t) + np.sin(2 * np.pi * 2.5 * t)
        assert abs(snr(x, FS, 90.0)) <= 0.1

    def test_white_noise_band_ratio(self):
        # expected ratio of band widths: 10*log10(0.6/2.7) = -6.53 dB
        vals = [snr(np.random.default_rng(s).normal(size=1800), FS, 72.0)
                for s in range(20)]
        assert abs(np.mean(vals) - 10 * np.log10(0.6 / 2.7)) <= 1.0

    def test_amplitude_invariant(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=1800) + np.sin(2 * np.pi * 1.2 * np.arange(1800) / FS)
        # the power of x overflows at 1e155 and underflows at 1e-200
        for scale in (123.0, 1e155, 1e-200):
            assert abs(snr(x, FS, 72.0) - snr(scale * x, FS, 72.0)) < 1e-9

    def test_out_of_band_noise_ignored(self):
        t = np.arange(1800) / FS
        x = np.sin(2 * np.pi * 1.2 * t) + 0.3 * np.random.default_rng(4).normal(size=1800)
        lowband = 5.0 * np.sin(2 * np.pi * 0.2 * t) + 3.0 * np.sin(2 * np.pi * 6.0 * t)
        assert abs(snr(x, FS, 72.0) - snr(x + lowband, FS, 72.0)) < 0.2


class TestMaeRmse:
    def test_identical_inputs(self):
        assert mae([72, 70], [72, 70]) == 0.0
        assert rmse([72, 70], [72, 70]) == 0.0

    def test_hand_computed(self):
        assert mae([72, 74], [70, 70]) == 3.0
        assert abs(rmse([72, 74], [70, 70]) - np.sqrt(10)) < 1e-12

    def test_constant_offset(self):
        ref = [60.0, 72.0, 90.0]
        est = [v + 5.0 for v in ref]
        assert mae(est, ref) == 5.0
        assert rmse(est, ref) == 5.0

    def test_mae_le_rmse(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            est = rng.uniform(40, 200, size=10)
            ref = rng.uniform(40, 200, size=10)
            assert mae(est, ref) <= rmse(est, ref) + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(PairingError):
            mae([72], [70, 71])
        with pytest.raises(PairingError):
            rmse([72], [70, 71])


class TestSpectrogram:
    def test_stationary_tone(self):
        t = np.arange(1800) / FS
        times, freqs, sxx = spectrogram(np.sin(2 * np.pi * 1.2 * t), FS)
        assert freqs.max() <= 5.0
        bin_w = freqs[1] - freqs[0]
        for row in sxx:
            assert abs(freqs[np.argmax(row)] - 1.2) <= bin_w

    def test_step_transition_window(self):
        fs = FS
        t1 = np.arange(900) / fs
        t2 = np.arange(900, 1800) / fs
        x = np.concatenate([np.sin(2 * np.pi * 1.0 * t1),
                            np.sin(2 * np.pi * 1.5 * t2)])
        times, freqs, sxx = spectrogram(x, fs)
        peaks = freqs[np.argmax(sxx, axis=1)]
        bin_w = freqs[1] - freqs[0]
        for t, p in zip(times, peaks):
            if t < 20.0:
                assert abs(p - 1.0) <= bin_w
            elif t > 40.0:
                assert abs(p - 1.5) <= bin_w

    @pytest.mark.parametrize("fs", [25.0, 30.0, 60.0])
    @pytest.mark.parametrize("win_s, hop_s", [(10.0, 1.0), (7.3, 1.1)])
    def test_matches_scipy_spectrogram(self, fs, win_s, hop_s):
        # 7.3 s gives an odd segment length at every fs here except 60 Hz
        rng = np.random.default_rng(3)
        t = np.arange(int(65 * fs)) / fs
        x = 50.0 + 0.1 * t + np.sin(2 * np.pi * 1.3 * t) + rng.normal(size=t.size)
        times, freqs, sxx = spectrogram(x, fs, win_s, hop_s)
        nperseg = int(round(win_s * fs))
        f_ref, t_ref, s_ref = signal.spectrogram(
            x - x.mean(), fs=fs, window="hann", nperseg=nperseg,
            noverlap=nperseg - int(round(hop_s * fs)), scaling="spectrum", mode="psd")
        keep = f_ref <= 5.0
        np.testing.assert_array_equal(freqs, f_ref[keep])
        np.testing.assert_allclose(times, t_ref, rtol=1e-15)
        assert sxx.shape == (len(t_ref), keep.sum())
        assert np.max(np.abs(sxx - s_ref[keep].T)) <= 1e-12 * np.max(s_ref)

    def test_white_noise_no_persistent_peak(self):
        fracs = []
        for seed in range(5):
            x = np.random.default_rng(seed).normal(size=1800)
            _, _, sxx = spectrogram(x, FS)
            exceed = sxx > 5.0 * np.median(sxx, axis=1, keepdims=True)
            fracs.append(exceed.mean(axis=0).max())
        assert max(fracs) < 0.8


class TestEvaluate:
    def test_pairing_and_report(self):
        t = np.arange(1800) / FS
        x = np.sin(2 * np.pi * 1.2 * t)
        est = [(5.0 + k, 72.0) for k in range(5)]
        ref = [(5.2 + k, 70.0) for k in range(5)]
        report = evaluate(x, FS, est, ref)
        assert report.mae_bpm == 2.0
        assert report.rmse_bpm == 2.0
        assert report.snr_db == 60.0  # pure tone, capped
        assert report.mae_bpm <= report.rmse_bpm
        assert len(report.per_window) == 5

    def test_unpairable_raises(self):
        with pytest.raises(PairingError):
            pair_by_timestamp([(5.0, 72.0)], [(9.0, 70.0)])

    @pytest.mark.parametrize("est, ref", [
        ([(5.0, 72.0)], [(np.nan, 72.0)]),
        ([(np.nan, 72.0)], [(5.0, 72.0)]),
        ([(5.0, 72.0)], [(np.nan, 72.0), (5.0, 70.0)]),
    ], ids=["nan-reference-time", "nan-estimate-time", "nan-first-of-two"])
    def test_nan_time_never_pairs(self, est, ref):
        with pytest.raises(PairingError):
            pair_by_timestamp(est, ref)

    def test_snr_matches_its_definition_bit_for_bit(self):
        rng = np.random.default_rng(8)
        x = np.sin(2 * np.pi * 1.2 * np.arange(1800) / FS) + rng.normal(size=1800)
        power = np.abs(np.fft.rfft(x - x.mean())) ** 2
        freqs = np.fft.rfftfreq(x.size, d=1.0 / FS)
        in_band = (freqs >= 0.7) & (freqs <= 4.0)
        sig = (np.abs(freqs - 1.2) <= 0.1) | (np.abs(freqs - 2.4) <= 0.2)
        expected = 10 * np.log10(power[in_band & sig].sum() / power[in_band & ~sig].sum())
        assert snr(x, FS, 72.0) == expected
