import numpy as np
import pytest

from lowlight_rppg import (
    SynthConfig,
    attenuate,
    dominant_frequencies,
    generate,
    snr,
)
from lowlight_rppg.errors import ConfigError
from lowlight_rppg.metrics import spectrum
from lowlight_rppg.preprocess import PULSE_BAND
from lowlight_rppg.synth import MAX_SAMPLES
from oracles import illumination_sweep

FS = 30.0


class TestGenerate:
    def test_clean_tone(self):
        trace = generate(SynthConfig(hr_bpm=72.0, noise_rms=(0.0, 0.0, 0.0)))
        assert abs(dominant_frequencies(trace.green(), FS, PULSE_BAND) - 1.2) <= 0.01

    def test_deterministic(self):
        cfg = SynthConfig(hr_bpm=80.0, noise_rms=(0.5, 0.5, 0.5), seed=42)
        a = generate(cfg)
        b = generate(cfg)
        assert np.array_equal(a.samples, b.samples)

    def test_equivalent_amplitude_snr(self):
        # Green pulse amplitude equal to the noise RMS.  With the band
        # convention used by snr() the closed-form expectation is
        # 10*log10((A^2/2 (1 + hr^2) + s^2*0.6/15) / (s^2*2.7/15)),
        # about +5.1 dB here; assert the measurement tracks that oracle.
        vals = []
        for seed in range(20):
            cfg = SynthConfig(hr_bpm=72.0, pulse_amp=(0.3, 1.0, 0.2),
                              noise_rms=(1.0, 1.0, 1.0), harmonic_ratio=0.3,
                              seed=seed)
            vals.append(snr(generate(cfg).green(), FS, 72.0))
        p_in = 0.5 * (1.0 + 0.3**2) + 1.0 * 0.6 / (FS / 2)
        p_out = 1.0 * 2.7 / (FS / 2)
        expected = 10 * np.log10(p_in / p_out)
        assert abs(np.median(vals) - expected) <= 2.0

    def test_quantization_broadband_floor(self):
        cfg = SynthConfig(hr_bpm=72.0, pulse_amp=(0.3, 1.0, 0.2),
                          quantization_step=2.0, drift_amp=2.0, seed=3)
        freqs, power = spectrum(generate(cfg).green(), FS)
        out = (freqs < 0.7) | (freqs > 4.0)
        total = power[1:].sum()  # skip the DC bin of the mean-removed trace
        assert power[out][1:].sum() / total >= 0.30

    def test_quantization_error_bounded(self):
        q = 0.5
        clean = generate(SynthConfig(hr_bpm=72.0, drift_amp=1.0, seed=1))
        quant = generate(SynthConfig(hr_bpm=72.0, drift_amp=1.0,
                                     quantization_step=q, seed=1))
        assert np.max(np.abs(clean.samples - quant.samples)) <= q / 2 + 1e-12

    def test_harmonic_gives_two_in_band_peaks(self):
        cfg = SynthConfig(hr_bpm=72.0, harmonic_ratio=0.5,
                          noise_rms=(0.0, 0.0, 0.0))
        freqs, power = spectrum(generate(cfg).green(), FS)
        band = (freqs >= 0.7) & (freqs <= 4.0)
        bf, bp = freqs[band], power[band]
        peaks = bf[bp > 1e-3 * bp.max()]
        assert np.all((np.abs(peaks - 1.2) < 0.05) | (np.abs(peaks - 2.4) < 0.05))
        assert np.any(np.abs(peaks - 1.2) < 0.05)
        assert np.any(np.abs(peaks - 2.4) < 0.05)

    @pytest.mark.parametrize("kwargs", [
        dict(hr_bpm=30.0),
        dict(fs=5.0),
        dict(duration_s=5.0),
        dict(harmonic_ratio=1.5),
        dict(quantization_step=-1.0),
        dict(fs=100.0, duration_s=10000.5),  # just over MAX_SAMPLES
        # a bool is not a number, as in PipelineConfig: True is not taken as 1
        *({name: True} for name in ("hr_bpm", "fs", "duration_s", "harmonic_ratio",
                                    "quantization_step", "drift_amp", "seed")),
        *({name: tuple(True if i == j else 0.5 for j in range(3))}
          for name in ("pulse_amp", "noise_rms") for i in range(3)),
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            SynthConfig(**kwargs)

    def test_sample_cap_is_inclusive(self):
        cfg = SynthConfig(fs=100.0, duration_s=MAX_SAMPLES / 100.0)
        assert round(cfg.fs * cfg.duration_s) == MAX_SAMPLES


class TestIlluminationSweep:
    def test_factor_one_identical(self):
        base = SynthConfig(hr_bpm=72.0, noise_rms=(0.2, 0.2, 0.2), seed=9)
        (trace,) = illumination_sweep(base, [1.0])
        assert np.array_equal(trace.samples, generate(base).samples)

    def test_tenth_factor_drops_20db(self):
        # low noise keeps the signal bands signal-dominated, so the SNR
        # drop is the pure power ratio 20*log10(10)
        base = SynthConfig(hr_bpm=72.0, noise_rms=(0.01, 0.01, 0.01),
                           harmonic_ratio=0.0, seed=5)
        full, tenth = illumination_sweep(base, [1.0, 0.1])
        drop = snr(full.green(), FS, 72.0) - snr(tenth.green(), FS, 72.0)
        assert abs(drop - 20.0) <= 2.0

    def test_snr_monotone_in_attenuation(self):
        levels = [1.0, 0.5, 0.25, 0.1]
        medians = []
        for level in levels:
            vals = []
            for seed in range(20):
                base = SynthConfig(hr_bpm=72.0, pulse_amp=(0.3, 1.0, 0.2),
                                   noise_rms=(0.5, 0.5, 0.5), seed=seed)
                (trace,) = illumination_sweep(base, [level])
                vals.append(snr(trace.green(), FS, 72.0))
            medians.append(np.median(vals))
        for a, b in zip(medians, medians[1:]):
            assert b <= a

    def test_invalid_factor(self):
        base = SynthConfig(hr_bpm=72.0)
        with pytest.raises(ConfigError):
            illumination_sweep(base, [0.0])
        with pytest.raises(ConfigError):
            illumination_sweep(base, [1.5])


class TestAttenuate:
    def test_scales_pulse_only(self):
        base = SynthConfig(hr_bpm=72.0, noise_rms=(0.2, 0.3, 0.4), seed=9)
        cfg = attenuate(base, 0.3)
        assert cfg.pulse_amp == tuple(0.3 * a for a in base.pulse_amp)
        assert (cfg.noise_rms, cfg.seed, cfg.hr_bpm) == (base.noise_rms, 9, 72.0)
        assert attenuate(base, 1.0) == base

    @pytest.mark.parametrize("level", [0.0, -1.0, 1.0000001, 2.0, np.nan, np.inf])
    def test_rejects_levels_outside_unit_interval(self, level):
        with pytest.raises(ConfigError):
            attenuate(SynthConfig(), level)
