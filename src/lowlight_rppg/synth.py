"""Synthetic rPPG trace generator with controllable noise.

The generator targets the two low-light phenomena the pipeline is built
against: a wide-band quantization-like floor and pulse amplitude
comparable to the noise.  It is a signal model, not sensor physics.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_count, check_real
from .ingest import RawTrace
from .preprocess import PULSE_BAND

BASELINE = 100.0     # constant intensity offset per channel
DRIFT_FREQ_HZ = 0.05  # slow-trend frequency, well below the pulse band

# The green channel carries the most reliable pulse; red and blue are
# attenuated by default (configurable).
DEFAULT_PULSE_AMP = (0.3, 1.0, 0.2)

# Largest trace, in samples per channel (fs * duration_s), that a config
# may ask for: over 9 h at 30 Hz, at 8 MB per channel array, so that no
# config makes ``generate`` exhaust memory.
MAX_SAMPLES = 1_000_000


@dataclass(frozen=True)
class SynthConfig:
    """Signal-model settings; out-of-range values, and values of the wrong
    type (a bool or a string where a number belongs), raise ConfigError.

    The trace has ``round(fs * duration_s)`` samples, at most
    ``MAX_SAMPLES``.
    """

    hr_bpm: float = 72.0
    fs: float = 30.0
    duration_s: float = 60.0
    pulse_amp: tuple[float, float, float] = DEFAULT_PULSE_AMP
    harmonic_ratio: float = 0.3
    noise_rms: tuple[float, float, float] = (0.0, 0.0, 0.0)
    quantization_step: float = 0.0
    drift_amp: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("pulse_amp", "noise_rms"):
            v = getattr(self, name)
            if not isinstance(v, (tuple, list, np.ndarray)) or len(v) != 3:
                raise ConfigError(f"{name} must be a 3-tuple (R, G, B)")
            object.__setattr__(self, name, tuple(check_real(name, x) for x in v))
        for name in ("hr_bpm", "fs", "duration_s", "harmonic_ratio",
                     "quantization_step", "drift_amp"):
            check_real(name, getattr(self, name))
        check_count("seed", self.seed, 0)
        f = self.hr_bpm / 60.0
        if not (PULSE_BAND[0] <= f <= PULSE_BAND[1]):
            raise ConfigError(f"hr_bpm {self.hr_bpm} outside the pulse band")
        if self.fs <= 8:
            raise ConfigError("fs must exceed 8 Hz")
        if self.duration_s < 10:
            raise ConfigError("duration_s must be at least 10 s")
        if float(self.fs) * float(self.duration_s) > MAX_SAMPLES:
            raise ConfigError(f"fs * duration_s must be at most {MAX_SAMPLES} samples")
        if not (0.0 <= self.harmonic_ratio <= 1.0):
            raise ConfigError("harmonic_ratio must be in [0, 1]")
        if self.quantization_step < 0:
            raise ConfigError("quantization_step must be >= 0")

    @classmethod
    def from_json(cls, path) -> "SynthConfig":
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def generate(config: SynthConfig) -> RawTrace:
    """Generate a synthetic raw trace.

    Per channel: baseline + drift + pulse (fundamental plus optional first
    harmonic) + Gaussian noise, then uniform quantization if a step is
    configured.  Deterministic under the configured seed; the noise draw
    order is fixed per channel so traces stay comparable when amplitudes
    change.
    """
    rng = np.random.default_rng(config.seed)
    n = int(round(config.duration_s * config.fs))
    t = np.arange(n) / config.fs
    f = config.hr_bpm / 60.0
    pulse = np.sin(2 * np.pi * f * t)
    if config.harmonic_ratio > 0:
        pulse = pulse + config.harmonic_ratio * np.sin(4 * np.pi * f * t)
    drift = config.drift_amp * np.sin(2 * np.pi * DRIFT_FREQ_HZ * t)
    channels = []
    # amplitudes near the float maximum overflow: reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(3):
            noise = rng.normal(0.0, 1.0, n) * config.noise_rms[c]
            channels.append(BASELINE + drift + config.pulse_amp[c] * pulse + noise)
        samples = np.column_stack(channels)
        if config.quantization_step > 0:
            q = config.quantization_step
            samples = q * np.round(samples / q)
    if not np.all(np.isfinite(samples)):
        raise ConfigError("config amplitudes overflow: the trace is not finite")
    return RawTrace(samples=samples, fs=config.fs)


def attenuate(base: SynthConfig, level: float) -> SynthConfig:
    """``base`` with its pulse amplitude scaled by the attenuation factor
    ``level``, which must lie in (0, 1].

    Illuminance scales the signal, not the sensor noise, so noise_rms,
    quantization_step and the seed are kept.
    """
    if not (0.0 < level <= 1.0):
        raise ConfigError(f"attenuation factor {level} outside (0, 1]")
    return dataclasses.replace(base, pulse_amp=tuple(level * x for x in base.pulse_amp))

