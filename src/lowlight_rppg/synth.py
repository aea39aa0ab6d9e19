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

from .errors import ConfigError
from .ingest import RawTrace
from .preprocess import PULSE_BAND

BASELINE = 100.0     # constant intensity offset per channel
DRIFT_FREQ_HZ = 0.05  # slow-trend frequency, well below the pulse band

# The green channel carries the most reliable pulse; red and blue are
# attenuated by default (configurable).
DEFAULT_PULSE_AMP = (0.3, 1.0, 0.2)


@dataclass(frozen=True)
class SynthConfig:
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
        f = self.hr_bpm / 60.0
        if not (PULSE_BAND[0] <= f <= PULSE_BAND[1]):
            raise ConfigError(f"hr_bpm {self.hr_bpm} outside the pulse band")
        if self.fs <= 8:
            raise ConfigError("fs must exceed 8 Hz")
        if self.duration_s < 10:
            raise ConfigError("duration_s must be at least 10 s")
        if not (0.0 <= self.harmonic_ratio <= 1.0):
            raise ConfigError("harmonic_ratio must be in [0, 1]")
        if self.quantization_step < 0:
            raise ConfigError("quantization_step must be >= 0")
        for name in ("pulse_amp", "noise_rms"):
            v = getattr(self, name)
            if len(v) != 3:
                raise ConfigError(f"{name} must be a 3-tuple (R, G, B)")
            object.__setattr__(self, name, tuple(float(x) for x in v))

    @classmethod
    def from_json(cls, path) -> "SynthConfig":
        with open(path) as fh:
            data = json.load(fh)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self):
        return dataclasses.asdict(self)


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
    for c in range(3):
        noise = rng.normal(0.0, 1.0, n) * config.noise_rms[c]
        channels.append(BASELINE + drift + config.pulse_amp[c] * pulse + noise)
    samples = np.column_stack(channels)
    if config.quantization_step > 0:
        q = config.quantization_step
        samples = q * np.round(samples / q)
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


def illumination_sweep(base: SynthConfig, levels) -> list[RawTrace]:
    """Traces with pulse amplitude scaled per attenuation level.

    Every level is checked before any trace is made.  The same seed is
    reused at every level, which makes level 1.0 identical to
    generate(base) and keeps the noise realization shared across levels.
    """
    configs = [attenuate(base, a) for a in levels]
    return [generate(cfg) for cfg in configs]
