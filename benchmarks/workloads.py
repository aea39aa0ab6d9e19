"""Benchmark workloads: generated inputs, the timed operation, the output.

Inputs come from a fixed pool per workload, so that the outputs of the
seed code can be stored as references (``reference.npz``).  A run's
``--seed`` sets the order in which it cycles through the pool, and so
which entry is the untimed first operation and which entries the time
limit cuts from the last cycle.  Every run covers the whole pool, so the
accuracy metrics are exact functions of the code, the same on every
seed.  Pool sizes give each entry about three operations in a 20 s
run.  The traces are made here with numpy alone, so a change to
``lowlight_rppg.synth`` cannot change the inputs of the extract workloads.

``prepare`` runs before the package is imported; ``bind`` runs inside the
timed set-up; ``call`` is the timed operation; ``output`` turns its result
into the arrays the reference check compares; ``score`` gives the HR error
(bpm) and SNR (dB) against the generator's true HR.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

POOL_SEED = 20250305
PULSE_AMP = (0.3, 1.0, 0.2)  # R, G, B; green carries the pulse
HARMONIC_RATIO = 0.3
DRIFT_FREQ_HZ = 0.05
SWEEP_LEVELS = (1.0, 0.5, 0.25, 0.1, 0.05)
SWEEP_METHODS = ("proposed", "green-baseline")
SWEEP_JOBS = 2


@dataclass(frozen=True)
class TraceSpec:
    hr_bpm: float
    noise_rms: float  # per channel, relative to the green pulse amplitude 1.0
    drift_amp: float
    phase: float
    seed: int


def pool_specs(workload_index: int, n: int, noise: tuple[float, float]) -> list[TraceSpec]:
    """The fixed input pool of one workload; entry i never changes."""
    specs = []
    for i in range(n):
        rng = np.random.default_rng([POOL_SEED, workload_index, i])
        specs.append(TraceSpec(
            hr_bpm=float(rng.uniform(48.0, 150.0)),
            noise_rms=float(rng.uniform(*noise)),
            drift_amp=float(rng.uniform(0.5, 5.0)),
            phase=float(rng.uniform(0.0, 2 * np.pi)),
            seed=int(rng.integers(2**31)),
        ))
    return specs


def synth_samples(spec: TraceSpec, fs: float, duration_s: float) -> np.ndarray:
    """(T, 3) RGB trace: baseline + drift + pulse with harmonic + noise."""
    rng = np.random.default_rng(spec.seed)
    n = int(round(duration_s * fs))
    t = np.arange(n) / fs
    w = 2 * np.pi * spec.hr_bpm / 60.0
    pulse = np.sin(w * t + spec.phase) + HARMONIC_RATIO * np.sin(2 * (w * t + spec.phase))
    drift = spec.drift_amp * np.sin(2 * np.pi * DRIFT_FREQ_HZ * t)
    noise = rng.normal(0.0, spec.noise_rms, (n, 3))
    return 100.0 + drift[:, None] + pulse[:, None] * np.array(PULSE_AMP) + noise


def write_trace_csv(path, samples: np.ndarray, fs: float) -> None:
    """Trace CSV in the format ``lowlight_rppg.ingest.load_trace_csv`` reads."""
    with open(path, "w") as fh:
        fh.write(f"# fs={fs!r}\n")
        for i, (r, g, b) in enumerate(samples.tolist()):
            fh.write(f"{i},{r!r},{g!r},{b!r}\n")


class Extract30Hz:
    """run_pipeline + estimate_hr on in-memory 60 s / 30 Hz traces."""

    name = "extract-30hz"
    fs = 30.0
    duration_s = 60.0
    pool_size = 32
    specs = pool_specs(0, pool_size, noise=(0.6, 1.4))

    def prepare(self, workdir, indices):
        return [synth_samples(self.specs[i], self.fs, self.duration_s) for i in indices]

    def bind(self, pkg, prepared):
        self.pkg = pkg
        return [pkg.RawTrace(samples=x, fs=self.fs) for x in prepared]

    def call(self, item):
        pulse = self.pkg.reconstruct.run_pipeline(item)
        return pulse, self.pkg.hr.estimate_hr(pulse)

    def output(self, item, result):
        pulse, est = result
        return {"pulse": pulse.samples, "hr": np.float64(est.bpm)}

    def score(self, out, spec):
        metrics = self.pkg.metrics
        return (abs(float(out["hr"]) - spec.hr_bpm),
                metrics.cap_snr(metrics.snr(out["pulse"], self.fs, spec.hr_bpm)))


class CliExtract60Hz(Extract30Hz):
    """In-process ``lowlight-rppg extract`` on 120 s / 60 Hz trace CSVs."""

    name = "cli-extract-60hz"
    fs = 60.0
    duration_s = 120.0
    pool_size = 8
    specs = pool_specs(1, pool_size, noise=(0.6, 1.4))

    def prepare(self, workdir, indices):
        items = []
        for i in indices:
            path = os.path.join(workdir, f"trace-{i}.csv")
            if not os.path.exists(path):
                write_trace_csv(path, synth_samples(self.specs[i], self.fs,
                                                    self.duration_s), self.fs)
            items.append((path, os.path.join(workdir, f"pulse-{i}.csv")))
        return items

    def bind(self, pkg, prepared):
        self.pkg = pkg
        return prepared

    def call(self, item):
        return self.pkg.cli.main(["extract", *item])

    def output(self, item, result):
        if result != 0:
            raise RuntimeError(f"extract exited with {result}")
        out = item[1]
        pulse = np.loadtxt(out, delimiter=",", comments="#", ndmin=2)[:, 1]
        with open(os.path.splitext(out)[0] + ".hr.json") as fh:
            bpm = json.load(fh)["bpm"]
        return {"pulse": pulse, "hr": np.float64(bpm)}


class SweepJobs2:
    """cli.sweep_report over the five attenuation levels with two threads."""

    name = "sweep-jobs2"
    fs = 30.0
    duration_s = 60.0 * len(SWEEP_LEVELS)  # input trace seconds per operation
    pool_size = 6
    specs = pool_specs(2, pool_size, noise=(0.15, 0.3))

    def prepare(self, workdir, indices):
        return [self.specs[i] for i in indices]

    def bind(self, pkg, prepared):
        self.pkg = pkg
        self.pipe_config = pkg.PipelineConfig()
        return [pkg.SynthConfig(hr_bpm=s.hr_bpm, fs=self.fs, duration_s=60.0,
                                noise_rms=(s.noise_rms,) * 3, drift_amp=s.drift_amp,
                                seed=s.seed)
                for s in prepared]

    def call(self, item):
        return self.pkg.cli.sweep_report(item, SWEEP_LEVELS, self.pipe_config,
                                         n_seeds=1, jobs=SWEEP_JOBS)

    def output(self, item, result):
        keys = [(r["level"], r["method"]) for r in result]
        expected = [(lv, m) for lv in SWEEP_LEVELS for m in SWEEP_METHODS]
        if keys != expected:
            raise RuntimeError(f"sweep rows {keys} != {expected}")
        return {"rows": np.array([[r["snr_db"], r["mae_bpm"], r["rmse_bpm"]]
                                  for r in result])}

    def score(self, out, spec):
        proposed = out["rows"][::len(SWEEP_METHODS)]
        return float(proposed[:, 1].mean()), float(proposed[:, 0].mean())


WORKLOADS = {w.name: w for w in (Extract30Hz(), CliExtract60Hz(), SweepJobs2())}


def run_indices(workload, seed: int) -> list[int]:
    """The order in which one run cycles through the pool."""
    rng = np.random.default_rng([POOL_SEED, seed])
    return [int(i) for i in rng.permutation(workload.pool_size)]


# Reference tolerances.  Pulses: max |diff| relative to max |reference|
# (the stored float32 copy and the CLI's 6-digit CSV are well inside it).
# HR: absolute bpm.  Sweep rows: relative to max(1, |reference|).
PULSE_RTOL = 1e-5
HR_ATOL = 1e-6
ROWS_RTOL = 1e-6


def matches_reference(out: dict, ref: dict, index: int) -> str | None:
    """None if ``out`` matches pool entry ``index`` of ``ref``, else why not."""
    for key, value in out.items():
        want = np.asarray(ref[key][index], dtype=float)
        got = np.asarray(value, dtype=float)
        if got.shape != want.shape:
            return f"{key}: shape {got.shape} != {want.shape}"
        err = float(np.max(np.abs(got - want), initial=0.0))
        if key == "pulse":
            limit = PULSE_RTOL * float(np.max(np.abs(want)))
        elif key == "hr":
            limit = HR_ATOL
        else:
            limit = float(ROWS_RTOL * np.max(np.maximum(1.0, np.abs(want))))
        if not err <= limit:
            return f"{key}: max |diff| {err:.3g} > {limit:.3g}"
    return None


def reference_arrays(workload, outputs: list[dict]) -> dict:
    """npz entries for a workload from its outputs over the whole pool."""
    arrays = {}
    for key in outputs[0]:
        stacked = np.stack([np.asarray(o[key], dtype=float) for o in outputs])
        arrays[f"{workload.name}.{key}"] = (stacked.astype(np.float32)
                                            if key == "pulse" else stacked)
    return arrays


def load_reference(path, workload) -> dict:
    prefix = workload.name + "."
    with np.load(path) as npz:
        return {k[len(prefix):]: npz[k] for k in npz.files if k.startswith(prefix)}
