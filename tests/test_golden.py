"""Golden outputs: the pulses, window records and HRs of ``run_pipeline``
on four synthetic traces, and the rows of a small ``sweep_report``,
against the files under ``tests/golden/``.

Records and HRs must be equal.  Pulses must lie within 1e-12 of their
max |pulse|, and sweep rows within 1e-12 relative: the in-memory pulse
moves by about 2e-15 between one and two BLAS threads, and a change of
LAPACK route has moved it by 1.25e-13.  A change that moves an output on
purpose rewrites the files and states the diff::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py --write
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

from lowlight_rppg import PipelineConfig, SynthConfig, estimate_hr, run_pipeline
from lowlight_rppg.synth import attenuate, generate
from lowlight_rppg.sweep import sweep_report

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
NOISY = {"drift_amp": 2.0, "noise_rms": (0.8,) * 3}
DIM = {"pulse_amp": (0.3, 1.0, 0.2), "noise_rms": (1.0,) * 3}  # criterion 8's model
TRACES = {
    "60s-30hz": SynthConfig(hr_bpm=84.0, duration_s=60.0, seed=13, **NOISY),
    "60s-30hz-dim": attenuate(SynthConfig(hr_bpm=72.0, duration_s=60.0, seed=3, **DIM), 0.25),
    "140s-30hz": SynthConfig(hr_bpm=66.0, duration_s=140.0, seed=7, **NOISY),  # 3 blocks
    "120s-60hz": SynthConfig(hr_bpm=96.0, fs=60.0, duration_s=120.0, seed=21, **NOISY),  # 2 blocks
}
SWEEP = {"config": SynthConfig(hr_bpm=72.0, duration_s=30.0, **DIM),
         "levels": (1.0, 0.25), "pipe_config": PipelineConfig(), "n_seeds": 2}
TOLERANCE = 1e-12


def _outputs(name):
    """The pulse of trace ``name``, and its HR and records as JSON objects."""
    pulse = run_pipeline(generate(TRACES[name]))
    hr = dataclasses.asdict(estimate_hr(pulse))
    return pulse.samples, [hr] + [r.to_dict() for r in pulse.window_flags]


def _read_lines(name):
    with open(os.path.join(GOLDEN, name + ".jsonl")) as f:
        return [json.loads(line) for line in f]


def _write_lines(name, objects):
    with open(os.path.join(GOLDEN, name + ".jsonl"), "w") as f:
        f.writelines(json.dumps(obj) + "\n" for obj in objects)


@pytest.fixture(scope="module")
def pulses():
    with np.load(os.path.join(GOLDEN, "pulses.npz")) as stored:
        return dict(stored)


@pytest.mark.parametrize("name", TRACES)
def test_pipeline_matches_golden(pulses, name):
    samples, lines = _outputs(name)
    assert lines == _read_lines(name)  # the HR, then every window's record
    golden = pulses[name]
    assert samples.shape == golden.shape
    assert np.max(np.abs(samples - golden)) <= TOLERANCE * np.max(np.abs(golden))


def test_sweep_matches_golden():
    rows, golden = sweep_report(**SWEEP), _read_lines("sweep")
    assert [(r["level"], r["method"]) for r in rows] == [(g["level"], g["method"]) for g in golden]
    for row, want in zip(rows, golden):
        for key in ("snr_db", "mae_bpm", "rmse_bpm"):
            np.testing.assert_allclose(row[key], want[key], rtol=TOLERANCE, atol=0, err_msg=key)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    os.makedirs(GOLDEN, exist_ok=True)
    stored = {}
    for name in TRACES:
        stored[name], lines = _outputs(name)
        _write_lines(name, lines)
    np.savez_compressed(os.path.join(GOLDEN, "pulses.npz"), **stored)
    _write_lines("sweep", sweep_report(**SWEEP))
