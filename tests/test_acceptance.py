"""Acceptance suite: one test per release criterion.

Each test prints a PASS line when its assertions hold, so
``pytest -s tests/test_acceptance.py`` doubles as a checklist.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from lowlight_rppg import (
    MaskReason,
    PipelineConfig,
    SynthConfig,
    decompose_rows,
    detrend,
    diagonal_average,
    estimate_hr,
    generate,
    overlap_add_rows,
    run_pipeline,
    snr,
    spectral_mask,
)
from lowlight_rppg.cli import main, sweep_report

FS = 30.0


def _report(name):
    print(f"PASS {name}")


def test_criterion_1_ssa_reconstruction_identity():
    """Sum of all elementary components reproduces the input, 50 series."""
    rng = np.random.default_rng(0)
    start = time.time()
    for _ in range(50):
        x = rng.normal(size=300)
        components, _ = decompose_rows(x[None], L=100, k=300)
        rec = components[0].sum(axis=0)
        assert np.linalg.norm(rec - x) / np.linalg.norm(x) < 1e-8
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(f"criterion 1: SSA reconstruction identity ({elapsed:.2f} s)")


def test_criterion_2_diagonal_average_oracle():
    """diagonal_average equals the brute-force anti-diagonal loop."""
    rng = np.random.default_rng(1)
    for _ in range(20):
        L = int(rng.integers(2, 31))
        K = int(rng.integers(2, 31))
        Xi = rng.normal(size=(L, K))
        sums = np.zeros(L + K - 1)
        counts = np.zeros(L + K - 1)
        for i in range(L):
            for j in range(K):
                sums[i + j] += Xi[i, j]
                counts[i + j] += 1
        assert np.max(np.abs(diagonal_average(Xi) - sums / counts)) < 1e-12
    _report("criterion 2: diagonal-averaging brute-force equivalence")


def test_criterion_3_detrend_dense_oracle():
    """Detrend (DCT solve plus rank-2 correction) matches an explicit
    dense solve at T=300, lam=100."""
    rng = np.random.default_rng(2)
    x = rng.normal(size=300)
    n = 300
    d2 = np.zeros((n - 2, n))
    for i in range(n - 2):
        d2[i, i:i + 3] = [1.0, -2.0, 1.0]
    dense = x - np.linalg.solve(np.eye(n) + 100.0**2 * (d2.T @ d2), x)
    assert np.max(np.abs(detrend(x, 100.0) - dense)) < 1e-8
    assert np.max(np.abs(detrend(np.full(300, 5.0), 100.0))) < 1e-9
    _report("criterion 3: detrending dense-solve oracle")


def test_criterion_4_hann_cola():
    """Constant windows at 50% hop reconstruct the constant interior."""
    windows = np.ones((10, 300))
    out = np.zeros(11 * 150)
    overlap_add_rows(out, windows, hop=150)
    interior = out[150:-150]
    assert np.max(np.abs(interior - 1.0)) / 1.0 < 1e-9
    _report("criterion 4: Hann constant overlap-add")


def test_criterion_5_mask_truth_table_and_property():
    """The four mask examples plus 1000 random triples vs an independent
    predicate."""
    def case(f_i, f_r, sigma):
        """(accepted, reason) of one candidate, from its spectral_mask code."""
        reason = list(MaskReason)[spectral_mask([[f_i]], [f_r], [sigma])[0, 0]]
        return reason in (MaskReason.FUNDAMENTAL_MATCH, MaskReason.HARMONIC_MATCH), reason

    accepted, reason = case(1.25, 1.2, 0.05)
    assert accepted and reason.value == "fundamental-match"
    accepted, reason = case(2.4, 1.2, 0.05)
    assert accepted and reason.value == "harmonic-match"
    accepted, reason = case(3.0, 1.2, 0.05)
    assert not accepted and reason.value == "window-reject"
    accepted, reason = case(7.0, 3.5, 0.05)
    assert not accepted and reason.value == "band-reject"

    # independent predicate, written directly from interval endpoints
    def oracle(f_i, f_r, sigma):
        in_band = 0.7 <= f_i <= 4.0
        lo, hi = f_r - 3.0 * sigma, f_r + 3.0 * sigma
        fundamental = lo <= f_i <= hi
        harmonic = lo <= f_i / 2.0 <= hi
        return in_band and (fundamental or harmonic)

    rng = np.random.default_rng(3)
    for _ in range(1000):
        f_i = float(rng.uniform(0.0, 8.0))
        f_r = float(rng.uniform(0.7, 4.0))
        sigma = float(rng.uniform(0.01, 0.5))
        assert case(f_i, f_r, sigma)[0] == oracle(f_i, f_r, sigma)
    _report("criterion 5: spectral-mask truth table and 1000-triple property")


def test_criterion_6_clean_end_to_end():
    """Noiseless synthetic traces recover HR within 1 bpm at four rates."""
    start = time.time()
    for hr_bpm in (48.0, 72.0, 100.0, 150.0):
        trace = generate(SynthConfig(hr_bpm=hr_bpm, duration_s=60.0,
                                     noise_rms=(0.0, 0.0, 0.0)))
        est = estimate_hr(run_pipeline(trace))
        assert abs(est.bpm - hr_bpm) <= 1.0, f"{hr_bpm} bpm -> {est.bpm}"
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(f"criterion 6: clean recovery at 48/72/100/150 bpm ({elapsed:.1f} s)")


def test_criterion_7_equivalent_amplitude_regime():
    """pulse amplitude = noise RMS: median error <= 3 bpm and >= 3 dB SNR
    gain in at least 15 of 20 seeds."""
    errors = []
    gains = []
    for seed in range(20):
        cfg = SynthConfig(hr_bpm=72.0, duration_s=60.0,
                          pulse_amp=(0.3, 1.0, 0.2),
                          noise_rms=(1.0, 1.0, 1.0), harmonic_ratio=0.3,
                          seed=seed)
        trace = generate(cfg)
        pulse = run_pipeline(trace)
        errors.append(abs(estimate_hr(pulse).bpm - 72.0))
        gains.append(snr(pulse.samples, FS, 72.0) - snr(trace.green(), FS, 72.0))
    assert np.median(errors) <= 3.0
    improved = sum(g >= 3.0 for g in gains)
    assert improved >= 15
    _report(f"criterion 7: equivalent-amplitude regime "
            f"(median err {np.median(errors):.2f} bpm, {improved}/20 seeds +3 dB)")


def test_criterion_8_sweep_monotonicity():
    """Proposed SNR non-increasing over attenuation; proposed MAE beats the
    green baseline at factors <= 0.25 (medians over 9 seeds)."""
    levels = [1.0, 0.5, 0.25, 0.1, 0.05]
    cfg = SynthConfig(hr_bpm=72.0, duration_s=60.0, pulse_amp=(0.3, 1.0, 0.2),
                      noise_rms=(1.0, 1.0, 1.0), harmonic_ratio=0.3, seed=0)
    rows = sweep_report(cfg, levels, PipelineConfig(), n_seeds=9, jobs=4)
    proposed = {r["level"]: r for r in rows if r["method"] == "proposed"}
    base = {r["level"]: r for r in rows if r["method"] == "green-baseline"}
    snrs = [proposed[lv]["snr_db"] for lv in levels]
    for a, b in zip(snrs, snrs[1:]):
        assert b <= a, f"SNR not non-increasing: {snrs}"
    for lv in (0.25, 0.1, 0.05):
        assert proposed[lv]["mae_bpm"] <= base[lv]["mae_bpm"], (
            f"level {lv}: proposed {proposed[lv]['mae_bpm']:.2f} > "
            f"baseline {base[lv]['mae_bpm']:.2f}")
    _report("criterion 8: sweep SNR monotonicity and MAE dominance")


def test_criterion_9_amplitude_equivariance():
    """pipeline(alpha*x) == alpha*pipeline(x) and identical HR."""
    trace = generate(SynthConfig(hr_bpm=72.0, duration_s=60.0,
                                 noise_rms=(0.5, 0.5, 0.5), seed=4))
    pulse = run_pipeline(trace)
    bpm = estimate_hr(pulse).bpm
    for alpha in (0.1, 10.0):
        scaled = dataclasses.replace(trace, samples=trace.samples * alpha)
        pulse_a = run_pipeline(scaled)
        rel = (np.linalg.norm(pulse_a.samples - alpha * pulse.samples)
               / np.linalg.norm(alpha * pulse.samples))
        assert rel < 1e-6, f"alpha={alpha}: relative error {rel}"
        assert estimate_hr(pulse_a).bpm == bpm
    _report("criterion 9: amplitude equivariance at alpha in {0.1, 10}")


def test_criterion_10_sweep_determinism(tmp_path):
    """Two cmd_sweep runs with the same config and seed are byte-identical."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "hr_bpm": 72.0, "duration_s": 30.0, "pulse_amp": [0.3, 1.0, 0.2],
        "noise_rms": [1.0, 1.0, 1.0], "seed": 7,
    }))
    args = ["--levels", "1.0,0.25", "--seeds", "2", "--jobs", "2", "--seed", "7"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", str(cfg_path), str(a)] + args) == 0
    assert main(["sweep", str(cfg_path), str(b)] + args) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("level,method,snr_db,mae_bpm,rmse_bpm")
    _report("criterion 10: byte-identical sweep reports")
