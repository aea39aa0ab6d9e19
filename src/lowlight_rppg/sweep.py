"""Illumination sweep: both methods over attenuated synthetic traces.

Stages are called through module globals, so a caller can wrap them here.
"""

from __future__ import annotations

import dataclasses
import statistics
from concurrent.futures import ThreadPoolExecutor

from . import baseline, metrics, synth
from .errors import ConfigError
from .hr import sliding_hr
from .reconstruct import run_pipeline


def _sweep_one(cfg, pipe_config):
    """Metrics for both methods on one attenuated synthetic config."""
    trace = synth.generate(cfg)
    hr_ref = cfg.hr_bpm
    pulse = run_pipeline(trace, pipe_config)
    signals = {
        "proposed": pulse.samples,
        "green-baseline": baseline.green_baseline_signal(
            trace, lam=pipe_config.lam, band=pipe_config.band),
    }
    rows = {}
    for method, sig in signals.items():
        est = [bpm for _, bpm in sliding_hr(sig, trace.fs, win_s=pipe_config.window_s,
                                            step_s=pipe_config.step_s,
                                            band=pipe_config.band)]
        ref = [hr_ref] * len(est)
        rows[method] = (metrics.cap_snr(metrics.snr(sig, trace.fs, hr_ref)),
                        metrics.mae(est, ref), metrics.rmse(est, ref))
    return rows


def sweep_report(config, levels, pipe_config, n_seeds: int = 1,
                 jobs: int = 1) -> list[dict]:
    """One row per (level, method); metrics are medians over seeds.

    ``n_seeds`` and ``jobs`` must be at least 1, and every level is
    checked (``synth.attenuate``), before any task starts.
    """
    if n_seeds < 1 or jobs < 1:
        raise ConfigError(f"seeds and jobs must be >= 1, got {n_seeds} and {jobs}")
    tasks = [synth.attenuate(dataclasses.replace(config, seed=config.seed + k), level)
             for level in levels for k in range(n_seeds)]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda cfg: _sweep_one(cfg, pipe_config), tasks))
    else:
        results = [_sweep_one(cfg, pipe_config) for cfg in tasks]

    rows = []
    for i, level in enumerate(levels):
        per_level = results[i * n_seeds:(i + 1) * n_seeds]
        for method in ("proposed", "green-baseline"):
            snr_db = statistics.median(r[method][0] for r in per_level)
            mae_bpm = statistics.median(r[method][1] for r in per_level)
            rmse_bpm = statistics.median(r[method][2] for r in per_level)
            rows.append({"level": level, "method": method, "snr_db": snr_db,
                         "mae_bpm": mae_bpm, "rmse_bpm": rmse_bpm})
    return rows
