"""Illumination sweep: both methods over attenuated synthetic traces.

Stages are called through module globals, so a caller can wrap them here.
The package and ``cli`` import this module, with its thread pool,
``statistics`` and evaluation modules, only when a sweep first runs.
"""

from __future__ import annotations

import dataclasses
import statistics
from concurrent.futures import ThreadPoolExecutor

from . import baseline, metrics, synth
from .errors import ConfigError
from .hr import sliding_hr
from .reconstruct import run_pipeline

METHODS = ("proposed", "green-baseline")


def _score(cfg, method, pipe_config):
    """``(snr_db, mae_bpm, rmse_bpm)`` of one method on one attenuated
    synthetic config."""
    trace = synth.generate(cfg)
    if method == "proposed":
        sig = run_pipeline(trace, pipe_config).samples
    else:
        sig = baseline.green_baseline_signal(trace, lam=pipe_config.lam,
                                             band=pipe_config.band)
    est = [bpm for _, bpm in sliding_hr(sig, trace.fs, win_s=pipe_config.window_s,
                                        step_s=pipe_config.step_s, band=pipe_config.band)]
    ref = [cfg.hr_bpm] * len(est)
    return (metrics.cap_snr(metrics.snr(sig, trace.fs, cfg.hr_bpm)),
            metrics.mae(est, ref), metrics.rmse(est, ref))


def sweep_report(config, levels, pipe_config, n_seeds: int = 1,
                 jobs: int = 1) -> list[dict]:
    """One row per (level, method); metrics are medians over seeds.

    ``n_seeds`` and ``jobs`` must be at least 1, and every level is
    checked (``synth.attenuate``), before any task starts.  One task
    scores one method on one (level, seed) trace; every pipeline task is
    queued before the shorter baseline tasks, so with ``jobs`` > 1 these
    fill the workers that would otherwise wait for the last pipeline run
    (longest first).  The rows do not depend on ``jobs``.
    """
    if n_seeds < 1 or jobs < 1:
        raise ConfigError(f"seeds and jobs must be >= 1, got {n_seeds} and {jobs}")
    cfgs = [synth.attenuate(dataclasses.replace(config, seed=config.seed + k), level)
            for level in levels for k in range(n_seeds)]
    tasks = [(cfg, method) for method in METHODS for cfg in cfgs]

    def score(task):
        return _score(*task, pipe_config)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(score, tasks))
    else:
        results = [score(task) for task in tasks]

    rows = []
    for i, level in enumerate(levels):
        for m, method in enumerate(METHODS):
            start = m * len(cfgs) + i * n_seeds
            snr_db, mae_bpm, rmse_bpm = (statistics.median(col) for col in
                                         zip(*results[start:start + n_seeds]))
            rows.append({"level": level, "method": method, "snr_db": snr_db,
                         "mae_bpm": mae_bpm, "rmse_bpm": rmse_bpm})
    return rows
