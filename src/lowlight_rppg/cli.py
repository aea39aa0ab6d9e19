"""Command-line front end: extract, evaluate, synth, sweep, analyze.

Exit codes: 0 success, 2 input/config error, 3 processing error.  All
report floats are formatted at 6 significant digits so repeated runs with
the same seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import baseline, metrics, synth
from .errors import ConfigError, InvalidHeader, PairingError, ParseError, RppgError
from .hr import estimate_hr, sliding_hr
from .ingest import load_trace_csv, save_trace_csv
from .reconstruct import PipelineConfig, PulseWave, run_pipeline

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PROCESSING = 3


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _round6(obj):
    """Recursively round floats to 6 significant digits for stable output."""
    if isinstance(obj, float):
        return float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    return obj


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_round6(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _pipeline_config(args) -> PipelineConfig:
    return PipelineConfig(
        window_s=args.window_s,
        step_s=args.step_s,
        ssa_window=args.ssa_window,
        sec_chn=args.sec_chn,
        lam=args.lam,
        band=(args.band_low, args.band_high),
        sigma_init=args.sigma_init,
    )


def _add_pipeline_flags(parser) -> None:
    parser.add_argument("--window-s", type=float, default=10.0)
    parser.add_argument("--step-s", type=float, default=1.0)
    parser.add_argument("--ssa-window", type=int, default=None)
    parser.add_argument("--sec-chn", type=int, default=10)
    parser.add_argument("--lambda", dest="lam", type=float, default=100.0)
    parser.add_argument("--band-low", type=float, default=0.7)
    parser.add_argument("--band-high", type=float, default=4.0)
    parser.add_argument("--sigma-init", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def save_pulse_csv(pulse: PulseWave, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# fs={_fmt(float(pulse.fs))}\n")
        for i, v in enumerate(pulse.samples):
            fh.write(f"{i},{_fmt(float(v))}\n")


def load_pulse_csv(path) -> PulseWave:
    fs = None
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                key, _, value = body.partition("=")
                if key.strip() == "fs":
                    try:
                        fs = float(value)
                    except ValueError:
                        raise InvalidHeader(f"line {lineno}: bad fs value")
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"expected 2 fields, got {len(parts)}", lineno)
            try:
                values.append(float(parts[1]))
            except ValueError:
                raise ParseError(f"non-numeric value in {line!r}", lineno)
    if fs is None or not (np.isfinite(fs) and fs > 0):
        raise InvalidHeader("missing or invalid '# fs=' header")
    samples = np.array(values)
    if not np.all(np.isfinite(samples)):
        raise ParseError("pulse contains a non-finite sample")
    return PulseWave(samples=samples, fs=fs)


def load_reference_csv(path) -> list[tuple[float, float]]:
    """Reference HR CSV: ``t_seconds,bpm`` rows, ``#`` comments allowed."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"expected 2 fields, got {len(parts)}", lineno)
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ParseError(f"non-numeric value in {line!r}", lineno)
    if not rows:
        raise ParseError("reference file has no data rows")
    return rows


def _csv_field_count(path) -> int:
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            return len(line.split(","))
    raise ParseError("file has no data rows")


def cmd_extract(args) -> int:
    trace = load_trace_csv(args.trace)
    pulse = run_pipeline(trace, _pipeline_config(args))
    save_pulse_csv(pulse, args.out)
    base, _ = os.path.splitext(args.out)
    _write_json(base + ".windows.json",
                [rec.to_dict() for rec in pulse.window_flags])
    est = estimate_hr(pulse)
    _write_json(base + ".hr.json",
                {"bpm": est.bpm, "peak_freq_hz": est.peak_freq})
    return EXIT_OK


def cmd_evaluate(args) -> int:
    n_fields = _csv_field_count(args.input)
    if n_fields == 4:
        trace = load_trace_csv(args.input)
        pulse = run_pipeline(trace, _pipeline_config(args))
    elif n_fields == 2:
        pulse = load_pulse_csv(args.input)
    else:
        raise ParseError(f"cannot identify input with {n_fields} fields per row")
    ref = load_reference_csv(args.reference)
    est = sliding_hr(pulse.samples, pulse.fs, win_s=args.window_s,
                     step_s=args.step_s)
    report = metrics.evaluate(pulse.samples, pulse.fs, est, ref)
    _write_json(args.report, report.to_dict())
    return EXIT_OK


def cmd_synth(args) -> int:
    config = synth.SynthConfig.from_json(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    save_trace_csv(synth.generate(config), args.out)
    return EXIT_OK


def _sweep_one(config, level, pipe_config):
    """Metrics for both methods at one attenuation level, one seed."""
    cfg = dataclasses.replace(
        config, pulse_amp=tuple(level * a for a in config.pulse_amp))
    trace = synth.generate(cfg)
    hr_ref = config.hr_bpm
    rows = {}

    pulse = run_pipeline(trace, pipe_config)
    est = sliding_hr(pulse.samples, pulse.fs, win_s=pipe_config.window_s,
                     step_s=pipe_config.step_s)
    errs = [bpm - hr_ref for _, bpm in est]
    rows["proposed"] = (
        metrics.cap_snr(metrics.snr(pulse.samples, pulse.fs, hr_ref)),
        float(np.mean(np.abs(errs))),
        float(np.sqrt(np.mean(np.square(errs)))),
    )

    sig = baseline.green_baseline_signal(trace, lam=pipe_config.lam)
    est = sliding_hr(sig, trace.fs, win_s=pipe_config.window_s,
                     step_s=pipe_config.step_s)
    errs = [bpm - hr_ref for _, bpm in est]
    rows["green-baseline"] = (
        metrics.cap_snr(metrics.snr(sig, trace.fs, hr_ref)),
        float(np.mean(np.abs(errs))),
        float(np.sqrt(np.mean(np.square(errs)))),
    )
    return rows


def sweep_report(config, levels, pipe_config, n_seeds: int = 1,
                 jobs: int = 1) -> list[dict]:
    """One row per (level, method); metrics are medians over seeds."""
    tasks = []
    for level in levels:
        for k in range(n_seeds):
            cfg = dataclasses.replace(config, seed=config.seed + k)
            tasks.append((cfg, level))
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(
                lambda t: _sweep_one(t[0], t[1], pipe_config), tasks))
    else:
        results = [_sweep_one(cfg, level, pipe_config) for cfg, level in tasks]

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


def cmd_sweep(args) -> int:
    config = synth.SynthConfig.from_json(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    try:
        levels = [float(v) for v in args.levels.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"bad --levels value {args.levels!r}")
    if not levels:
        raise ConfigError("--levels must name at least one attenuation factor")
    rows = sweep_report(config, levels, _pipeline_config(args),
                        n_seeds=args.seeds, jobs=args.jobs)
    if args.format == "json":
        _write_json(args.report, rows)
    else:
        with open(args.report, "w") as fh:
            fh.write("level,method,snr_db,mae_bpm,rmse_bpm\n")
            for r in rows:
                fh.write(",".join([
                    _fmt(float(r["level"])), r["method"], _fmt(r["snr_db"]),
                    _fmt(r["mae_bpm"]), _fmt(r["rmse_bpm"])]) + "\n")
    return EXIT_OK


def cmd_analyze(args) -> int:
    config = _pipeline_config(args)
    trace = load_trace_csv(args.trace)
    os.makedirs(args.outdir, exist_ok=True)
    green = trace.green()

    freqs, power = metrics.spectrum(green, trace.fs)
    with open(os.path.join(args.outdir, "spectrum.csv"), "w") as fh:
        fh.write("freq_hz,power\n")
        for f, p in zip(freqs, power):
            fh.write(f"{_fmt(float(f))},{_fmt(float(p))}\n")

    times, sfreqs, sxx = metrics.spectrogram(green, trace.fs,
                                             win_s=args.window_s,
                                             hop_s=args.step_s)
    with open(os.path.join(args.outdir, "spectrogram.csv"), "w") as fh:
        fh.write("t_seconds," + ",".join(_fmt(float(f)) for f in sfreqs) + "\n")
        for t, row in zip(times, sxx):
            fh.write(_fmt(float(t)) + "," +
                     ",".join(_fmt(float(v)) for v in row) + "\n")

    sig = baseline.green_baseline_signal(trace, lam=config.lam, band=config.band)
    est = baseline.green_baseline_hr(trace, lam=config.lam, band=config.band)
    _write_json(os.path.join(args.outdir, "peaks.json"), {
        "peak_freq_hz": est.peak_freq,
        "bpm": est.bpm,
        "snr_db": metrics.cap_snr(metrics.snr(sig, trace.fs, est.bpm)),
    })
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowlight-rppg",
        description="Low-light rPPG pulse extraction and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="run the pipeline on a trace CSV")
    p.add_argument("trace")
    p.add_argument("out")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("evaluate", help="score a pulse or trace against reference HR")
    p.add_argument("input", help="pulse CSV (2 fields) or trace CSV (4 fields)")
    p.add_argument("reference", help="reference HR CSV: t_seconds,bpm")
    p.add_argument("report", help="output report JSON")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic trace CSV")
    p.add_argument("config", help="SynthConfig JSON")
    p.add_argument("out")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sweep", help="illumination sweep over attenuation factors")
    p.add_argument("config", help="SynthConfig JSON")
    p.add_argument("report", help="output report CSV or JSON")
    p.add_argument("--levels", default="1.0,0.5,0.25,0.1,0.05")
    p.add_argument("--seeds", type=int, default=1,
                   help="seeds per level; metrics are medians")
    p.add_argument("--jobs", type=int, default=1)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="emit spectrum/spectrogram/peak files")
    p.add_argument("trace")
    p.add_argument("outdir")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_analyze)

    return parser


# PairingError counts as an input error: it means the supplied reference
# file does not cover the estimated windows.
_INPUT_ERRORS = (ParseError, InvalidHeader, ConfigError, PairingError,
                 FileNotFoundError, IsADirectoryError, PermissionError,
                 json.JSONDecodeError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RppgError as exc:
        print(f"processing error: {exc}", file=sys.stderr)
        return EXIT_PROCESSING


if __name__ == "__main__":
    sys.exit(main())
