"""Command-line front end: extract, evaluate, synth, sweep, analyze.

Exit codes: 0 success, 2 input/config error, 3 processing error.  All
report floats are formatted at 6 significant digits so repeated runs with
the same seed produce byte-identical outputs.
Importing this module loads the pipeline only; each command imports the
evaluation modules it uses when it runs, so ``extract`` loads none of them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings

from .errors import ConfigError, InvalidHeader, PairingError, ParseError, RppgError
from .hr import estimate_hr, estimate_hr_series, sliding_hr
from .ingest import (RawTrace, load_pulse_or_trace, load_reference_csv, load_trace_csv,
                     save_pulse_csv, save_trace_csv, write_csv)
from .reconstruct import PipelineConfig, run_pipeline

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PROCESSING = 3


def __getattr__(name):
    """``sweep_report``, imported from ``sweep`` on first use."""
    if name == "sweep_report":
        from .sweep import sweep_report
        return sweep_report
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        fh.write(json.dumps(_round6(obj), indent=2, sort_keys=True) + "\n")


# Pipeline flags that only the commands running the SSA pipeline take.
_SSA_FIELDS = ("ssa_window", "sec_chn", "sigma_init")


def _pipeline_config(args) -> PipelineConfig:
    """The command's pipeline flags as a config; a field it takes no flag
    for keeps its default."""
    ssa = {name: getattr(args, name) for name in _SSA_FIELDS if hasattr(args, name)}
    return PipelineConfig(window_s=args.window_s, step_s=args.step_s, lam=args.lam,
                          band=(args.band_low, args.band_high), **ssa)


def _add_pipeline_flags(parser, ssa: bool = True) -> None:
    """Flags defaulting to ``PipelineConfig``'s values; the SSA and mask
    flags only with ``ssa``."""
    default = PipelineConfig()
    parser.add_argument("--window-s", type=float, default=default.window_s)
    parser.add_argument("--step-s", type=float, default=default.step_s)
    parser.add_argument("--lambda", dest="lam", type=float, default=default.lam)
    parser.add_argument("--band-low", type=float, default=default.band[0])
    parser.add_argument("--band-high", type=float, default=default.band[1])
    if ssa:
        parser.add_argument("--ssa-window", type=int, default=default.ssa_window)
        parser.add_argument("--sec-chn", type=int, default=default.sec_chn)
        parser.add_argument("--sigma-init", type=float, default=default.sigma_init)


def _check_output_files(*paths) -> None:
    """Raise the OSError that writing ``paths`` would, before any work.
    Each path is created and removed again, or, if it exists, opened for
    appending, which leaves it as it is."""
    for path in paths:
        try:
            open(path, "x").close()
        except FileExistsError:
            open(path, "a").close()
        else:
            os.remove(path)


def _check_output_dir(path, files) -> None:
    """Raise the OSError that making directory ``path`` and writing
    ``files`` in it would, before any work; the directories the check
    makes, it removes again."""
    missing = []
    head = path
    while head and not os.path.lexists(head):
        missing.append(head)
        head = os.path.dirname(head)
    made = []
    try:
        for head in reversed(missing):
            if not os.path.isdir(head):  # "a/" or "a/.." once "a" is made
                os.mkdir(head)
                made.append(head)
        _check_output_files(*files)
    finally:
        for head in reversed(made):
            os.rmdir(head)


def cmd_extract(args) -> int:
    config = _pipeline_config(args)
    base, _ = os.path.splitext(args.out)
    windows_path, hr_path = base + ".windows.json", base + ".hr.json"
    _check_output_files(args.out, windows_path, hr_path)
    trace = load_trace_csv(args.trace)
    pulse = run_pipeline(trace, config)
    est = estimate_hr(pulse, band=config.band, min_duration_s=config.window_s)
    save_pulse_csv(pulse, args.out)
    _write_json(windows_path, [rec.to_dict() for rec in pulse.window_flags])
    _write_json(hr_path, {"bpm": est.bpm, "peak_freq_hz": est.peak_freq})
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from . import metrics
    config = _pipeline_config(args)
    _check_output_files(args.report)
    signal = load_pulse_or_trace(args.input)
    if isinstance(signal, RawTrace):
        pulse = run_pipeline(signal, config)
        signal = pulse.samples, pulse.fs
    samples, fs = signal
    ref = load_reference_csv(args.reference)
    est = sliding_hr(samples, fs, win_s=config.window_s, step_s=config.step_s,
                     band=config.band)
    report = metrics.evaluate(samples, fs, est, ref)
    _write_json(args.report, report.to_dict())
    return EXIT_OK


def cmd_synth(args) -> int:
    from . import synth
    _check_output_files(args.out)
    config = synth.SynthConfig.from_json(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    save_trace_csv(synth.generate(config), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    from . import sweep, synth
    _check_output_files(args.report)
    config = synth.SynthConfig.from_json(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    try:
        levels = [float(v) for v in args.levels.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"bad --levels value {args.levels!r}")
    if not levels:
        raise ConfigError("--levels must name at least one attenuation factor")
    rows = sweep.sweep_report(config, levels, _pipeline_config(args),
                              n_seeds=args.seeds, jobs=args.jobs)
    if args.format == "json":
        _write_json(args.report, rows)
    else:
        write_csv(args.report, "level,method,snr_db,mae_bpm,rmse_bpm",
                  "%.6g,%s,%.6g,%.6g,%.6g",
                  ((float(r["level"]), r["method"], r["snr_db"], r["mae_bpm"],
                    r["rmse_bpm"]) for r in rows))
    return EXIT_OK


def cmd_analyze(args) -> int:
    """Spectrum and spectrogram of the raw green channel, and the HR of the
    green baseline signal; every result is computed before any file is
    written, so a processing error leaves none."""
    from . import baseline, metrics
    config = _pipeline_config(args)
    if not args.outdir:
        raise ConfigError("outdir must name a directory, got ''")
    outputs = [os.path.join(args.outdir, name)
               for name in ("spectrum.csv", "spectrogram.csv", "peaks.json")]
    _check_output_dir(args.outdir, outputs)
    trace = load_trace_csv(args.trace)
    green = trace.green()
    freqs, power = metrics.spectrum(green, trace.fs)
    times, sfreqs, sxx = metrics.spectrogram(green, trace.fs, win_s=config.window_s,
                                             hop_s=config.step_s)
    sig = baseline.green_baseline_signal(trace, lam=config.lam, band=config.band)
    est = estimate_hr_series(sig, trace.fs, config.window_s, config.band)
    try:
        snr_db = metrics.cap_snr(metrics.snr(sig, trace.fs, est.bpm))
    except ConfigError:
        snr_db = None  # peak outside the SNR metric's fixed [0.7, 4] Hz band

    os.makedirs(args.outdir, exist_ok=True)
    spectrum_csv, spectrogram_csv, peaks_json = outputs
    write_csv(spectrum_csv, "freq_hz,power", "%.6g,%.6g", zip(freqs.tolist(), power.tolist()))
    write_csv(spectrogram_csv, "t_seconds" + "".join(",%.6g" % f for f in sfreqs.tolist()),
              ",".join(["%.6g"] * (1 + len(sfreqs))),
              ((t, *row) for t, row in zip(times.tolist(), sxx.tolist())))
    _write_json(peaks_json, {
        "peak_freq_hz": est.peak_freq,
        "bpm": est.bpm,
        "snr_db": snr_db,
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
    p.add_argument("--seed", type=int, default=None,
                   help="first synthesis seed (default: the config's seed)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="emit spectrum/spectrogram/peak files")
    p.add_argument("trace")
    p.add_argument("outdir")
    _add_pipeline_flags(p, ssa=False)
    p.set_defaults(func=cmd_analyze)

    return parser


# PairingError counts as an input error: it means the supplied reference
# file does not cover the estimated windows.  UnicodeDecodeError is a file
# that is not text.  An OSError is an input or output path that cannot be
# read or written.
_INPUT_ERRORS = (ParseError, InvalidHeader, ConfigError, PairingError, OSError,
                 json.JSONDecodeError, UnicodeDecodeError)


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """``warnings.showwarning`` for a command: the message alone, with no
    path or source line of the library code that raised it."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # catch_warnings restores the caller's showwarning on return
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
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
