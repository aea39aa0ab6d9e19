import argparse
import dataclasses
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import lowlight_rppg

from lowlight_rppg import (PipelineConfig, PulseWave, RawTrace, SynthConfig, generate,
                           load_trace_csv, run_pipeline, save_trace_csv)
from lowlight_rppg.cli import _pipeline_config, _write_json, build_parser, main, save_pulse_csv
from lowlight_rppg.errors import ParseError, RppgError
from oracles import load_pulse_csv


@pytest.fixture
def clean_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "hr_bpm": 72.0, "fs": 30.0, "duration_s": 60.0,
        "noise_rms": [0.0, 0.0, 0.0], "seed": 0,
    }))
    return path


@pytest.fixture
def clean_trace(tmp_path):
    path = tmp_path / "trace.csv"
    save_trace_csv(generate(SynthConfig(hr_bpm=72.0, noise_rms=(0.0, 0.0, 0.0))),
                   path)
    return path


def write_reference(path, bpm, t_range):
    lines = [f"{t},{bpm}" for t in t_range]
    path.write_text("\n".join(lines) + "\n")


class TestExtract:
    def test_clean_trace(self, tmp_path, clean_trace):
        out = tmp_path / "pulse.csv"
        assert main(["extract", str(clean_trace), str(out)]) == 0
        hr = json.loads((tmp_path / "pulse.hr.json").read_text())
        assert abs(hr["bpm"] - 72.0) <= 0.2
        windows = json.loads((tmp_path / "pulse.windows.json").read_text())
        assert len(windows) == 51
        pulse = load_pulse_csv(out)
        assert pulse.fs == 30.0
        assert len(pulse.samples) > 0

    @pytest.mark.filterwarnings("ignore:series of 300 samples")
    def test_band_reaches_hr_estimate(self, tmp_path):
        # a 36 bpm (0.6 Hz) pulse lies below the default band
        t = np.arange(1800) / 30.0
        green = 100.0 + np.sin(2 * np.pi * 0.6 * t)
        path = tmp_path / "slow.csv"
        save_trace_csv(RawTrace(samples=np.column_stack([np.full_like(t, 100.0), green,
                                                         np.full_like(t, 100.0)]),
                                fs=30.0), path)
        out = tmp_path / "pulse.csv"
        assert main(["extract", str(path), str(out)]) == 0
        assert json.loads((tmp_path / "pulse.hr.json").read_text())["bpm"] >= 42.0
        assert main(["extract", str(path), str(out), "--band-low", "0.5"]) == 0
        bpm = json.loads((tmp_path / "pulse.hr.json").read_text())["bpm"]
        assert abs(bpm - 36.0) <= 0.2

    def test_missing_input_exit_2(self, tmp_path):
        assert main(["extract", str(tmp_path / "nope.csv"),
                     str(tmp_path / "out.csv")]) == 2

    def test_malformed_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# fs=30\n0,1,2\n")
        assert main(["extract", str(bad), str(tmp_path / "out.csv")]) == 2

    @pytest.mark.parametrize("edit, flags", [
        (lambda lines: lines[:3] + ["2,1.0,nan,1.0"] + lines[4:], []),
        (lambda lines: ["# fs=inf"] + lines[1:], []),
        (lambda lines: lines, ["--sec-chn", "0"]),
        (lambda lines: lines, ["--band-high", "20"]),
        (lambda lines: lines, ["--lambda", "1e8"]),
        (lambda lines: lines, ["--lambda", "1e300"]),
        (lambda lines: lines, ["--ssa-window", "200"]),
        (lambda lines: lines, ["--window-s", "0.01"]),
    ], ids=["nan-sample", "fs-inf", "sec-chn-0", "band-above-nyquist", "lambda-1e8",
            "lambda-1e300", "ssa-window-above-half", "window-under-4-samples"])
    def test_bad_input_exit_2_without_traceback(self, tmp_path, clean_trace,
                                                capsys, edit, flags):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(edit(clean_trace.read_text().splitlines())) + "\n")
        assert main(["extract", str(path), str(tmp_path / "out.csv"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_binary_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"# fs=30\n\x80\xff,1,2,3\n")
        assert main(["extract", str(path), str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_too_short_trace_exit_3(self, tmp_path):
        path = tmp_path / "short.csv"
        lines = ["# fs=30"] + [f"{i},1,{1 + 0.1 * (i % 7)},1" for i in range(60)]
        path.write_text("\n".join(lines) + "\n")
        assert main(["extract", str(path), str(tmp_path / "out.csv")]) == 3

    @pytest.mark.filterwarnings("ignore:series of")
    def test_hr_minimum_follows_window(self, tmp_path):
        # an 8 s trace with --window-s 4 used to write the pulse and the
        # windows, then exit 3 on the HR step's fixed 10 s minimum
        trace = generate(SynthConfig(hr_bpm=75.0, duration_s=10.0, noise_rms=(0.0,) * 3))
        path = tmp_path / "short.csv"
        save_trace_csv(RawTrace(samples=trace.samples[:240], fs=30.0), path)
        assert main(["extract", str(path), str(tmp_path / "p.csv"), "--window-s", "4"]) == 0
        assert sorted(f.name for f in tmp_path.glob("p*")) == [
            "p.csv", "p.hr.json", "p.windows.json"]
        assert abs(json.loads((tmp_path / "p.hr.json").read_text())["bpm"] - 75.0) <= 1.0

    def test_rate_whose_window_rounds_down(self, tmp_path):
        # at 30.01 Hz a 10 s window is round(300.1) = 300 samples, and a
        # 330-sample trace emits one window: a 300-sample pulse, which the
        # HR step must accept as 10 s
        trace = generate(SynthConfig(hr_bpm=72.0, fs=30.01, duration_s=11.0,
                                     noise_rms=(0.0, 0.0, 0.0)))
        assert len(trace) == 330
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)
        assert main(["extract", str(path), str(tmp_path / "p.csv")]) == 0
        assert sorted(f.name for f in tmp_path.glob("p*")) == [
            "p.csv", "p.hr.json", "p.windows.json"]
        assert len(load_pulse_csv(tmp_path / "p.csv").samples) == 300

    def test_t0_header_is_skipped(self, tmp_path, clean_trace):
        # times count from the first sample: a "# t0=" header, as older
        # versions wrote one, changes no output and is not written back
        fs_line, rest = clean_trace.read_text().split("\n", 1)
        shifted = tmp_path / "shifted.csv"
        shifted.write_text(f"{fs_line}\n# t0=100\n{rest}")
        outputs = []
        for path in (clean_trace, shifted):
            out = tmp_path / f"{path.stem}-pulse.csv"
            assert main(["extract", str(path), str(out)]) == 0
            outputs.append([out.with_name(out.stem + ext).read_bytes()
                            for ext in (".csv", ".windows.json", ".hr.json")])
        assert outputs[0] == outputs[1]
        resaved = tmp_path / "resaved.csv"
        save_trace_csv(load_trace_csv(shifted), resaved)
        assert resaved.read_bytes() == clean_trace.read_bytes()

    def test_processing_error_writes_no_file(self, tmp_path, clean_trace, monkeypatch):
        from lowlight_rppg import cli

        def fail(*args, **kwargs):
            raise RppgError("no HR")
        monkeypatch.setattr(cli, "estimate_hr", fail)
        assert main(["extract", str(clean_trace), str(tmp_path / "p.csv")]) == 3
        assert list(tmp_path.glob("p*")) == []

    @pytest.mark.parametrize("out", ["afile/p.csv", "nodir/p.csv"],
                             ids=["under-a-file", "no-directory"])
    def test_unwritable_output_exit_2_before_any_work(self, tmp_path, clean_trace, capsys,
                                                      monkeypatch, out):
        # extract used to run the whole pipeline, then end in a
        # NotADirectoryError traceback
        from lowlight_rppg import cli
        (tmp_path / "afile").write_text("")
        read = []
        monkeypatch.setattr(cli, "load_trace_csv", read.append)
        assert main(["extract", str(clean_trace), str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert read == []

    def test_directory_at_an_output_path_writes_no_file(self, tmp_path, clean_trace, capsys):
        # the pulse file used to be written before the windows file failed
        (tmp_path / "p.windows.json").mkdir()
        assert main(["extract", str(clean_trace), str(tmp_path / "p.csv")]) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert sorted(f.name for f in tmp_path.glob("p*")) == ["p.windows.json"]

    def test_too_long_output_name_exit_2_before_any_work(self, tmp_path, clean_trace, capsys,
                                                         monkeypatch):
        # the pulse file name fits, the windows file name does not: extract
        # used to run the pipeline, write the pulse file, then end in an
        # "[Errno 36] File name too long" traceback
        from lowlight_rppg import cli
        read = []
        monkeypatch.setattr(cli, "load_trace_csv", read.append)
        out = tmp_path / ("x" * 250 + ".csv")
        assert main(["extract", str(clean_trace), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File name too long" in err
        assert read == [] and list(tmp_path.glob("x*")) == []

    def test_output_check_leaves_existing_files_as_they_are(self, tmp_path, clean_trace):
        out = tmp_path / "p.csv"
        out.write_text("old")
        (tmp_path / "p.windows.json").mkdir()
        assert main(["extract", str(clean_trace), str(out)]) == 2
        assert out.read_text() == "old"
        assert sorted(f.name for f in tmp_path.glob("p*")) == ["p.csv", "p.windows.json"]


def _per_value_fmt(v) -> str:
    # how every CSV field was formatted before the writers took row formats
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _per_value_csv(header, rows) -> str:
    return header + "\n" + "".join(",".join(map(_per_value_fmt, row)) + "\n" for row in rows)


def _streamed_json(obj) -> str:
    # how JSON files were written before: json.dump chunks, then a newline
    from lowlight_rppg.cli import _round6
    buf = io.StringIO()
    json.dump(_round6(obj), buf, indent=2, sort_keys=True)
    return buf.getvalue() + "\n"


SPECIAL_FLOATS = [1e-7, 123456789.0, float("inf"), float("-inf"), float("nan"), -0.0,
                  0.0, 72.123456789, -3.5e-300, 1e300]


class TestWritersMatchPerValueFormat:
    def test_pulse_csv(self, tmp_path):
        path = tmp_path / "p.csv"
        save_pulse_csv(PulseWave(samples=np.array(SPECIAL_FLOATS), fs=29.97), path)
        assert path.read_text() == _per_value_csv("# fs=29.97", enumerate(SPECIAL_FLOATS))

    def test_pulse_index_stays_integer(self, tmp_path):
        path = tmp_path / "p.csv"
        samples = np.zeros(1234568)
        samples[-1] = 0.25
        save_pulse_csv(PulseWave(samples=samples, fs=30.0), path)
        tail = _per_value_csv("", [(1234566, 0.0), (1234567, 0.25)])  # "\n1234566,0\n..."
        assert path.read_text().endswith(tail)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_report(self, tmp_path, clean_config, monkeypatch, fmt):
        from lowlight_rppg import sweep
        rows = [{"level": 1.0, "method": "proposed", "snr_db": float("inf"),
                 "mae_bpm": 1e-7, "rmse_bpm": 123456789.0},
                {"level": 0.05, "method": "green-baseline", "snr_db": float("nan"),
                 "mae_bpm": -0.0, "rmse_bpm": 60.0}]
        monkeypatch.setattr(sweep, "sweep_report", lambda *args, **kwargs: rows)
        report = tmp_path / f"report.{fmt}"
        assert main(["sweep", str(clean_config), str(report), "--format", fmt]) == 0
        expected = (_streamed_json(rows) if fmt == "json" else _per_value_csv(
            "level,method,snr_db,mae_bpm,rmse_bpm",
            ((r["level"], r["method"], r["snr_db"], r["mae_bpm"], r["rmse_bpm"])
             for r in rows)))
        assert report.read_text() == expected

    def test_header_only_sweep_report(self, tmp_path, clean_config, monkeypatch):
        from lowlight_rppg import sweep
        monkeypatch.setattr(sweep, "sweep_report", lambda *args, **kwargs: [])
        report = tmp_path / "report.csv"
        assert main(["sweep", str(clean_config), str(report)]) == 0
        assert report.read_text() == "level,method,snr_db,mae_bpm,rmse_bpm\n"

    def test_analyze_csvs(self, tmp_path, clean_trace):
        from lowlight_rppg import metrics
        assert main(["analyze", str(clean_trace), str(tmp_path / "out")]) == 0
        trace = load_trace_csv(clean_trace)
        freqs, power = metrics.spectrum(trace.green(), trace.fs)
        assert (tmp_path / "out" / "spectrum.csv").read_text() == _per_value_csv(
            "freq_hz,power", zip(freqs.tolist(), power.tolist()))
        times, sfreqs, sxx = metrics.spectrogram(trace.green(), trace.fs)
        assert (tmp_path / "out" / "spectrogram.csv").read_text() == _per_value_csv(
            ",".join(["t_seconds", *map(_per_value_fmt, sfreqs.tolist())]),
            ([t, *row] for t, row in zip(times.tolist(), sxx.tolist())))

    def test_window_records_and_json(self, tmp_path):
        pulse = run_pipeline(generate(SynthConfig(hr_bpm=72.0, seed=4)))
        records = [rec.to_dict() for rec in pulse.window_flags]
        assert records == [dataclasses.asdict(rec) for rec in pulse.window_flags]
        _write_json(tmp_path / "w.json", records)
        assert (tmp_path / "w.json").read_text() == _streamed_json(records)


class TestEvaluate:
    def test_matching_reference_zero_error(self, tmp_path, clean_trace):
        out = tmp_path / "pulse.csv"
        assert main(["extract", str(clean_trace), str(out)]) == 0
        est_bpm = json.loads((tmp_path / "pulse.hr.json").read_text())["bpm"]
        ref = tmp_path / "ref.csv"
        write_reference(ref, est_bpm, np.arange(5.0, 56.0, 1.0))
        report_path = tmp_path / "report.json"
        assert main(["evaluate", str(out), str(ref), str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["mae_bpm"] <= 0.3
        assert report["rmse_bpm"] <= 0.3
        assert report["mae_bpm"] <= report["rmse_bpm"] + 1e-9

    def test_accepts_raw_trace_input(self, tmp_path, clean_trace):
        ref = tmp_path / "ref.csv"
        write_reference(ref, 72.0, np.arange(5.0, 56.0, 1.0))
        report_path = tmp_path / "report.json"
        assert main(["evaluate", str(clean_trace), str(ref), str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["mae_bpm"] <= 1.0

    def test_rate_whose_window_rounds_down(self, tmp_path):
        # at 30.04 Hz a 10 s window is round(300.4) = 300 samples
        trace = tmp_path / "trace.csv"
        save_trace_csv(generate(SynthConfig(hr_bpm=72.0, fs=30.04,
                                            noise_rms=(0.0, 0.0, 0.0))), trace)
        ref = tmp_path / "ref.csv"
        write_reference(ref, 72.0, np.arange(5.0, 56.0, 1.0))
        report_path = tmp_path / "report.json"
        assert main(["evaluate", str(trace), str(ref), str(report_path)]) == 0
        assert json.loads(report_path.read_text())["mae_bpm"] <= 1.0

    def test_zero_step_exit_2(self, tmp_path, clean_trace):
        out = tmp_path / "pulse.csv"
        assert main(["extract", str(clean_trace), str(out)]) == 0
        ref = tmp_path / "ref.csv"
        write_reference(ref, 72.0, np.arange(5.0, 56.0, 1.0))
        assert main(["evaluate", str(out), str(ref), str(tmp_path / "report.json"),
                     "--step-s", "0.001"]) == 2

    def test_pulse_below_band_nyquist_exit_2(self, tmp_path, capsys):
        # at fs = 1 Hz the default band holds no FFT bins
        pulse = tmp_path / "pulse.csv"
        pulse.write_text("# fs=1\n" + "".join(f"{i},{np.sin(i)}\n" for i in range(30)))
        ref = tmp_path / "ref.csv"
        write_reference(ref, 72.0, np.arange(5.0, 26.0, 1.0))
        assert main(["evaluate", str(pulse), str(ref), str(tmp_path / "report.json")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_unpairable_exit_2(self, tmp_path, clean_trace):
        ref = tmp_path / "ref.csv"
        write_reference(ref, 72.0, [100.0, 101.0])
        assert main(["evaluate", str(clean_trace), str(ref),
                     str(tmp_path / "report.json")]) == 2

    @pytest.mark.parametrize("rows", [["nan,72"], ["5,72", "6,inf"], ["-inf,72"]],
                             ids=["nan-time", "inf-bpm", "minus-inf-time"])
    def test_non_finite_reference_exit_2(self, tmp_path, clean_trace, capsys, rows):
        # a NaN reference time used to pair with every window
        ref = tmp_path / "ref.csv"
        ref.write_text("# t,bpm\n" + "\n".join(rows) + "\n")
        report = tmp_path / "report.json"
        assert main(["evaluate", str(clean_trace), str(ref), str(report)]) == 2
        err = capsys.readouterr().err
        assert f"line {len(rows) + 1}: non-finite value" in err
        assert not report.exists()


    @pytest.mark.parametrize("kind", ["trace", "pulse"])
    def test_reads_input_once(self, tmp_path, clean_trace, monkeypatch, kind):
        path = clean_trace
        if kind == "pulse":
            path = tmp_path / "pulse.csv"
            assert main(["extract", str(clean_trace), str(path)]) == 0
        ref = tmp_path / "ref.csv"
        write_reference(ref, 72.0, np.arange(5.0, 56.0, 1.0))
        opened = []
        real_open = open
        def counting_open(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return real_open(file, *args, **kwargs)
        monkeypatch.setattr("builtins.open", counting_open)
        assert main(["evaluate", str(path), str(ref), str(tmp_path / "report.json")]) == 0
        assert opened.count(str(path)) == 1

    def test_no_data_rows_exit_2(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("# fs=30\n")
        ref = tmp_path / "ref.csv"
        write_reference(ref, 72.0, [5.0])
        assert main(["evaluate", str(path), str(ref), str(tmp_path / "r.json")]) == 2
        assert "no data rows" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "synth", "sweep"])
def test_report_under_a_file_exit_2_before_any_work(tmp_path, clean_trace, clean_config,
                                                    capsys, monkeypatch, command):
    from lowlight_rppg import cli, synth
    (tmp_path / "afile").write_text("")
    out = str(tmp_path / "afile" / "out")
    read = []
    monkeypatch.setattr(cli, "read_csv", read.append)
    monkeypatch.setattr(synth.SynthConfig, "from_json", read.append)
    argv = {"evaluate": ["evaluate", str(clean_trace), str(clean_trace), out],
            "synth": ["synth", str(clean_config), out],
            "sweep": ["sweep", str(clean_config), out]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Not a directory" in err
    assert read == []


def test_pipeline_flag_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["extract", "a", "b"])
    assert _pipeline_config(args) == PipelineConfig()


@pytest.mark.parametrize("flag", ["--window-s", "--step-s"])
@pytest.mark.parametrize("command", ["extract", "evaluate", "analyze", "sweep"])
def test_huge_window_or_step_exit_2(tmp_path, clean_trace, clean_config, capsys,
                                    command, flag):
    # 1e308 s is finite, but its sample count is not: it used to end in an
    # OverflowError traceback
    ref = tmp_path / "ref.csv"
    write_reference(ref, 72.0, np.arange(5.0, 56.0, 1.0))
    args = {"extract": [clean_trace, tmp_path / "pulse.csv"],
            "evaluate": [clean_trace, ref, tmp_path / "report.json"],
            "analyze": [clean_trace, tmp_path / "out"],
            "sweep": [clean_config, tmp_path / "report.csv", "--levels", "1.0"]}[command]
    assert main([command, *map(str, args), flag, "1e308"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_load_pulse_csv_header_only_is_parse_error(tmp_path):
    # it used to return an empty pulse
    path = tmp_path / "pulse.csv"
    path.write_text("# fs=30\n")
    with pytest.raises(ParseError):
        load_pulse_csv(path)


class TestSynthCommand:
    def test_generates_loadable_trace(self, tmp_path, clean_config):
        out = tmp_path / "trace.csv"
        assert main(["synth", str(clean_config), str(out)]) == 0
        from lowlight_rppg import load_trace_csv
        trace = load_trace_csv(out)
        assert len(trace) == 1800

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"hr_bpm": 10.0}))
        assert main(["synth", str(cfg), str(tmp_path / "out.csv")]) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"hr_bpmm": 72.0}))
        assert main(["synth", str(cfg), str(tmp_path / "out.csv")]) == 2


    @pytest.mark.parametrize("content", [
        "5", "[{}]", '{"duration_s": NaN}', '{"fs": NaN}', '{"fs": Infinity}',
        '{"duration_s": Infinity}', '{"noise_rms": [NaN, 0, 0]}', '{"seed": -1}',
        '{"seed": 1.5}', '{"quantization_step": NaN}', '{"hr_bpm": "72"}',
        '{"pulse_amp": 5}', '{"pulse_amp": [1.7e308, 1.7e308, 1.7e308]}',
        # over synth.MAX_SAMPLES; rejected before generate allocates
        '{"fs": 1e300}', '{"fs": 30, "duration_s": 1e12}',
        '{"seed": true}', '{"drift_amp": true}', '{"noise_rms": [0, true, 0]}',
        # an integer beyond the float range used to end in an OverflowError
        pytest.param('{"hr_bpm": 1' + "0" * 400 + "}", id="hr_bpm-huge-int"),
    ])
    def test_bad_config_value_exit_2_without_traceback(self, tmp_path, capsys, content):
        cfg = tmp_path / "bad.json"
        cfg.write_text(content)
        out = tmp_path / "out.csv"
        assert main(["synth", str(cfg), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_flag_exit_2(self, tmp_path, clean_config):
        assert main(["synth", str(clean_config), str(tmp_path / "out.csv"),
                     "--seed", "-1"]) == 2


class TestSweep:
    def test_two_level_snr_difference(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "hr_bpm": 72.0, "duration_s": 30.0, "harmonic_ratio": 0.0,
            "noise_rms": [0.1, 0.1, 0.1], "seed": 5,
        }))
        report = tmp_path / "report.csv"
        assert main(["sweep", str(cfg), str(report), "--levels", "1.0,0.1"]) == 0
        rows = report.read_text().strip().splitlines()
        assert rows[0] == "level,method,snr_db,mae_bpm,rmse_bpm"
        baseline_rows = {}
        for line in rows[1:]:
            level, method, snr_db, _, _ = line.split(",")
            if method == "green-baseline":
                baseline_rows[float(level)] = float(snr_db)
        assert abs((baseline_rows[1.0] - baseline_rows[0.1]) - 20.0) <= 2.0

    def test_rate_whose_window_rounds_down(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"fs": 30.04, "duration_s": 60}))
        report = tmp_path / "report.csv"
        assert main(["sweep", str(cfg), str(report), "--levels", "1.0"]) == 0
        assert len(report.read_text().strip().splitlines()) == 3

    def test_byte_identical_reports(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "hr_bpm": 72.0, "duration_s": 30.0,
            "noise_rms": [0.5, 0.5, 0.5], "seed": 3,
        }))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--levels", "1.0,0.5", "--seeds", "2", "--jobs", "2"]
        assert main(["sweep", str(cfg), str(a)] + args) == 0
        assert main(["sweep", str(cfg), str(b)] + args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_seed_is_kept_without_flag(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "hr_bpm": 72.0, "duration_s": 20.0,
            "noise_rms": [1.0, 1.0, 1.0], "seed": 5,
        }))
        reports = {}
        for name, flags in [("config", []), ("seed5", ["--seed", "5"]),
                            ("seed0", ["--seed", "0"])]:
            reports[name] = tmp_path / f"{name}.csv"
            assert main(["sweep", str(cfg), str(reports[name]),
                         "--levels", "0.5", *flags]) == 0
        assert reports["config"].read_bytes() == reports["seed5"].read_bytes()
        assert reports["config"].read_bytes() != reports["seed0"].read_bytes()

    @pytest.mark.parametrize("levels", ["2.0", "0", "-1", "1.0,nan", "0.5,1.5"])
    def test_bad_level_exit_2_before_any_task(self, tmp_path, clean_config,
                                              monkeypatch, levels):
        from lowlight_rppg import synth
        made = []
        monkeypatch.setattr(synth, "generate", lambda cfg: made.append(cfg))
        report = tmp_path / "report.csv"
        assert main(["sweep", str(clean_config), str(report), "--levels", levels]) == 2
        assert made == [] and not report.exists()

    @pytest.mark.parametrize("flags", [["--seeds", "0"], ["--seeds", "-1"], ["--jobs", "0"]])
    def test_bad_seeds_or_jobs_exit_2_before_any_task(self, tmp_path, clean_config,
                                                      monkeypatch, capsys, flags):
        # --seeds 0 used to end in a StatisticsError traceback, and --jobs 0
        # ran serially without a word
        from lowlight_rppg import synth
        made = []
        monkeypatch.setattr(synth, "generate", lambda cfg: made.append(cfg))
        report = tmp_path / "report.csv"
        assert main(["sweep", str(clean_config), str(report), "--levels", "1.0",
                     *flags]) == 2
        assert made == [] and not report.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_rows_do_not_depend_on_jobs(self):
        # one task per (level, seed, method), pipeline tasks queued first;
        # the rows come back in (level, method) order whatever the pool
        from lowlight_rppg.sweep import sweep_report
        levels = (1.0, 0.25, 0.05)
        config = SynthConfig(hr_bpm=84.0, duration_s=20.0, noise_rms=(0.5, 0.5, 0.5),
                             seed=4)
        reports = [sweep_report(config, levels, PipelineConfig(), n_seeds=2, jobs=jobs)
                   for jobs in (1, 2, 3)]
        assert reports[0] == reports[1] == reports[2]
        assert [(r["level"], r["method"]) for r in reports[0]] == \
            [(level, method) for level in levels for method in ("proposed", "green-baseline")]

    @pytest.mark.parametrize("kwargs", [dict(n_seeds=1.5), dict(n_seeds=True),
                                        dict(jobs=True), dict(jobs=2.5)])
    def test_seeds_and_jobs_must_be_integers(self, monkeypatch, kwargs):
        # n_seeds=1.5 used to end in a TypeError, and the others ran
        from lowlight_rppg import synth
        from lowlight_rppg.errors import ConfigError
        from lowlight_rppg.sweep import sweep_report
        made = []
        monkeypatch.setattr(synth, "generate", lambda cfg: made.append(cfg))
        with pytest.raises(ConfigError):
            sweep_report(SynthConfig(), [1.0], PipelineConfig(), **kwargs)
        assert made == []

    def test_cli_sweep_report_is_the_library_function(self):
        from lowlight_rppg import cli, sweep
        assert cli.sweep_report is sweep.sweep_report

    def test_seed_and_format_only_on_sweep(self, tmp_path, clean_trace, capsys):
        with pytest.raises(SystemExit):
            main(["extract", str(clean_trace), str(tmp_path / "out.csv"), "--seed", "1"])
        assert "unrecognized arguments" in capsys.readouterr().err


class TestAnalyze:
    def test_emits_artifacts(self, tmp_path, clean_trace):
        outdir = tmp_path / "analysis"
        assert main(["analyze", str(clean_trace), str(outdir)]) == 0
        spectrum_lines = (outdir / "spectrum.csv").read_text().strip().splitlines()
        assert spectrum_lines[0] == "freq_hz,power"
        spectrogram_lines = (outdir / "spectrogram.csv").read_text().strip().splitlines()
        header = spectrogram_lines[0].split(",")
        assert header[0] == "t_seconds"
        assert all(float(h) <= 5.0 for h in header[1:])
        peaks = json.loads((outdir / "peaks.json").read_text())
        assert abs(peaks["bpm"] - 72.0) <= 0.5
        assert peaks["snr_db"] > 0

    def test_lambda_above_bound_exit_2(self, tmp_path, clean_trace, capsys):
        outdir = tmp_path / "analysis"
        assert main(["analyze", str(clean_trace), str(outdir), "--lambda", "1e8"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.filterwarnings("ignore:series of 300 samples")
    def test_band_reaches_peak_and_snr_is_null_outside_metric_band(self, tmp_path):
        # a 36 bpm (0.6 Hz) tone: SynthConfig rejects HRs below 42 bpm
        t = np.arange(1800) / 30.0
        green = 100.0 + np.sin(2 * np.pi * 0.6 * t)
        path = tmp_path / "slow.csv"
        flat = np.full_like(t, 100.0)
        save_trace_csv(RawTrace(samples=np.column_stack([flat, green, flat]), fs=30.0),
                       path)
        outdir = tmp_path / "analysis"
        assert main(["analyze", str(path), str(outdir), "--band-low", "0.5"]) == 0
        peaks = json.loads((outdir / "peaks.json").read_text())
        assert abs(peaks["bpm"] - 36.0) <= 0.2
        assert peaks["snr_db"] is None


    @pytest.mark.parametrize("flag", ["--ssa-window", "--sec-chn", "--sigma-init"])
    def test_ssa_flags_are_not_analyze_flags(self, tmp_path, clean_trace, capsys, flag):
        # analyze reads no SSA or mask setting, so it takes no such flag
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(clean_trace), str(tmp_path / "out"), flag, "5"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err

    @pytest.mark.parametrize("outdir", ["afile", "afile/analysis"])
    def test_outdir_at_or_under_a_file_exit_2_before_any_work(self, tmp_path, clean_trace,
                                                              capsys, monkeypatch, outdir):
        # analyze used to compute every result, then end in a
        # FileExistsError (or NotADirectoryError) traceback
        from lowlight_rppg import cli
        (tmp_path / "afile").write_text("")
        read = []
        monkeypatch.setattr(cli, "load_trace_csv", read.append)
        assert main(["analyze", str(clean_trace), str(tmp_path / outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Not a directory" in err and "Traceback" not in err
        assert read == [] and (tmp_path / "afile").read_text() == ""

    @pytest.mark.parametrize("outdir", ["y" * 300, "new/" + "y" * 300],
                             ids=["too-long", "too-long-under-a-new-directory"])
    def test_too_long_outdir_exit_2_before_any_work(self, tmp_path, clean_trace, capsys,
                                                    monkeypatch, outdir):
        # analyze used to compute every result, then end in an "[Errno 36]
        # File name too long" traceback from os.makedirs, which had made
        # "new" by then
        from lowlight_rppg import cli
        read = []
        monkeypatch.setattr(cli, "load_trace_csv", read.append)
        assert main(["analyze", str(clean_trace), str(tmp_path / outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File name too long" in err
        assert read == [] and sorted(f.name for f in tmp_path.iterdir()) == ["trace.csv"]

    def test_empty_outdir_exit_2_before_any_work(self, tmp_path, clean_trace, capsys,
                                                 monkeypatch):
        # analyze used to compute every result, then end in "[Errno 2] No
        # such file or directory: ''" from os.makedirs
        from lowlight_rppg import cli
        read = []
        monkeypatch.setattr(cli, "load_trace_csv", read.append)
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", str(clean_trace), ""]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "outdir" in err
        assert read == [] and sorted(f.name for f in tmp_path.iterdir()) == ["trace.csv"]

    def test_unwritable_output_in_outdir_exit_2_before_any_work(self, tmp_path, clean_trace,
                                                                capsys, monkeypatch):
        from lowlight_rppg import cli
        read = []
        monkeypatch.setattr(cli, "load_trace_csv", read.append)
        (tmp_path / "analysis" / "peaks.json").mkdir(parents=True)
        assert main(["analyze", str(clean_trace), str(tmp_path / "analysis")]) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert read == []
        assert [f.name for f in (tmp_path / "analysis").iterdir()] == ["peaks.json"]

    def test_too_short_trace_writes_no_file(self, tmp_path):
        # an 8 s trace is shorter than the default 10 s window: analyze
        # used to write spectrum.csv before the spectrogram failed
        outdir = tmp_path / "analysis"
        assert main(["analyze", str(_eight_second_trace(tmp_path)), str(outdir)]) == 3
        assert list(outdir.glob("*")) == []

    @pytest.mark.filterwarnings("ignore:series of")
    def test_hr_minimum_follows_window(self, tmp_path):
        # the baseline HR used to need 10 s whatever --window-s said
        outdir = tmp_path / "analysis"
        assert main(["analyze", str(_eight_second_trace(tmp_path)), str(outdir),
                     "--window-s", "4"]) == 0
        assert sorted(f.name for f in outdir.iterdir()) == [
            "peaks.json", "spectrogram.csv", "spectrum.csv"]
        assert abs(json.loads((outdir / "peaks.json").read_text())["bpm"] - 75.0) <= 1.0


def _eight_second_trace(tmp_path):
    trace = generate(SynthConfig(hr_bpm=75.0, duration_s=10.0, noise_rms=(0.0,) * 3))
    path = tmp_path / "short.csv"
    save_trace_csv(RawTrace(samples=trace.samples[:240], fs=30.0), path)
    return path


# A valid value other than the default for every pipeline flag: --window-s 12
# keeps the window an even number of samples, and --step-s 0.5 divides the
# 5 s hop.  A flag added to extract or analyze needs an entry here.
NON_DEFAULT_FLAGS = {"--window-s": "12", "--step-s": "0.5", "--lambda": "30",
                     "--band-low": "0.8", "--band-high": "3", "--ssa-window": "40",
                     "--sec-chn": "3", "--sigma-init": "0.3"}


def _command_flags(command):
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return [a.option_strings[0] for a in commands[command]._actions
            if a.option_strings and a.dest != "help"]


@pytest.mark.parametrize("command", ["extract", "analyze"])
def test_every_pipeline_flag_takes_effect(tmp_path, command):
    trace = tmp_path / "trace.csv"
    save_trace_csv(generate(SynthConfig(duration_s=20.0, noise_rms=(0.5,) * 3, seed=2)),
                   trace)

    def outputs(name, *flags):
        run = tmp_path / name
        run.mkdir()
        out = run / ("pulse.csv" if command == "extract" else "analysis")
        assert main([command, str(trace), str(out), *flags]) == 0
        return {f.name: f.read_bytes() for f in sorted(run.rglob("*")) if f.is_file()}

    default = outputs("default")
    for flag in _command_flags(command):
        changed = outputs(flag, flag, NON_DEFAULT_FLAGS[flag])
        assert changed.keys() == default.keys()
        assert changed != default, f"{command} {flag} changes no output"


def test_extract_evaluate_sweep_do_not_load_scipy_signal(tmp_path, clean_config):
    # the runtime is numpy-only: no command loads any scipy module, which
    # would cost more import time than the package itself
    src = os.path.dirname(os.path.dirname(os.path.abspath(lowlight_rppg.__file__)))
    d, cfg = str(tmp_path), str(clean_config)
    (tmp_path / "ref.csv").write_text("".join(f"{t},72\n" for t in range(5, 56)))
    code = f"""
import sys
sys.path.insert(0, {src!r})
from lowlight_rppg.cli import main
codes = [main(["synth", {cfg!r}, {d!r} + "/trace.csv"]),
         main(["extract", {d!r} + "/trace.csv", {d!r} + "/pulse.csv"]),
         main(["evaluate", {d!r} + "/trace.csv", {d!r} + "/ref.csv", {d!r} + "/r.json"]),
         main(["sweep", {cfg!r}, {d!r} + "/s.csv", "--levels", "1.0,0.5"]),
         main(["analyze", {d!r} + "/trace.csv", {d!r} + "/analysis"])]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[0, 0, 0, 0, 0] []"


def test_import_and_extract_do_not_load_evaluation_modules(tmp_path, clean_trace):
    # baseline, metrics, synth and sweep (with its thread pool and
    # statistics) load on first use; every public name still resolves
    src = os.path.dirname(os.path.dirname(os.path.abspath(lowlight_rppg.__file__)))
    code = f"""
import sys
sys.path.insert(0, {src!r})
import lowlight_rppg, lowlight_rppg.cli
code = lowlight_rppg.cli.main(["extract", {str(clean_trace)!r}, {str(tmp_path / "p.csv")!r}])
lazy = ["lowlight_rppg.sweep", "lowlight_rppg.synth", "lowlight_rppg.metrics",
        "lowlight_rppg.baseline", "concurrent.futures", "statistics"]
print(code, [m for m in lazy if m in sys.modules])
from lowlight_rppg import *
from lowlight_rppg import SynthConfig, cli, green_baseline_signal, metrics, snr, sweep
print([n for n in lowlight_rppg.__all__ if globals()[n] is not getattr(lowlight_rppg, n)],
      cli.sweep_report is sweep.sweep_report, metrics.snr is snr is lowlight_rppg.snr,
      lowlight_rppg.metrics is sys.modules["lowlight_rppg.metrics"])
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.splitlines() == ["0 []", "[] True True True"]
