import json

import numpy as np
import pytest

from lowlight_rppg import SynthConfig, generate, save_trace_csv
from lowlight_rppg.cli import load_pulse_csv, main


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
    ], ids=["nan-sample", "fs-inf", "sec-chn-0", "band-above-nyquist"])
    def test_bad_input_exit_2_without_traceback(self, tmp_path, clean_trace,
                                                capsys, edit, flags):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(edit(clean_trace.read_text().splitlines())) + "\n")
        assert main(["extract", str(path), str(tmp_path / "out.csv"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_too_short_trace_exit_3(self, tmp_path):
        path = tmp_path / "short.csv"
        lines = ["# fs=30"] + [f"{i},1,{1 + 0.1 * (i % 7)},1" for i in range(60)]
        path.write_text("\n".join(lines) + "\n")
        assert main(["extract", str(path), str(tmp_path / "out.csv")]) == 3


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

    def test_zero_step_exit_2(self, tmp_path, clean_trace):
        out = tmp_path / "pulse.csv"
        assert main(["extract", str(clean_trace), str(out)]) == 0
        ref = tmp_path / "ref.csv"
        write_reference(ref, 72.0, np.arange(5.0, 56.0, 1.0))
        assert main(["evaluate", str(out), str(ref), str(tmp_path / "report.json"),
                     "--step-s", "0.001"]) == 2

    def test_unpairable_exit_2(self, tmp_path, clean_trace):
        ref = tmp_path / "ref.csv"
        write_reference(ref, 72.0, [100.0, 101.0])
        assert main(["evaluate", str(clean_trace), str(ref),
                     str(tmp_path / "report.json")]) == 2


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
