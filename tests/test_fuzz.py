"""Fuzzed input files and numeric flags: the readers raise only input
errors, the CLI exits 0, 2 or 3 and never with a traceback."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lowlight_rppg import PipelineConfig, load_trace_csv
from lowlight_rppg.cli import _INPUT_ERRORS, load_reference_csv, main
from oracles import load_pulse_csv

# capsys is read and cleared on every example, so it may be function-scoped
FUZZ = settings(derandomize=True, max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])

# Number-like field text, including values a reader must reject.
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["", " ", "nan", "-inf", "1e400", "1_0", "0x10", "1,5", "abc"]),
)
rows = st.lists(numbers, min_size=1, max_size=5).map(",".join)
headers = st.builds(lambda key, value: f"# {key}={value}",
                    st.sampled_from(["fs", "t0", "x", " fs "]), numbers)
text_files = st.lists(st.one_of(rows, headers, st.text(max_size=30)),
                      max_size=12).map("\n".join)


@st.composite
def columns(draw, n_cols, max_rows):
    """(n, n_cols) value text: a tone plus noise at some scale, with at
    most one field replaced by a token a reader must reject."""
    n = draw(st.sampled_from([0, 1, 2, 99, 100, 150, 299, 300, max_rows]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([0.0, 1e-300, 1e-6, 1.0, 1e6, 1e300]))
    tone = np.sin(2 * np.pi * draw(st.floats(0.1, 5.0)) * np.arange(n) / 30.0)
    values = 100.0 + scale * (rng.normal(size=(n, n_cols)) + tone[:, None])
    cells = [[repr(float(v)) for v in row] for row in values]
    bad = draw(st.sampled_from([None] * 10 + ["nan", "inf", "", "x", "1e400"]))
    if bad is not None and n:
        cells[draw(st.integers(0, n - 1))][draw(st.integers(0, n_cols - 1))] = bad
    return cells


def _csv(fs, cells):
    return f"# fs={fs}\n" + "".join(f"{i}," + ",".join(c) + "\n" for i, c in enumerate(cells))


# fs = 10 Hz gives 100-sample windows, so short files reach the pipeline.
fs_values = st.sampled_from(["10", "30", "1", "10.5", "0.05"])
trace_files = st.builds(_csv, fs_values, columns(3, 320))
pulse_files = st.builds(_csv, fs_values, columns(1, 400))


@st.composite
def reference_files(draw):
    """``t,bpm`` rows on a 1 s grid."""
    n = draw(st.sampled_from([60, 0, 1, 20]))
    t0 = draw(st.sampled_from([0.0, 5.0, 5.3, 100.0]))
    bpm = draw(st.sampled_from(["72.0", "0.0", "300.0", "nan", "inf", "-60"]))
    return "".join(f"{t0 + k!r},{bpm}\n" for k in range(n))


def _write(directory, name, content):
    path = os.path.join(directory, name)
    mode, kw = ("wb", {}) if isinstance(content, bytes) else ("w", {"encoding": "utf-8"})
    with open(path, mode, **kw) as fh:
        fh.write(content)
    return path


def _parses_or_input_error(reader, content):
    with tempfile.TemporaryDirectory() as d:
        path = _write(d, "in.csv", content)
        try:
            reader(path)
        except _INPUT_ERRORS:
            pass


@FUZZ
@given(st.one_of(text_files, trace_files, st.binary(max_size=64)))
def test_load_trace_csv(content):
    _parses_or_input_error(load_trace_csv, content)


@FUZZ
@given(st.one_of(text_files, pulse_files, st.binary(max_size=64)))
def test_load_pulse_csv(content):
    _parses_or_input_error(load_pulse_csv, content)


@FUZZ
@given(st.one_of(text_files, reference_files(), st.binary(max_size=64)))
def test_load_reference_csv(content):
    _parses_or_input_error(load_reference_csv, content)


def _exits_cleanly(capsys, argv):
    with np.errstate(all="ignore"):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


@FUZZ
@given(st.one_of(trace_files, st.binary(max_size=64)))
def test_extract(capsys, content):
    with tempfile.TemporaryDirectory() as d:
        _exits_cleanly(capsys, ["extract", _write(d, "trace.csv", content),
                                os.path.join(d, "pulse.csv")])


@FUZZ
@given(st.one_of(pulse_files, trace_files), reference_files())
def test_evaluate(capsys, content, reference):
    with tempfile.TemporaryDirectory() as d:
        _exits_cleanly(capsys, ["evaluate", _write(d, "in.csv", content),
                                _write(d, "ref.csv", reference),
                                os.path.join(d, "report.json")])


# (flag, value) pairs for the numeric pipeline flags: edge values and a
# valid value, the default where there is one (50 is the largest SSA
# window of a 10 s window at 10 Hz).  Edge values rather than arbitrary
# floats keep the examples few and fast; integer flags take integer edges.
_default = PipelineConfig()
_FLOAT_FLAGS = {"--window-s": _default.window_s, "--step-s": _default.step_s,
                "--lambda": _default.lam, "--band-low": _default.band[0],
                "--band-high": _default.band[1], "--sigma-init": _default.sigma_init}
_INT_FLAGS = {"--ssa-window": 50, "--sec-chn": _default.sec_chn}
FLAG_VALUES = (
    [(flag, value) for flag, default in _FLOAT_FLAGS.items()
     for value in ["0", "-1", "nan", "inf", "1e-300", "1e308", str(default)]]
    + [(flag, value) for flag, default in _INT_FLAGS.items()
       for value in ["0", "-1", "2", str(10**18), str(default)]])
# analyze takes no SSA or mask flag
_SSA_FLAGS = ("--ssa-window", "--sec-chn", "--sigma-init")
COMMAND_FLAG_VALUES = {
    "extract": FLAG_VALUES,
    "analyze": [(flag, value) for flag, value in FLAG_VALUES if flag not in _SSA_FLAGS],
}


def pipeline_flags(command):
    return st.lists(st.sampled_from(COMMAND_FLAG_VALUES[command]), min_size=1,
                    max_size=3).map(lambda pairs: [f"{flag}={value}" for flag, value in pairs])

# 15 s of a noisy 1.2 Hz pulse at 10 Hz, enough for the default 10 s window
_rng = np.random.default_rng(0)
_t = np.arange(150) / 10.0
FLAG_TRACE = _csv(10, [[repr(float(v)) for v in 100.0 + np.sin(2 * np.pi * 1.2 * t)
                        + 0.3 * _rng.normal(size=3)] for t in _t])


@pytest.mark.filterwarnings("ignore:series of")  # a band edge near 0 Hz settles slowly
@pytest.mark.parametrize("command", ["extract", "analyze"])
@settings(FUZZ, max_examples=100)
@given(data=st.data())
def test_pipeline_flags(capsys, command, data):
    flags = data.draw(pipeline_flags(command))
    with tempfile.TemporaryDirectory() as d:
        argv = [command, _write(d, "trace.csv", FLAG_TRACE), os.path.join(d, "out"), *flags]
        _exits_cleanly(capsys, argv)


# SynthConfig JSON: each field mostly a value in or near its valid range,
# kept small where it sets the trace length (fs, duration_s) so that no
# example makes a long trace, else a value the config must reject.
invalid = st.sampled_from([float("nan"), float("inf"), -float("inf"), -1, "72", None,
                           [1.0, 2.0], {}])
wide = st.floats(-1e308, 1e308)


def _field(valid):
    return st.one_of(valid, valid, valid, invalid)


synth_configs = st.fixed_dictionaries({}, optional={
    "hr_bpm": _field(st.floats(40.0, 250.0)),
    "fs": _field(st.sampled_from([8.0, 9.5, 30, 60.0])),
    "duration_s": _field(st.floats(9.0, 20.0)),
    "pulse_amp": _field(st.lists(wide, min_size=3, max_size=3)),
    "noise_rms": _field(st.lists(st.floats(0.0, 1e308), min_size=3, max_size=3)),
    "harmonic_ratio": _field(st.floats(-0.1, 1.1)),
    "quantization_step": _field(st.floats(0.0, 1e308)),
    "drift_amp": _field(wide),
    "seed": _field(st.one_of(st.integers(-5, 2**70), st.floats(0.0, 10.0))),
}).map(json.dumps)


@FUZZ
@given(st.one_of(synth_configs, st.sampled_from(["5", "[{}]", "null", "\"x\"", "{", ""]),
                 st.binary(max_size=64)))
def test_synth(capsys, config):
    with tempfile.TemporaryDirectory() as d:
        _exits_cleanly(capsys, ["synth", _write(d, "config.json", config),
                                os.path.join(d, "trace.csv")])
