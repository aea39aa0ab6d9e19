"""Fuzzed input files: the readers raise only input errors, the CLI exits
0, 2 or 3 and never with a traceback."""

import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lowlight_rppg import load_trace_csv
from lowlight_rppg.cli import _INPUT_ERRORS, load_pulse_csv, load_reference_csv, main

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
