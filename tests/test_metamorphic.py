"""Metamorphic relations of the pipeline and its HR and SNR measures.

Each test draws a short synthetic trace and a transformation whose effect
on the output is known without an oracle: a scale, an added constant or
ramp, or a prefix.  The draws are derandomized, so every run checks the
same examples.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lowlight_rppg import RawTrace, SynthConfig, generate, run_pipeline, sliding_hr, snr
from lowlight_rppg.metrics import cap_snr

FS = 30.0
WIN = 300  # samples in the default 10 s window at FS

RELATION = settings(derandomize=True, max_examples=50, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def traces(draw):
    """A 20 to 25 s synthetic trace at FS Hz."""
    config = SynthConfig(hr_bpm=draw(st.floats(48.0, 150.0)), fs=FS,
                         duration_s=draw(st.sampled_from([20.0, 25.0])),
                         noise_rms=(draw(st.floats(0.0, 2.0)),) * 3,
                         drift_amp=draw(st.floats(0.0, 5.0)),
                         seed=draw(st.integers(0, 2**16)))
    return generate(config)


def exact_exponents(x):
    """Every e for which 2^e x is finite and exact: no nonzero entry
    leaves the normal range."""
    _, top = np.frexp(np.max(np.abs(x)))
    _, low = np.frexp(np.min(np.abs(x[x != 0])))
    return st.integers(-1021 - int(low), 1024 - int(top))


def scaled(trace, factor):
    return RawTrace(samples=trace.samples * factor, fs=trace.fs)


@RELATION
@given(st.data())
def test_power_of_two_scale_scales_pulse_exactly(data):
    trace = data.draw(traces())
    e = data.draw(exact_exponents(trace.samples))
    base = run_pipeline(trace)
    out = run_pipeline(scaled(trace, np.ldexp(1.0, e)))
    assert out.window_flags == base.window_flags
    assert np.array_equal(out.samples, np.ldexp(base.samples, e))


@RELATION
@given(traces(), st.floats(1e-300, 1e300))
def test_any_scale_keeps_records_and_pulse(trace, factor):
    base = run_pipeline(trace)
    out = run_pipeline(scaled(trace, factor))
    assert out.window_flags == base.window_flags
    err = np.max(np.abs(out.samples / factor - base.samples))
    assert err <= 1e-12 * np.max(np.abs(base.samples))


@RELATION
@given(traces(), st.floats(-1e6, 1e6), st.floats(-1e3, 1e3))
def test_constant_or_ramp_keeps_records(trace, offset, slope):
    # slope in units per second
    ramp = offset + slope * np.arange(len(trace)) / FS
    out = run_pipeline(RawTrace(samples=trace.samples + ramp[:, None], fs=FS))
    assert out.window_flags == run_pipeline(trace).window_flags


@RELATION
@given(st.data())
def test_prefix_keeps_leading_records_and_pulse(data):
    trace = data.draw(traces())
    n = data.draw(st.integers(WIN, len(trace)))
    base = run_pipeline(trace)
    out = run_pipeline(RawTrace(samples=trace.samples[:n], fs=FS))
    assert out.window_flags == base.window_flags[:len(out.window_flags)]
    # the last half-window still lacks the next window's overlap-add; the
    # rest equals the full trace's pulse up to rounding, which depends on
    # how many rows share a bandpass stack
    head = len(out.samples) - WIN // 2
    err = np.max(np.abs(out.samples[:head] - base.samples[:head]))
    assert err <= 1e-12 * np.max(np.abs(base.samples))


@st.composite
def pulses(draw):
    """(series, true HR in bpm): a 20 s noisy tone with a harmonic."""
    bpm = draw(st.floats(48.0, 150.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    t = np.arange(int(20 * FS)) / FS
    x = np.sin(2 * np.pi * bpm / 60 * t) + 0.3 * np.sin(4 * np.pi * bpm / 60 * t)
    return x + draw(st.floats(0.0, 2.0)) * rng.normal(size=t.size), bpm


@RELATION
@given(st.data())
def test_snr_and_sliding_hr_are_scale_invariant(data):
    x, bpm = data.draw(pulses())
    e = data.draw(exact_exponents(x))
    factor = data.draw(st.floats(1e-300, 1e300))
    windows = sliding_hr(x, FS)
    assert sliding_hr(np.ldexp(x, e), FS) == windows
    assert sliding_hr(factor * x, FS) == windows
    ratio = snr(x, FS, bpm)
    assert snr(np.ldexp(x, e), FS, bpm) == ratio
    # rounding factor * x moves the residual of a noise-free tone, 290 dB
    # down, by a few percent; the capped value that reports show holds
    assert abs(cap_snr(snr(factor * x, FS, bpm)) - cap_snr(ratio)) <= 1e-9
