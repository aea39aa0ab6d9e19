"""The benchmark's workloads still run against the package: one operation
each, through the entry points ``benchmarks/run.py`` uses (``prepare``,
``bind``, ``call``, ``output`` and ``score``).  Pool entry 0 of each must
match ``benchmarks/reference.npz``, untraced and traced, with the traced
spans nested: the benchmark's own correctness gate.  A change that removes
a name a workload needs, or moves an output, fails here, not only in a
benchmark run."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

import lowlight_rppg
import lowlight_rppg.cli  # noqa: F401  (bound as pkg.cli, as benchmarks/run.py does)

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
REFERENCE = BENCHMARKS / "reference.npz"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / filename)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("benchmark_workloads", "workloads.py")
tracing = _load("benchmark_tracing", "tracing.py")

OUTPUT_KEYS = {"extract-30hz": {"pulse", "hr"}, "cli-extract-60hz": {"pulse", "hr"},
               "sweep-jobs2": {"rows"}}


def test_every_workload_is_covered():
    assert set(workloads.WORKLOADS) == set(OUTPUT_KEYS)


@pytest.mark.parametrize("name", sorted(OUTPUT_KEYS))
def test_one_operation_runs(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    (item,) = workload.bind(lowlight_rppg, workload.prepare(str(tmp_path), [0]))
    out = workload.output(item, workload.call(item))
    assert set(out) == OUTPUT_KEYS[name]
    assert all(math.isfinite(v) for v in workload.score(out, workload.specs[0]))
    reference = workloads.load_reference(REFERENCE, workload)
    assert workloads.matches_reference(out, reference, 0) is None


@pytest.mark.parametrize("name", sorted(OUTPUT_KEYS))
def test_one_traced_operation_matches_reference_and_nests(tmp_path, name):
    # the benchmark counts a traced run as correct only if its outputs
    # match the reference and every span lies inside its parent
    workload = workloads.WORKLOADS[name]
    (item,) = workload.bind(lowlight_rppg, workload.prepare(str(tmp_path), [0]))
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        with tracer.operation(0):
            result = workload.call(item)
    finally:
        restore()
    reference = workloads.load_reference(REFERENCE, workload)
    assert workloads.matches_reference(workload.output(item, result), reference, 0) is None
    assert tracing.summarize_op(tracer.spans).nested
