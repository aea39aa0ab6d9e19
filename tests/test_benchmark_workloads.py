"""The benchmark's workloads still run against the package: one operation
each, through the entry points ``benchmarks/run.py`` uses (``prepare``,
``bind``, ``call``, ``output`` and ``score``).  A change that removes a
name a workload needs fails here, not only in a benchmark run."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

import lowlight_rppg
import lowlight_rppg.cli  # noqa: F401  (bound as pkg.cli, as benchmarks/run.py does)

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("benchmark_workloads", _PATH)
workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

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
