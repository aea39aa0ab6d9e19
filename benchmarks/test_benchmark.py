"""Tests of the benchmark itself: span arithmetic and the reference check.

Run from the repository root:

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def _span(sid, name, start, end, parent=None, thread=1):
    return Span(sid, name, start, end, parent, thread, op=0)


def test_self_times_nested_spans_add_up_to_wall_time():
    spans = [
        _span(0, "root", 0, 100),
        _span(1, "a", 10, 50, parent=0),
        _span(2, "a.child", 20, 30, parent=1),
        _span(3, "b", 60, 90, parent=0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 30, 1: 30, 2: 10, 3: 30}
    summary = tracing.summarize_op(spans)
    assert summary.self_sum_ns == summary.wall_ns == 100
    assert summary.parallel_overlap_ns == 0 and summary.nested


def test_self_times_threaded_spans_count_overlap_once_per_thread():
    # Two workers (threads 2 and 3) run under one sweep span on thread 1.
    spans = [
        _span(0, "root", 0, 100),
        _span(1, "sweep", 5, 95, parent=0),
        _span(2, "w1", 10, 60, parent=1, thread=2),
        _span(3, "w1.child", 20, 40, parent=2, thread=2),
        _span(4, "w2", 20, 80, parent=1, thread=3),
    ]
    selfs = tracing.self_times(spans)
    # sweep: 90 minus the union [10, 80] of its workers
    assert selfs == {0: 10, 1: 20, 2: 30, 3: 20, 4: 60}
    summary = tracing.summarize_op(spans)
    assert summary.parallel_overlap_ns == (50 + 60) - 70
    assert summary.self_sum_ns == summary.wall_ns + summary.parallel_overlap_ns
    assert summary.worker_busy_ns == 110


def test_summary_flags_a_child_outside_its_parent():
    spans = [_span(0, "root", 0, 100), _span(1, "late", 90, 120, parent=0)]
    summary = tracing.summarize_op(spans)
    assert not summary.nested
    assert tracing.self_times(spans)[0] == 90


def test_tracer_parents_worker_spans_to_the_open_operation_span():
    tracer = tracing.Tracer()
    with tracer.operation(7):
        with tracer.span("fanout"):
            def work():
                with tracer.span("task"):
                    with tracer.span("inner"):
                        pass
            threads = [threading.Thread(target=work) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    root, = by_name[tracing.ROOT]
    fanout, = by_name["fanout"]
    assert root.parent is None and fanout.parent == root.id
    assert all(s.parent == fanout.id for s in by_name["task"])
    assert {s.parent for s in by_name["inner"]} == {s.id for s in by_name["task"]}
    assert {s.op for s in tracer.spans} == {7}
    summary = tracing.summarize_op(tracer.spans)
    assert summary.nested
    assert summary.self_sum_ns == summary.wall_ns + summary.parallel_overlap_ns


def test_instrument_patches_every_binding_and_restores_it():
    import lowlight_rppg
    from lowlight_rppg import baseline, preprocess, reconstruct
    original = preprocess.detrend
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        assert reconstruct.detrend is baseline.detrend is preprocess.detrend
        assert lowlight_rppg.detrend is preprocess.detrend is not original
        with tracer.operation(0):
            preprocess.detrend(np.arange(10.0) ** 2)
    finally:
        restore()
    assert reconstruct.detrend is baseline.detrend is lowlight_rppg.detrend is original
    assert [s.name for s in tracer.spans] == ["preprocess.detrend", tracing.ROOT]


def test_components_kept_ratio_counts_the_triples_the_svd_returned():
    from lowlight_rppg import ssa
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        with tracer.operation(0):
            dec = ssa.decompose(np.random.default_rng(0).normal(size=60), 20, 5)
    finally:
        restore()
    assert tracer.counts["ssa.components_kept"] == len(dec) == 5
    assert tracer.counts["ssa.triples_computed"] == 20
    assert [s.name for s in tracer.spans] == ["ssa.svd_components", "ssa.decompose",
                                              tracing.ROOT]


@pytest.fixture(scope="module")
def extract_case():
    import lowlight_rppg
    workload = workloads.WORKLOADS["extract-30hz"]
    index = 3
    item, = workload.bind(lowlight_rppg, workload.prepare(None, [index]))
    out = workload.output(item, workload.call(item))
    ref = workloads.load_reference(HERE / "reference.npz", workload)
    return out, ref, index


def test_reference_check_accepts_the_pipeline_output(extract_case):
    out, ref, index = extract_case
    assert workloads.matches_reference(out, ref, index) is None


def test_reference_check_rejects_a_perturbed_pulse(extract_case):
    out, ref, index = extract_case
    pulse = out["pulse"].copy()
    pulse[900] += 1e-4 * np.max(np.abs(pulse))
    reason = workloads.matches_reference({**out, "pulse": pulse}, ref, index)
    assert reason is not None and reason.startswith("pulse")
    assert workloads.matches_reference({**out, "pulse": pulse[:-1]}, ref, index)
    assert workloads.matches_reference(out, ref, index + 1)


def test_reference_check_rejects_a_changed_hr_and_sweep_row():
    ref = {"hr": np.array([72.0]), "rows": np.array([[[10.0, 0.5, 0.6]]])}
    assert workloads.matches_reference({"hr": 72.0}, ref, 0) is None
    assert workloads.matches_reference({"hr": 72.0 + 1e-3}, ref, 0)
    rows = np.array([[10.0, 0.5, 0.6]])
    assert workloads.matches_reference({"rows": rows}, ref, 0) is None
    rows[0, 1] += 1e-4
    assert workloads.matches_reference({"rows": rows}, ref, 0)


def test_inputs_depend_only_on_the_seed():
    workload = workloads.WORKLOADS["extract-30hz"]
    a = workloads.run_indices(workload, 5)
    assert a == workloads.run_indices(workload, 5)
    assert sorted(a) == list(range(workload.pool_size))
    assert a != workloads.run_indices(workload, 6)
    spec = workload.specs[0]
    np.testing.assert_array_equal(workloads.synth_samples(spec, 30.0, 60.0),
                                  workloads.synth_samples(spec, 30.0, 60.0))


def _run_benchmark(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "extract-30hz",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_exactly_the_declared_metrics(trace, section):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    lines = _run_benchmark(trace)
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= workloads.WORKLOADS["extract-30hz"].pool_size
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        accounting = lines[-2]["trace"]
        assert accounting["spans_nested"] and accounting["root_covers_op"]
        assert result["metrics"]["preprocess.detrend.calls"]["value"] == 51
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
