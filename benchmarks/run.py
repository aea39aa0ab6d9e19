"""Benchmark of the lowlight_rppg pulse pipeline.

Run from the repository root:

    python3 benchmarks/run.py --workload extract-30hz --seed 1 --seconds 20 --trace 0

Each workload runs in this one process as a closed loop with one caller:
the next operation starts when the previous one returns.  Inputs are
generated from ``--seed`` before timing starts, every output is compared
with the reference outputs of the seed code, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` is a separate run that alternates traced and
untraced operations and reports the per-layer metrics.  README.md lists
every metric.

    python3 benchmarks/run.py --write-reference

rewrites ``reference.npz`` from the code in ``src/``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before numpy loads: on two cores
# an unpinned 200x401 SVD is slower, and the two sweep threads would
# otherwise oversubscribe the cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.npz"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5  # one in this process, the rest in fresh child processes
MAX_REPORTED_ERRORS = 3
PROBE_HALF_WINDOW = 3
# A traced operation's root span may start and end inside the loop's own
# timing of it by at most this share of that time.  Entering and leaving
# the root span take microseconds; the largest gap seen was under a
# millisecond.
ROOT_GAP_SHARE = 0.02


def import_package():
    """Import lowlight_rppg from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import lowlight_rppg
        import lowlight_rppg.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"error: cannot import lowlight_rppg from {SRC}: {exc}")
    if Path(lowlight_rppg.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"error: lowlight_rppg imported from {lowlight_rppg.__file__}, not {SRC}")
    return lowlight_rppg


def set_up(workload, prepared):
    """Import the package, bind the inputs and run the first, untimed operation."""
    t0 = time.perf_counter()
    items = workload.bind(import_package(), prepared)
    workload.call(items[0])
    return items, time.perf_counter() - t0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def in_child(*args) -> float:
    """Run this script in a fresh interpreter; the seconds it prints."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def setups_with_probes(workload, seed, workdir, first_s) -> list[tuple[float, float]]:
    """(set-up time, cold probe right after it) pairs; the first set-up
    ran in this process, the others run in fresh interpreters, as a user
    pays them."""
    pairs = [(first_s, in_child("--cold-probe"))]
    for _ in range(SETUP_REPEATS - 1):
        setup_s = in_child("--workload", workload.name, "--seed", str(seed),
                           "--setup-child", str(workdir))
        pairs.append((setup_s, in_child("--cold-probe")))
    return pairs


class Loop:
    """Closed loop over the run's inputs; one operation at a time."""

    def __init__(self, workload, items, indices, reference, probe):
        self.workload = workload
        self.probe = probe
        self.items = items
        self.indices = indices
        self.reference = reference
        self.latencies = []     # seconds, every attempted operation
        self.probes = []        # machine-speed probe after each operation
        self.traced = []        # per operation: traced or not (trace mode)
        self.failed = 0
        self.first_outputs = {}  # pool index -> output of its first operation

    def run_one(self, k, tracer=None):
        pos = k % len(self.items)
        item, index = self.items[pos], self.indices[pos]
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self.workload.call(item)
            else:
                with tracer.operation(k):
                    result = self.workload.call(item)
        except Exception:  # a failing operation is counted, not fatal
            error = traceback.format_exc()
        self.latencies.append(time.perf_counter() - t0)
        self.traced.append(tracer is not None)
        if error is None:
            try:
                out = self.workload.output(item, result)
                error = workloads.matches_reference(out, self.reference, index)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            self.failed += 1
            if self.failed <= MAX_REPORTED_ERRORS:
                print(f"operation {k} (pool entry {index}) failed: {error}", file=sys.stderr)
        elif index not in self.first_outputs:
            self.first_outputs[index] = out

    def inputs(self) -> list[int]:
        """Pool index of each attempted operation."""
        return [self.indices[k % len(self.indices)] for k in range(len(self.latencies))]

    def run(self, seconds, tracer=None):
        """Operate for ``seconds``, and at least once on every input (twice
        when tracing, so that each input is timed traced and untraced)."""
        min_ops = len(self.items) * (1 if tracer is None else 2)
        deadline = time.perf_counter() + seconds
        k = 0
        while k < min_ops or time.perf_counter() < deadline:
            # In trace mode every other operation is traced, with the parity
            # flipped each cycle so that every input is timed both ways; the
            # two latency sets give the tracing overhead.
            if tracer is not None and (k + k // len(self.items)) % 2 == 1:
                restore = tracing.instrument(tracer)
                self.run_one(k, tracer)
                restore()
            else:
                self.run_one(k)
            self.probes.append(self.probe())
            k += 1


def accuracy(workload, loop) -> tuple[float, float]:
    """Mean HR error (bpm) and mean SNR (dB) over the run's distinct inputs."""
    scores = [workload.score(out, workload.specs[i]) for i, out in loop.first_outputs.items()]
    if not scores:
        return 0.0, 0.0  # every operation failed; the run reports correct: false
    return (float(np.mean([s[0] for s in scores])), float(np.mean([s[1] for s in scores])))


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def timing(latencies, inputs, setups) -> dict:
    """p50 over operations; p90 over the inputs' median latencies.

    Taking each input's median over its repetitions first keeps the
    machine's millisecond stalls out of the tail while keeping inputs that
    are slow to process in it.
    """
    by_input = {}
    for t, i in zip(latencies, inputs):
        by_input.setdefault(i, []).append(t)
    typical = [statistics.median(ts) for ts in by_input.values()]
    p90 = (statistics.quantiles(typical, n=10, method="inclusive")[8]
           if len(typical) >= 2 else typical[0])
    return {"latency_s.p50": statistics.median(latencies), "latency_s.p90": p90,
            "latency_sum_s": sum(latencies), "setup_s": statistics.median(setups)}


def speed_factors(probes, reference_s) -> list[float]:
    """Per operation, reference_s over the median of the probes near it.

    ``probes[i]`` was taken right after operation i; a window of seven
    probes follows the machine's drift within a run.  A time of operation
    i times its factor is that time on the reference machine.
    """
    h = PROBE_HALF_WINDOW
    return [reference_s / statistics.median(probes[max(0, i - h):i + h + 1])
            for i in range(len(probes))]


def end_to_end_metrics(workload, loop, setups, reference_s, cold_reference_s) -> dict:
    """Times are scaled to the reference machine (see calibration.py).

    ``setups`` holds (set-up time, cold probe right after it) pairs; the
    median set-up is scaled by the median cold probe.
    """
    inputs = loop.inputs()
    raw = timing(loop.latencies, inputs, [s for s, _ in setups])
    print(json.dumps({"raw_times": {**raw, "setups_s": [s for s, _ in setups],
                                    "setup_probes_s": [p for _, p in setups],
                                    "probe_s": statistics.median(loop.probes)}}))
    factors = speed_factors(loop.probes, reference_s)
    setup_scale = cold_reference_s / statistics.median(p for _, p in setups)
    t = timing([x * f for x, f in zip(loop.latencies, factors)], inputs,
               [s * setup_scale for s, _ in setups])
    n = len(loop.latencies)
    hr_err, snr_db = accuracy(workload, loop)
    return {
        "latency_s.p50": metric(t["latency_s.p50"], "s"),
        "latency_s.p90": metric(t["latency_s.p90"], "s"),
        "throughput_trace_s_per_s": metric(n * workload.duration_s / t["latency_sum_s"], "s/s"),
        "setup_s": metric(t["setup_s"], "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": metric((n - loop.failed) / n, "ratio"),
        "hr_mae_bpm": metric(hr_err, "bpm"),
        "snr_db": metric(snr_db, "dB"),
    }


def per_layer_metrics(loop, tracer, reference_s) -> tuple[dict, dict]:
    """Per-layer metrics per traced operation, and the trace accounting.

    A traced operation's times are scaled by the same factor as its
    latency; an operation's id is its index in the loop.
    """
    factors = speed_factors(loop.probes, reference_s)
    ops = {}
    for s in tracer.spans:
        ops.setdefault(s.op, []).append(s)
    n = len(ops)
    summaries = {op: tracing.summarize_op(spans) for op, spans in ops.items()}
    calls, self_s = Counter(), Counter()
    for op, spans in ops.items():
        for name, (c, ns) in tracing.layer_totals(spans).items():
            calls[name] += c
            self_s[name] += ns / 1e9 * factors[op]
    out = {}
    for name in tracing.TRACED:
        out[f"{name}.calls"] = metric(calls[name] / n, "count")
        out[f"{name}.self_s"] = metric(self_s[name] / n, "s")
    out[f"{tracing.ROOT}.self_s"] = metric(self_s[tracing.ROOT] / n, "s")

    c = tracer.counts

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0
    out["ssa.components_kept_ratio"] = metric(
        ratio("ssa.components_kept", "ssa.triples_computed"), "ratio")
    out["selection.accept_ratio"] = metric(
        ratio("selection.mask_accepted", "selection.candidates"), "ratio")
    sel_calls = calls["selection.select_candidates"]
    out["selection.fallback_rate"] = metric(
        c["selection.fallbacks"] / sel_calls if sel_calls else 0.0, "ratio")
    sweep_ns = sum(s.duration_ns for s in tracer.spans if s.name == "cli.sweep_report")
    busy_ns = sum(x.worker_busy_ns for x in summaries.values())
    out["cli.sweep.thread_busy_ratio"] = metric(
        busy_ns / (workloads.SWEEP_JOBS * sweep_ns) if sweep_ns else 0.0, "ratio")

    by_input = {}  # pool index -> (untraced latencies, traced latencies)
    for t, f, on, i in zip(loop.latencies, factors, loop.traced, loop.inputs()):
        by_input.setdefault(i, ([], []))[on].append(t * f)
    overhead = (statistics.median(statistics.median(traced) / statistics.median(plain)
                                  for plain, traced in by_input.values() if plain and traced)
                - 1) * 100

    def scaled_mean(field):
        return sum(getattr(x, field) * factors[op] for op, x in summaries.items()) / n / 1e9
    wall_s = scaled_mean("wall_ns")
    overlap_s = scaled_mean("parallel_overlap_ns")
    out["trace.op_wall_s"] = metric(wall_s, "s")
    out["trace.parallel_overlap_s"] = metric(overlap_s, "s")
    out["trace.overhead_pct"] = metric(overhead, "%")
    # The loop's own timing of an operation less its root span: what the
    # spans leave out.  The sum of self times equals wall + overlap by
    # construction, so it is reported but not checked.
    gaps = [loop.latencies[op] - x.wall_ns / 1e9 for op, x in summaries.items()]
    accounting = {
        "traced_ops": n,
        "untraced_ops": loop.traced.count(False),
        "op_wall_s": wall_s,
        "self_sum_s": scaled_mean("self_sum_ns"),
        "parallel_overlap_s": overlap_s,
        "overhead_pct": overhead,
        "root_gap_max_s": max(gaps),
        "spans_nested": all(x.nested for x in summaries.values()),
        "root_covers_op": all(0 <= g <= ROOT_GAP_SHARE * loop.latencies[op]
                              for op, g in zip(summaries, gaps)),
    }
    return out, accounting


def write_spans(path, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(dataclasses.asdict(s)) + "\n")


def benchmark(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    indices = workloads.run_indices(workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    try:
        prepared = workload.prepare(workdir, indices)
        items, setup_s = set_up(workload, prepared)
        reference = workloads.load_reference(REFERENCE, workload)
        print(json.dumps({"environment": environment()}))
        if not args.trace:
            setups = setups_with_probes(workload, args.seed, workdir, setup_s)
        # Imported after set-up, which must pay for importing scipy itself.
        import calibration
        loop = Loop(workload, items, indices, reference, calibration.probe)
        tracer = tracing.Tracer() if args.trace else None
        loop.run(args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = loop.failed == 0 and len(loop.first_outputs) == len(set(indices))
    if args.trace:
        metrics, accounting = per_layer_metrics(loop, tracer, calibration.REFERENCE_S)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        write_spans(spans_path, tracer.spans)
        accounting["spans_file"] = str(spans_path.relative_to(ROOT))
        print(json.dumps({"trace": accounting}))
        correct = correct and accounting["spans_nested"] and accounting["root_covers_op"]
    else:
        metrics = end_to_end_metrics(workload, loop, setups, calibration.REFERENCE_S,
                                     calibration.COLD_REFERENCE_S)
    return {"correct": bool(correct), "attempted": len(loop.latencies),
            "failed": loop.failed, "metrics": metrics}


def child_set_up(args) -> None:
    """Child side of a set-up in a fresh interpreter: print its time."""
    workload = workloads.WORKLOADS[args.workload]
    indices = workloads.run_indices(workload, args.seed)
    prepared = workload.prepare(args.setup_child, indices)
    print(set_up(workload, prepared)[1])


def write_reference() -> None:
    """Store every workload's outputs over its whole pool."""
    arrays = {}
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=OUT_DIR))
    try:
        for workload in workloads.WORKLOADS.values():
            indices = list(range(workload.pool_size))
            items, _ = set_up(workload, workload.prepare(workdir, indices))
            outputs = [workload.output(item, workload.call(item)) for item in items]
            arrays.update(workloads.reference_arrays(workload, outputs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    np.savez_compressed(REFERENCE, **arrays)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", metavar="WORKDIR", help=argparse.SUPPRESS)
    parser.add_argument("--cold-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference.npz from the code in src/")
    args = parser.parse_args(argv)
    if args.cold_probe:
        # Like a set-up: numpy is loaded; scipy's modules are not yet.
        t0 = time.perf_counter()
        import calibration
        calibration.probe()
        print(time.perf_counter() - t0)
        return 0
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_child:
        child_set_up(args)
        return 0
    print(json.dumps(benchmark(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
