"""One benchmark worker process: set-up, timed passes, checks, metrics.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
With ``--setup-only`` it only measures set-up (import dtcm, load the
workload's inputs) and exits; ``run.py`` starts several of these to time a
fresh process.  Otherwise it runs passes for about ``--seconds``, measures
peak resident memory, runs the correctness checks outside the timed region,
and writes every metric to ``--result``.

In a traced run, passes alternate untraced and traced.  The traced ones give
the per-layer metrics, and the ratio of the two medians gives the tracing
overhead.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

from inputs import HELDOUT_SEED
from tracer import Tracer, suite_metric

MIN_PASSES = 3
PASS_BUDGET_S = 120.0  # no new pass starts after this, whatever MIN_PASSES says

# (name, unit) in the order BENCHMARK.json lists them
END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_frac", "ratio"),
    ("latency_p50_us", "us"),
    ("latency_p95_us", "us"),
)
SELF_TIME_LAYERS = (
    "dynamics.amplitude_table",
    "dynamics.channel_tensor",
    "dynamics.jc_channel_tensor",
    "dynamics.combine",
    "dynamics.single_state",
    "algebra.partial_trace",
    "algebra.validate",
    "concurrence.x_check",
    "concurrence.x_batch",
    "concurrence.general",
    "analysis.sweep",
    "analysis.detect",
    "cli.parse",
    "cli.format",
    "cli.write",
    "oracle.hamiltonian",
    "oracle.evolution",
    "oracle.compare",
)
COUNTS = (
    "dynamics.amplitude_table_calls",
    "dynamics.amplitude_cells",
    "dynamics.channel_tensor_calls",
    "dynamics.photon_levels_max",
    "dynamics.combine_calls",
    "dynamics.combine_states",
    "algebra.partial_trace_states",
    "algebra.validate_states",
    "concurrence.general_states",
    "analysis.sweep_calls",
    "analysis.curves",
    "analysis.events_found",
    "cli.bytes_out",
    "oracle.hilbert_dim_max",
)
SUITES = (
    "x-normalization",
    "explicit-maps",
    "oracle-agreement",
    "oracle-agreement-thermal",
    "pair-symmetries",
    "state-validity",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {f"{layer}_s": "s" for layer in SELF_TIME_LAYERS}
    units.update({name: "bytes" if name == "cli.bytes_out" else "count" for name in COUNTS})
    units.update({suite_metric(suite): "s" for suite in SUITES})
    units["trace.overhead_frac"] = "ratio"
    return units


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy has no dict mode; the record says unknown
        pass
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    threads = {
        var: os.environ.get(var, "unset")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "dtcm_threads": 1,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "heldout_seed": HELDOUT_SEED,
    }


def _pin(cpus: list[int], slot: int) -> None:
    """Run the calling thread on one CPU, taking the CPUs in turn slot by slot.

    On a shared host each CPU is slowed by other tenants independently and
    for seconds at a time.  Moving between passes averages the CPUs instead
    of measuring whichever one the scheduler happened to keep.
    """
    if cpus:
        os.sched_setaffinity(0, {cpus[slot % len(cpus)]})


class Record:
    """What the timed passes did, kept compact so its growth barely moves peak RSS."""

    def __init__(self) -> None:
        self.latencies = array("d")  # seconds per operation, in order
        self.failure_at: dict[int, str] = {}  # operation index -> exception type or exit code
        self.pass_sizes: list[int] = []
        self.pass_seconds: list[float] = []
        self.traced: list[bool] = []

    def add_pass(self, results, seconds: float, traced: bool) -> None:
        for op_seconds, failure in results:
            if failure is not None:
                self.failure_at[len(self.latencies)] = failure
            self.latencies.append(op_seconds)
        self.pass_sizes.append(len(results))
        self.pass_seconds.append(seconds)
        self.traced.append(traced)

    def op_keys(self, wl):
        """(operation index, output key) for every operation."""
        index = 0
        for pass_index, size in enumerate(self.pass_sizes):
            for position in range(size):
                yield index, wl.op_key(pass_index, position)
                index += 1


def _run_passes(wl, seconds: float, tracer, cpus: list[int]) -> Record:
    record = Record()
    loop_start = time.perf_counter()
    index = 0
    while True:
        _pin(cpus, index // 2 if tracer is not None else index)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install(index)
            with tracer.pass_span(index):
                start = time.perf_counter()
                results = wl.run_pass(index)
                elapsed = time.perf_counter() - start
            tracer.uninstall()
        else:
            start = time.perf_counter()
            results = wl.run_pass(index)
            elapsed = time.perf_counter() - start
        record.add_pass(results, elapsed, traced)
        index += 1
        used = time.perf_counter() - loop_start
        if used + elapsed > PASS_BUDGET_S and index >= (2 if tracer is not None else 1):
            break
        if index >= MIN_PASSES and used + statistics.median(record.pass_seconds) > seconds:
            break
    return record


def _cost_classes(wl, record: Record, latencies: list[float]) -> dict:
    """Share and median latency per cost class, and the class p50 and p95 fall in."""
    keys = dict(record.op_keys(wl))
    by_class: dict[str, list[float]] = {}
    for index, latency in enumerate(latencies):
        by_class.setdefault(wl.cost_class(keys[index]), []).append(latency)
    classes: dict = {}
    for name, values in sorted(by_class.items()):
        finite = [v for v in values if math.isfinite(v)]
        classes[name] = {
            "share": len(values) / len(latencies),
            "failed": len(values) - len(finite),
            "p50_us": statistics.median(finite) * 1e6 if finite else None,
        }
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    for p in (0.50, 0.95):
        rank = max(0, math.ceil(p * len(order)) - 1)
        classes[f"p{round(p * 100)}_falls_in"] = wl.cost_class(keys[order[rank]])
    return classes


def _layer_metrics(tracer, pass_seconds, traced_flags) -> dict[str, float]:
    traced_ids = [i for i, flag in enumerate(traced_flags) if flag]
    selfs = tracer.self_times()
    values = {}
    for name in per_layer_units():
        if name == "trace.overhead_frac":
            continue
        layer = name[:-2] if name.endswith("_s") else None
        samples = []
        for pass_id in traced_ids:
            if layer in SELF_TIME_LAYERS:
                samples.append(selfs[pass_id].get(layer, 0.0))
            else:
                samples.append(tracer.counts[pass_id].get(name, 0.0))
        values[name] = statistics.median(samples)
    traced = [s for s, flag in zip(pass_seconds, traced_flags) if flag]
    plain = [s for s, flag in zip(pass_seconds, traced_flags) if not flag]
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--scratch", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpu-slot", type=int, default=0, help="which allowed CPU to run set-up on")
    args = parser.parse_args(argv)

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    _pin(cpus, args.cpu_slot)
    start = time.perf_counter()
    import dtcm
    import dtcm.cli  # noqa: F401  (part of what a CLI user pays for)

    import workloads

    wl = workloads.make(args.workload, args.inputs, args.scratch, args.seed)
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s, "dtcm_file": dtcm.__file__}
    if args.setup_only:
        args.result.write_text(json.dumps(result), encoding="utf-8")
        return 0

    wl.warm_up()
    tracer = None
    if args.trace:
        tracer = Tracer()
    record = _run_passes(wl, args.seconds, tracer, cpus)
    if cpus:
        os.sched_setaffinity(0, set(cpus))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = wl.check()
    for index, key in record.op_keys(wl):
        if index not in record.failure_at and key in report.bad_keys:
            record.failure_at[index] = "check"
    latencies = [math.inf if i in record.failure_at else s for i, s in enumerate(record.latencies)]
    failures: dict[str, int] = {}
    for failure in record.failure_at.values():
        failures[failure] = failures.get(failure, 0) + 1
    attempted, failed = len(latencies), len(record.failure_at)
    untraced = [s for s, flag in zip(record.pass_seconds, record.traced) if not flag]
    ranked = sorted(latencies)
    metrics = {
        "run_s": statistics.median(untraced),
        "peak_rss_mb": peak_rss_mb,
        "success_frac": 1.0 - failed / attempted,
        "latency_p50_us": percentile(ranked, 0.50) * 1e6,
        "latency_p95_us": percentile(ranked, 0.95) * 1e6,
    }
    result.update(
        correct=not report.bad_keys,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        diagnostics={
            "env": dict(environment(args.seed), cpus_alternated=cpus),
            "samples": {"passes": len(record.pass_seconds), "run_s": len(untraced), "latency": attempted},
            "pass_seconds": record.pass_seconds,
            "failures": failures,
            "hot_share": getattr(wl, "hot_runs", 0) / attempted,
            "cost_classes": _cost_classes(wl, record, latencies) if hasattr(wl, "cost_class") else {},
            "check": {"max_dev": report.max_dev, "checked": report.checked, "notes": report.notes[:10]},
        },
    )
    if tracer is not None:
        result["layer_metrics"] = _layer_metrics(tracer, record.pass_seconds, record.traced)
        result["diagnostics"]["absent_spans"] = tracer.absent
        result["diagnostics"]["counter_errors"] = tracer.counter_errors
        if args.trace_out is not None:
            extra = {"workload": args.workload, "seed": args.seed, "pass_seconds": record.pass_seconds}
            tracer.write(args.trace_out, extra)
            result["diagnostics"]["trace_file"] = str(args.trace_out)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
