"""dtcm benchmark: one command, four workloads, every metric by name and unit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: surface-vacuum, events-thermal, point-queries, verify-full (see
perfbench/README.md for what each one stresses and why).  The program is run
from ``src/`` of the checkout; nothing needs building.

``run.py`` builds the seeded inputs, times set-up in several fresh worker
processes, then starts one worker that runs the workload's passes and checks
their outputs.  One line of diagnostics (environment, sample counts, failure
kinds, worst check deviation) is printed, then, as the last line, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits non-zero, printing no result, when the run cannot be
made or a metric cannot be measured.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS, write_inputs  # noqa: E402
from worker import END_TO_END, per_layer_units  # noqa: E402

SETUP_PROBES = 5
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _worker(args: list[str], env: dict, deadline: float) -> None:
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """Run one measurement; returns (diagnostics, result line)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    root = HERE.parent
    package = root / "src" / "dtcm"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no dtcm package under {root / 'src'}")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"

    work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        inputs, scratch = work / "inputs", work / "scratch"
        write_inputs(workload, seed, inputs, tiny)
        scratch.mkdir(parents=True)
        common = ["--workload", workload, "--inputs", str(inputs), "--scratch", str(scratch), "--seed", str(seed)]

        setup = []
        for probe in range(SETUP_PROBES):
            path = work / f"setup-{probe}.json"
            _worker(common + ["--result", str(path), "--setup-only", "--cpu-slot", str(probe)], env, deadline)
            setup.append(json.loads(path.read_text(encoding="utf-8")))
        for record in setup:
            if Path(record["dtcm_file"]).resolve().parent != package.resolve():
                raise BenchError(f"imported dtcm from {record['dtcm_file']}, not from {package}")

        result_path = work / "result.json"
        trace_out = HERE / "out" / f"trace-{workload}-seed{seed}.json"
        _worker(
            common
            + ["--result", str(result_path), "--seconds", str(seconds), "--trace", str(int(trace))]
            + ["--trace-out", str(trace_out)],
            env,
            deadline,
        )
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_samples = [record["setup_s"] for record in setup] + [result["setup_s"]]
    measured = dict(result["metrics"], setup_s=statistics.median(setup_samples))
    if trace:
        units = per_layer_units()
        values = result["layer_metrics"]
    else:
        units = dict(END_TO_END)
        values = measured
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        if not math.isfinite(value):
            raise BenchError(f"{name} is not finite ({value}); too many operations failed")
        metrics[name] = {"value": value, "unit": unit}
    diagnostics = dict(result["diagnostics"], workload=workload, trace=int(trace))
    diagnostics["samples"]["setup_s"] = len(setup_samples)
    if trace:
        diagnostics["end_to_end_untraced"] = result["metrics"]
    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    return diagnostics, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    try:
        diagnostics, line = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
