"""Self-test of the benchmark, at a tiny size.

    python3 perfbench/selftest.py

Asserts three things:

1. every workload prints every metric named in BENCHMARK.json, with its unit,
   in both the untraced and the traced run, and its outputs pass their checks;
2. a corrupted output of each workload is caught by its correctness check;
3. a traced run over a dtcm whose wrapped function has gone (here
   ``_assemble_dtcm_grid`` is renamed, as folding it into one combine helper
   would do) still completes, reports that span as absent and reads it as 0.

Exits 0 when all pass.  Takes about a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS, write_inputs  # noqa: E402


def _run(root: Path, workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "3"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}"
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("diagnostics "), lines[-2]
    return json.loads(lines[-2][len("diagnostics "):]), json.loads(lines[-1])


def check_metrics_printed() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            diagnostics, line = _run(ROOT, workload, trace)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
            assert line["correct"] is True, (workload, trace, diagnostics["check"])
            assert line["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in spec[group]}
            printed = {name: m["unit"] for name, m in line["metrics"].items()}
            assert printed == expected, (workload, trace, set(printed) ^ set(expected))
            for name, metric in line["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (name, metric)
            if trace:
                assert diagnostics["absent_spans"] == [], diagnostics["absent_spans"]
                assert not diagnostics["counter_errors"], diagnostics["counter_errors"]
            print(f"ok   {workload} trace={trace}: {len(printed)} metrics, {line['attempted']} ops")


def check_corruption_caught(work: Path) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    for workload in WORKLOADS:
        inputs, scratch = work / workload / "inputs", work / workload / "scratch"
        write_inputs(workload, 5, inputs, tiny=True)
        scratch.mkdir(parents=True)
        wl = workloads.make(workload, inputs, scratch, 5)
        wl.run_pass(0)
        assert wl.check().bad_keys == set(), f"{workload}: clean output rejected"
        if workload == "point-queries":
            for key in wl.values:
                wl.values[key] += 1e-6
            assert wl.check().bad_keys, "point-queries: corrupted values passed"
        else:
            [path] = wl.outputs.values()
            path.write_text(_corrupt(workload, path.read_text(encoding="utf-8"), wl.cfg), encoding="utf-8")
            assert wl.check().bad_keys == {wl.op_key(0, 0)}, f"{workload}: corrupted output passed"
        print(f"ok   {workload}: corrupted output caught")


def _corrupt(workload: str, text: str, cfg) -> str:
    lines = text.splitlines()
    if workload == "surface-vacuum":
        # the last row (last alpha, last tau) is always among the sampled rows
        *head, value = lines[-1].split(",")
        lines[-1] = ",".join(head + [repr(float(value) + 1e-6)])
    elif workload == "events-thermal":
        step = float(cfg.tau[1] - cfg.tau[0])
        for i, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            for c in (2, 3, 4):
                if cells[c]:
                    cells[c] = repr(float(cells[c]) + 3 * step)
                    lines[i] = ",".join(cells)
                    return "\n".join(lines) + "\n"
        raise AssertionError("tiny events output has no event to corrupt")
    else:
        lines[0] = lines[0].replace("PASS", "FAIL")
    return "\n".join(lines) + "\n"


def check_missing_span(work: Path) -> None:
    fake = work / "fake-root"
    shutil.copytree(ROOT / "src", fake / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, fake / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    for path in (fake / "src" / "dtcm").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("_assemble_dtcm_grid", "_combine_dtcm_grid"), encoding="utf-8")
    diagnostics, line = _run(fake, "surface-vacuum", 1)
    assert "dynamics._assemble_dtcm_grid" in diagnostics["absent_spans"], diagnostics["absent_spans"]
    assert line["correct"] is True
    assert line["metrics"]["dynamics.combine_s"]["value"] == 0.0
    assert line["metrics"]["dynamics.channel_tensor_calls"]["value"] > 0
    _, plain = _run(fake, "surface-vacuum", 0)
    assert plain["correct"] is True and plain["failed"] == 0
    print("ok   missing wrapped function: traced run completes, span absent")


def main() -> int:
    work = HERE / ".work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        check_metrics_printed()
        check_corruption_caught(work)
        check_missing_span(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
