"""Per-layer tracing of dtcm from outside the package.

The tracer replaces, at run time, the module attributes through which one
dtcm module calls into another (and the package-level re-exports) with thin
wrappers that record a span per call and update a few counters.  Nothing in
``src/`` is edited.  Every alias of a wrapped function is found by identity,
so ``from .dynamics import _assemble_dtcm_grid`` in another module is wrapped
too.  A target the package no longer defines is recorded as absent and the
run goes on without it.

Spans are kept in memory as (layer, start, end, parent, pass id) and written
out when the run ends.  A layer's self time is its spans' duration minus the
part covered by their direct child spans.
"""
from __future__ import annotations

import contextlib
import json
import math
import sys
import threading
import time
from collections import defaultdict
from importlib import import_module
from pathlib import Path


def _states(shape) -> int:
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


def _count_table(args, result, counts):
    levels, taus = result.shape[-2], result.shape[-1]
    counts["dynamics.amplitude_table_calls"] += 1
    counts["dynamics.amplitude_cells"] += levels * taus
    counts["dynamics.photon_levels_max"] = max(counts["dynamics.photon_levels_max"], levels)


def _count_channel(args, result, counts):
    counts["dynamics.channel_tensor_calls"] += 1


def _count_combine(args, result, counts):
    counts["dynamics.combine_calls"] += 1
    counts["dynamics.combine_states"] += _states(result.shape)


def _count_ptrace(args, result, counts):
    shape = result.matrix.shape if hasattr(result, "matrix") else result.shape
    counts["algebra.partial_trace_states"] += _states(shape)


def _count_validate(args, result, counts):
    mats = args[0]
    shape = mats.matrix.shape if hasattr(mats, "matrix") else mats.shape
    counts["algebra.validate_states"] += _states(shape)


def _count_general(args, result, counts):
    counts["concurrence.general_states"] += getattr(result, "size", 1)


def _count_sweep(args, result, counts):
    counts["analysis.sweep_calls"] += 1
    counts["analysis.curves"] += len(result)


def _count_events(args, result, counts):
    for name in ("death_time", "revival_time", "birth_time"):
        if getattr(result, name, None) is not None:
            counts["analysis.events_found"] += 1


def _count_write(args, result, counts):
    counts["cli.bytes_out"] += len(args[-1].encode("utf-8"))


def _count_hamiltonian(args, result, counts):
    counts["oracle.hilbert_dim_max"] = max(counts["oracle.hilbert_dim_max"], result.matrix.shape[0])


def suite_metric(name: str) -> str:
    """Per-layer metric name of one verification suite's own timing."""
    return "verification." + name.replace("-", "_") + "_s"


def _count_suites(args, result, counts):
    for suite in result:
        counts[suite_metric(suite.name)] += suite.seconds


# (module, attribute, layer, counter).  Counters run only on the outermost
# span of a layer, so a public wrapper and the private helper it calls are
# not counted twice.
TARGETS = (
    ("dynamics", "_x_block_table", "dynamics.amplitude_table", _count_table),
    ("dynamics", "_channel_tensor", "dynamics.channel_tensor", _count_channel),
    ("dynamics", "_jc_channel_tensor", "dynamics.jc_channel_tensor", None),
    ("dynamics", "_assemble_dtcm_grid", "dynamics.combine", _count_combine),
    ("dynamics", "_assemble_djcm_grid", "dynamics.combine", _count_combine),
    ("dynamics", "assemble_atomic_state", "dynamics.single_state", None),
    ("dynamics", "pair_map", "dynamics.pair_map", None),
    ("dynamics", "pair_map_explicit", "dynamics.pair_map", None),
    ("dynamics", "_accumulate_terms", "dynamics.pair_map", None),
    ("algebra", "partial_trace", "algebra.partial_trace", _count_ptrace),
    ("algebra", "_partial_trace_array", "algebra.partial_trace", _count_ptrace),
    ("algebra", "validate_density", "algebra.validate", _count_validate),
    ("algebra", "_validate_batch", "algebra.validate", _count_validate),
    ("concurrence", "x_pattern_deviation", "concurrence.x_check", None),
    ("concurrence", "is_x_form", "concurrence.x_check", None),
    ("concurrence", "_concurrence_x_batch", "concurrence.x_batch", None),
    ("concurrence", "concurrence_x", "concurrence.x_batch", None),
    ("concurrence", "concurrence_general", "concurrence.general", _count_general),
    ("concurrence", "_concurrence_general_batch", "concurrence.general", _count_general),
    ("analysis", "sweep_concurrence", "analysis.sweep", _count_sweep),
    ("analysis", "_curve_for_alpha", "analysis.sweep", None),
    ("analysis", "detect_esd", "analysis.detect", _count_events),
    ("analysis", "detect_esb", "analysis.detect", _count_events),
    ("cli", "main", "cli.parse", None),
    ("cli", "_build_parser", "cli.parse", None),
    ("cli", "_load_config", "cli.parse", None),
    ("cli", "load_preset", "cli.parse", None),
    ("cli", "parse_config_text", "cli.parse", None),
    ("cli", "cmd_simulate", "cli.format", None),
    ("cli", "cmd_events", "cli.format", None),
    ("cli", "cmd_plotdata", "cli.format", None),
    ("cli", "cmd_verify", "cli.format", None),
    ("cli", "_write_text", "cli.write", _count_write),
    ("oracle", "build_tc_hamiltonian", "oracle.hamiltonian", _count_hamiltonian),
    ("oracle", "_evolution_grid", "oracle.evolution", None),
    ("oracle", "evolution_operator", "oracle.evolution", None),
    ("oracle", "oracle_evolve", "oracle.evolution", None),
    ("oracle", "oracle_atomic_grid", "oracle.evolution", None),
    ("oracle", "compare_pipelines", "oracle.compare", None),
    ("verification", "run_verification", "verification", _count_suites),
)

PACKAGE = "dtcm"
PASS_LAYER = "bench.pass"


class Tracer:
    """Records spans and counters for the passes run while it is installed."""

    def __init__(self) -> None:
        self.layers: list[str] = [PASS_LAYER]
        self._layer_ids = {PASS_LAYER: 0}
        self.spans: list[list] = []  # [layer id, start, end, parent index, pass id]
        self.counts: dict[int, defaultdict] = {}
        self.absent: list[str] = []
        self.counter_errors: dict[str, str] = {}
        self._local = threading.local()
        self._pass_id = -1
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = self._resolve()

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def _resolve(self) -> dict[int, tuple[object, object]]:
        """Map id(original) -> (original, wrapper) for every target still present."""
        wrappers = {}
        for module_name, attr, layer, counter in TARGETS:
            try:
                module = import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if id(original) not in wrappers:
                wrappers[id(original)] = (original, self._wrap(original, layer, counter))
        return wrappers

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original, layer: str, counter):
        layer_id = self._layer_id(layer)
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            index = len(spans)
            record = [layer_id, 0.0, 0.0, parent, self._pass_id]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None and (parent < 0 or spans[parent][0] != layer_id):
                try:
                    counter(args, result, self.counts[self._pass_id])
                except Exception as exc:  # a refactored signature must not end the run
                    self.counter_errors[layer] = f"{type(exc).__name__}: {exc}"
            return result

        traced.__wrapped__ = original
        return traced

    def install(self, pass_id: int) -> None:
        """Swap every alias of every target for its wrapper."""
        self._pass_id = pass_id
        self.counts[pass_id] = defaultdict(float)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()
        self._pass_id = -1

    @contextlib.contextmanager
    def pass_span(self, pass_id: int):
        """Record the root span of one traced pass."""
        stack = self._stack()
        record = [0, time.perf_counter(), 0.0, -1, pass_id]
        stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def self_times(self) -> dict[int, dict[str, float]]:
        """Self time per layer for each traced pass."""
        child = [0.0] * len(self.spans)
        for layer_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (layer_id, start, end, _, pass_id) in enumerate(self.spans):
            out[pass_id][self.layers[layer_id]] += (end - start) - child[index]
        return out

    def write(self, path: Path, extra: dict) -> None:
        """Write every span (times in microseconds from the first span) and a summary."""
        origin = self.spans[0][1] if self.spans else 0.0
        payload = dict(extra)
        payload["layers"] = self.layers
        payload["absent"] = self.absent
        payload["span_fields"] = ["layer", "start_us", "end_us", "parent", "pass"]
        payload["spans"] = [
            [layer, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1), parent, pass_id]
            for layer, start, end, parent, pass_id in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
