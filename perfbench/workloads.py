"""The workloads: load the generated inputs, run one pass, check outputs.

A pass is what a user does once: one ``dtcm`` command for the three CLI
workloads, one batch of single-time library queries for ``point-queries``.
Every operation a pass performs is returned as (wall seconds, failure), the
failure being None or why it failed (exception type or exit code).
``op_key`` names the output an operation produced; correctness checks run
after the timed passes and report the keys of wrong outputs, which turns
those operations into failures.  All dtcm calls go through module
attributes looked up at call time, so the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import dtcm
import dtcm.cli

ZERO_TOL = 1e-9  # the CLI's zero threshold for dead entanglement
ORACLE_TOL = 1e-9  # closed form vs brute-force oracle, on concurrence
SURFACE_SAMPLE = (8, 12)  # alphas x taus compared against the oracle
POINT_CHECKS = 40  # point queries compared against the oracle per run
BISECT_STEPS = 20


@dataclass
class CheckReport:
    """Verdict per output key plus the worst deviation seen."""

    bad_keys: set = field(default_factory=set)
    max_dev: float = 0.0
    checked: int = 0
    notes: list = field(default_factory=list)


def _field(text: str) -> "dtcm.FieldSpec":
    if text == "vacuum":
        return dtcm.FieldSpec.vacuum()
    kind, _, value = text.partition(":")
    if kind == "fock":
        return dtcm.FieldSpec.fock(int(value))
    if kind == "thermal":
        return dtcm.FieldSpec.thermal(float(value))
    raise ValueError(f"unknown field {text!r}")


def _oracle_cutoff(field_a, field_b) -> int:
    return max(6, field_a.max_photon() + 3, field_b.max_photon() + 3)


def _oracle_concurrence(model, bell, alpha, field_a, field_b, taus, pair) -> np.ndarray:
    """Brute-force route: truncated-Hamiltonian evolution, pair trace, general concurrence."""
    spec = dtcm.BellPairSpec(bell, alpha)
    grid = dtcm.oracle_atomic_grid(
        spec, spec, field_a, field_b, np.asarray(taus, dtype=float), _oracle_cutoff(field_a, field_b), model
    )
    labels = ("A", "B", "C", "D") if model is dtcm.Model.DTCM else ("A", "B")
    return np.array(
        [dtcm.concurrence_general(dtcm.partial_trace(dtcm.DensityMatrix(m, labels), pair).matrix) for m in grid]
    )


def _closed_form_concurrence(model, bell, alpha, field_a, field_b, tau, pair) -> float:
    spec = dtcm.BellPairSpec(bell, alpha)
    rho = dtcm.assemble_atomic_state(spec, spec, field_a, field_b, tau, model)
    return dtcm.concurrence_general(dtcm.partial_trace(rho, pair).matrix)


class CliWorkload:
    """A workload that runs one ``dtcm`` command per pass."""

    def __init__(self, name: str, inputs: Path, scratch: Path, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.scratch = scratch
        self.out = scratch / "out.txt"
        self.outputs: dict[str, Path] = {}  # output hash -> kept copy
        self.pass_keys: list[Optional[str]] = []
        if name == "verify-full":
            self.level = (inputs / "level.txt").read_text(encoding="utf-8").strip()
            self.cfg = None
            self.argv = ["verify", "--level", self.level]
        else:
            self.cfg_path = inputs / "scenario.cfg"
            self.cfg = dtcm.cli.parse_config_text(self.cfg_path.read_text(encoding="utf-8"))
            command = "simulate" if name == "surface-vacuum" else "events"
            self.argv = [command, "--config", str(self.cfg_path), "--out", str(self.out)]

    def warm_up(self) -> None:
        """Touch the code paths once on a tiny grid so lazy set-up is not timed."""
        cfg = self.scratch / "warm.cfg"
        cfg.write_text(
            "model = DTCM\nbell_type = psi\nalpha = 0.3,0.9\nfield_a = thermal:0.5\n"
            "field_b = vacuum\ntau = 0:2:11\npairs = AB,BD\n",
            encoding="utf-8",
        )
        with contextlib.redirect_stdout(io.StringIO()):
            dtcm.cli.main(["events", "--config", str(cfg), "--out", str(self.scratch / "warm.csv")])

    def run_pass(self, index: int) -> list[tuple[float, Optional[str]]]:
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                code = dtcm.cli.main(self.argv)
            failure = None if code == 0 else f"exit {code}"
        except Exception as exc:  # any crash is a failed operation, not a crashed benchmark
            failure = type(exc).__name__
        seconds = time.perf_counter() - start
        self.pass_keys.append(None)
        if failure is not None:
            return [(seconds, failure)]
        if self.cfg is None:
            data = captured.getvalue().encode("utf-8")
        else:
            data = self.out.read_bytes()
        key = hashlib.sha256(data).hexdigest()
        if key not in self.outputs:
            kept = self.scratch / f"out-{len(self.outputs)}.txt"
            kept.write_bytes(data)
            self.outputs[key] = kept
        self.pass_keys[-1] = key
        return [(seconds, None)]

    def op_key(self, pass_index: int, position: int) -> Optional[str]:
        return self.pass_keys[pass_index]

    def check(self) -> CheckReport:
        """Check every distinct output once; a bad output fails every pass that produced it."""
        report = CheckReport()
        rng = random.Random(self.seed)
        checker = {
            "surface-vacuum": lambda text: check_surface(self.cfg, text, rng),
            "events-thermal": lambda text: check_events(self.cfg, text),
            "verify-full": check_verify,
        }[self.name]
        for key, path in self.outputs.items():
            ok, dev, note = checker(path.read_text(encoding="utf-8"))
            report.checked += 1
            report.max_dev = max(report.max_dev, dev)
            if note:
                report.notes.append(note)
            if not ok:
                report.bad_keys.add(key)
        return report


def _rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"unexpected header {lines[0] if lines else ''!r}")
    return [line.split(",") for line in lines[1:]]


def check_surface(cfg, text: str, rng: random.Random) -> tuple[bool, float, str]:
    """Sampled rows must match the oracle route within ORACLE_TOL."""
    try:
        rows = _rows(text, "tau,alpha,pair,concurrence")
    except ValueError as exc:
        return False, math.inf, str(exc)
    pairs = sorted(cfg.pairs)
    n_tau = cfg.tau.size
    if len(rows) != cfg.alphas.size * len(pairs) * n_tau:
        return False, math.inf, f"{len(rows)} rows, expected {cfg.alphas.size * len(pairs) * n_tau}"
    n_alpha, n_t = SURFACE_SAMPLE
    alpha_idx = sorted(set([0, cfg.alphas.size - 1] + rng.sample(range(cfg.alphas.size), min(n_alpha, cfg.alphas.size))))
    tau_idx = sorted(set([0, n_tau - 1] + rng.sample(range(n_tau), min(n_t, n_tau))))
    worst = 0.0
    for ia in alpha_idx:
        alpha = float(cfg.alphas[ia])
        for ip, pair in enumerate(pairs):
            ref = _oracle_concurrence(
                cfg.model, cfg.bell_type, alpha, cfg.field_a, cfg.field_b, cfg.tau[tau_idx], pair
            )
            for it, expected in zip(tau_idx, ref):
                tau_s, alpha_s, pair_s, value_s = rows[(ia * len(pairs) + ip) * n_tau + it]
                if pair_s != pair or abs(float(tau_s) - cfg.tau[it]) > 1e-9 or abs(float(alpha_s) - alpha) > 1e-9:
                    return False, math.inf, f"row for alpha={alpha}, tau={cfg.tau[it]} is misplaced"
                worst = max(worst, abs(float(value_s) - expected))
    return worst <= ORACLE_TOL, worst, ""


def _crossing(conc, t: float, h: float, lo: float, hi: float, rising: bool) -> Optional[float]:
    """The zero crossing of the given direction nearest ``t`` within one grid step, refined by bisection."""
    grid = np.linspace(max(lo, t - h), min(hi, t + h), 9)
    alive = [conc(s) > ZERO_TOL for s in grid]
    brackets = [
        (grid[j], grid[j + 1])
        for j in range(len(grid) - 1)
        if alive[j] != alive[j + 1] and alive[j + 1] == rising
    ]
    if not brackets:
        return None
    a, b = min(brackets, key=lambda ab: abs(0.5 * (ab[0] + ab[1]) - t))
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (a + b)
        if (conc(mid) > ZERO_TOL) == rising:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def check_events(cfg, text: str) -> tuple[bool, float, str]:
    """Each reported time must sit within one grid step of a real zero crossing.

    Concurrence is re-evaluated off the grid by the single-time route
    (assemble_atomic_state, partial trace, general concurrence).  The
    deviation is the distance to the refined crossing in grid steps.
    """
    try:
        rows = _rows(text, "alpha,pair,death_time,revival_time,birth_time")
    except ValueError as exc:
        return False, math.inf, str(exc)
    pairs = sorted(cfg.pairs)
    if len(rows) != cfg.alphas.size * len(pairs):
        return False, math.inf, f"{len(rows)} rows, expected {cfg.alphas.size * len(pairs)}"
    h = float(cfg.tau[1] - cfg.tau[0])
    lo, hi = float(cfg.tau[0]), float(cfg.tau[-1])
    worst, events = 0.0, 0
    for index, (alpha_s, pair_s, death, revival, birth) in enumerate(rows):
        alpha = float(cfg.alphas[index // len(pairs)])
        pair = pairs[index % len(pairs)]
        if pair_s != pair or abs(float(alpha_s) - alpha) > 1e-9:
            return False, math.inf, f"row {index} is misplaced"

        def conc(tau, alpha=alpha, pair=pair):
            return _closed_form_concurrence(
                cfg.model, cfg.bell_type, alpha, cfg.field_a, cfg.field_b, float(tau), pair
            )

        for value, rising in ((death, False), (revival, True), (birth, True)):
            if not value:
                continue
            events += 1
            t = float(value)
            root = _crossing(conc, t, h, lo, hi, rising)
            if root is None:
                return False, math.inf, f"no zero crossing within one step of {t} (alpha={alpha}, {pair})"
            worst = max(worst, abs(root - t) / h)
    return worst <= 1.0 + 1e-9, worst, f"{events} event times checked"


_SUITE_LINE = re.compile(r"^(\S+): max deviation (\S+) \(tolerance (\S+)\) (PASS|FAIL)")


def check_verify(text: str) -> tuple[bool, float, str]:
    """Every suite must PASS; the deviation is the worst deviation/tolerance ratio."""
    suites = [m for m in map(_SUITE_LINE.match, text.splitlines()) if m]
    if not suites:
        return False, math.inf, "no suite lines in the verify output"
    worst = max(float(m.group(2)) / float(m.group(3)) for m in suites)
    failed = [m.group(1) for m in suites if m.group(4) != "PASS"]
    return not failed, worst, f"failed suites: {failed}" if failed else f"{len(suites)} suites"


class PointQueries:
    """Batches of single-time library queries, one batch per pass."""

    def __init__(self, inputs: Path, scratch: Path, seed: int) -> None:
        self.seed = seed
        batches = json.loads((inputs / "queries.json").read_text(encoding="utf-8"))
        fields: dict[str, object] = {}
        self.batches = []
        for batch in batches:
            rows = []
            for model, bell, fa, fb, alpha, tau, pair, hot in batch:
                for text in (fa, fb):
                    if text not in fields:
                        fields[text] = _field(text)
                rows.append((dtcm.Model(model), dtcm.BellType(bell), fields[fa], fields[fb], alpha, tau, tuple(pair), hot))
            self.batches.append(rows)
        self.values: dict[tuple[int, int], float] = {}
        self.hot_runs = 0

    def warm_up(self) -> None:
        for model, bell, fa, fb, alpha, tau, pair, hot in self.batches[0][:10]:
            if not hot:
                _closed_form_concurrence(model, bell, alpha, fa, fb, tau, pair)

    def op_key(self, pass_index: int, position: int) -> tuple[int, int]:
        return (pass_index % len(self.batches), position)

    def run_pass(self, index: int) -> list[tuple[float, Optional[str]]]:
        b = index % len(self.batches)
        ops = []
        clock = time.perf_counter
        for j, (model, bell, fa, fb, alpha, tau, pair, hot) in enumerate(self.batches[b]):
            start = clock()
            try:
                spec = dtcm.BellPairSpec(bell, alpha)
                rho = dtcm.assemble_atomic_state(spec, spec, fa, fb, tau, model)
                value = dtcm.concurrence_general(dtcm.partial_trace(rho, pair).matrix)
                failure = None
            except Exception as exc:  # counted as it occurs; fixing it is the program's job
                failure = type(exc).__name__
            ops.append((clock() - start, failure))
            self.hot_runs += hot
            if failure is None:
                self.values[(b, j)] = value
        return ops

    def cost_class(self, key: tuple[int, int]) -> str:
        """Model plus whether a cavity is thermal: the classes p50 and p95 should each sit in."""
        model, _, fa, fb, _, _, _, hot = self.batches[key[0]][key[1]]
        if hot:
            return "hot"
        return model.value + ("-thermal" if "thermal" in (fa.kind, fb.kind) else "-cold")

    def check(self) -> CheckReport:
        """Compare a seeded subset of the answered queries against the oracle."""
        report = CheckReport()
        keys = sorted(self.values)
        rng = random.Random(self.seed)
        for key in rng.sample(keys, min(POINT_CHECKS, len(keys))):
            model, bell, fa, fb, alpha, tau, pair, _ = self.batches[key[0]][key[1]]
            try:
                ref = float(_oracle_concurrence(model, bell, alpha, fa, fb, [tau], pair)[0])
            except Exception as exc:
                report.notes.append(f"oracle could not check {key}: {type(exc).__name__}: {exc}")
                continue
            dev = abs(self.values[key] - ref)
            report.checked += 1
            report.max_dev = max(report.max_dev, dev)
            if dev > ORACLE_TOL:
                report.bad_keys.add(key)
        return report


def make(name: str, inputs: Path, scratch: Path, seed: int):
    if name == "point-queries":
        return PointQueries(inputs, scratch, seed)
    return CliWorkload(name, inputs, scratch, seed)
