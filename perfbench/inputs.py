"""Seeded input generation for the four benchmark workloads.

Only the standard library is used here, so ``run.py`` can build the inputs
without importing numpy or dtcm.  The same seed always gives the same
files.  Each workload writes into its own directory; the worker process reads
them back during its set-up.
"""
from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("surface-vacuum", "events-thermal", "point-queries", "verify-full")

# Re-check a claimed gain on this seed, which is never used while a change is
# being written or tuned.
HELDOUT_SEED = 7919

HALF_PI = math.pi / 2.0

# Point-query mix per batch.  DTCM dominates so p50 sits in its cost class;
# the DJCM share holds both the cheap vacuum/Fock class (about 8x faster,
# kept far from 50%) and the slow DJCM-thermal class that p95 lands in.  One
# hot thermal query per batch (0.5%) stays well inside the 5% tail, so p95
# is always finite even though every hot query fails in dtcm 0.1.0.
BATCH_SIZE = 200
BATCH_DJCM = 30
BATCH_HOT = 1
FIELD_POOL = ("vacuum", "fock:1", "fock:2", "thermal:0.5", "thermal:1", "thermal:2")
HOT_NBAR = (12.0, 16.0)
N_BATCHES = 32


def _scenario_config(alpha: str, field: str, tau: str, pairs: str) -> str:
    return (
        "model = DTCM\n"
        "bell_type = psi\n"
        f"alpha = {alpha}\n"
        f"field_a = {field}\n"
        f"field_b = {field}\n"
        f"tau = {tau}\n"
        f"pairs = {pairs}\n"
    )


def _surface_vacuum(rng: random.Random, tiny: bool) -> str:
    # the fig2 preset with its alpha grid shifted by a seeded offset
    offset = rng.uniform(0.0, 0.01)
    n_alpha, tau = (3, "0:2:21") if tiny else (51, "0:25:2501")
    return _scenario_config(f"{offset!r}:{offset + HALF_PI!r}:{n_alpha}", "vacuum", tau, "AB")


def _events_thermal(rng: random.Random, tiny: bool) -> str:
    # the fig8 scenario on pairs AB and BD; the grid starts at a seeded angle
    # and spans both the AB death region and the small-alpha BD births
    start = rng.uniform(0.05, 0.15)
    n_alpha, tau = (2, "0:8:161") if tiny else (6, "0:25:2501")
    return _scenario_config(f"{start!r}:{start + 1.4!r}:{n_alpha}", "thermal:1", tau, "AB,BD")


def _query(rng: random.Random, model: str, hot: bool) -> list:
    field_a, field_b = rng.choice(FIELD_POOL), rng.choice(FIELD_POOL)
    if hot:
        nbar = round(rng.uniform(*HOT_NBAR), 2)
        if rng.random() < 0.5:
            field_a = f"thermal:{nbar}"
        else:
            field_b = f"thermal:{nbar}"
    pair = rng.choice(("AB", "CD", "AC", "BD")) if model == "DTCM" else "AB"
    bell = rng.choice(("psi", "phi"))
    alpha = rng.uniform(0.0, HALF_PI)
    tau = rng.uniform(0.0, 25.0)
    return [model, bell, field_a, field_b, alpha, tau, pair, hot]


def _point_queries(rng: random.Random, tiny: bool) -> list:
    size, djcm, n_batches = (120, 18, 2) if tiny else (BATCH_SIZE, BATCH_DJCM, N_BATCHES)
    batches = []
    for _ in range(n_batches):
        kinds = ["hot"] * BATCH_HOT + ["DJCM"] * djcm
        kinds += ["DTCM"] * (size - len(kinds))
        rng.shuffle(kinds)
        batches.append([_query(rng, "DTCM" if k == "hot" else k, k == "hot") for k in kinds])
    return batches


def write_inputs(workload: str, seed: int, directory: Path, tiny: bool = False) -> None:
    """Write the inputs of one workload for one seed into ``directory``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "surface-vacuum":
        (directory / "scenario.cfg").write_text(_surface_vacuum(rng, tiny), encoding="utf-8")
    elif workload == "events-thermal":
        (directory / "scenario.cfg").write_text(_events_thermal(rng, tiny), encoding="utf-8")
    elif workload == "point-queries":
        (directory / "queries.json").write_text(json.dumps(_point_queries(rng, tiny)), encoding="utf-8")
    else:
        # verify runs fixed suites, so the seed changes none of its inputs;
        # the tiny size drops to the quick level
        (directory / "level.txt").write_text("quick" if tiny else "full", encoding="utf-8")
