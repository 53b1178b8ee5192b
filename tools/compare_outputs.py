"""Compare every preset output, the fixed scenarios' outputs, the full verify report and a set of single-time states of two dtcm source trees.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC

Each tree is a directory holding the ``dtcm`` package (a checkout's ``src``).
For each tree, one fresh Python process imports ``dtcm`` from it and writes
``simulate``, ``events`` and ``plotdata`` of every bundled preset (33 outputs),
``simulate`` and ``events`` of every config in ``tools/scenarios`` (pairs,
layouts and unequal fields the presets leave out), the stdout of
``verify --level full`` and the bytes of every ``assemble_atomic_state``
matrix in :data:`STATES` (a path no CLI output reaches) into a scratch
directory, with each run's exit code.  The seconds each verify suite took
are replaced by ``<s>``, since they differ from run to run.  The script
prints each differing line (at most 20 per output, then a count) and exits
1 if any output or exit code differs, else 0.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# runs inside the child process, with the tree under test first on sys.path
_CHILD = r"""
import contextlib, io, json, sys
from pathlib import Path
from dtcm import cli

out, scenarios, tool = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]
codes = {}
for preset in cli.available_presets():
    for command in ("simulate", "events", "plotdata"):
        name = f"{preset}.{command}"
        codes[name] = cli.main([command, "--preset", preset, "--out", str(out / name)])
for config in sorted(scenarios.glob("*.cfg")):
    for command in ("simulate", "events"):
        name = f"{config.stem}.{command}"
        codes[name] = cli.main([command, "--config", str(config), "--out", str(out / name)])
report = io.StringIO()
with contextlib.redirect_stdout(report):
    codes["verify-full"] = cli.main(["verify", "--level", "full"])
(out / "verify-full").write_text(report.getvalue(), encoding="utf-8")
sys.path.insert(0, tool)
from compare_outputs import write_single_states
write_single_states(out / "single-states")
codes["single-states"] = 0
(out / "codes.json").write_text(json.dumps(codes), encoding="utf-8")
"""

_SCENARIOS = Path(__file__).resolve().parent / "scenarios"  # fixed configs, read by both trees
_SECONDS = re.compile(r" in \d+\.\d+ s")
_SHOW = 20  # differing lines printed per output

# single-time states, as (model, Bell type, field a, field b, alpha of AB, alpha of CD, tau):
# both layouts and Bell types, equal and unequal fields (thermal among them) and, in the
# two-pair layout, equal and unequal angles
_FIELD_PAIRS = [("vacuum", "vacuum"), ("thermal:1", "thermal:1"), ("fock:1", "thermal:0.5"), ("thermal:2", "fock:2")]
STATES = [
    (model, bell, field_a, field_b, 0.3, alpha_cd, tau)
    for model in ("DTCM", "DJCM")
    for bell in ("psi", "phi")
    for field_a, field_b in _FIELD_PAIRS
    for alpha_cd in ((0.3, 1.1) if model == "DTCM" else (0.3,))
    for tau in (0.0, 1.3, 7.9)
]


def write_single_states(path: Path) -> None:
    """Each :data:`STATES` matrix of the ``dtcm`` on ``sys.path`` into ``path``: a line naming it, then one hex line of bytes per row."""
    from dtcm.cli import _parse_field
    from dtcm.dynamics import BellPairSpec, BellType, Model, assemble_atomic_state

    lines = []
    for model, bell, field_a, field_b, alpha_ab, alpha_cd, tau in STATES:
        pair_ab, pair_cd = BellPairSpec(BellType(bell), alpha_ab), BellPairSpec(BellType(bell), alpha_cd)
        fields = _parse_field("field_a", field_a), _parse_field("field_b", field_b)
        rho = assemble_atomic_state(pair_ab, pair_cd, *fields, tau, Model(model))
        lines.append(f"{model} {bell} {field_a}/{field_b} alpha={alpha_ab}/{alpha_cd} tau={tau}")
        lines.extend(row.tobytes().hex() for row in rho.matrix)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_outputs(src: Path, out: Path) -> dict[str, int]:
    """Every output of the tree at ``src`` into ``out``; returns each run's exit code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    tool = str(Path(__file__).resolve().parent)
    subprocess.run([sys.executable, "-c", _CHILD, str(out), str(_SCENARIOS), tool], env=env, check=True)
    return json.loads((out / "codes.json").read_text(encoding="utf-8"))


def read_lines(path: Path) -> list[str]:
    """An output's lines, with verify's suite seconds masked; a missing output has none."""
    if not path.exists():
        return []
    return [_SECONDS.sub(" in <s> s", line) for line in path.read_text(encoding="utf-8").splitlines()]


def compare(old: Path, new: Path, old_codes: dict[str, int], new_codes: dict[str, int]) -> int:
    """Print every difference between the two output sets; return how many outputs differ."""
    differing = 0
    for name in sorted(set(old_codes) | set(new_codes)):
        old_lines, new_lines = read_lines(old / name), read_lines(new / name)
        diffs = [
            (n, a, b)
            for n, (a, b) in enumerate(zip(old_lines, new_lines), start=1)
            if a != b
        ]
        if len(old_lines) != len(new_lines):
            diffs.append((min(len(old_lines), len(new_lines)) + 1, f"{len(old_lines)} lines", f"{len(new_lines)} lines"))
        if old_codes.get(name) != new_codes.get(name):
            diffs.insert(0, (0, f"exit {old_codes.get(name)}", f"exit {new_codes.get(name)}"))
        if diffs:
            differing += 1
            for n, a, b in diffs[:_SHOW]:
                print(f"{name}:{n}:\n  old: {a}\n  new: {b}")
            if len(diffs) > _SHOW:
                print(f"{name}: {len(diffs) - _SHOW} more differing lines")
    return differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path, help="source tree of the reference (holds dtcm/)")
    parser.add_argument("new_src", type=Path, help="source tree under test (holds dtcm/)")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "dtcm" / "__init__.py").is_file():
            parser.error(f"{src} holds no dtcm package")
    with tempfile.TemporaryDirectory(prefix="dtcm-compare-") as scratch:
        old, new = Path(scratch, "old"), Path(scratch, "new")
        old.mkdir()
        new.mkdir()
        old_codes = write_outputs(args.old_src.resolve(), old)
        new_codes = write_outputs(args.new_src.resolve(), new)
        differing = compare(old, new, old_codes, new_codes)
    print(f"{len(old_codes)} outputs compared, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
