"""Compare every preset output, the fixed scenarios' outputs and the full verify report of two dtcm source trees.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC

Each tree is a directory holding the ``dtcm`` package (a checkout's ``src``).
For each tree, one fresh Python process imports ``dtcm`` from it and writes
``simulate``, ``events`` and ``plotdata`` of every bundled preset (33 outputs),
``simulate`` and ``events`` of every config in ``tools/scenarios`` (pairs,
layouts and unequal fields the presets leave out) and the stdout of
``verify --level full`` into a scratch directory, with each run's exit code.  The seconds each verify suite took are replaced by ``<s>``,
since they differ from run to run.  The script prints each differing line
(at most 20 per output, then a count) and exits 1 if any output or
exit code differs, else 0.
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

out, scenarios = Path(sys.argv[1]), Path(sys.argv[2])
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
(out / "codes.json").write_text(json.dumps(codes), encoding="utf-8")
"""

_SCENARIOS = Path(__file__).resolve().parent / "scenarios"  # fixed configs, read by both trees
_SECONDS = re.compile(r" in \d+\.\d+ s")
_SHOW = 20  # differing lines printed per output


def write_outputs(src: Path, out: Path) -> dict[str, int]:
    """Every output of the tree at ``src`` into ``out``; returns each run's exit code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", _CHILD, str(out), str(_SCENARIOS)], env=env, check=True)
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
