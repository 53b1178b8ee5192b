"""Command line interface.

Four subcommands: ``simulate`` writes concurrence curves as CSV, ``events``
writes detected death/revival/birth times, ``verify`` runs the self-check
suites, and ``plotdata`` writes a plain-text matrix for surface plots.

Scenarios are described by flat ``key = value`` config files (``#`` starts a
comment).  ``alpha`` accepts a single value, a comma list, or a
``start:stop:steps`` grid; ``tau`` must be a grid of at least two points.
Bundled presets cover the standard parameter studies (fig2 .. fig11).

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure.
"""
from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from .analysis import _ZERO_TOL, Scenario, _check_alphas, _check_grid, _check_pairs, detect_esb, detect_esd, sweep_pairs
from .dynamics import BellType, FieldSpec, Model, _as_tau_grid
from .errors import ConfigError, NumericalError
from .verification import run_verification

_REQUIRED_KEYS = ("model", "bell_type", "alpha", "field_a", "field_b", "tau", "pairs")
_KNOWN_KEYS = _REQUIRED_KEYS + ("output",)


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """A parsed scenario: model, preparation, grids, pairs and output path."""

    model: Model
    bell_type: BellType
    alphas: np.ndarray
    tau: np.ndarray
    field_a: FieldSpec
    field_b: FieldSpec
    pairs: tuple[str, ...]
    output: Optional[str]


def _parse_values(key: str, text: str) -> np.ndarray:
    """A single real, a comma list, or an inclusive start:stop:steps grid."""
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("grid spec must be start:stop:steps")
            start, stop = float(parts[0]), float(parts[1])
            steps = int(parts[2])
            if str(steps) != parts[2].strip():
                raise ValueError("steps must be a plain integer")
            if steps < 2:
                raise ValueError("a grid needs at least 2 points")
            if not stop > start:
                raise ValueError("grid span must be positive")
            return np.linspace(start, stop, steps)
        return np.array([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _parse_field(key: str, text: str) -> FieldSpec:
    """``vacuum``, ``fock:<n>``, or ``thermal:<nbar>[,<tail_mass_epsilon>]``."""
    text = text.strip()
    try:
        if text == "vacuum":
            return FieldSpec.vacuum()
        if text.startswith("fock:"):
            return FieldSpec.fock(int(text[len("fock:"):]))
        if text.startswith("thermal:"):
            args = text[len("thermal:"):].split(",")
            if len(args) > 2:
                raise ValueError("too many thermal parameters")
            return FieldSpec.thermal(*(float(arg) for arg in args))
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc
    raise ValueError(f"{key}: expected vacuum, fock:<n> or thermal:<nbar>[,<eps>], got {text!r}")


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse a flat key = value scenario description."""
    entries: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        entries[key] = value
    missing = [key for key in _REQUIRED_KEYS if key not in entries]
    if missing:
        raise ConfigError(f"missing keys: {', '.join(missing)}")

    if entries["model"] not in (m.value for m in Model):
        raise ConfigError(f"model must be DTCM or DJCM, got {entries['model']!r}")
    model = Model(entries["model"])
    if entries["bell_type"] not in (b.value for b in BellType):
        raise ConfigError(f"bell_type must be psi or phi, got {entries['bell_type']!r}")
    bell_type = BellType(entries["bell_type"])

    try:  # the values, by the library's own input rules; any ValueError is a config error
        alphas = _check_alphas(_parse_values("alpha", entries["alpha"]))
        tau = _check_grid("tau", _parse_values("tau", entries["tau"]))
        if tau.size < 2:
            raise ValueError("tau: a degenerate grid (single point) is not a sweep")
        tau, _ = _as_tau_grid(tau)

        field_a = _parse_field("field_a", entries["field_a"])
        field_b = _parse_field("field_b", entries["field_b"])

        pairs = tuple(part.strip() for part in entries["pairs"].split(","))
        if any(not p for p in pairs):
            raise ValueError("pairs: expected a comma list of pair names")
        pairs = _check_pairs(model, pairs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return ScenarioConfig(
        model=model,
        bell_type=bell_type,
        alphas=alphas,
        tau=tau,
        field_a=field_a,
        field_b=field_b,
        pairs=pairs,
        output=entries.get("output"),
    )


def available_presets() -> list[str]:
    """Names of the bundled scenario presets."""
    root = resources.files("dtcm").joinpath("presets")
    return sorted(path.name[: -len(".cfg")] for path in root.iterdir() if path.name.endswith(".cfg"))


def load_preset(name: str) -> ScenarioConfig:
    """Load one bundled preset by name."""
    root = resources.files("dtcm").joinpath("presets")
    candidate = root.joinpath(f"{name}.cfg")
    if not candidate.is_file():
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(available_presets())}")
    return parse_config_text(candidate.read_text(encoding="utf-8"))


def _fmt(values) -> list[str]:
    """Every number the CLI writes, as ``.12g`` text (None gives an empty field).

    The curve writers format with ``"%.12g" % value``, which gives the same
    text as ``format(value, ".12g")``.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()  # one conversion to Python floats, not one per value
    return ["" if v is None else format(v, ".12g") for v in values]


@contextlib.contextmanager
def _output(path: Optional[str]):
    """A text handle on ``path``, or on stdout when it is None; a path that cannot be opened is a ``ConfigError``."""
    if path is None:
        yield sys.stdout
        return
    try:
        handle = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    with handle:
        yield handle


def _write_text(path: Optional[str], text: str) -> None:
    with _output(path) as handle:
        handle.write(text)


def _sweep_all(cfg: ScenarioConfig):
    scenario = Scenario(cfg.model, cfg.bell_type, cfg.field_a, cfg.field_b)
    pairs = tuple(sorted(cfg.pairs))
    return pairs, sweep_pairs(scenario, pairs, cfg.alphas, cfg.tau)


def cmd_simulate(cfg: ScenarioConfig, out: Optional[str]) -> None:
    """Write concurrence samples as CSV: tau,alpha,pair,concurrence.

    Rows are ordered alpha-major, then pair (lexicographic), then tau.  The
    output is opened after the sweep and written one curve at a time.
    """
    pairs, curves = _sweep_all(cfg)
    # the tau column once; each curve fills in its alpha and pair, then its values
    template = "\n".join(t + "\x00%.12g" for t in _fmt(cfg.tau)) + "\n"
    with _output(out) as handle:
        handle.write("tau,alpha,pair,concurrence\n")
        for index, alpha_text in enumerate(_fmt(cfg.alphas)):
            for pair in pairs:
                values = curves[pair][index].values
                handle.write(template.replace("\x00", f",{alpha_text},{pair},") % tuple(values.tolist()))


def cmd_events(cfg: ScenarioConfig, out: Optional[str]) -> None:
    """Write death/revival/birth events as CSV, empty fields when absent."""
    pairs, curves = _sweep_all(cfg)
    lines = ["alpha,pair,death_time,revival_time,birth_time"]
    for index, alpha_text in enumerate(_fmt(cfg.alphas)):
        for pair in pairs:
            curve = curves[pair][index]
            esd = detect_esd(curve)
            birth = None
            if curve.values[0] < _ZERO_TOL:  # starts dead: look for a birth
                birth = detect_esb(curve).birth_time
            times = ",".join(_fmt([esd.death_time, esd.revival_time, birth]))
            lines.append(f"{alpha_text},{pair},{times}")
    _write_text(out, "\n".join(lines) + "\n")


def cmd_plotdata(cfg: ScenarioConfig, out: Optional[str]) -> None:
    """Write a whitespace matrix: first row the tau grid, then one row per
    alpha (the alpha value followed by the concurrences)."""
    if len(cfg.pairs) != 1:
        raise ConfigError("plotdata needs a config with exactly one pair")
    _, curves = _sweep_all(cfg)
    row = " ".join(["%.12g"] * (cfg.tau.size + 1)) + "\n"
    with _output(out) as handle:
        handle.write(" ".join(_fmt(cfg.tau)) + "\n")
        for curve in curves[cfg.pairs[0]]:
            handle.write(row % (curve.alpha, *curve.values.tolist()))


def cmd_verify(level: str = "quick") -> int:
    """Run the verification suites, print one line each, return 0/1."""
    results = run_verification(level)
    for result in results:
        print(result.line())
    return 0 if all(result.passed for result in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dtcm", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_command(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        group = cmd.add_mutually_exclusive_group(required=True)
        group.add_argument("--config", metavar="PATH", help="scenario config file")
        group.add_argument("--preset", metavar="NAME", help="bundled scenario preset")
        cmd.add_argument("--out", metavar="PATH", help="output path (default: config's output, else stdout)")
        cmd.add_argument("--threads", type=int, default=1, metavar="N", help="accepted for compatibility; has no effect")
        return cmd

    add_scenario_command("simulate", "write concurrence curves as CSV")
    add_scenario_command("events", "write sudden death/birth events as CSV")
    add_scenario_command("plotdata", "write a plain-text concurrence matrix")

    verify = sub.add_parser("verify", help="run the self-check suites")
    verify.add_argument("--level", choices=("quick", "full"), default="quick")
    return parser


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    if args.preset is not None:
        return load_preset(args.preset)
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_config_text(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2

    try:
        if args.command == "verify":
            return cmd_verify(args.level)
        cfg = _load_config(args)
        if args.threads < 0:
            raise ConfigError("threads must be nonnegative")
        out = args.out if args.out is not None else cfg.output
        if args.command == "simulate":
            cmd_simulate(cfg, out)
        elif args.command == "events":
            cmd_events(cfg, out)
        else:
            cmd_plotdata(cfg, out)
        return 0
    except (NumericalError, np.linalg.LinAlgError, MemoryError) as exc:
        # before ValueError: LinAlgError subclasses it but is a numerical failure
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
