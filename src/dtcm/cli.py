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
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from .analysis import PAIR_CHOICES, Scenario, detect_esb, detect_esd, sweep_pairs
from .dynamics import BellType, FieldSpec, Model
from .errors import ConfigError, NumericalError
from .verification import run_verification

_REQUIRED_KEYS = ("model", "bell_type", "alpha", "field_a", "field_b", "tau", "pairs")
_KNOWN_KEYS = _REQUIRED_KEYS + ("output",)

_ZERO_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """A parsed scenario: model, preparation, grids, pairs and output path.

    ``raw`` keeps the normalized key/value strings so a config can be
    serialized back out verbatim (grids stay in their compact spec form).
    """

    model: Model
    bell_type: BellType
    alphas: np.ndarray
    tau: np.ndarray
    field_a: FieldSpec
    field_b: FieldSpec
    pairs: tuple[str, ...]
    output: Optional[str]
    raw: dict[str, str]


def _parse_values(key: str, text: str) -> np.ndarray:
    """A single real, a comma list, or an inclusive start:stop:steps grid."""
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ConfigError(f"{key}: grid spec must be start:stop:steps")
            start, stop = float(parts[0]), float(parts[1])
            steps = int(parts[2])
            if str(steps) != parts[2].strip():
                raise ConfigError(f"{key}: steps must be a plain integer")
            if steps < 2:
                raise ConfigError(f"{key}: a grid needs at least 2 points")
            if not stop > start:
                raise ConfigError(f"{key}: grid span must be positive")
            values = np.linspace(start, stop, steps)
        elif "," in text:
            values = np.array([float(part) for part in text.split(",")])
        else:
            values = np.array([float(text)])
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{key}: values must be finite")
    if values.size > 1 and np.any(np.diff(values) <= 0.0):
        raise ConfigError(f"{key}: values must be strictly increasing")
    return values


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
            if len(args) == 1:
                return FieldSpec.thermal(float(args[0]))
            if len(args) == 2:
                return FieldSpec.thermal(float(args[0]), float(args[1]))
            raise ConfigError(f"{key}: too many thermal parameters")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    raise ConfigError(f"{key}: expected vacuum, fock:<n> or thermal:<nbar>[,<eps>], got {text!r}")


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

    alphas = _parse_values("alpha", entries["alpha"])
    if np.any(alphas < 0.0) or np.any(alphas > np.pi):
        raise ConfigError("alpha: values must lie in [0, pi]")
    tau = _parse_values("tau", entries["tau"])
    if tau.size < 2:
        raise ConfigError("tau: a degenerate grid (single point) is not a sweep")
    if np.any(tau < 0.0):
        raise ConfigError("tau: values must be nonnegative")

    field_a = _parse_field("field_a", entries["field_a"])
    field_b = _parse_field("field_b", entries["field_b"])

    pairs = tuple(part.strip() for part in entries["pairs"].split(","))
    if not pairs or any(not p for p in pairs):
        raise ConfigError("pairs: expected a comma list of pair names")
    unknown = [p for p in pairs if p not in PAIR_CHOICES]
    if unknown:
        raise ConfigError(f"pairs: unknown pair names {unknown}; choose from {PAIR_CHOICES}")
    if len(set(pairs)) != len(pairs):
        raise ConfigError("pairs: duplicate pair names")
    if model is Model.DJCM and any(p != "AB" for p in pairs):
        raise ConfigError("pairs: the DJCM layout only provides the AB pair")

    return ScenarioConfig(
        model=model,
        bell_type=bell_type,
        alphas=alphas,
        tau=tau,
        field_a=field_a,
        field_b=field_b,
        pairs=pairs,
        output=entries.get("output"),
        raw=dict(entries),
    )


def config_to_text(cfg: ScenarioConfig) -> str:
    """Serialize a config back to the flat file form it was parsed from."""
    lines = [f"{key} = {cfg.raw[key]}" for key in _KNOWN_KEYS if key in cfg.raw]
    return "\n".join(lines) + "\n"


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


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _sweep_all(cfg: ScenarioConfig, threads: int):
    if threads < 0:
        raise ValueError("threads must be nonnegative")
    scenario = Scenario(cfg.model, cfg.bell_type, cfg.field_a, cfg.field_b)
    pairs = tuple(sorted(cfg.pairs))
    return pairs, sweep_pairs(scenario, pairs, cfg.alphas, cfg.tau)


def cmd_simulate(cfg: ScenarioConfig, out: Optional[str], threads: int = 1) -> None:
    """Write concurrence samples as CSV: tau,alpha,pair,concurrence.

    Rows are ordered alpha-major, then pair (lexicographic), then tau.
    """
    pairs, curves = _sweep_all(cfg, threads)
    # one joined block per curve: no string object per row outlives its curve
    blocks = ["tau,alpha,pair,concurrence"]
    tau_text = [_fmt(t) for t in cfg.tau]
    for index, alpha in enumerate(cfg.alphas):
        alpha_text = _fmt(alpha)
        for pair in pairs:
            middle = f",{alpha_text},{pair},"
            values = curves[pair][index].values.tolist()
            # the text _fmt gives; tolist() already made the values Python floats
            blocks.append("\n".join([t + middle + format(v, ".12g") for t, v in zip(tau_text, values)]))
    _write_text(out, "\n".join(blocks) + "\n")


def cmd_events(cfg: ScenarioConfig, out: Optional[str], threads: int = 1) -> None:
    """Write death/revival/birth events as CSV, empty fields when absent."""
    pairs, curves = _sweep_all(cfg, threads)
    lines = ["alpha,pair,death_time,revival_time,birth_time"]
    for index, alpha in enumerate(cfg.alphas):
        for pair in pairs:
            curve = curves[pair][index]
            esd = detect_esd(curve, zero_tol=_ZERO_TOL)
            birth = ""
            if curve.values[0] < _ZERO_TOL:
                esb = detect_esb(curve, zero_tol=_ZERO_TOL)
                if esb.birth_time is not None:
                    birth = _fmt(esb.birth_time)
            death = _fmt(esd.death_time) if esd.death_time is not None else ""
            revival = _fmt(esd.revival_time) if esd.revival_time is not None else ""
            lines.append(f"{_fmt(alpha)},{pair},{death},{revival},{birth}")
    _write_text(out, "\n".join(lines) + "\n")


def cmd_plotdata(cfg: ScenarioConfig, out: Optional[str], threads: int = 1) -> None:
    """Write a whitespace matrix: first row the tau grid, then one row per
    alpha (the alpha value followed by the concurrences)."""
    if len(cfg.pairs) != 1:
        raise ConfigError("plotdata needs a config with exactly one pair")
    _, curves = _sweep_all(cfg, threads)
    rows = [" ".join(_fmt(t) for t in cfg.tau)]
    for curve in curves[cfg.pairs[0]]:
        rows.append(" ".join([_fmt(curve.alpha)] + [_fmt(v) for v in curve.values]))
    _write_text(out, "\n".join(rows) + "\n")


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
            cmd_simulate(cfg, out, args.threads)
        elif args.command == "events":
            cmd_events(cfg, out, args.threads)
        else:
            cmd_plotdata(cfg, out, args.threads)
        return 0
    except (NumericalError, np.linalg.LinAlgError) as exc:
        # before ValueError: LinAlgError subclasses it but is a numerical failure
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
