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
import os
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

    The curve writers format through :func:`_g12_bytes`, which gives the same
    bytes as ``format(value, ".12g")``.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()  # one conversion to Python floats, not one per value
    return ["" if v is None else format(v, ".12g") for v in values]


def _digit_words() -> np.ndarray:
    """The groups 0000..9999 as uint32 words of their four ASCII digits.

    Entry k + 10000 is group k in full; entry k is group k with its trailing
    zeros as NUL bytes (group 0 is four NULs).  Built from uint8 arithmetic,
    which keeps the import small.
    """
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    full = np.stack(np.meshgrid(*[ascii_digits] * 4, indexing="ij"), axis=-1).reshape(10000, 4)
    trailing = np.logical_and.accumulate(full[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    stripped = np.where(trailing, np.uint8(0), full)
    return np.concatenate([stripped, full]).view(np.uint32).ravel()


_DIGIT_WORDS = _digit_words()
# [word, lead]: the text before the significand on each decade from 0.1 <= v < 1
# down to 1e-4 <= v < 1e-3, then the whole text of +0.0, as two uint32 words
_LEAD_WORDS = np.array([b"0.", b"0.0", b"0.00", b"0.000", b"0"], dtype="S8").view(np.uint32).reshape(5, 2).T.copy()
_DECADE_SCALE = 10.0 ** np.arange(12, 16)  # v * 10**(11 - e) for e = -1 .. -4, each power exact
_G12_WIDTH = 20  # bytes per value: two lead words, three digit words
_WRITE_CELLS = 1 << 14  # numbers formatted per chunk of curves


def _g12_bytes(values) -> np.ndarray:
    """``format(v, ".12g")`` of every value as ASCII bytes: uint8 [*values.shape, 20].

    NUL bytes are padding, anywhere in a row: a row with its NULs removed is
    ``format(v, ".12g").encode()``, and that text never holds a NUL.

    +0.0 and ``1e-4 <= v < 1`` are formatted in numpy.  Three comparisons give
    the decade 10**e, and ``M = rint(y)`` of ``y = v * 10**(11 - e)`` the
    significand: the power of ten is exact and ``y < 2**40``, so the product
    is off by at most 2**-13, and ``|y - M| <= 0.499`` with
    ``10**11 <= M < 10**12`` proves M the correctly rounded 12-digit
    significand, as ``format`` finds it.  M is written as three groups of
    four digits, the last nonzero group with its trailing zeros dropped.
    Every other value (-0.0, 1.0, NaN, infinities, values outside the
    domain, near-ties and values that round to the next decade) goes through
    ``format``, whose ``.12g`` text of a float64 is at most 19 bytes long
    (``-1.23456789012e-308``).
    """
    v = np.asarray(values, dtype=np.float64)
    shape = v.shape
    v = v.ravel()
    zero = (v == 0.0) & ~np.signbit(v)
    fast = (v >= 1e-4) & (v < 1.0)
    decade = (v < 0.1).astype(np.intp) + (v < 0.01) + (v < 0.001)  # -1 - e on the fast domain
    y = np.where(fast, v, 0.5) * _DECADE_SCALE[decade]  # masked first: no warning for any input
    significand = np.rint(y)
    fast &= (np.abs(y - significand) <= 0.499) & (significand >= 1e11) & (significand < 1e12)
    groups = np.where(fast, significand, 0.0).astype(np.int64)
    high, low = np.divmod(groups, 10**8)
    middle, low = np.divmod(low, 10**4)
    words = np.empty((v.size, _G12_WIDTH // 4), dtype=np.uint32)
    lead = np.where(zero, 4, decade)
    words[:, 0] = _LEAD_WORDS[0][lead]  # a 1-d gather per word: one 2-d gather is several times slower
    words[:, 1] = _LEAD_WORDS[1][lead]
    # a group is written in full when a later group is nonzero, else stripped
    words[:, 2] = _DIGIT_WORDS[high + 10000 * ((middle | low) != 0)]
    words[:, 3] = _DIGIT_WORDS[middle + 10000 * (low != 0)]
    words[:, 4] = _DIGIT_WORDS[low]
    text = words.view(np.uint8)
    slow = ~(fast | zero)
    if slow.any():
        encoded = [format(x, ".12g").encode("ascii") for x in v[slow].tolist()]
        text[slow] = np.array(encoded, dtype=f"S{_G12_WIDTH}").view(np.uint8).reshape(-1, _G12_WIDTH)
    return text.reshape(shape + (_G12_WIDTH,))


def _bytes_field(texts: Sequence[str]) -> np.ndarray:
    """ASCII texts as NUL-padded rows: uint8 [len(texts), width]."""
    field = np.array([text.encode("ascii") for text in texts], dtype=bytes)
    return field.view(np.uint8).reshape(len(texts), field.itemsize)


def _cells_text(*fields: np.ndarray) -> str:
    """Join NUL-padded byte fields cell by cell into text, dropping every NUL.

    Each field is uint8 [rows, cells, width], with 1 for a row or cell axis
    that it shares across all of them.
    """
    shape = np.broadcast_shapes(*(field.shape[:2] for field in fields))
    matrix = np.empty(shape + (sum(field.shape[2] for field in fields),), dtype=np.uint8)
    start = 0
    for field in fields:
        matrix[:, :, start:start + field.shape[2]] = field
        start += field.shape[2]
    return matrix.tobytes().translate(None, b"\0").decode("ascii")


@contextlib.contextmanager
def _output(path: Optional[str]):
    """A text handle on ``path``, or on stdout when it is None.

    A path that cannot be opened or written is a ``ConfigError``; a run that
    fails after opening its path removes the partial file.
    """
    if path is None:
        yield sys.stdout
        return
    try:
        handle = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    try:
        with handle:
            yield handle
    except BaseException as exc:
        if os.path.isfile(path):  # never a device such as /dev/full
            os.remove(path)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write output: {exc}") from exc
        raise


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
    output is opened after the sweep and written a few curves at a time.
    """
    pairs, curves = _sweep_all(cfg)
    rows = [curves[pair][index].values for index in range(cfg.alphas.size) for pair in pairs]
    heads = _bytes_field([f",{alpha},{pair}," for alpha in _fmt(cfg.alphas) for pair in pairs])[:, None]
    taus = _bytes_field(_fmt(cfg.tau))[None]
    newline = np.frombuffer(b"\n", dtype=np.uint8).reshape(1, 1, 1)
    step = max(1, _WRITE_CELLS // cfg.tau.size)
    with _output(out) as handle:
        handle.write("tau,alpha,pair,concurrence\n")
        for start in range(0, len(rows), step):
            values = _g12_bytes(np.stack(rows[start:start + step]))
            handle.write(_cells_text(taus, heads[start:start + step], values, newline))


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
    rows = curves[cfg.pairs[0]]
    separators = np.full((1, cfg.tau.size + 1, 1), ord(" "), dtype=np.uint8)
    separators[0, -1] = ord("\n")
    step = max(1, _WRITE_CELLS // (cfg.tau.size + 1))
    with _output(out) as handle:
        handle.write(" ".join(_fmt(cfg.tau)) + "\n")
        for start in range(0, len(rows), step):
            chunk = rows[start:start + step]
            values = np.column_stack([[curve.alpha for curve in chunk], [curve.values for curve in chunk]])
            handle.write(_cells_text(_g12_bytes(values), separators))


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
