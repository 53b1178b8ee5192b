"""Config parsing, CSV output and exit-code tests for the command line."""

import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtcm import analysis, cli, dynamics
from dtcm.analysis import Scenario, sweep_pairs
from dtcm.dynamics import BellType, FieldSpec, Model
from dtcm.errors import ConfigError

BASE = """\
# comment lines and blanks are ignored
model = DTCM
bell_type = psi

alpha = 0.2,0.6
field_a = vacuum
field_b = vacuum  # trailing comments too
tau = 0:1:5
pairs = AB,AC
"""


def rewrite(text=BASE, **overrides):
    lines = []
    for line in text.splitlines():
        key = line.split("=")[0].strip()
        if key in overrides:
            value = overrides.pop(key)
            if value is None:
                continue
            line = f"{key} = {value}"
        lines.append(line)
    lines.extend(f"{key} = {value}" for key, value in overrides.items() if value is not None)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_config_happy_path():
    cfg = cli.parse_config_text(BASE)
    assert cfg.model is Model.DTCM and cfg.bell_type is BellType.PSI
    np.testing.assert_allclose(cfg.alphas, [0.2, 0.6])
    np.testing.assert_allclose(cfg.tau, np.linspace(0.0, 1.0, 5))
    assert cfg.pairs == ("AB", "AC") and cfg.output is None
    assert cfg.field_a.kind == "vacuum"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("model DTCM", "expected key = value"),
        (rewrite(color="red"), "unknown key"),
        (BASE + "model = DJCM\n", "duplicate key"),
        (rewrite(alpha=""), "empty value"),
        (rewrite(model=None, tau=None), "missing keys: model, tau"),
        (rewrite(model="DXCM"), "model must be DTCM or DJCM"),
        (rewrite(bell_type="chi"), "bell_type must be psi or phi"),
        (rewrite(alpha="3.2"), "alpha: values must lie in [0, pi]"),
        (rewrite(alpha="-0.1"), "alpha: values must lie in [0, pi]"),
        (rewrite(alpha="nan"), "alpha: values must be finite"),
        (rewrite(alpha="0.5,0.2"), "strictly increasing"),
        (rewrite(alpha="0:1:1.5:2"), "start:stop:steps"),
        (rewrite(alpha="0:1:2.5"), "alpha:"),
        (rewrite(alpha="0:1:+2"), "steps must be a plain integer"),
        (rewrite(alpha="0:1:1"), "at least 2 points"),
        (rewrite(alpha="1:0:5"), "grid span must be positive"),
        (rewrite(alpha="zebra"), "alpha:"),
        (rewrite(tau="1.0"), "single point"),
        (rewrite(tau="-1:1:5"), "tau: values must be nonnegative"),
        (rewrite(field_a="coherent:2"), "expected vacuum, fock:<n> or thermal:"),
        (rewrite(field_a="fock:x"), "field_a:"),
        (rewrite(field_b="thermal:1,1e-10,3"), "too many thermal parameters"),
        (rewrite(pairs="AB,XY"), "unknown pair names"),
        (rewrite(pairs="AB,AB"), "duplicate pair names"),
        (rewrite(pairs="AB,"), "expected a comma list of pair names"),
        (rewrite(model="DJCM", pairs="AB,CD"), "only provides the AB pair"),
    ],
)
def test_parse_config_rejects(text, fragment):
    with pytest.raises(ConfigError) as err:
        cli.parse_config_text(text)
    assert fragment in str(err.value)


TAU = np.linspace(0.0, 1.0, 5)


@pytest.mark.parametrize(
    "overrides, model, pairs, alphas, taus",
    [
        (dict(pairs="AB,XY"), Model.DTCM, ("AB", "XY"), [0.2, 0.6], TAU),
        (dict(pairs="AB,AB"), Model.DTCM, ("AB", "AB"), [0.2, 0.6], TAU),
        (dict(model="DJCM", pairs="CD"), Model.DJCM, ("CD",), [0.2, 0.6], TAU),
        (dict(alpha="3.2"), Model.DTCM, ("AB", "AC"), [3.2], TAU),
        (dict(alpha="nan"), Model.DTCM, ("AB", "AC"), [np.nan], TAU),
        (dict(alpha="0.5,0.2"), Model.DTCM, ("AB", "AC"), [0.5, 0.2], TAU),
        (dict(tau="-1:1:5"), Model.DTCM, ("AB", "AC"), [0.2, 0.6], np.linspace(-1.0, 1.0, 5)),
    ],
    ids=["unknown-pair", "repeated-pair", "djcm-cd", "alpha-range", "alpha-nan", "alpha-decreasing", "tau-negative"],
)
def test_library_rejects_with_the_config_message(overrides, model, pairs, alphas, taus):
    # one rule, one message: the config error is the library's ValueError text
    with pytest.raises(ConfigError) as from_config:
        cli.parse_config_text(rewrite(**overrides))
    scenario = Scenario(model, BellType.PSI, FieldSpec.vacuum(), FieldSpec.vacuum())
    with pytest.raises(ValueError) as from_library:
        sweep_pairs(scenario, pairs, np.array(alphas), taus)
    assert str(from_library.value) == str(from_config.value)


def test_presets_enumerate_and_parse():
    names = cli.available_presets()
    assert names == sorted(names) and len(names) == 11
    assert {"fig2", "fig3a", "fig11"} <= set(names)
    for name in names:
        cfg = cli.load_preset(name)
        assert cfg.tau.size >= 2 and cfg.pairs
    with pytest.raises(ConfigError) as err:
        cli.load_preset("fig99")
    assert "unknown preset" in str(err.value)


# ---------------------------------------------------------------------------
# subcommands through main()
# ---------------------------------------------------------------------------


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_simulate_csv_layout(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "curves.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0

    data = out.read_bytes().decode("ascii")
    assert "\r" not in data and data.endswith("\n")
    lines = data.splitlines()
    assert lines[0] == "tau,alpha,pair,concurrence"
    assert len(lines) == 1 + 2 * 2 * 5  # alphas x pairs x tau

    rows = [line.split(",") for line in lines[1:]]
    # alpha-major, pair lexicographic inside, tau fastest
    assert [r[1] for r in rows] == ["0.2"] * 10 + ["0.6"] * 10
    assert [r[2] for r in rows[:10]] == ["AB"] * 5 + ["AC"] * 5
    np.testing.assert_allclose([float(r[0]) for r in rows[:5]], np.linspace(0, 1, 5))
    values = np.array([float(r[3]) for r in rows])
    assert np.all(values >= 0.0) and np.all(values <= 1.0)
    # the AB block at tau=0 starts at the prepared concurrence sin(2 alpha)
    np.testing.assert_allclose(values[0], np.sin(0.4), atol=1e-12)

    rerun = tmp_path / "curves2.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(rerun)]) == 0
    assert rerun.read_bytes() == out.read_bytes()


def test_simulate_stdout_and_output_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    assert cli.main(["simulate", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("tau,alpha,pair,concurrence\n")

    target = tmp_path / "from_key.csv"
    keyed = write_cfg(tmp_path, rewrite(output=str(target)), name="keyed.cfg")
    assert cli.main(["simulate", "--config", keyed]) == 0
    assert target.is_file()

    override = tmp_path / "override.csv"
    assert cli.main(["simulate", "--config", keyed, "--out", str(override)]) == 0
    assert override.is_file()


def test_events_csv(tmp_path):
    text = rewrite(
        alpha=repr(np.pi / 4),
        field_a="fock:1",
        field_b="fock:1",
        tau="0:3:301",
        pairs="AB,BD",
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "events.csv"
    assert cli.main(["events", "--config", cfg, "--out", str(out)]) == 0

    lines = out.read_text(encoding="ascii").splitlines()
    assert lines[0] == "alpha,pair,death_time,revival_time,birth_time"
    assert len(lines) == 3
    ab = lines[1].split(",")
    bd = lines[2].split(",")
    assert ab[1] == "AB" and bd[1] == "BD"
    # the primary pair starts entangled, dies and revives; birth stays blank
    assert 0.4 < float(ab[2]) < 0.6 and float(ab[3]) > float(ab[2]) and ab[4] == ""
    # the cross pair starts separable and is born suddenly
    assert 0.9 < float(bd[4]) < 1.2


def test_plotdata_matrix(tmp_path):
    text = rewrite(alpha="0.2,0.5,0.8", pairs="AB")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "surface.txt"
    assert cli.main(["plotdata", "--config", cfg, "--out", str(out)]) == 0

    rows = [line.split() for line in out.read_text(encoding="ascii").splitlines()]
    assert len(rows) == 4 and len(rows[0]) == 5
    np.testing.assert_allclose([float(v) for v in rows[0]], np.linspace(0, 1, 5))
    for row, alpha in zip(rows[1:], (0.2, 0.5, 0.8)):
        assert len(row) == 6
        np.testing.assert_allclose(float(row[0]), alpha)
        np.testing.assert_allclose(float(row[1]), np.sin(2 * alpha), atol=1e-12)


def test_plotdata_needs_one_pair(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)  # two pairs
    assert cli.main(["plotdata", "--config", cfg]) == 2
    assert "exactly one pair" in capsys.readouterr().err


def test_exit_codes_for_bad_invocations(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    assert cli.main([]) == 2  # missing subcommand
    assert cli.main(["simulate"]) == 2  # missing --config/--preset
    assert cli.main(["simulate", "--config", cfg, "--preset", "fig2"]) == 2
    capsys.readouterr()

    assert cli.main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    assert cli.main(["simulate", "--preset", "fig99"]) == 2
    assert "unknown preset" in capsys.readouterr().err
    assert cli.main(["simulate", "--config", cfg, "--threads", "-1"]) == 2
    assert "threads must be nonnegative" in capsys.readouterr().err

    broken = write_cfg(tmp_path, rewrite(alpha="9.9"), name="broken.cfg")
    assert cli.main(["simulate", "--config", broken]) == 2
    assert "alpha" in capsys.readouterr().err

    # a field too hot to truncate is a config error, not a traceback
    hot = write_cfg(tmp_path, rewrite(field_a="thermal:1e16"), name="hot.cfg")
    assert cli.main(["events", "--config", hot]) == 2
    assert capsys.readouterr().err == "error: field_a: thermal nbar 1e+16 is too large: nbar/(1+nbar) rounds to 1\n"

    # an output path that cannot be opened: a missing directory, or a directory
    single = write_cfg(tmp_path, rewrite(pairs="AB"), name="single.cfg")
    for command in ("simulate", "events", "plotdata"):
        for out in (tmp_path / "missing" / "out.txt", tmp_path):
            assert cli.main([command, "--config", single, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("error: cannot write output: ")


def test_linalg_failure_exits_3(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError but is a numerical failure, not a config error
    cfg = write_cfg(tmp_path, BASE)

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, "sweep_pairs", broken)
    assert cli.main(["simulate", "--config", cfg]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_memory_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a field too hot to tabulate is a numerical failure, not a failed verify (exit 1)
    cfg = write_cfg(tmp_path, rewrite(field_a="thermal:5"))

    def out_of_memory(m, tau):
        raise MemoryError("Unable to allocate 8.23 GiB for the amplitude table")

    monkeypatch.setattr(dynamics, "_x_block_table", out_of_memory)
    assert cli.main(["simulate", "--config", cfg]) == 3
    assert capsys.readouterr().err == "numerical failure: Unable to allocate 8.23 GiB for the amplitude table\n"


def test_x_shape_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a NaN off-pattern entry in AC's kernel: the bound fails closed, and no CSV is written
    cfg = write_cfg(tmp_path, BASE)
    real = analysis._combine

    def faulty(model, bell_type, Ea, Eb, keep):
        kernel = real(model, bell_type, Ea, Eb, keep)
        if keep == "AC":
            kernel[:, 0, 1] = np.nan
        return kernel

    monkeypatch.setattr(analysis, "_combine", faulty)
    out = tmp_path / "curves.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "numerical failure: pair AC: reduced state left the X shape: off-pattern bound nan\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "events", "plotdata"])
def test_validation_failure_leaves_no_output(tmp_path, capsys, monkeypatch, command):
    # AC's states trace to 2: the sweep raises before any output is opened
    cfg = write_cfg(tmp_path, BASE if command != "plotdata" else rewrite(pairs="AC"))
    real = analysis._combine
    monkeypatch.setattr(analysis, "_combine", lambda m, b, Ea, Eb, keep: real(m, b, Ea, Eb, keep) * (2.0 if keep == "AC" else 1.0))
    out = tmp_path / "out.txt"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 3
    assert "pair AC, alpha=0.2: reduced state failed validation" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main([command, "--config", cfg]) == 3
    assert capsys.readouterr().out == ""


def g12_texts(values):
    """_g12_bytes of the values, each row with its NUL padding removed."""
    text = cli._g12_bytes(np.asarray(values, dtype=float))
    assert text.dtype == np.uint8 and text.shape == np.shape(values) + (text.shape[-1],)
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in text.reshape(-1, text.shape[-1])]


@pytest.mark.parametrize(
    "value",
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 2.2250738585072014e-308, 1e300, -1e300,
     1.0 - 2.0**-53, 1.0 + 2.0**-52, 0.1, 1.0 / 3.0, 123456789012.5, np.pi / 2,
     0.120000000005, 0.100000005, 0.1234, 0.000123, 0.99999999999949, 0.0999999999995, 1e-4, 9.99999999999e-5],
)
def test_curve_writers_format_as_fmt(value):
    # the curve writers' _g12_bytes and _fmt's format(v, ".12g") are one rule
    assert g12_texts([value]) == [format(value, ".12g")] == cli._fmt(np.array([value]))


def _ulps_away(value, steps):
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, np.inf if steps > 0 else -np.inf))
    return value


@st.composite
def g12_inputs(draw):
    """Any float; in a fast decade 10**e, a 12-digit value whose 4-digit groups
    are often 0 or end in zeros, or a near-tie of the 12-digit rounding; or a
    power of ten.  All but the first are moved a few ulps."""
    kind = draw(st.sampled_from(["any", "digits", "tie", "power"]))
    if kind == "any":
        return draw(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    steps = draw(st.integers(-3, 3))
    e = draw(st.integers(-4, -1))
    if kind == "digits":
        group = st.sampled_from([0, 5, 50, 500, 1200]) | st.integers(0, 9999)
        k = draw(st.sampled_from([1000, 1200, 5000]) | st.integers(1000, 9999)) * 10**8 + draw(group) * 10**4 + draw(group)
        return _ulps_away(k / 10.0 ** (11 - e), steps)  # k * 10**(e - 11), rounded once
    if kind == "tie":
        k = draw(st.integers(10**11, 10**12 - 1))
        return _ulps_away((2 * k + 1) / (2 * 10.0 ** (11 - e)), steps)  # (k + 1/2) * 10**(e - 11), rounded once
    return _ulps_away(10.0 ** -draw(st.integers(0, 20)), steps)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, derandomize=True, deadline=None)
@given(values=st.lists(g12_inputs(), min_size=1, max_size=40))
def test_g12_bytes_is_format_byte_for_byte(values):
    assert g12_texts(values) == [format(v, ".12g") for v in values]


def test_curve_text_is_fmt_of_every_value(tmp_path, capsys):
    # simulate and plotdata write each curve through _g12_bytes: the text
    # equals _fmt of every value, in the documented row order, on both paths
    # of the formatter (an exact 1.0 and values below 1e-4 take format();
    # exact zeros and values in [1e-4, 1) are formatted in numpy)
    alphas = f"0.00001,{np.pi / 4!r}"
    cfg = write_cfg(tmp_path, rewrite(alpha=alphas, tau="0:2:7", pairs="AB,BD"))
    parsed = cli.parse_config_text((tmp_path / "scenario.cfg").read_text())
    _, curves = cli._sweep_all(parsed)
    values = np.concatenate([curve.values for pair in ("AB", "BD") for curve in curves[pair]])
    assert np.any((values == 0.0) & ~np.signbit(values)) and np.any(values == 1.0)
    assert np.any((values > 0.0) & (values < 1e-4)) and np.any((values >= 1e-4) & (values < 1.0))
    tau_text, alpha_text = cli._fmt(parsed.tau), cli._fmt(parsed.alphas)
    rows = ["tau,alpha,pair,concurrence"]
    for index, alpha in enumerate(alpha_text):
        for pair in ("AB", "BD"):
            rows += [f"{t},{alpha},{pair},{v}" for t, v in zip(tau_text, cli._fmt(curves[pair][index].values))]
    out = tmp_path / "curves.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text() == "\n".join(rows) + "\n"
    capsys.readouterr()
    assert cli.main(["simulate", "--config", cfg]) == 0
    assert capsys.readouterr().out == "\n".join(rows) + "\n"

    rows = [" ".join(tau_text)] + [" ".join([a] + cli._fmt(c.values)) for a, c in zip(alpha_text, curves["AB"])]
    single = write_cfg(tmp_path, rewrite(alpha=alphas, tau="0:2:7", pairs="AB"), name="single.cfg")
    assert cli.main(["plotdata", "--config", single, "--out", str(out)]) == 0
    assert out.read_text() == "\n".join(rows) + "\n"
    assert cli.main(["plotdata", "--config", single]) == 0
    assert capsys.readouterr().out == "\n".join(rows) + "\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["simulate", "events", "plotdata"])
def test_failed_write_exits_2(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, BASE if command != "plotdata" else rewrite(pairs="AB"))
    assert cli.main([command, "--config", cfg, "--out", "/dev/full"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and "Traceback" not in err
    assert os.path.exists("/dev/full")


def test_failed_write_removes_the_partial_file(tmp_path, capsys, monkeypatch):
    # the header is written, then the first chunk of curves fails
    def disk_full(*fields):
        raise OSError(28, "No space left on device")

    cfg = write_cfg(tmp_path, BASE)
    monkeypatch.setattr(cli, "_cells_text", disk_full)
    out = tmp_path / "curves.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: cannot write output: [Errno 28] No space left on device\n"
    assert not out.exists()


def test_verify_quick_passes(capsys):
    assert cli.main(["verify", "--level", "quick"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) >= 5
    assert all("PASS" in line for line in lines)
    assert any(line.startswith("x-normalization") for line in lines)
    assert any(line.startswith("oracle-agreement") for line in lines)
    # each suite reports its own wall time right after the verdict
    assert all(re.search(r"\) PASS in \d+\.\d\d s", line) for line in lines)
    # the line format the benchmark's verify checker parses, detail and worst case included
    suite_line = re.compile(r"^(\S+): max deviation (\S+) \(tolerance (\S+)\) (PASS|FAIL)")
    assert all(suite_line.match(line) for line in lines)
    assert all(re.search(r"; worst: [^\]]+\]$", line) for line in lines)


def test_verify_catches_injected_fault(tmp_path, capsys, monkeypatch):
    # corrupt the double-transfer amplitude: every downstream suite must
    # either measure the deviation or fail closed, and the exit code flips
    real = dynamics._x_block_table

    def crooked(m, tau):
        table = real(m, tau).copy()
        table[3, 3] *= 1.01
        return table

    monkeypatch.setattr(dynamics, "_x_block_table", crooked)
    assert cli.main(["verify", "--level", "quick"]) == 1
    out = capsys.readouterr().out
    norm_lines = [line for line in out.splitlines() if line.startswith("x-normalization")]
    assert norm_lines and "FAIL" in norm_lines[0]


def test_verify_fails_on_a_nan_and_names_its_case(capsys, monkeypatch):
    # one NaN cell in every channel tensor: explicit-maps must not drop it
    real = dynamics._channel_tensor

    def poisoned(field, taus, n_atoms):
        E = real(field, taus, n_atoms).copy()
        E[0, 0, 0, 0, 0] = np.nan
        return E

    monkeypatch.setattr(dynamics, "_channel_tensor", poisoned)
    assert cli.main(["verify", "--level", "quick"]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("explicit-maps")]
    assert lines and "max deviation nan (tolerance 1e-12) FAIL" in lines[0]
    assert lines[0].endswith("; worst: vacuum |00><00|]")


def test_verify_catches_swapped_x_coherences(capsys, monkeypatch):
    # the sweep's X slice with its outer and inner coherence columns (and mirrors) swapped
    monkeypatch.setattr(analysis, "_X_ENTRIES", np.array([0, 5, 10, 15, 6, 3, 9, 12]))
    assert cli.main(["verify", "--level", "quick"]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("state-validity")]
    assert lines and "FAIL" in lines[0]
