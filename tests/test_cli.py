"""Config parsing, CSV output and exit-code tests for the command line."""

import re

import numpy as np
import pytest

from dtcm import cli, dynamics
from dtcm.dynamics import BellType, Model
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
        (rewrite(model="DJCM", pairs="AB,CD"), "only provides the AB pair"),
    ],
)
def test_parse_config_rejects(text, fragment):
    with pytest.raises(ConfigError) as err:
        cli.parse_config_text(text)
    assert fragment in str(err.value)


def test_config_round_trip():
    cfg = cli.parse_config_text(rewrite(output="run.csv", field_b="thermal:0.5"))
    text = cli.config_to_text(cfg)
    again = cli.parse_config_text(text)
    assert again.raw == cfg.raw
    assert text.splitlines()[0] == "model = DTCM"  # canonical key order
    assert text.endswith("\n")


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
    for command in (cli.cmd_simulate, cli.cmd_events):
        with pytest.raises(ValueError, match="threads must be nonnegative"):
            command(cli.parse_config_text(BASE), None, -1)

    broken = write_cfg(tmp_path, rewrite(alpha="9.9"), name="broken.cfg")
    assert cli.main(["simulate", "--config", broken]) == 2
    assert "alpha" in capsys.readouterr().err


def test_linalg_failure_exits_3(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError but is a numerical failure, not a config error
    cfg = write_cfg(tmp_path, BASE)

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, "sweep_pairs", broken)
    assert cli.main(["simulate", "--config", cfg]) == 3
    assert "numerical failure" in capsys.readouterr().err


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
