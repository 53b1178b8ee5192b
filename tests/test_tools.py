"""tools/compare_outputs.py: what it reports as a difference, on hand-made output sets."""

import importlib.util
from pathlib import Path

import pytest

from dtcm import analysis, cli, verification
from dtcm.dynamics import BellPairSpec, BellType, Model, assemble_atomic_state

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
SCENARIOS = SCRIPT.parent / "scenarios"


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_set(root, outputs):
    root.mkdir()
    for name, text in outputs.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def test_suite_seconds_are_masked(tmp_path, capsys, compare_outputs):
    old = write_set(tmp_path / "old", {"verify-full": "x-normalization: max deviation 1e-16 PASS in 0.03 s [m]\n"})
    new = write_set(tmp_path / "new", {"verify-full": "x-normalization: max deviation 1e-16 PASS in 12.50 s [m]\n"})
    assert compare_outputs.compare(old, new, {"verify-full": 0}, {"verify-full": 0}) == 0
    assert capsys.readouterr().out == ""


def test_every_kind_of_difference_is_printed(tmp_path, capsys, compare_outputs):
    old = write_set(tmp_path / "old", {"fig2.events": "a\nb\nc\n", "fig3a.events": "same\n", "fig4.events": "x\n"})
    new = write_set(tmp_path / "new", {"fig2.events": "a\nB\nc\nd\n", "fig3a.events": "same\n", "fig4.events": "x\n"})
    codes = {"fig2.events": 0, "fig3a.events": 0, "fig4.events": 0}
    assert compare_outputs.compare(old, new, codes, {**codes, "fig4.events": 3}) == 2
    out = capsys.readouterr().out
    assert "fig2.events:2:\n  old: b\n  new: B\n" in out  # a changed line
    assert "fig2.events:4:\n  old: 3 lines\n  new: 4 lines\n" in out  # an added line
    assert "fig4.events:0:\n  old: exit 0\n  new: exit 3\n" in out  # an exit code
    assert "fig3a" not in out


def test_rejects_a_tree_without_the_package(tmp_path, compare_outputs):
    with pytest.raises(SystemExit) as exc:
        compare_outputs.main([str(tmp_path), str(tmp_path)])
    assert exc.value.code == 2


def scenario_configs():
    return [cli.parse_config_text(path.read_text(encoding="utf-8")) for path in sorted(SCENARIOS.glob("*.cfg"))]


def test_fixed_scenarios_and_presets_cover_every_sweep_plan():
    configs = scenario_configs() + [cli.load_preset(name) for name in cli.available_presets()]
    covered = {(cfg.model, cfg.bell_type, pair) for cfg in configs for pair in cfg.pairs}
    assert covered == set(analysis._X_PLANS)


def test_fixed_scenarios_hold_the_unequal_field_pairs():
    words = {(cfg.model, verification._field_words(cfg.field_a), verification._field_words(cfg.field_b)) for cfg in scenario_configs()}
    for model in (Model.DTCM, Model.DJCM):
        assert any(m is model and a != b for m, a, b in words), model
    unequal = {(a, b) for _, a, b in words}
    assert {("vacuum", "fock:2"), ("thermal:0.5", "vacuum"), ("thermal:1", "thermal:2")} <= unequal
    # short grids: the comparison stays quick
    assert all(cfg.tau.size * cfg.alphas.size <= 2000 for cfg in scenario_configs())


def test_single_states_cover_layouts_bell_types_fields_and_angles(compare_outputs):
    states = compare_outputs.STATES
    for model in ("DTCM", "DJCM"):
        for bell in ("psi", "phi"):
            mine = [s for s in states if s[:2] == (model, bell)]
            assert any(a == b for _, _, a, b, *_ in mine) and any(a != b for _, _, a, b, *_ in mine)
            assert any("thermal" in a and a != b for _, _, a, b, *_ in mine)
    # unequal angles exist only where there is a (C,D) pair
    assert {s[0] for s in states if s[4] != s[5]} == {"DTCM"}
    assert any(s[4] == s[5] for s in states if s[0] == "DTCM")


def test_single_states_are_each_matrix_byte_for_byte(tmp_path, capsys, compare_outputs):
    path = tmp_path / "new" / "single-states"
    path.parent.mkdir()
    compare_outputs.write_single_states(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    for model, bell, field_a, field_b, alpha_ab, alpha_cd, tau in compare_outputs.STATES:
        pair_ab, pair_cd = BellPairSpec(BellType(bell), alpha_ab), BellPairSpec(BellType(bell), alpha_cd)
        fields = cli._parse_field("field_a", field_a), cli._parse_field("field_b", field_b)
        rho = assemble_atomic_state(pair_ab, pair_cd, *fields, tau, Model(model))
        assert lines.pop(0) == f"{model} {bell} {field_a}/{field_b} alpha={alpha_ab}/{alpha_cd} tau={tau}"
        rows = [bytes.fromhex(lines.pop(0)) for _ in range(rho.matrix.shape[0])]
        assert b"".join(rows) == rho.matrix.tobytes()
    assert lines == []
    # one flipped bit in one state's row is a difference
    text = path.read_text(encoding="utf-8")
    at = text.index("\n") + 1
    old = write_set(tmp_path / "old", {"single-states": text[:at] + ("1" if text[at] == "0" else "0") + text[at + 1 :]})
    assert compare_outputs.compare(old, path.parent, {"single-states": 0}, {"single-states": 0}) == 1
    assert capsys.readouterr().out.startswith("single-states:2:\n")
