"""tools/compare_outputs.py: what it reports as a difference, on hand-made output sets."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


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
