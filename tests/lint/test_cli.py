"""cosmolint CLI contract: exit codes, rule listing, select/ignore."""

import importlib
import json
import tomllib
from pathlib import Path

import pytest

from repro.lint.cli import main
from repro.lint.registry import rule_ids


@pytest.fixture
def dirty_tree(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "__all__ = ['make']\n"
        "import numpy as np\n\n"
        "def make():\n"
        "    return np.random.default_rng(3)\n"
    )
    return pkg


def test_exit_zero_on_clean_tree(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("__all__ = ['x']\nx = 1\n")
    assert main([str(clean)]) == 0
    assert "0 problems" in capsys.readouterr().out


def test_exit_one_with_correct_rule_and_location(dirty_tree, capsys):
    assert main([str(dirty_tree)]) == 1
    out = capsys.readouterr().out
    assert f"{dirty_tree / 'mod.py'}:5:12: [unscoped-rng]" in out


def test_json_format_flag(dirty_tree, capsys):
    assert main(["--format", "json", str(dirty_tree)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagnostics"][0]["rule"] == "unscoped-rng"
    assert payload["diagnostics"][0]["line"] == 5


def test_select_and_ignore(dirty_tree):
    assert main(["--select", "wall-clock", str(dirty_tree)]) == 0
    assert main(["--ignore", "unscoped-rng", str(dirty_tree)]) == 0
    assert main(["--select", "unscoped-rng", str(dirty_tree)]) == 1


def test_unknown_rule_id_is_a_usage_error(dirty_tree):
    with pytest.raises(SystemExit) as excinfo:
        main(["--select", "no-such-rule", str(dirty_tree)])
    assert excinfo.value.code == 2


def test_missing_path_is_a_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 2
    assert "error:" in capsys.readouterr().out


def test_list_rules_names_the_contract_set(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in rule_ids():
        assert rule_id in out
    assert rule_ids() == [
        "all-consistency",
        "clock-injection",
        "event-log-only",
        "float-equality",
        "mutable-default",
        "overbroad-except",
        "registry-injection",
        "trace-id-contract",
        "unscoped-rng",
        "wall-clock",
    ]


def test_console_script_entry_point_resolves_and_runs(capsys):
    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    entry = data["project"]["scripts"]["cosmolint"]
    module_name, _, attr = entry.partition(":")
    func = getattr(importlib.import_module(module_name), attr)
    assert func is main
    assert func(["--list-rules"]) == 0
    assert "wall-clock" in capsys.readouterr().out

