"""Tier-1 lints the live tree: a new violation fails here, not only in CI."""

from pathlib import Path

from repro.lint import iter_python_files, lint_paths

ROOTS = ("src", "benchmarks", "examples")


def test_live_tree_is_clean_with_nothing_suppressed(monkeypatch):
    repo_root = Path(__file__).resolve().parents[2]
    monkeypatch.chdir(repo_root)  # the paths CI lints, named as CI names them

    result = lint_paths(ROOTS)
    assert [diagnostic.render() for diagnostic in result.diagnostics] == []
    assert result.suppressed == 0

    # No finding is accepted in place; the only mentions of the directive
    # are cosmolint's own documentation.
    directives = [
        (str(path), line.split("#", 1)[1].strip())
        for path in iter_python_files(ROOTS)
        if "lint" not in path.parts
        for line in path.read_text(encoding="utf-8").splitlines()
        if "cosmolint: disable" in line
    ]
    assert directives == []
