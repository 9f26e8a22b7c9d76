"""The cosmolint engine: collect files, run rules, apply suppressions.

Every file is parsed once and the rules run over its AST; each rule
reads that one file only.  Diagnostics share one suppression syntax and
one deterministic sort order.

The engine is pure — it reads files and returns a :class:`LintResult`;
reporters render it and the CLI maps it to an exit code.  ``lint_source``
lints a single in-memory module, which is what the rule tests use (rules
are exercised against fixture snippets, never the live tree).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import FileContext, LintRule, all_rules
from repro.lint.suppressions import parse_suppressions
from repro.lint import rules as _rules  # noqa: F401  (imports register the rules)

__all__ = ["LintResult", "iter_python_files", "lint_source", "lint_paths"]

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


@dataclass
class LintResult:
    """Outcome of one lint run."""

    files_checked: int = 0
    diagnostics: list[Diagnostic] = field(default_factory=list, init=False)
    suppressed: int = field(default=0, init=False)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def extend(self, other: "LintResult") -> None:
        self.diagnostics.extend(other.diagnostics)
        self.files_checked += other.files_checked
        self.suppressed += other.suppressed

    def finalize(self) -> "LintResult":
        self.diagnostics.sort(key=Diagnostic.sort_key)
        return self


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` in deterministic order."""
    for path in paths:
        path = Path(path)
        if path.is_file():
            if path.suffix == ".py":
                yield path
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                relative_parts = candidate.relative_to(path).parts
                if any(part in _SKIP_DIRS or part.startswith(".") for part in relative_parts):
                    continue
                yield candidate
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")


def _sibling_modules(path: Path) -> tuple[str, ...]:
    """Importable sibling names for a package ``__init__.py``."""
    if path.name != "__init__.py":
        return ()
    names = []
    for entry in path.parent.iterdir():
        if entry.is_file() and entry.suffix == ".py" and entry.name != "__init__.py":
            names.append(entry.stem)
        elif entry.is_dir() and (entry / "__init__.py").exists():
            names.append(entry.name)
    return tuple(sorted(names))


def lint_source(
    source: str,
    display_path: str,
    in_package: bool,
    rule_classes: Iterable[type[LintRule]],
) -> LintResult:
    """Lint one in-memory module with ``rule_classes`` (rule-test entry point)."""
    context = FileContext(
        display_path=display_path,
        source=source,
        in_package=in_package,
        parts=tuple(Path(display_path).parts),
    )
    return _lint_context(context, rule_classes).finalize()


def _lint_context(context: FileContext,
                  rule_classes: Iterable[type[LintRule]]) -> LintResult:
    """Run the rules over one file, honouring its suppression comments."""
    result = LintResult(files_checked=1)
    try:
        tree = ast.parse(context.source, filename=context.display_path)
    except SyntaxError as error:
        result.diagnostics.append(
            Diagnostic(
                rule="syntax-error",
                path=context.display_path,
                line=error.lineno or 1,
                col=(error.offset or 0) or 1,
                message=f"cannot parse module: {error.msg}",
            )
        )
        return result
    suppressions = parse_suppressions(context.source)
    for rule_class in rule_classes:
        if not rule_class.applies_to(context):
            continue
        for diagnostic in rule_class(context).check(tree):
            if suppressions.is_suppressed(diagnostic.rule, diagnostic.line):
                result.suppressed += 1
            else:
                result.diagnostics.append(diagnostic)
    return result


def lint_paths(
    paths: Iterable[str | Path],
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> LintResult:
    """Lint every Python file under ``paths`` with the rules ``select``
    names (default: all) minus those ``ignore`` names."""
    rule_classes = [cls for cls in all_rules()
                    if (select is None or cls.id in select)
                    and (ignore is None or cls.id not in ignore)]
    result = LintResult()
    for path in iter_python_files(paths):
        context = FileContext(
            display_path=str(path),
            source=path.read_text(encoding="utf-8"),
            in_package=(path.parent / "__init__.py").exists(),
            parts=path.parts,
            sibling_modules=_sibling_modules(path),
        )
        result.extend(_lint_context(context, rule_classes))
    return result.finalize()
