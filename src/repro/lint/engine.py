"""The cosmolint engine: collect files, run rules, apply suppressions.

Linting is two-phase.  Phase one runs the file-scope rules over each
module's AST and extracts a :class:`~repro.lint.project.ModuleSummary`
from the same parse.  Phase two assembles the summaries into a
:class:`~repro.lint.project.ProjectContext` and runs the project-scope
rules (layering, cycles, cross-module dataflow contracts) over the whole
program.  Diagnostics from both phases share one suppression syntax and
one deterministic sort order.

The engine is pure — it reads files and returns a :class:`LintResult`;
reporters render it and the CLI maps it to an exit code.  ``lint_source``
lints a single in-memory module with the file rules, which is what the
rule tests use (rules are exercised against fixture snippets, never the
live tree).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.project import (
    ModuleSummary,
    ProjectContext,
    extract_summary,
    module_name_for,
)
from repro.lint.registry import (
    FileContext,
    LintRule,
    ProjectRule,
    all_rules,
    make_filter,
)
from repro.lint.suppressions import Suppressions, parse_suppressions
from repro.lint import rules as _rules  # noqa: F401  (imports register the file rules)
from repro.lint import layers as _layers  # noqa: F401  (registers project rules)
from repro.lint import dataflow as _dataflow  # noqa: F401  (registers project rules)

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


def _build_context(path: Path, display_path: str, source: str,
                   sibling_modules: tuple[str, ...]) -> FileContext:
    return FileContext(
        display_path=display_path,
        source=source,
        in_package=(path.parent / "__init__.py").exists(),
        parts=tuple(Path(display_path).parts),
        sibling_modules=sibling_modules,
    )


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
    result, _tree, _suppressions = _lint_context(context, rule_classes)
    return result.finalize()


def _lint_context(
    context: FileContext,
    rule_classes: Iterable[type[LintRule]],
) -> tuple[LintResult, ast.Module | None, Suppressions | None]:
    """Run the file rules; also return the parsed tree and suppressions
    so the caller can extract the module summary from the same parse."""
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
        return result, None, None
    suppressions = parse_suppressions(context.source)
    for rule_class in rule_classes:
        if rule_class.scope != "file" or not rule_class.applies_to(context):
            continue
        for diagnostic in rule_class(context).check(tree):
            if suppressions.is_suppressed(diagnostic.rule, diagnostic.line):
                result.suppressed += 1
            else:
                result.diagnostics.append(diagnostic)
    return result, tree, suppressions


def _summarize(tree: ast.Module | None, path: Path, display_path: str,
               suppressions: Suppressions | None) -> ModuleSummary:
    module = module_name_for(path)
    if tree is None:  # syntax error: an empty summary keeps phase two total
        return ModuleSummary(module=module, path=display_path)
    suppress_file: tuple[str, ...] = ()
    suppress_lines: dict[int, tuple[str, ...]] = {}
    if suppressions is not None:
        suppress_file = tuple(sorted(suppressions.file_wide))
        suppress_lines = {line: tuple(sorted(rules))
                          for line, rules in suppressions.by_line.items()}
    return extract_summary(tree, module, display_path, suppress_file, suppress_lines)


def lint_paths(
    paths: Iterable[str | Path],
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> LintResult:
    """Lint every Python file under ``paths`` with both rule phases."""
    keep = make_filter(select, ignore)
    file_rule_classes = [cls for cls in all_rules()
                         if cls.scope == "file" and keep(cls)]
    project_rule_classes: list[type[ProjectRule]] = [
        cls for cls in all_rules()  # type: ignore[misc]
        if cls.scope == "project" and keep(cls)
    ]
    result = LintResult()
    summaries: list[ModuleSummary] = []

    # Phase one: per-file rules + summary extraction from one parse.
    for path in iter_python_files(paths):
        display_path = str(path)
        source = path.read_text(encoding="utf-8")
        context = _build_context(path, display_path, source, _sibling_modules(path))
        file_result, tree, suppressions = _lint_context(context, file_rule_classes)
        result.extend(file_result)
        summaries.append(_summarize(tree, path, display_path, suppressions))

    # Phase two: whole-program rules over the assembled summaries.
    project = ProjectContext(summaries)
    for project_rule_class in project_rule_classes:
        for diagnostic in project_rule_class().check(project):
            summary = project.by_path.get(diagnostic.path)
            if summary is not None and summary.is_suppressed(diagnostic.rule,
                                                             diagnostic.line):
                result.suppressed += 1
            else:
                result.diagnostics.append(diagnostic)

    return result.finalize()
