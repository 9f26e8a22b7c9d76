"""Rule framework: file context, the rule base class and the registry.

A rule is an :class:`ast.NodeVisitor` subclass run once per file and
decorated with :func:`register`.  Rules declare a stable ``id`` (used in
reporter output, ``--select`` / ``--ignore`` and suppression comments),
a one-line ``summary`` and the ``invariant`` they guard; ``applies_to``
scopes a rule to part of the tree.  Contracts that need the whole
program — layering and import cycles — are not lint rules: they are
``tests/test_import_graph.py``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import ClassVar, Iterator

from repro.lint.diagnostics import Diagnostic

__all__ = [
    "FileContext",
    "LintRule",
    "register",
    "all_rules",
    "rule_ids",
]


@dataclass(frozen=True)
class FileContext:
    """Everything a rule may inspect about the file being linted."""

    display_path: str
    source: str
    in_package: bool = False
    parts: tuple[str, ...] = field(default_factory=tuple)
    # For __init__.py: names of sibling modules/subpackages, which are
    # legitimate __all__ entries even when never imported in the module.
    sibling_modules: tuple[str, ...] = field(default_factory=tuple)

    @property
    def module_name(self) -> str:
        name = self.parts[-1] if self.parts else self.display_path
        return name[:-3] if name.endswith(".py") else name


class LintRule(ast.NodeVisitor):
    """Base class for cosmolint rules (one instance per file)."""

    id: ClassVar[str] = ""
    summary: ClassVar[str] = ""
    invariant: ClassVar[str] = ""

    def __init__(self, context: FileContext):
        self.context = context
        self.diagnostics: list[Diagnostic] = []

    @classmethod
    def applies_to(cls, context: FileContext) -> bool:
        """Whether this rule runs on ``context``'s file (default: all)."""
        return True

    def check(self, tree: ast.Module) -> list[Diagnostic]:
        """Run the rule over a parsed module and return its diagnostics."""
        self.visit(tree)
        return self.diagnostics

    def report(self, node: ast.AST, message: str) -> None:
        self.diagnostics.append(
            Diagnostic(
                rule=self.id,
                path=self.context.display_path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
            )
        )


_REGISTRY: dict[str, type[LintRule]] = {}


def register(rule_class: type[LintRule]) -> type[LintRule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.id:
        raise ValueError(f"{rule_class.__name__} has no rule id")
    if rule_class.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.id!r}")
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def all_rules() -> Iterator[type[LintRule]]:
    """Registered rule classes, ordered by rule id."""
    for rule_id in sorted(_REGISTRY):
        yield _REGISTRY[rule_id]


def rule_ids() -> list[str]:
    return sorted(_REGISTRY)

