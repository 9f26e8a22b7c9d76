"""Rule framework: file context, rule base classes and the registry.

Rules come in two scopes.  *File* rules are :class:`ast.NodeVisitor`
subclasses run once per file; *project* rules subclass
:class:`ProjectRule` and run once per lint invocation over the
whole-program :class:`~repro.lint.project.ProjectContext` (import
graph + symbol table), which is how cross-module contracts — layering,
RNG provenance, clock/registry injection — are checked.  Both kinds are
decorated with :func:`register` and share one id namespace, so
``--select`` / ``--ignore`` and suppression comments treat them
uniformly.  Rules declare a stable ``id`` (used in reporter output and
suppression comments), a one-line ``summary`` and the ``invariant`` they
guard; ``applies_to`` scopes a file rule to part of the tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ClassVar, Iterator

from repro.lint.diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (project imports registry)
    from repro.lint.project import ProjectContext

__all__ = [
    "FileContext",
    "LintRule",
    "ProjectRule",
    "register",
    "all_rules",
    "rule_ids",
    "make_filter",
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
    """Base class for file-scope cosmolint rules (one instance per file)."""

    id: ClassVar[str] = ""
    summary: ClassVar[str] = ""
    invariant: ClassVar[str] = ""
    #: ``"file"`` rules visit one module's AST; ``"project"`` rules see the
    #: whole-program context (set by :class:`ProjectRule`).
    scope: ClassVar[str] = "file"

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


class ProjectRule:
    """Base class for whole-program rules (one instance per lint run).

    A project rule never touches raw ASTs: it consumes the
    :class:`~repro.lint.project.ProjectContext` built from per-module
    summaries.
    """

    id: ClassVar[str] = ""
    summary: ClassVar[str] = ""
    invariant: ClassVar[str] = ""
    scope: ClassVar[str] = "project"

    def __init__(self) -> None:
        self.diagnostics: list[Diagnostic] = []

    def check(self, project: "ProjectContext") -> list[Diagnostic]:
        """Run the rule over the whole program and return its diagnostics."""
        raise NotImplementedError

    def report(self, path: str, line: int, col: int, message: str) -> None:
        self.diagnostics.append(
            Diagnostic(rule=self.id, path=path, line=line, col=col, message=message)
        )


RuleClass = type[LintRule] | type[ProjectRule]

_REGISTRY: dict[str, RuleClass] = {}


def register(rule_class: RuleClass) -> RuleClass:
    """Class decorator adding a rule (either scope) to the global registry."""
    if not rule_class.id:
        raise ValueError(f"{rule_class.__name__} has no rule id")
    if rule_class.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.id!r}")
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def all_rules() -> Iterator[RuleClass]:
    """Registered rule classes (both scopes), ordered by rule id."""
    for rule_id in sorted(_REGISTRY):
        yield _REGISTRY[rule_id]


def rule_ids() -> list[str]:
    return sorted(_REGISTRY)


def make_filter(
    select: set[str] | None, ignore: set[str] | None
) -> Callable[[RuleClass], bool]:
    """Predicate implementing ``--select`` / ``--ignore`` semantics."""

    def keep(rule_class: RuleClass) -> bool:
        if select is not None and rule_class.id not in select:
            return False
        if ignore is not None and rule_class.id in ignore:
            return False
        return True

    return keep
