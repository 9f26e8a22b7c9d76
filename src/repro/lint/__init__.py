"""cosmolint — whole-program static analysis for the COSMO reproduction.

A two-phase analysis over the repo's own source enforcing the contracts
the reproduction's numbers depend on.  Phase one runs file-scope AST
rules (unscoped RNG, wall clock, mutable defaults, overbroad excepts,
float equality, ``__all__`` consistency, event-log-only serving,
gated rollouts); phase two assembles per-module summaries into
an import graph + symbol table and runs the cross-module rules:
declared-architecture layering, import-cycle detection, and the
dataflow contracts (RNG provenance, clock injection, registry
injection).  See DESIGN.md, section "Static invariants".

Run it with ``python -m repro.lint src benchmarks examples``,
``python -m repro.cli lint`` or the ``cosmolint`` console script;
reporters emit text or JSON.  The one way to accept a finding is in
place, with ``# cosmolint: disable=rule-id`` on the offending line.
"""

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import LintResult, iter_python_files, lint_paths, lint_source
from repro.lint.project import ModuleSummary, ProjectContext, extract_summary
from repro.lint.registry import (
    FileContext,
    LintRule,
    ProjectRule,
    all_rules,
    register,
    rule_ids,
)
from repro.lint.reporters import format_json, format_text

__all__ = [
    "Diagnostic",
    "LintResult",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "FileContext",
    "LintRule",
    "ProjectRule",
    "ModuleSummary",
    "ProjectContext",
    "extract_summary",
    "all_rules",
    "register",
    "rule_ids",
    "format_json",
    "format_text",
]
