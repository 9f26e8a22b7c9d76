"""cosmolint — static checks of the COSMO reproduction's own source.

Each file is parsed once and checked by AST rules that enforce the
contracts the reproduction's numbers depend on: unscoped RNG, wall
clock, mutable defaults, overbroad excepts, float equality, ``__all__``
consistency, event-log-only serving, the trace-id key, and clock /
registry injection.  A rule reads one file; the whole-program contracts
(declared layering, no import cycle) are ``tests/test_import_graph.py``.
See DESIGN.md, section "Static invariants".

Run it with ``python -m repro.lint src benchmarks examples``,
``python -m repro.cli lint`` or the ``cosmolint`` console script;
reporters emit text or JSON.  The one way to accept a finding is in
place, with ``# cosmolint: disable=rule-id`` on the offending line.
"""

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import LintResult, iter_python_files, lint_paths, lint_source
from repro.lint.registry import FileContext, LintRule, all_rules, register, rule_ids
from repro.lint.reporters import format_json, format_text

__all__ = [
    "Diagnostic",
    "LintResult",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "FileContext",
    "LintRule",
    "all_rules",
    "register",
    "rule_ids",
    "format_json",
    "format_text",
]
