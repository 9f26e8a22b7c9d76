"""Render a :class:`~repro.lint.engine.LintResult` for humans or machines.

Two formats: ``text`` (one line per diagnostic plus a summary) and
``json`` (versioned payload, stable key order).  Both are deterministic
given the same diagnostics.
"""

from __future__ import annotations

import json

from repro.lint.engine import LintResult
from repro.lint.registry import all_rules

__all__ = ["format_text", "format_json", "format_rule_listing", "REPORT_VERSION"]

REPORT_VERSION = 3


def format_text(result: LintResult) -> str:
    """Human-readable report: one line per diagnostic plus a summary."""
    lines = [diagnostic.render() for diagnostic in result.diagnostics]
    noun = "problem" if len(result.diagnostics) == 1 else "problems"
    summary = (
        f"{len(result.diagnostics)} {noun} in {result.files_checked} files"
        f" ({result.suppressed} suppressed)"
    )
    if result.ok:
        summary = (f"ok: {result.files_checked} files, 0 problems "
                   f"({result.suppressed} suppressed)")
    lines.append(summary)
    return "\n".join(lines)


def format_json(result: LintResult) -> str:
    """Machine-readable report (stable key order, versioned payload)."""
    payload = {
        "version": REPORT_VERSION,
        "files_checked": result.files_checked,
        "suppressed": result.suppressed,
        "diagnostics": [diagnostic.as_dict() for diagnostic in result.diagnostics],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def format_rule_listing() -> str:
    """The ``--list-rules`` output: id, summary and guarded invariant."""
    lines: list[str] = []
    for rule_class in all_rules():
        lines.append(rule_class.id)
        lines.append(f"    {rule_class.summary}")
        lines.append(f"    guards: {rule_class.invariant}")
    return "\n".join(lines)
