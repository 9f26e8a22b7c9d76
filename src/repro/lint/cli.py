"""cosmolint command line.

Usage::

    python -m repro.lint src benchmarks examples
    python -m repro.lint --format json src
    python -m repro.lint --select clock-injection,registry-injection src
    python -m repro.lint --list-rules
    python -m repro.cli lint src benchmarks examples
    cosmolint src benchmarks examples         # console-script entry point

A finding that is accepted on purpose is suppressed where it occurs with
a ``# cosmolint: disable=rule-id`` comment (``grep -rn "cosmolint:"``
lists every one); the summary line counts them.

Exit codes: 0 — clean, 1 — diagnostics reported, 2 — usage error.
"""

from __future__ import annotations

import argparse

from repro.lint.engine import lint_paths
from repro.lint.registry import rule_ids
from repro.lint.reporters import format_json, format_rule_listing, format_text

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="cosmolint: enforce the repo's determinism and serving contracts",
    )
    parser.add_argument("paths", nargs="*", default=["src", "benchmarks", "examples"],
                        help="files or directories to lint (default: src benchmarks examples)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--select", default="",
                        help="comma-separated rule ids to run (default: all)")
    parser.add_argument("--ignore", default="",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule set and exit")
    return parser


def _parse_rule_set(raw: str, parser: argparse.ArgumentParser) -> set[str] | None:
    names = {part.strip() for part in raw.split(",") if part.strip()}
    if not names:
        return None
    unknown = names - set(rule_ids())
    if unknown:
        parser.error(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return names


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(format_rule_listing())
        return 0
    select = _parse_rule_set(args.select, parser)
    ignore = _parse_rule_set(args.ignore, parser)
    try:
        result = lint_paths(args.paths, select=select, ignore=ignore)
    except FileNotFoundError as error:
        print(f"error: {error}")
        return 2
    print(format_json(result) if args.format == "json" else format_text(result))
    return 0 if result.ok else 1
