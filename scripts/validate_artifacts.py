#!/usr/bin/env python
"""Schema-validate observability artifacts against their versioned schemas.

One entry point for every artifact the CLI drives and benchmarks emit,
so CI jobs call this once per job instead of re-growing per-job heredoc
checks.  The schemas, and the rule that picks one for a file (``.jsonl``
is an event log, a ``traceEvents`` key a Chrome trace, otherwise the
``schema`` field), live in :mod:`repro.obs.artifacts`; a file with no
recognizable schema is a failure — an artifact a job emits but nothing
validates is exactly the gap this script exists to close.

Usage::

    PYTHONPATH=src python scripts/validate_artifacts.py FILE [FILE ...]

Exits non-zero if any file fails; prints one line per file.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.obs import dispatch


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=pathlib.Path,
                        help="artifact files to validate")
    args = parser.parse_args(argv)

    failures = 0
    for path in args.files:
        try:
            schema = dispatch(path.read_text(), jsonl=path.suffix == ".jsonl")
        except (OSError, ValueError) as exc:
            failures += 1
            print(f"FAIL {path}: {exc}")
        else:
            print(f"ok   {path} ({schema.label})")
    if failures:
        print(f"FAIL: {failures} of {len(args.files)} artifact(s) invalid")
        return 1
    print(f"ok: all {len(args.files)} artifact(s) validate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
