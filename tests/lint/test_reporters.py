"""Reporter contract: exact JSON payload for a fixture package with one
violation of every rule, plus the human-readable format."""

import json
import textwrap

import pytest

from repro.lint import lint_paths
from repro.lint.engine import LintResult
from repro.lint.diagnostics import Diagnostic
from repro.lint.reporters import REPORT_VERSION, format_json, format_text


@pytest.fixture
def fixture_package(tmp_path):
    """A temp-dir package tripping each rule exactly once."""
    pkg = tmp_path / "proj"
    serving = pkg / "serving"
    serving.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (serving / "__init__.py").write_text("")

    def module(path, body):
        path.write_text(textwrap.dedent(body).lstrip())

    module(pkg / "rngmod.py", """
        __all__ = ["make_rng"]
        import numpy as np

        def make_rng():
            return np.random.default_rng(7)
        """)
    module(serving / "clocked.py", """
        __all__ = ["stamp"]
        import time

        def stamp():
            return time.time()
        """)
    module(pkg / "metrics.py", """
        __all__ = ["is_perfect"]

        def is_perfect(score):
            return score == 1.0
        """)
    module(pkg / "defaults.py", """
        __all__ = ["collect"]

        def collect(item, bucket=[]):
            bucket.append(item)
            return bucket
        """)
    module(pkg / "excepts.py", """
        __all__ = ["swallow"]

        def swallow(fn):
            try:
                return fn()
            except:
                return None
        """)
    module(pkg / "allmod.py", """
        def exported():
            return 1
        """)
    component = pkg / "repro" / "serving"
    component.mkdir(parents=True)
    (pkg / "repro" / "__init__.py").write_text("")
    (component / "__init__.py").write_text("")
    module(component / "owned.py", """
        __all__ = ["build"]
        from repro.obs.metrics import MetricsRegistry
        from repro.serving.clock import SimClock

        def build():
            return SimClock(), MetricsRegistry()
        """)
    module(serving / "printer.py", """
        __all__ = ["announce"]

        def announce(replica):
            print("draining", replica)
        """)
    module(serving / "tagger.py", """
        __all__ = ["tag"]

        def tag(tracer, tid):
            with tracer.span("serve", trace_id=tid):
                return tid
        """)
    return pkg


def test_json_reporter_exact_payload(fixture_package):
    result = lint_paths([fixture_package])
    payload = json.loads(format_json(result))

    assert payload["version"] == REPORT_VERSION
    assert payload["files_checked"] == 13
    assert payload["suppressed"] == 0
    assert payload["diagnostics"] == [
        {
            "rule": "all-consistency",
            "path": str(fixture_package / "allmod.py"),
            "line": 1,
            "col": 1,
            "message": "public module defines no __all__; declare its export list",
        },
        {
            "rule": "mutable-default",
            "path": str(fixture_package / "defaults.py"),
            "line": 3,
            "col": 26,
            "message": (
                "mutable default argument is shared across calls; default to "
                "None (or use dataclasses.field(default_factory=...))"
            ),
        },
        {
            "rule": "overbroad-except",
            "path": str(fixture_package / "excepts.py"),
            "line": 6,
            "col": 5,
            "message": (
                "bare except catches everything including KeyboardInterrupt; "
                "catch the specific fault types instead"
            ),
        },
        {
            "rule": "float-equality",
            "path": str(fixture_package / "metrics.py"),
            "line": 4,
            "col": 21,
            "message": (
                "float equality comparison is unstable under rounding; use "
                "math.isclose or an explicit tolerance"
            ),
        },
        {
            "rule": "clock-injection",
            "path": str(fixture_package / "repro" / "serving" / "owned.py"),
            "line": 6,
            "col": 12,
            "message": (
                "SimClock constructed outside a sanctioned factory couples "
                "this component to a private timeline; accept an injected "
                "clock (clock: SimClock | None = None) or derive one with "
                "clock.fork()"
            ),
        },
        {
            "rule": "registry-injection",
            "path": str(fixture_package / "repro" / "serving" / "owned.py"),
            "line": 6,
            "col": 24,
            "message": (
                "MetricsRegistry constructed inside a component fragments the "
                "scrape surface; accept an injected registry (registry: "
                "MetricsRegistry | None = None) and default only via the "
                "`x if x is not None else MetricsRegistry()` fallback idiom"
            ),
        },
        {
            "rule": "unscoped-rng",
            "path": str(fixture_package / "rngmod.py"),
            "line": 5,
            "col": 12,
            "message": (
                "call to numpy.random.default_rng bypasses the seed+scope "
                "discipline; derive streams via "
                "repro.utils.rng.spawn_rng(seed, scope=...)"
            ),
        },
        {
            "rule": "wall-clock",
            "path": str(fixture_package / "serving" / "clocked.py"),
            "line": 5,
            "col": 12,
            "message": (
                "call to time.time reads the wall clock; time must come from "
                "a simulated clock (only obs/timebase.py may read real time)"
            ),
        },
        {
            "rule": "event-log-only",
            "path": str(fixture_package / "serving" / "printer.py"),
            "line": 4,
            "col": 5,
            "message": (
                "print() in a serving module bypasses the structured event "
                "log; emit via obs.events.EventLog so alerts can correlate it"
            ),
        },
        {
            "rule": "trace-id-contract",
            "path": str(fixture_package / "serving" / "tagger.py"),
            "line": 4,
            "col": 10,
            "message": (
                "ad-hoc trace-id attribute 'trace_id' on span(); trace ids "
                "flow via Tracer.attach / EventLog.trace_scope under the "
                "sanctioned obs.tracing.TRACE_ID_ATTR key"
            ),
        },
    ]


def test_every_file_scope_rule_fires_exactly_once(fixture_package):
    """Every rule reads one file, and each trips exactly once here."""
    from repro.lint.registry import all_rules

    result = lint_paths([fixture_package])
    fired = sorted(d.rule for d in result.diagnostics)
    assert fired == sorted(rule.id for rule in all_rules())


def test_text_reporter_lines_and_summary(fixture_package):
    result = lint_paths([fixture_package])
    text = format_text(result)
    lines = text.splitlines()
    assert lines[-1] == "10 problems in 13 files (0 suppressed)"
    assert f"{fixture_package / 'allmod.py'}:1:1: [all-consistency] " in lines[0]
    assert all(":" in line for line in lines[:-1])


def test_text_reporter_clean_summary():
    result = LintResult(files_checked=3)
    result.suppressed = 2
    assert format_text(result.finalize()) == "ok: 3 files, 0 problems (2 suppressed)"


def test_json_reporter_is_stable_and_parseable():
    result = LintResult(files_checked=1)
    result.diagnostics.append(Diagnostic("unscoped-rng", "a.py", 1, 1, "m"))
    first = format_json(result.finalize())
    assert first == format_json(result)
    assert json.loads(first)["diagnostics"][0]["rule"] == "unscoped-rng"
