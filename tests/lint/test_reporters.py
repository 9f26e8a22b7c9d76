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
    module(pkg / "gateless.py", """
        __all__ = ["deploy"]
        from repro.refresh import RolloutController

        def deploy(cluster, store, green, evaluator):
            return RolloutController(cluster, store, green, evaluator)
        """)
    module(serving / "caller.py", """
        __all__ = ["fetch"]

        def fetch(generator, prompt):
            return generator.generate_knowledge([prompt])
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
    assert payload["files_checked"] == 12
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
            "rule": "snapshot-health-gate",
            "path": str(fixture_package / "gateless.py"),
            "line": 5,
            "col": 12,
            "message": (
                "RolloutController constructed without a quality_gate; "
                "pass a repro.refresh.SnapshotQualityGate so drifted "
                "knowledge is blocked before promotion"
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
            "rule": "batch-entrypoint-only",
            "path": str(fixture_package / "serving" / "caller.py"),
            "line": 4,
            "col": 12,
            "message": (
                "per-item .generate_knowledge() call in a serving module; "
                "route generator work through generate_batch() so the "
                "flush/window is charged one amortized batch, not per-item "
                "latency"
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
    """Project-scope rules need a repro-shaped tree; they are exercised in
    test_project.py. Every *file*-scope rule trips exactly once here."""
    from repro.lint.registry import all_rules

    result = lint_paths([fixture_package])
    fired = sorted(d.rule for d in result.diagnostics)
    assert fired == sorted(rule.id for rule in all_rules()
                           if rule.scope == "file")


def test_text_reporter_lines_and_summary(fixture_package):
    result = lint_paths([fixture_package])
    text = format_text(result)
    lines = text.splitlines()
    assert lines[-1] == "10 problems in 12 files (0 suppressed)"
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
