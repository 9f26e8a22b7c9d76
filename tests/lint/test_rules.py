"""cosmolint rules exercised against fixture snippets (never the live tree)."""

import textwrap

from repro.lint import lint_source
from repro.lint.rules import (
    AllConsistencyRule,
    ClockInjectionRule,
    EventLogOnlyRule,
    FloatEqualityRule,
    MutableDefaultRule,
    OverbroadExceptRule,
    RegistryInjectionRule,
    TraceIdContractRule,
    UnscopedRngRule,
    WallClockRule,
)


def run_rule(rule_class, source, path="pkg/mod.py", in_package=True):
    result = lint_source(
        textwrap.dedent(source),
        display_path=path,
        in_package=in_package,
        rule_classes=[rule_class],
    )
    return result.diagnostics


# -- unscoped-rng -------------------------------------------------------


def test_unscoped_rng_flags_default_rng_via_alias():
    diags = run_rule(
        UnscopedRngRule,
        """
        import numpy as np
        rng = np.random.default_rng(7)
        """,
    )
    assert [d.rule for d in diags] == ["unscoped-rng"]
    assert diags[0].line == 3
    assert "numpy.random.default_rng" in diags[0].message


def test_unscoped_rng_flags_from_import_and_module_functions():
    diags = run_rule(
        UnscopedRngRule,
        """
        from numpy.random import default_rng
        import random
        a = default_rng(0)
        b = random.random()
        random.seed(3)
        """,
    )
    assert [d.rule for d in diags] == ["unscoped-rng"] * 3
    assert [d.line for d in diags] == [4, 5, 6]


def test_unscoped_rng_ignores_annotations_and_generator_methods():
    diags = run_rule(
        UnscopedRngRule,
        """
        import numpy as np
        from repro.utils.rng import spawn_rng

        def draw(rng: np.random.Generator) -> float:
            return float(rng.random())

        rng = spawn_rng(7, "component")
        """,
    )
    assert diags == []


def test_unscoped_rng_exempts_the_rng_module_itself():
    source = """
    import numpy as np
    seq = np.random.SeedSequence(1)
    """
    assert run_rule(UnscopedRngRule, source, path="src/repro/utils/rng.py") == []
    assert len(run_rule(UnscopedRngRule, source, path="src/repro/core/x.py")) == 1


# -- wall-clock ---------------------------------------------------------


def test_wall_clock_flags_time_and_datetime_in_serving():
    diags = run_rule(
        WallClockRule,
        """
        import time
        from datetime import datetime
        t = time.time()
        time.sleep(0.1)
        now = datetime.now()
        """,
        path="src/repro/serving/thing.py",
    )
    assert [d.rule for d in diags] == ["wall-clock"] * 3
    assert [d.line for d in diags] == [4, 5, 6]


def test_wall_clock_enforced_repo_wide():
    source = """
    import time
    t = time.time()
    """
    assert len(run_rule(WallClockRule, source, path="src/repro/core/pipeline.py")) == 1
    assert len(run_rule(WallClockRule, source, path="benchmarks/bench_x.py")) == 1


def test_wall_clock_allowlists_only_the_obs_timebase():
    source = """
    import time

    def wall_now():
        return time.perf_counter()
    """
    # The sanctioned narrow waist is exempt...
    assert run_rule(WallClockRule, source, path="src/repro/obs/timebase.py") == []
    # ...but a second perf_counter call site anywhere else is flagged,
    # even under a same-named file outside obs/.
    flagged = run_rule(WallClockRule, source, path="src/repro/serving/timebase.py")
    assert [d.rule for d in flagged] == ["wall-clock"]
    assert "perf_counter" in flagged[0].message


# -- event-log-only -----------------------------------------------------


def test_event_log_only_flags_print_and_stream_writes_in_serving():
    diags = run_rule(
        EventLogOnlyRule,
        """
        import sys

        def drain(replica):
            print(f"draining {replica}")
            sys.stderr.write("drained\\n")
        """,
        path="src/repro/serving/router.py",
    )
    assert [d.rule for d in diags] == ["event-log-only"] * 2
    assert [d.line for d in diags] == [5, 6]
    assert "EventLog" in diags[0].message


def test_event_log_only_scoped_to_serving_trees():
    source = """
    print("table output")
    """
    assert run_rule(EventLogOnlyRule, source, path="src/repro/cli.py") == []
    assert run_rule(EventLogOnlyRule, source, path="benchmarks/bench_x.py") == []
    assert len(run_rule(EventLogOnlyRule, source,
                        path="src/repro/serving/cluster.py")) == 1


def test_event_log_only_respects_allowlist(monkeypatch):
    source = """
    print("human-only debug output")
    """
    assert len(run_rule(EventLogOnlyRule, source,
                        path="src/repro/serving/debug.py")) == 1
    monkeypatch.setattr(EventLogOnlyRule, "allowlist", ("serving/debug.py",))
    assert run_rule(EventLogOnlyRule, source,
                    path="src/repro/serving/debug.py") == []


# -- mutable-default ----------------------------------------------------


def test_mutable_default_flags_literals_and_constructor_calls():
    diags = run_rule(
        MutableDefaultRule,
        """
        def f(a, items=[], *, lookup={}):
            return a

        def g(tags=set(), names=dict()):
            return tags

        h = lambda acc=[]: acc
        """,
    )
    assert [d.rule for d in diags] == ["mutable-default"] * 5


def test_mutable_default_allows_none_and_immutable_defaults():
    diags = run_rule(
        MutableDefaultRule,
        """
        def f(a=None, b=(), c="x", d=0, e=frozenset()):
            return a
        """,
    )
    assert diags == []


# -- overbroad-except ---------------------------------------------------


def test_overbroad_except_flags_bare_and_swallowed_exception():
    diags = run_rule(
        OverbroadExceptRule,
        """
        try:
            work()
        except:
            pass

        try:
            work()
        except Exception:
            log()
        """,
    )
    assert [d.rule for d in diags] == ["overbroad-except"] * 2
    assert [d.line for d in diags] == [4, 9]


def test_overbroad_except_allows_reraise_and_narrow_handlers():
    diags = run_rule(
        OverbroadExceptRule,
        """
        try:
            work()
        except Exception:
            log()
            raise

        try:
            work()
        except ValueError:
            pass
        """,
    )
    assert diags == []


# -- float-equality -----------------------------------------------------


def test_float_equality_flags_eq_and_ne_against_float_literals():
    diags = run_rule(
        FloatEqualityRule,
        """
        def check(score):
            if score == 0.5:
                return True
            return score != 1.0
        """,
        path="src/repro/apps/relevance/metrics.py",
    )
    assert [d.rule for d in diags] == ["float-equality"] * 2
    assert [d.line for d in diags] == [3, 5]


def test_float_equality_allows_int_literals_and_ordering():
    diags = run_rule(
        FloatEqualityRule,
        """
        def check(score):
            return score == 0 or score >= 0.5
        """,
        path="src/repro/apps/relevance/metrics.py",
    )
    assert diags == []


def test_float_equality_scoped_to_metrics_code():
    source = """
    x = 1.0
    ok = x == 1.0
    """
    assert run_rule(FloatEqualityRule, source, path="src/repro/core/pipeline.py") == []
    assert len(run_rule(FloatEqualityRule, source, path="src/repro/reporting/tables.py")) == 1


# -- all-consistency ----------------------------------------------------


def test_all_consistency_requires_all_in_public_package_modules():
    diags = run_rule(
        AllConsistencyRule,
        """
        def public_thing():
            return 1
        """,
    )
    assert [d.rule for d in diags] == ["all-consistency"]
    assert "no __all__" in diags[0].message


def test_all_consistency_flags_undefined_exports():
    diags = run_rule(
        AllConsistencyRule,
        """
        __all__ = ["present", "missing"]

        def present():
            return 1
        """,
    )
    assert [d.rule for d in diags] == ["all-consistency"]
    assert "'missing'" in diags[0].message


def test_all_consistency_exempts_scripts_tests_and_private_modules():
    source = """
    def public_thing():
        return 1
    """
    # not a package member (benchmarks/, examples/ style)
    assert run_rule(AllConsistencyRule, source, in_package=False) == []
    assert run_rule(AllConsistencyRule, source, path="pkg/test_mod.py") == []
    assert run_rule(AllConsistencyRule, source, path="pkg/_private.py") == []
    assert run_rule(AllConsistencyRule, source, path="pkg/conftest.py") == []


def test_all_consistency_accepts_conditional_and_tuple_definitions():
    diags = run_rule(
        AllConsistencyRule,
        """
        __all__ = ["a", "b", "maybe", "Klass"]

        a, b = 1, 2

        if True:
            maybe = 3

        class Klass:
            pass
        """,
    )
    assert diags == []


def test_all_consistency_skips_dynamic_all():
    diags = run_rule(
        AllConsistencyRule,
        """
        __all__ = [name for name in ("a",)]

        def f():
            return 1
        """,
    )
    assert diags == []


# -- trace-id-contract --------------------------------------------------


def test_trace_id_contract_flags_ad_hoc_span_keyword():
    diags = run_rule(
        TraceIdContractRule,
        """
        with tracer.span("serve", trace_id=context.trace_id):
            pass
        """,
        path="src/repro/serving/deployment.py",
    )
    assert [d.rule for d in diags] == ["trace-id-contract"]
    assert "Tracer.attach" in diags[0].message


def test_trace_id_contract_flags_spelling_variants_on_emit_and_record():
    diags = run_rule(
        TraceIdContractRule,
        """
        event_log.emit("serve", "request", traceId=tid)
        tracer.record("flush", 0.0, 1.0, TraceID=tid)
        """,
        path="src/repro/serving/cluster.py",
    )
    assert [d.rule for d in diags] == ["trace-id-contract"] * 2


def test_trace_id_contract_flags_literal_set_attribute_key():
    diags = run_rule(
        TraceIdContractRule,
        """
        span.set_attribute("trace_id", context.trace_id)
        """,
        path="src/repro/serving/cache.py",
    )
    assert [d.rule for d in diags] == ["trace-id-contract"]


def test_trace_id_contract_allows_the_sanctioned_constant():
    diags = run_rule(
        TraceIdContractRule,
        """
        from repro.obs.tracing import TRACE_ID_ATTR

        span.set_attribute(TRACE_ID_ATTR, context.trace_id)
        """,
        path="src/repro/serving/deployment.py",
    )
    assert diags == []


def test_trace_id_contract_allows_trace_id_outside_attr_methods():
    diags = run_rule(
        TraceIdContractRule,
        """
        from dataclasses import replace

        result = replace(result, trace_id=context.trace_id)
        sampler.finish(context.trace_id, ts=now, duration_s=d, flagged=True)
        """,
        path="src/repro/serving/cluster.py",
    )
    assert diags == []


def test_trace_id_contract_scoped_to_serving_modules():
    source = """
    with tracer.span("assemble", trace_id=tid):
        pass
    """
    assert run_rule(TraceIdContractRule, source,
                    path="src/repro/obs/trace_query.py") == []
    assert len(run_rule(TraceIdContractRule, source,
                        path="src/repro/serving/router.py")) == 1


# -- suppressions -------------------------------------------------------


def test_same_line_suppression_silences_one_rule():
    result = lint_source(
        textwrap.dedent(
            """
            import numpy as np
            rng = np.random.default_rng(7)  # cosmolint: disable=unscoped-rng
            bad = np.random.default_rng(8)
            """
        ),
        display_path="pkg/mod.py",
        in_package=False,
        rule_classes=[UnscopedRngRule],
    )
    assert [d.line for d in result.diagnostics] == [4]
    assert result.suppressed == 1


def test_file_wide_suppression_and_disable_all():
    result = lint_source(
        textwrap.dedent(
            """
            # cosmolint: disable-file=unscoped-rng
            import numpy as np
            a = np.random.default_rng(1)
            b = np.random.default_rng(2)  # cosmolint: disable=all
            """
        ),
        display_path="pkg/mod.py",
        in_package=False,
        rule_classes=[UnscopedRngRule],
    )
    assert result.diagnostics == []
    assert result.suppressed == 2


def test_suppression_for_other_rule_does_not_apply():
    result = lint_source(
        "import numpy as np\nr = np.random.default_rng(1)  # cosmolint: disable=wall-clock\n",
        display_path="pkg/mod.py",
        in_package=False,
        rule_classes=[UnscopedRngRule],
    )
    assert [d.rule for d in result.diagnostics] == ["unscoped-rng"]
    assert result.suppressed == 0


def test_syntax_error_reported_as_diagnostic():
    result = lint_source("def broken(:\n", display_path="pkg/mod.py", in_package=False,
                         rule_classes=[UnscopedRngRule])
    assert [d.rule for d in result.diagnostics] == ["syntax-error"]
    assert result.files_checked == 1


# -- clock-injection / registry-injection ---------------------------------


def test_clock_injection_flags_raw_ctor_but_not_fallback():
    diags = run_rule(
        ClockInjectionRule,
        """
        from repro.serving.clock import SimClock

        def build(clock=None):
            a = SimClock()
            b = clock or SimClock()
            c = clock if clock is not None else SimClock()
            return a, b, c
        """,
        path="src/repro/serving/cluster.py",
    )
    assert [d.rule for d in diags] == ["clock-injection"]
    assert diags[0].line == 5
    assert "accept an injected clock" in diags[0].message


def test_clock_injection_sanctioned_factory_and_outside_root():
    source = """
    from repro.serving import clock

    timeline = clock.SimClock()
    """
    assert len(run_rule(ClockInjectionRule, source,
                        path="src/repro/refresh/rollout.py")) == 1
    # The defining module and its sanctioned siblings are factories...
    assert run_rule(ClockInjectionRule, source, path="src/repro/serving/clock.py") == []
    assert run_rule(ClockInjectionRule, source, path="src/repro/cli.py") == []
    # ...and scripts outside the repro package are exempt entirely.
    assert run_rule(ClockInjectionRule, source, path="benchmarks/bench_x.py",
                    in_package=False) == []
    assert run_rule(ClockInjectionRule, source, path="scripts/tool.py") == []


def test_registry_injection_flags_component_owned_registry():
    source = """
    from repro.obs.metrics import MetricsRegistry

    def build(registry=None):
        shared = registry or MetricsRegistry()
        private = MetricsRegistry()
        return shared, private
    """
    diags = run_rule(RegistryInjectionRule, source, path="src/repro/serving/api.py")
    assert [d.rule for d in diags] == ["registry-injection"]
    assert diags[0].line == 6
    assert "fragments the scrape surface" in diags[0].message
    assert run_rule(RegistryInjectionRule, source, path="src/repro/obs/slo.py") == []
