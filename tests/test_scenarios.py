"""Scenario runner: the exit-code rule, and every expectation function
both passes on the drive it belongs to and fails on one it must reject
(so an expectation that silently returns ``[]`` is caught)."""

import copy
import functools
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs, scenarios, serving
from repro.cli import build_parser
from repro.scenarios import Drain, Drive, NewDay, Phase, Plan, Refresh, Restore, Traffic
from repro.utils.rng import spawn_rng

@functools.cache
def _played(*argv: str) -> Drive:
    """The drive state after ``repro.cli <argv>`` set up, played its
    phases and rendered its artifacts (cached: tests only read a drive,
    doctored copies are made with :func:`_doctored`)."""
    args = build_parser().parse_args(list(argv))
    return scenarios.play_scenario(scenarios.SCENARIOS[args.command], args)


def _doctored(drive: Drive, key: str, edit) -> Drive:
    """``drive`` with artifact ``key`` deep-copied and passed through ``edit``."""
    artifacts = dict(drive.artifacts)
    artifacts[key] = copy.deepcopy(artifacts[key])
    edit(artifacts[key])
    doctored = Drive(cluster=drive.cluster, tracers=drive.tracers,
                     injectors=drive.injectors)
    doctored.artifacts = artifacts
    return doctored


_CHAOS = ("chaos", "--seed", "0", "--scenario")
_OBS = ("obs", "--seed", "3", "--scale", "0.12", "--lm-epochs", "1", "--requests", "120")
_CLUSTER = ("cluster", "--seed", "3", "--requests", "300", "--n-queries", "40",
            "--fault-rate", "0.1")
_TRACE = ("trace", "--seed", "5", "--replicas", "2", "--requests", "200",
          "--n-queries", "60", "--fault-rate", "0.2")
_MONITOR_CHAOS = ("monitor", "--seed", "0", "--scenario", "chaos")
_MONITOR_CLEAN = ("monitor", "--seed", "0", "--scenario", "clean",
                  "--requests-per-phase", "200")
_ROLLOUT_HEALTHY = ("rollout", "--seed", "0", "--scenario", "healthy")
_ROLLOUT_POISONED = ("rollout", "--seed", "0", "--scenario", "poisoned")
_KGHEALTH = ("kghealth", "--seed", "0", "--replicas", "2", "--n-queries", "48",
             "--requests-per-phase", "400", "--scenario")
#: The twelve cached drives: every scenario in every ``--scenario`` variant.
_DRIVES = (_CHAOS + ("resilient",), _CHAOS + ("baseline",), _CHAOS + ("outage",),
           _OBS, _CLUSTER, _TRACE, _MONITOR_CHAOS, _MONITOR_CLEAN, _ROLLOUT_HEALTHY,
           _ROLLOUT_POISONED, _KGHEALTH + ("healthy",), _KGHEALTH + ("poisoned",))
#: The cached drives with an SLO evaluator on the scrape grid.
_MONITORED = (_MONITOR_CHAOS, _MONITOR_CLEAN, _ROLLOUT_HEALTHY, _ROLLOUT_POISONED,
              _KGHEALTH + ("healthy",), _KGHEALTH + ("poisoned",))


# -- the exit-code rule ----------------------------------------------------
def test_exit_code_breach_wins_over_signal(capsys):
    assert scenarios.exit_code("demo", [], signal=False) == 0
    assert scenarios.exit_code("demo", [], signal=True) == 1
    assert scenarios.exit_code("demo", ["broken"], signal=False) == 2
    assert scenarios.exit_code("demo", ["broken"], signal=True) == 2
    out = capsys.readouterr().out
    assert out.count("demo invariants: OK") == 2
    assert "demo invariants VIOLATED:\n  - broken" in out


def test_check_accounting_needs_every_count_to_agree(capsys):
    good = {"served_fresh": 3, "degraded_serves": 1, "fallbacks": 1,
            "requests": 5, "handled": 5}
    assert scenarios.check_accounting(good) == []
    for key in ("requests", "handled"):
        (failure,) = scenarios.check_accounting({**good, key: 6})
        assert "request accounting violated" in failure
    assert capsys.readouterr().out.count("VIOLATED") == 2


def test_every_scenario_expectation_holds_on_its_own_drive():
    # (The CLI tests assert the exit codes; this names the function when
    # one of them regresses.)
    own = {
        ("chaos", "resilient"): _CHAOS + ("resilient",),
        ("chaos", "baseline"): _CHAOS + ("baseline",),
        ("chaos", "outage"): _CHAOS + ("outage",),
        ("obs", ""): _OBS,
        ("cluster", ""): _CLUSTER,
        ("trace", ""): _TRACE,
        ("monitor", "chaos"): _MONITOR_CHAOS,
        ("monitor", "clean"): _MONITOR_CLEAN,
        ("rollout", "healthy"): _ROLLOUT_HEALTHY,
        ("rollout", "poisoned"): _ROLLOUT_POISONED,
        ("kghealth", "healthy"): _KGHEALTH + ("healthy",),
        ("kghealth", "poisoned"): _KGHEALTH + ("poisoned",),
    }
    checked = set()
    for command, scenario in scenarios.SCENARIOS.items():
        for variant, expectations in scenario.expectations.items():
            drive = _played(*own[command, variant])
            for expectation in expectations:
                assert expectation(drive) == [], expectation.__name__
            checked.add((command, variant))
    assert checked == set(own)


def test_every_retained_span_keeps_its_parent():
    """Retention never keeps a span whose same-tracer parent it dropped:
    the sampler keeps or drops a trace whole and commits it in open order,
    no buffer frees while a span of its trace is open, and ``max_spans``
    only refuses spans later than every retained one.  So the export needs
    no re-parenting: every retained span's ``parent_id`` is None or names a
    retained span of its own tracer."""
    children = 0
    for argv in _DRIVES:
        for process, tracer in _played(*argv).tracers:
            spans = tracer.spans()
            retained = {span.span_id for span in spans}
            orphans = [span.name for span in spans
                       if span.parent_id is not None
                       and span.parent_id not in retained]
            assert orphans == [], (argv[:1], process)
            children += sum(span.parent_id is not None for span in spans)
    assert children > 0


def test_phase_latency_windows_partition_the_drive_histogram():
    """Each phase's latency window holds exactly the requests the phase
    handled, and the windows' buckets add up to the cluster histogram."""
    for argv in _DRIVES:
        drive = _played(*argv)
        latency = drive.registry.get("cluster_request_latency_seconds").labels(
            cluster=drive.cluster.config.name)
        merged = obs.Histogram(latency.bounds)
        for name, counts in drive.phase_rows:
            assert drive.phase_latency[name].count == counts["handled"], (argv[:1], name)
            merged.merge(drive.phase_latency[name])
        assert merged.bucket_counts() == latency.bucket_counts(), argv[:1]


def test_slo_evaluation_runs_once_per_crossed_scrape_point():
    """Every monitored drive evaluates its SLOs once at each
    ``k * SCRAPE_INTERVAL_S`` point its arrival clock crossed."""
    for argv in _MONITORED:
        drive = _played(*argv)
        crossed = math.floor(drive.cluster.clock.now() / scenarios.SCRAPE_INTERVAL_S
                             + 1e-9)
        assert drive.evaluator.evaluations == crossed, argv


#: A two-replica faulty rig for free step orders: 12 queries, ground truth on.
_STEP_RIG = ("cluster", "--seed", "1", "--replicas", "2", "--requests", "1",
             "--n-queries", "12", "--fault-rate", "0.2")
_UNIVERSE = tuple(f"query {i:03d}" for i in range(12))
_STEPS = st.one_of(
    st.builds(Plan, st.sampled_from([serving.FaultPlan(), serving.FaultPlan(error_rate=1.0),
                                     serving.FaultPlan.mixed(0.3)])),
    st.just(NewDay()),
    st.just(Drain("cluster-r1")),
    st.just(Restore("cluster-r1")),
    st.builds(Traffic, st.none() | st.integers(0, 40), st.just(_UNIVERSE)),
    st.builds(Refresh, st.booleans()))


@settings(max_examples=30, deadline=None)
@given(steps=st.lists(_STEPS, min_size=1, max_size=6))
@example(steps=[Traffic(30, _UNIVERSE), Refresh(True), Traffic(30, _UNIVERSE)])
@example(steps=[Drain("cluster-r1"), Traffic(30, _UNIVERSE), Restore("cluster-r1"),
                NewDay(), Traffic(30, _UNIVERSE)])
def test_steps_in_any_order_keep_accounting_and_sum_to_the_ledger_row(steps):
    """A phase may list its steps in any order: request accounting holds
    after every ``apply``, and the phase's ledger row is the sum of what
    each step added to the tallies."""
    drive, _ = scenarios.SCENARIOS["cluster"].setup(build_parser().parse_args(_STEP_RIG))
    added = []
    apply = drive.apply

    def checked(step, rng=None):
        before = drive.tallies()
        apply(step, rng)
        assert scenarios.check_accounting(drive.cluster.metrics_totals()) == []
        added.append(drive.tallies() - before)

    drive.apply = checked
    drive.play([Phase("steps", steps)], spawn_rng(1, "steps-traffic"))
    assert len(added) == len(steps)
    ((_, row),) = drive.phase_rows
    assert row == sum(added, Counter())


# -- each expectation rejects the outcome it exists to catch ---------------
@pytest.mark.parametrize("expectation,argv,complaint", [
    (scenarios.expect_storm_alerts_resolve_and_correlate, _MONITOR_CLEAN,
     "should fire at least one alert"),
    (scenarios.expect_rollout_completes_quietly, _ROLLOUT_POISONED,
     "missing event kind: rollout.complete"),
    (scenarios.expect_rollback_and_redrive, _ROLLOUT_HEALTHY,
     "missing event kind: rollout.rollback_start"),
    (scenarios.expect_gate_promotes, _KGHEALTH + ("poisoned",),
     "healthy gate must promote"),
    (scenarios.expect_gate_blocks, _KGHEALTH + ("healthy",),
     "poisoned gate must block"),
    (scenarios.expect_resilience_keeps_knowledge, _CHAOS + ("baseline",),
     "correct knowledge, under 99%"),
    (scenarios.expect_baseline_falls_back, _CHAOS + ("resilient",),
     "baseline served degraded answers"),
    (scenarios.expect_baseline_falls_back, _CHAOS + ("outage",),
     "baseline opened a breaker"),
    (scenarios.expect_baseline_falls_back, _CHAOS + ("outage",),
     "baseline dead-lettered queries"),
    (scenarios.expect_breaker_recovers, _CHAOS + ("resilient",),
     "breaker never opened, failed fast and closed"),
])
def test_outcome_expectations_fail_on_the_other_variant(expectation, argv, complaint):
    failures = expectation(_played(*argv))
    assert complaint in "\n".join(failures)


def test_storm_expectation_names_each_missing_piece():
    failures = scenarios.expect_storm_alerts_resolve_and_correlate(
        _played(*_MONITOR_CLEAN))
    assert {"fired alerts should resolve by end of recovery",
            "resolved alerts should cross-reference events",
            "missing event kind: breaker.open",
            "missing event kind: router.drain"} <= set(failures)


def test_chaos_expectations_name_each_missing_piece():
    resilient = _played(*_CHAOS, "resilient")
    assert set(scenarios.expect_baseline_falls_back(resilient)) == {
        "baseline served degraded answers", "baseline retried generator calls"}
    assert set(scenarios.expect_breaker_recovers(resilient)) == {
        "breaker never opened, failed fast and closed",
        "the outage dead-lettered nothing"}
    # The per-phase check names the phase; the cold sweep is exempt.
    failures = scenarios.expect_resilience_keeps_knowledge(_played(*_CHAOS, "baseline"))
    assert failures and all(failure.startswith("day ") for failure in failures)
    unfinished = copy.copy(_played(*_CHAOS, "outage"))
    unfinished.phase_rows = [(name, counts - Counter(redriven=counts["redriven"]))
                             for name, counts in unfinished.phase_rows]
    assert scenarios.expect_breaker_recovers(unfinished) == [
        "redriven 0 of 32 dead letters"]


def test_rollout_expectations_flag_the_unexpected_event_too():
    poisoned, healthy = _played(*_ROLLOUT_POISONED), _played(*_ROLLOUT_HEALTHY)
    assert ("unexpected event kind: rollout.rollback_start"
            in scenarios.expect_rollout_completes_quietly(poisoned))
    assert ("unexpected event kind: rollout.complete"
            in scenarios.expect_rollback_and_redrive(healthy))
    assert ("unexpected event kind: rollout.start"
            in scenarios.expect_gate_blocks(_played(*_KGHEALTH, "healthy")))
    fired = _doctored(healthy, "alerts", lambda report: report.update(fired=True))
    assert scenarios.expect_rollout_completes_quietly(fired) == [
        "healthy rollout must not fire alerts"]


def test_nested_pipeline_spans_expectation():
    def span(name, parent_id):
        return {"ph": "X", "name": name, "args": {"parent_id": parent_id}}

    nested, flat = Drive(), Drive()
    nested.artifacts = {"trace": {"traceEvents": [
        span("pipeline.run", -1), span("pipeline.teacher_generation", 0)]}}
    assert scenarios.expect_nested_pipeline_spans(nested) == []
    flat.artifacts = {"trace": {"traceEvents": [span("serving.request", -1)]}}
    assert scenarios.expect_nested_pipeline_spans(flat) == [
        "missing pipeline root span", "no nested spans"]


def test_cluster_expectation_misses_a_process_or_a_metric_family():
    drive = _played(*_CLUSTER)

    def drop_replica(trace):
        trace["traceEvents"] = [
            e for e in trace["traceEvents"]
            if not (e["ph"] == "M" and e["args"]["name"] == "cluster-r1")]

    def drop_family(snap):
        snap["metrics"] = [m for m in snap["metrics"]
                           if m["name"] != "cluster_failovers_total"]

    expect = scenarios.expect_replica_processes_and_cluster_metrics
    assert expect(_doctored(drive, "trace", drop_replica)) == [
        "missing trace process: cluster-r1"]
    assert expect(_doctored(drive, "metrics", drop_family)) == [
        "missing metric family: cluster_failovers_total"]


def test_connected_traces_expectation_rejects_each_broken_tree():
    drive = _played(*_TRACE)
    expect = scenarios.expect_connected_traces

    def disconnect(summary):
        summary["traces"][0]["connected"] = False

    def unbalance(summary):
        summary["traces"][0]["duration_s"] += 0.5

    def all_fresh(summary):
        for trace in summary["traces"]:
            trace["outcome"] = "fresh"

    def no_flows(trace):
        trace["traceEvents"] = [e for e in trace["traceEvents"]
                                if e["ph"] not in ("s", "f")]

    first = drive.artifacts["summary"]["traces"][0]["trace_id"]
    assert expect(_doctored(drive, "summary", disconnect)) == [
        f"trace {first} is disconnected"]
    (failure,) = expect(_doctored(drive, "summary", unbalance))
    assert failure.startswith(f"trace {first}: stages do not sum")
    assert expect(_doctored(drive, "summary", all_fresh)) == [
        "fault injection produced no flagged trace"]
    assert expect(_doctored(drive, "trace", no_flows)) == [
        "no cross-tracer flow links in the Chrome trace"]
    assert "no traces retained" in expect(
        _doctored(drive, "summary", lambda summary: summary["traces"].clear()))
    # Without fault injection an all-fresh trace mix is the expected one.
    calm = _doctored(drive, "summary", all_fresh)
    calm.injectors = []
    assert expect(calm) == []


def test_trace_ids_expectation_needs_exemplars_that_resolve():
    drive = _played(*_TRACE)
    expect = scenarios.expect_trace_ids_resolve
    unresolved = _doctored(drive, "summary",
                           lambda summary: summary["traces"].clear())
    assert expect(unresolved) == ["no latency exemplar resolves to a retained trace"]
    # A rig that never served a request has nothing to resolve at all.
    idle, _ = scenarios.SCENARIOS["trace"].setup(
        build_parser().parse_args(list(_TRACE)))
    idle.artifacts["summary"] = {"traces": []}
    assert expect(idle) == [
        "latency histogram carries no exemplars",
        "no latency exemplar resolves to a retained trace",
        "no event carries a trace id"]
