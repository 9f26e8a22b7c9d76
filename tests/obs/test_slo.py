"""SLO burn-rate evaluation and the alert state machine."""

import bisect

import pytest

from repro.obs import (
    ALERTS_SCHEMA,
    BurnRateRule,
    EventLog,
    MetricsRegistry,
    MetricSum,
    SloEvaluator,
    SloSpec,
    alert_report,
    validate,
)

WINDOWS = (BurnRateRule(long_s=2.0, short_s=0.5, max_burn_rate=10.0),)


def _availability_spec(**overrides):
    defaults = dict(
        name="availability",
        description="good over total",
        target=0.99,
        good=MetricSum(("good_total",)),
        total=MetricSum(("all_total",)),
        windows=WINDOWS,
    )
    defaults.update(overrides)
    return SloSpec(**defaults)


def _setup(spec=None, event_log=None):
    registry = MetricsRegistry()
    good = registry.counter("good_total", "good").labels()
    total = registry.counter("all_total", "total").labels()
    evaluator = SloEvaluator(registry, [spec or _availability_spec()],
                             event_log=event_log)
    return registry, good, total, evaluator


def test_metric_sum_reads_counters_with_label_filters():
    registry = MetricsRegistry()
    family = registry.counter("cache_requests_total", "c", ("store", "outcome"))
    family.labels(store="s", outcome="layer1_hit").inc(3)
    family.labels(store="s", outcome="layer2_hit").inc(2)
    family.labels(store="s", outcome="miss").inc(5)
    hits = MetricSum(("cache_requests_total",),
                     where=(("outcome", ("layer1_hit", "layer2_hit")),))
    assert hits.read(registry) == 5.0
    assert MetricSum(("cache_requests_total",)).read(registry) == 10.0
    assert MetricSum(("absent_total",)).read(registry) == 0.0


def test_metric_sum_histogram_reading_cumulative_at_le():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", "l", buckets=(0.1, 1.0)).labels()
    for value in (0.05, 0.5, 5.0):
        hist.observe(value)
    assert MetricSum(("lat",), le=0.1).read(registry) == 1.0
    assert MetricSum(("lat",), le=1.0).read(registry) == 2.0
    assert MetricSum(("lat",)).read(registry) == 3.0


def test_burn_rate_fires_only_when_both_windows_exceed():
    registry, good, total, evaluator = _setup(
        _availability_spec(target=0.9, windows=(
            BurnRateRule(long_s=2.0, short_s=0.5, max_burn_rate=5.0),)))
    # Steady good traffic: no alert.
    for step in range(1, 5):
        good.inc(10)
        total.inc(10)
        assert evaluator.evaluate(step * 0.5) == []
    # Bad burst: short window breaches immediately, long follows.
    total.inc(40)
    changed = evaluator.evaluate(2.5)
    assert [a.state for a in changed] == ["firing"]  # for_s=0 fires at once
    assert evaluator.any_fired


def test_alert_walks_pending_firing_resolved():
    spec = _availability_spec(target=0.9, for_s=0.5, resolve_after_s=1.0,
                              windows=(BurnRateRule(2.0, 0.5, 5.0),))
    registry, good, total, evaluator = _setup(spec)
    good.inc(10); total.inc(10)
    evaluator.evaluate(0.5)
    total.inc(10)  # all bad
    (alert,) = evaluator.evaluate(1.0)
    assert alert.state == "pending"
    total.inc(10)  # still bad
    (alert,) = evaluator.evaluate(1.5)
    assert alert.state == "firing" and alert.firing_ts == 1.5
    # Recovery: good traffic only; short window clears first.
    for step, ts in enumerate((2.0, 2.5, 3.0, 3.5, 4.0)):
        good.inc(20); total.inc(20)
        changed = evaluator.evaluate(ts)
        if changed:
            break
    (alert,) = changed
    assert alert.state == "resolved"
    assert alert.resolved_ts is not None
    assert alert.pending_ts < alert.firing_ts < alert.resolved_ts


def test_pending_alert_cancelled_on_early_clear():
    spec = _availability_spec(target=0.9, for_s=5.0,
                              windows=(BurnRateRule(2.0, 0.5, 5.0),))
    registry, good, total, evaluator = _setup(spec)
    total.inc(10)
    (alert,) = evaluator.evaluate(0.5)
    assert alert.state == "pending"
    good.inc(100); total.inc(100)
    (alert,) = evaluator.evaluate(1.0)
    assert alert.state == "cancelled"
    assert not evaluator.any_fired


def test_resolved_alert_collects_event_ids_in_window():
    log = EventLog()
    log.emit("breaker.open", ts=0.2, component="svc")      # inside lookback
    log.emit("router.drain", ts=1.2, component="cluster")  # inside window
    spec = _availability_spec(target=0.9, resolve_after_s=0.5,
                              event_lookback_s=1.0,
                              windows=(BurnRateRule(2.0, 0.5, 5.0),))
    registry, good, total, evaluator = _setup(spec, event_log=log)
    total.inc(10)
    evaluator.evaluate(1.0)  # pending_ts=1.0, fires immediately (for_s=0)
    log.emit("late.event", ts=99.0, component="x")         # outside window
    good.inc(100); total.inc(100)
    evaluator.evaluate(2.0)
    (resolved,) = evaluator.evaluate(3.0)
    assert resolved.state == "resolved"
    assert resolved.event_ids == [1, 2]


def test_no_traffic_burns_nothing_and_sli_defaults_high():
    registry, good, total, evaluator = _setup()
    evaluator.evaluate(0.5)
    evaluator.evaluate(1.0)
    assert evaluator.alerts() == []
    assert evaluator.sli("availability") == 1.0


def test_evaluation_time_cannot_go_backwards():
    registry, good, total, evaluator = _setup()
    evaluator.evaluate(1.0)
    with pytest.raises(ValueError):
        evaluator.evaluate(0.5)


def test_alert_report_round_trips_through_validator():
    spec = _availability_spec(target=0.9, windows=(BurnRateRule(2.0, 0.5, 5.0),))
    registry, good, total, evaluator = _setup(spec)
    total.inc(10)
    evaluator.evaluate(0.5)
    report = alert_report(evaluator)
    validate(ALERTS_SCHEMA, report)
    assert report["fired"] is True
    (objective,) = report["objectives"]
    assert objective["name"] == "availability"
    assert objective["sli"] == 0.0
    assert objective["error_budget_used"] == pytest.approx(10.0)
    (alert,) = objective["alerts"]
    assert alert["state"] == "firing"


def test_validate_alert_report_rejects_inconsistencies():
    registry, good, total, evaluator = _setup()
    evaluator.evaluate(1.0)
    report = alert_report(evaluator)
    with pytest.raises(ValueError):
        validate(ALERTS_SCHEMA, dict(report, schema="x/v0"))
    with pytest.raises(ValueError):
        validate(ALERTS_SCHEMA, dict(report, fired=True))  # no firing alert
    broken = dict(report)
    broken["objectives"] = [dict(report["objectives"][0], windows=[])]
    with pytest.raises(ValueError):
        validate(ALERTS_SCHEMA, broken)
    for evaluations in (True, -1):  # not a count
        with pytest.raises(ValueError, match="evaluations"):
            validate(ALERTS_SCHEMA, dict(report, evaluations=evaluations))


def test_long_window_burn_reads_only_its_window_on_a_long_run():
    """Regression: the history was capped at 4096 readings, and once one was
    evicted a window reaching past the oldest kept reading fell back to the
    (0, 0) baseline, so the long window read the whole run: here, 1 000 bad
    requests that left it long ago fired the rule at t = 6 000."""
    rule = BurnRateRule(long_s=5000.0, short_s=1.0, max_burn_rate=1.0)
    registry, good, total, evaluator = _setup(
        _availability_spec(target=0.9, windows=(rule,)))
    stamps, goods, totals = [], [], []      # every reading, never pruned

    def burn(window_s):
        i = bisect.bisect_right(stamps, stamps[-1] - window_s) - 1
        base_good, base_total = (goods[i], totals[i]) if i >= 0 else (0.0, 0.0)
        total_delta = totals[-1] - base_total
        if total_delta <= 0:
            return 0.0
        return (1.0 - (goods[-1] - base_good) / total_delta) / (1.0 - 0.9)

    for now in range(1, 6001):
        total.inc()
        if 1000 < now < 6000:   # the first 1 000 requests and the last are bad
            good.inc()
        evaluator.evaluate(float(now))
        stamps.append(float(now))
        goods.append(good.value)
        totals.append(total.value)
        breached = burn(rule.long_s) >= 1.0 and burn(rule.short_s) >= 1.0
        alerts = evaluator.alerts()
        assert (bool(alerts) and alerts[-1].state == "firing") == breached, now
    assert burn(rule.long_s) < 0.01 and burn(rule.short_s) == pytest.approx(10.0)
    assert len(evaluator._states["availability"].history) <= rule.long_s + 2


def test_spec_validation():
    with pytest.raises(ValueError):
        _availability_spec(target=1.0)
    with pytest.raises(ValueError):
        _availability_spec(windows=())
    with pytest.raises(ValueError):
        BurnRateRule(long_s=0.5, short_s=0.5, max_burn_rate=1.0)
    with pytest.raises(ValueError):
        MetricSum(())
    with pytest.raises(ValueError):
        SloEvaluator(MetricsRegistry(), [])
