"""Graceful degradation, dead-letter queue, and availability accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.interface import Generation, GenerationBatch, LatencyModel
from repro.serving import (
    BreakerState,
    CosmoService,
    FaultInjector,
    FaultPlan,
    FlakyGenerator,
    ServeRequest,
    SimClock,
)
from repro.serving.resilience import MIN_CALLS


def _handle(service, query):
    return service.serve(ServeRequest(query=query)).text


def _direct(service, query):
    return service.serve(ServeRequest(query=query, direct=True)).text


class Scripted:
    parameter_count = 1_000_000

    def __init__(self):
        self.latency = LatencyModel()

    def generate_batch(self, prompts):
        return GenerationBatch(generations=[
            Generation(text=f"it is used for {p}.", tokens=8,
                       latency_s=self.latency.charge(self.parameter_count, 8))
            for p in prompts
        ])


#: The resilience ablation's baseline arm: one attempt per call, no output
#: validation, no degraded serving (``chaos --scenario baseline``).
BASELINE = {"max_attempts": 1,
            "response_validator": lambda text: True,
            "degraded_serving": False}


def _service(plan=None, seed=0, **kwargs):
    injector = FaultInjector(plan or FaultPlan(), seed=seed)
    flaky = FlakyGenerator(Scripted(), injector)
    clock = SimClock()
    service = CosmoService(flaky, clock=clock, fallback_response="(down)",
                           seed=seed, **kwargs)
    return service, injector


# -- degradation chain -----------------------------------------------------
def test_degradation_chain_feature_store_then_fallback():
    service, _ = _service()
    assert _handle(service, "q") == "(down)"  # nothing known yet
    assert service.metrics.fallbacks == 1
    service.run_batch()
    assert _handle(service, "q") == "it is used for q."
    assert service.metrics.served_fresh == 1
    service.clock.advance_days(1)  # daily layer expires; features survive
    assert _handle(service, "q") == "it is used for q."
    assert service.metrics.degraded_serves == 1


def test_resilience_off_restores_legacy_fallback_behavior():
    service, _ = _service(**BASELINE)
    _handle(service, "q")
    service.run_batch()
    service.clock.advance_days(1)
    assert _handle(service, "q") == "(down)"  # no degraded serving
    assert service.metrics.degraded_serves == 0


def test_direct_request_degrades_on_failure():
    service, injector = _service()
    assert _direct(service, "q") == "it is used for q."
    injector.plan = FaultPlan(error_rate=1.0)
    response = _direct(service, "q")
    assert response == "it is used for q."  # the feature store's entry
    assert service.metrics.degraded_serves == 1
    assert service.metrics.generator_failures >= 1


def test_direct_request_without_resilience_falls_back():
    service, injector = _service(**BASELINE)
    injector.plan = FaultPlan(error_rate=1.0)
    assert _direct(service, "q") == "(down)"
    assert service.metrics.fallbacks == 1


@pytest.mark.parametrize("plan", [FaultPlan(), FaultPlan(timeout_rate=1.0)],
                         ids=["answered", "timed-out"])
def test_baseline_run_batch_advances_the_clock_by_the_generator_latency(plan):
    service, injector = _service(**BASELINE)
    _handle(service, "q1")
    _handle(service, "q2")
    injector.plan = plan
    clock, latency = service.clock.now(), service.generator.latency.total_simulated_s
    service.run_batch()
    spent = service.generator.latency.total_simulated_s - latency
    assert spent > 0
    assert service.clock.now() - clock == pytest.approx(spent)
    assert not service.dead_letters


# -- dead-letter queue -----------------------------------------------------
def test_exhausted_retries_dead_letter_and_daily_refresh_redrives():
    service, injector = _service(max_attempts=2)
    injector.plan = FaultPlan(error_rate=1.0)
    _handle(service, "q1")
    _handle(service, "q2")
    assert service.run_batch() == 0
    # Two failed attempts, fewer than MIN_CALLS: the breaker stays closed.
    assert service.breaker.state is BreakerState.CLOSED
    assert service.metrics.dead_lettered == 2
    assert [letter.query for letter in service.dead_letters] == ["q1", "q2"]
    assert service.cache.pending_size == 0  # moved off the pending queue
    # The outage ends; the daily refresh re-drives the queue.
    injector.plan = FaultPlan()
    report = service.daily_refresh(refresh_stale=False)
    assert report["redriven"] == 2
    assert not service.dead_letters
    assert _handle(service, "q1") == "it is used for q1."


def test_redrive_failure_requeues_with_bumped_attempts():
    service, injector = _service(max_attempts=2)
    injector.plan = FaultPlan(error_rate=1.0)
    _handle(service, "q")
    service.run_batch()
    first_attempts = service.dead_letters[0].attempts
    service.daily_refresh(refresh_stale=False)  # still failing
    # Two calls of two failed attempts each, fewer than MIN_CALLS.
    assert service.breaker.state is BreakerState.CLOSED
    assert len(service.dead_letters) == 1
    assert service.dead_letters[0].attempts == first_attempts + 1


def test_breaker_refusal_leaves_queries_pending():
    service, _ = _service()
    for _ in range(MIN_CALLS):
        service.breaker.record_failure()
    assert service.breaker.state is BreakerState.OPEN
    _handle(service, "q")
    assert service.run_batch() == 0
    assert service.breaker.refusals == 1
    assert service.metrics.dead_lettered == 0
    assert service.cache.pending_size == 1  # retried next cycle, not dropped


# -- pending queue bounds --------------------------------------------------
def test_pending_capacity_evicts_oldest():
    from repro.serving import AsyncCacheStore

    clock = SimClock()
    cache = AsyncCacheStore(clock, pending_capacity=3)
    for i in range(5):
        cache.fetch_many([f"q{i}"])
    assert cache.pending_size == 3
    assert cache.stats.pending_evictions == 2
    assert "q0" not in cache.pending_queries()


def test_pending_age_eviction_on_day_roll():
    from repro.serving import AsyncCacheStore

    clock = SimClock()
    cache = AsyncCacheStore(clock, pending_max_age_days=1)
    cache.fetch_many(["old"])
    clock.advance_days(3)
    cache.fetch_many(["new"])  # rolls the daily layer, ages out "old"
    assert cache.pending_queries() == ["new"]
    assert cache.stats.pending_evictions == 1


# -- availability accounting (property) ------------------------------------
@st.composite
def fault_schedules(draw):
    ops = []
    for _ in range(draw(st.integers(5, 50))):
        kind = draw(st.sampled_from(["request", "request", "request", "batch",
                                     "day", "refresh", "plan"]))
        if kind == "request":
            ops.append((kind, draw(st.sampled_from([f"q{i}" for i in range(8)]))))
        elif kind == "plan":
            ops.append((kind, draw(st.floats(0.0, 1.0))))
        else:
            ops.append((kind, None))
    return ops


@given(fault_schedules(), st.booleans(), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_availability_accounting_consistent_under_random_faults(ops, baseline, seed):
    service, injector = _service(seed=seed, **(BASELINE if baseline else {}))
    requests = 0
    for kind, arg in ops:
        if kind == "request":
            _handle(service, arg)
            requests += 1
        elif kind == "batch":
            service.run_batch()
        elif kind == "day":
            service.clock.advance_days(1)
        elif kind == "refresh":
            service.daily_refresh()
        elif kind == "plan":
            injector.plan = FaultPlan.mixed(arg)
    metrics = service.metrics
    # Every request is exactly one of fresh / degraded / fallback.
    assert metrics.served_fresh + metrics.degraded_serves + metrics.fallbacks \
        == requests == metrics.requests
    assert metrics.latency.count == requests
    assert 0.0 <= metrics.availability <= 1.0
    if baseline:
        assert metrics.degraded_serves == 0
        assert metrics.retries == 0 and metrics.dead_lettered == 0
