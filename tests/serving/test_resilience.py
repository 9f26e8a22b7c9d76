"""Retry/backoff math, circuit-breaker state machine, resilient generation."""

import pytest

from repro.llm.interface import Generation, GenerationBatch, LatencyModel
from repro.serving import (
    BreakerState,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FlakyGenerator,
    ResilientGenerator,
    RetryPolicy,
    SimClock,
)
from repro.utils.rng import spawn_rng


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


def _flaky(plan, seed=0):
    return FlakyGenerator(Scripted(), FaultInjector(plan, seed=seed))


# -- retry policy ----------------------------------------------------------
def test_backoff_is_exponential_and_capped():
    policy = RetryPolicy(base_backoff_s=0.05, backoff_multiplier=2.0,
                         max_backoff_s=0.3, jitter=0.0)
    assert policy.backoff_s(1) == pytest.approx(0.05)
    assert policy.backoff_s(2) == pytest.approx(0.10)
    assert policy.backoff_s(3) == pytest.approx(0.20)
    assert policy.backoff_s(4) == pytest.approx(0.30)  # capped
    assert policy.backoff_s(9) == pytest.approx(0.30)


def test_backoff_jitter_stays_within_bounds():
    policy = RetryPolicy(base_backoff_s=0.1, jitter=0.25)
    rng = spawn_rng(5, "jitter-test")
    for _ in range(100):
        backoff = policy.backoff_s(1, rng)
        assert 0.075 <= backoff <= 0.125


def test_deadline_and_attempt_budgets():
    policy = RetryPolicy(max_attempts=3, deadline_s=1.0)
    assert policy.allows(1, 0.5)
    assert not policy.allows(3, 0.5)   # attempts exhausted
    assert not policy.allows(1, 1.0)   # deadline spent
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)


# -- circuit breaker -------------------------------------------------------
def test_breaker_trips_at_failure_threshold():
    clock = SimClock()
    breaker = CircuitBreaker(clock, failure_threshold=0.5, window=10, min_calls=4)
    for _ in range(2):
        breaker.record_success()
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED  # 1/3 failures, below min_calls
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN    # 2/4 >= 0.5
    assert breaker.opens == 1
    assert not breaker.allow()
    assert breaker.refusals == 1


def test_breaker_half_open_probe_cycle():
    clock = SimClock()
    breaker = CircuitBreaker(clock, failure_threshold=0.5, window=4, min_calls=2,
                             cooldown_s=60.0, half_open_probes=2)
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert not breaker.allow()
    clock.advance(60.0)
    assert breaker.allow()
    assert breaker.state is BreakerState.HALF_OPEN
    breaker.record_success()
    assert breaker.state is BreakerState.HALF_OPEN  # one probe is not enough
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.closes == 1


def test_breaker_reopens_on_failed_probe():
    clock = SimClock()
    breaker = CircuitBreaker(clock, failure_threshold=0.5, window=4, min_calls=2,
                             cooldown_s=60.0)
    breaker.record_failure()
    breaker.record_failure()
    clock.advance(60.0)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert breaker.opens == 2
    # Cooldown restarts from the failed probe.
    clock.advance(30.0)
    assert not breaker.allow()
    clock.advance(30.0)
    assert breaker.allow()


def test_breaker_transitions_carry_sim_time():
    clock = SimClock()
    breaker = CircuitBreaker(clock, window=4, min_calls=2, cooldown_s=10.0)
    clock.advance(5.0)
    breaker.record_failure()
    breaker.record_failure()
    clock.advance(10.0)
    breaker.allow()
    assert [(t, s) for t, s in breaker.transitions] == [
        (5.0, BreakerState.OPEN), (15.0, BreakerState.HALF_OPEN)]


# -- resilient generator ---------------------------------------------------
def test_retries_recover_from_transient_errors():
    class FailsTwice:
        parameter_count = 1_000_000

        def __init__(self):
            self.latency = LatencyModel()
            self.calls = 0

        def generate_batch(self, prompts):
            self.calls += 1
            if self.calls <= 2:
                from repro.serving import GeneratorError
                raise GeneratorError("transient")
            return GenerationBatch(generations=[
                Generation(text=f"it is used for {p}.", tokens=8,
                           latency_s=self.latency.charge(self.parameter_count, 8))
                for p in prompts])

    clock = SimClock()
    policy = RetryPolicy(max_attempts=4, base_backoff_s=0.05,
                         backoff_multiplier=2.0, jitter=0.0)
    resilient = ResilientGenerator(FailsTwice(), clock, retry=policy)
    outcome = resilient.generate_batch(["q"])
    assert outcome.ok
    assert outcome.attempts == 3
    assert outcome.retries == 2
    assert outcome.errors == 2
    # Both backoffs (0.05 + 0.10) were charged to the simulated clock.
    assert outcome.wait_s == pytest.approx(0.15)
    assert clock.now() >= 0.15


def test_retries_exhausted_raises_and_deadline_is_respected():
    clock = SimClock()
    policy = RetryPolicy(max_attempts=10, deadline_s=4.0, base_backoff_s=2.0,
                         max_backoff_s=2.0, jitter=0.0)
    resilient = ResilientGenerator(
        _flaky(FaultPlan(error_rate=1.0)), clock, retry=policy)
    outcome = resilient.generate_batch(["q"])
    assert not outcome.ok
    # Deadline (4s) cuts the 10-attempt budget short: 2s backoff per retry.
    assert outcome.attempts < 10
    with pytest.raises(RuntimeError, match="1/1 prompts failed"):
        outcome.require()


def test_garbage_generations_are_retried_per_prompt():
    class GarbageOnce:
        parameter_count = 1_000_000

        def __init__(self):
            self.latency = LatencyModel()
            self.calls = 0

        def generate_batch(self, prompts):
            self.calls += 1
            texts = [f"it is used for {p}." for p in prompts]
            if self.calls == 1:
                texts = ["" for _ in prompts[:1]] + texts[1:]
            self.latency.charge(self.parameter_count, 8)
            return GenerationBatch(generations=[
                Generation(text=t, tokens=8, latency_s=0.0) for t in texts])

    inner = GarbageOnce()
    resilient = ResilientGenerator(inner, SimClock(),
                                   retry=RetryPolicy(jitter=0.0))
    outcome = resilient.generate_batch(["a", "b", "c"])
    assert outcome.ok
    assert outcome.rejected == 1
    assert inner.calls == 2  # only the corrupted prompt was re-sent


def test_open_breaker_fails_fast():
    clock = SimClock()
    breaker = CircuitBreaker(clock, window=4, min_calls=2, cooldown_s=1000.0)
    breaker.record_failure()
    breaker.record_failure()
    resilient = ResilientGenerator(Scripted(), clock, breaker=breaker)
    outcome = resilient.generate_batch(["q"])
    assert outcome.breaker_refused
    assert outcome.attempts == 0
    with pytest.raises(RuntimeError, match="after 0 attempts"):
        outcome.require()


def test_no_wall_clock_sleeps():
    """Retrying through seconds of simulated backoff finishes instantly."""
    import time

    clock = SimClock()
    policy = RetryPolicy(max_attempts=6, base_backoff_s=2.0, max_backoff_s=60.0,
                         deadline_s=1e9, jitter=0.0)
    resilient = ResilientGenerator(
        _flaky(FaultPlan(error_rate=1.0)), clock, retry=policy,
        breaker=CircuitBreaker(clock, min_calls=100))
    started = time.monotonic()
    outcome = resilient.generate_batch(["q"])
    wall = time.monotonic() - started
    assert not outcome.ok
    assert outcome.wait_s > 60.0   # over a simulated minute of backoff
    assert wall < 1.0              # ...in well under a wall-clock second


def test_latency_is_the_wrapped_generators():
    inner = Scripted()
    resilient = ResilientGenerator(inner, SimClock())
    assert resilient.latency is inner.latency


def test_nothing_but_latency_is_read_through_to_the_wrapped_generator():
    inner = Scripted()
    resilient = ResilientGenerator(inner, SimClock())
    for name in ("parameter_count", "set_snapshot", "classifier"):
        assert not hasattr(resilient, name)
