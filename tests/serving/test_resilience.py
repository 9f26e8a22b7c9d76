"""Retry/backoff math, circuit-breaker state machine, resilient generation."""

import pytest

from repro.llm.interface import Generation, GenerationBatch, LatencyModel
from repro.obs import EventLog
from repro.serving import (
    BreakerState,
    CircuitBreaker,
    GeneratorError,
    ResilientGenerator,
    SimClock,
)
from repro.serving.resilience import (
    BACKOFF_MULTIPLIER,
    BASE_BACKOFF_S,
    COOLDOWN_S,
    DEADLINE_S,
    FAILURE_THRESHOLD,
    HALF_OPEN_PROBES,
    JITTER,
    MAX_BACKOFF_S,
    MIN_CALLS,
    WINDOW,
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


class FailsSlowly:
    """Every call charges ``seconds`` of simulated latency, then fails."""

    def __init__(self, seconds):
        self.latency = LatencyModel()
        self.seconds = seconds
        self.calls = 0

    def generate_batch(self, prompts):
        self.calls += 1
        self.latency.charge_seconds(self.seconds)
        raise GeneratorError("slow failure")


class MidpointRng:
    """A draw at the middle of ``[0, 1)``: the jitter spread is zero."""

    def random(self):
        return 0.5


# -- retry schedule and budgets ----------------------------------------------
def test_backoff_is_exponential_and_capped():
    backoff = ResilientGenerator._backoff_s
    rng = MidpointRng()
    for retry in range(1, 5):
        assert backoff(retry, rng) == pytest.approx(
            BASE_BACKOFF_S * BACKOFF_MULTIPLIER ** (retry - 1))
    capped = next(retry for retry in range(1, 100)
                  if BASE_BACKOFF_S * BACKOFF_MULTIPLIER ** (retry - 1) >= MAX_BACKOFF_S)
    assert backoff(capped - 1, rng) < MAX_BACKOFF_S
    assert backoff(capped, rng) == pytest.approx(MAX_BACKOFF_S)
    assert backoff(capped + 10, rng) == pytest.approx(MAX_BACKOFF_S)


def test_backoff_jitter_stays_within_bounds():
    rng = spawn_rng(5, "jitter-test")
    draws = [ResilientGenerator._backoff_s(1, rng) for _ in range(100)]
    assert all(BASE_BACKOFF_S * (1 - JITTER) <= d <= BASE_BACKOFF_S * (1 + JITTER)
               for d in draws)
    assert len(set(draws)) > 1  # the draws spread


def test_deadline_and_attempt_budgets():
    resilient = ResilientGenerator(Scripted(), SimClock(), max_attempts=3)
    assert resilient._allows(1, DEADLINE_S / 2)
    assert not resilient._allows(3, DEADLINE_S / 2)   # attempts exhausted
    assert not resilient._allows(1, DEADLINE_S)       # deadline spent
    with pytest.raises(ValueError):
        ResilientGenerator(Scripted(), SimClock(), max_attempts=0)


# -- circuit breaker -------------------------------------------------------
def _trip(breaker):
    for _ in range(MIN_CALLS):
        breaker.record_failure()
    assert breaker.state is BreakerState.OPEN


def test_breaker_trips_at_failure_threshold():
    breaker = CircuitBreaker(SimClock())
    for _ in range(MIN_CALLS - 1):
        breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED  # every call failed, below MIN_CALLS
    breaker = CircuitBreaker(SimClock())
    successes = round(WINDOW * (1 - FAILURE_THRESHOLD))
    for _ in range(successes):
        breaker.record_success()
    for _ in range(WINDOW - successes - 1):
        breaker.record_failure()
    assert breaker.failure_rate < FAILURE_THRESHOLD
    assert breaker.state is BreakerState.CLOSED
    breaker.record_failure()  # the rate reaches FAILURE_THRESHOLD
    assert breaker.state is BreakerState.OPEN
    assert breaker.opens == 1
    assert not breaker.allow()
    assert breaker.refusals == 1


def test_breaker_half_open_probe_cycle():
    clock = SimClock()
    breaker = CircuitBreaker(clock)
    _trip(breaker)
    assert not breaker.allow()
    clock.advance(COOLDOWN_S)
    assert breaker.allow()
    assert breaker.state is BreakerState.HALF_OPEN
    for _ in range(HALF_OPEN_PROBES - 1):
        breaker.record_success()
    assert breaker.state is BreakerState.HALF_OPEN  # one probe short
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.closes == 1


def test_breaker_reopens_on_failed_probe():
    clock = SimClock()
    breaker = CircuitBreaker(clock)
    _trip(breaker)
    clock.advance(COOLDOWN_S)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert breaker.opens == 2
    # Cooldown restarts from the failed probe.
    clock.advance(COOLDOWN_S / 2)
    assert not breaker.allow()
    clock.advance(COOLDOWN_S / 2)
    assert breaker.allow()


def test_breaker_transitions_carry_sim_time():
    clock, log = SimClock(), EventLog()
    breaker = CircuitBreaker(clock)
    breaker.attach_event_log(log)
    clock.advance(5.0)
    _trip(breaker)
    clock.advance(COOLDOWN_S)
    breaker.allow()
    assert [(e.ts, e.kind) for e in log.events()] == [
        (5.0, "breaker.open"), (5.0 + COOLDOWN_S, "breaker.half-open")]


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
                raise GeneratorError("transient")
            return GenerationBatch(generations=[
                Generation(text=f"it is used for {p}.", tokens=8,
                           latency_s=self.latency.charge(self.parameter_count, 8))
                for p in prompts])

    clock = SimClock()
    resilient = ResilientGenerator(FailsTwice(), clock)
    outcome = resilient.generate_batch(["q"])
    assert outcome.ok
    assert outcome.attempts == 3
    assert outcome.retries == 2
    assert outcome.errors == 2
    # Both backoffs (0.05 + 0.10 s, each jittered) went on the simulated clock.
    unjittered = BASE_BACKOFF_S * (1 + BACKOFF_MULTIPLIER)
    assert unjittered * (1 - JITTER) <= outcome.wait_s <= unjittered * (1 + JITTER)
    assert clock.now() >= outcome.wait_s


def test_retries_exhausted_raises_and_deadline_is_respected():
    clock = SimClock()
    resilient = ResilientGenerator(FailsSlowly(10.0), clock, max_attempts=10)
    outcome = resilient.generate_batch(["q"])
    assert not outcome.ok
    # The deadline cuts the 10-attempt budget short: attempts start near
    # 0 s, 10 s and 20 s, and a fourth would start past DEADLINE_S.
    assert outcome.attempts == 3
    assert clock.now() - 10.0 < DEADLINE_S  # the last one started in time
    with pytest.raises(RuntimeError, match="1/1 prompts failed"):
        outcome.require()


def test_no_attempt_starts_past_the_deadline():
    """A backoff that would end at or past the deadline is not waited: the
    call ends with the attempts it made and charges no wait for nothing."""
    clock = SimClock()
    inner = FailsSlowly(DEADLINE_S - 0.01)
    outcome = ResilientGenerator(inner, clock).generate_batch(["q"])
    assert inner.calls == outcome.attempts == 1
    assert outcome.retries == 0 and outcome.wait_s == 0.0
    assert clock.now() == pytest.approx(DEADLINE_S - 0.01)


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
    resilient = ResilientGenerator(inner, SimClock())
    outcome = resilient.generate_batch(["a", "b", "c"])
    assert outcome.ok
    assert outcome.rejected == 1
    assert inner.calls == 2  # only the corrupted prompt was re-sent


def test_open_breaker_fails_fast():
    resilient = ResilientGenerator(Scripted(), SimClock())
    _trip(resilient.breaker)
    outcome = resilient.generate_batch(["q"])
    assert outcome.breaker_refused
    assert outcome.attempts == 0
    with pytest.raises(RuntimeError, match="after 0 attempts"):
        outcome.require()


def test_no_wall_clock_sleeps():
    """Retrying through seconds of simulated backoff finishes instantly.

    Every answer is rejected, so each call succeeds (the breaker stays
    closed) and the prompt is retried until the deadline ends the call."""
    import time

    clock = SimClock()
    resilient = ResilientGenerator(Scripted(), clock, max_attempts=100,
                                   validator=lambda text: False)
    started = time.monotonic()
    outcome = resilient.generate_batch(["q"])
    wall = time.monotonic() - started
    assert not outcome.ok
    assert resilient.breaker.state is BreakerState.CLOSED
    # Backoffs fill the deadline up to the last capped one that fits...
    assert DEADLINE_S - 2 * MAX_BACKOFF_S < outcome.wait_s < DEADLINE_S
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
