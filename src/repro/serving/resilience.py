"""Retry, circuit breaking, and resilient generation for serving.

The serving stack's availability under generator faults rests on three
pieces composed by :class:`ResilientGenerator`:

* :class:`RetryPolicy` — exponential backoff with jitter under a
  per-request deadline budget;
* :class:`CircuitBreaker` — a failure-rate breaker (closed → open →
  half-open) that fails fast during sustained outages and probes its way
  back to closed;
* output validation — garbage generations (see
  :mod:`repro.serving.faults`) are rejected and retried per prompt.

Every wait — backoff between attempts, generation latency, breaker
cooldown — is charged to the :class:`~repro.serving.clock.SimClock`.
Nothing here sleeps on the wall clock, so chaos scenarios covering
simulated hours run in milliseconds and replay bit-identically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from repro.llm.interface import GenerationBatch
from repro.obs.tracing import Tracer
from repro.serving.clock import SimClock
from repro.serving.faults import GeneratorFault
from repro.utils.rng import spawn_rng

__all__ = [
    "RetryPolicy",
    "BreakerState",
    "CircuitBreaker",
    "ResilientGenerator",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter under a per-request deadline.

    Attempt ``n`` (1-based) is preceded by a backoff of
    ``min(max_backoff_s, base_backoff_s * backoff_multiplier**(n - 2))``
    spread by ``±jitter``; no attempt starts once ``deadline_s`` of
    simulated time has been spent on the request.
    """

    max_attempts: int = 4
    base_backoff_s: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 2.0
    jitter: float = 0.25
    deadline_s: float = 30.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff_s(self, retry: int, rng=None) -> float:
        """Backoff before the ``retry``-th retry (1 = first retry)."""
        if retry < 1:
            return 0.0
        raw = min(
            self.max_backoff_s,
            self.base_backoff_s * self.backoff_multiplier ** (retry - 1),
        )
        if rng is None or self.jitter == 0.0:
            return raw
        spread = self.jitter * (2.0 * float(rng.random()) - 1.0)
        return max(0.0, raw * (1.0 + spread))

    def allows(self, attempts_made: int, elapsed_s: float) -> bool:
        """Whether another attempt fits the attempt and deadline budgets."""
        return attempts_made < self.max_attempts and elapsed_s < self.deadline_s


class BreakerState(str, Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Failure-rate circuit breaker on simulated time.

    CLOSED: calls flow and outcomes enter a sliding window; once the
    window holds at least ``min_calls`` outcomes and the failure rate
    reaches ``failure_threshold``, the breaker trips OPEN.  OPEN: calls
    are refused until ``cooldown_s`` of simulated time elapses, after
    which the next :meth:`allow` moves to HALF_OPEN.  HALF_OPEN: trial
    calls are admitted; ``half_open_probes`` consecutive successes close
    the breaker, any failure re-opens it and restarts the cooldown.
    """

    def __init__(
        self,
        clock: SimClock,
        failure_threshold: float = 0.5,
        window: int = 20,
        min_calls: int = 5,
        cooldown_s: float = 120.0,
        half_open_probes: int = 2,
    ):
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        self._clock = clock
        self.failure_threshold = failure_threshold
        self.min_calls = min_calls
        self.cooldown_s = cooldown_s
        self.half_open_probes = half_open_probes
        self.state = BreakerState.CLOSED
        self.opens = 0
        self.closes = 0
        self.refusals = 0
        #: ``(simulated time, new state)`` for every transition.
        self.transitions: list[tuple[float, BreakerState]] = []
        self._outcomes: deque[bool] = deque(maxlen=window)
        self._opened_at = 0.0
        self._probe_successes = 0
        self._event_log = None
        self._event_component = "cosmo"

    # ------------------------------------------------------------------
    def attach_event_log(self, event_log, component: str = "cosmo") -> None:
        """Publish every subsequent state transition into a structured
        :class:`~repro.obs.events.EventLog` (``breaker.open`` /
        ``breaker.half-open`` / ``breaker.closed``), timestamped on this
        breaker's own clock.
        """
        self._event_log = event_log
        self._event_component = component

    # ------------------------------------------------------------------
    def _set_state(self, new: BreakerState) -> None:
        if new is self.state:
            return
        self.state = new
        self.transitions.append((self._clock.now(), new))
        if new is BreakerState.OPEN:
            self.opens += 1
        elif new is BreakerState.CLOSED:
            self.closes += 1
        if self._event_log is not None:
            self._event_log.emit(
                f"breaker.{new.value}", ts=self._clock.now(),
                component=self._event_component,
                opens=self.opens, refusals=self.refusals,
            )

    def _trip(self) -> None:
        self._opened_at = self._clock.now()
        self._outcomes.clear()
        self._set_state(BreakerState.OPEN)

    @property
    def cooling_down(self) -> bool:
        """True while the breaker is OPEN and inside its cooldown.

        Unlike :meth:`allow` this is a pure read: it neither counts a
        refusal nor transitions to HALF_OPEN, so the cluster can consult
        it when picking a failover replica without disturbing breaker
        state.  Once the cooldown elapses this turns False, making the
        replica routable again so the next real call can probe it.
        """
        return (self.state is BreakerState.OPEN
                and self._clock.now() - self._opened_at < self.cooldown_s)

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Whether a call may proceed right now."""
        if self.state is BreakerState.OPEN:
            if self._clock.now() - self._opened_at >= self.cooldown_s:
                self._probe_successes = 0
                self._set_state(BreakerState.HALF_OPEN)
                return True
            self.refusals += 1
            return False
        return True

    def record_success(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.half_open_probes:
                self._outcomes.clear()
                self._set_state(BreakerState.CLOSED)
        else:
            self._outcomes.append(True)

    def record_failure(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._trip()
            return
        self._outcomes.append(False)
        if len(self._outcomes) >= self.min_calls and self.failure_rate >= self.failure_threshold:
            self._trip()

    @property
    def failure_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return 1.0 - sum(self._outcomes) / len(self._outcomes)


def _default_validator(text: str) -> bool:
    return bool(text.strip())


class ResilientGenerator:
    """Retry + circuit breaking + output validation around any batched
    generator.

    Implements the :class:`~repro.llm.interface.KnowledgeGenerator`
    protocol: :meth:`generate_batch` returns a
    :class:`~repro.llm.interface.GenerationBatch` with per-prompt
    results so callers (the batch processor, the dead-letter redrive)
    can handle partial failure; ``latency`` is the wrapped generator's,
    and nothing else of it is forwarded.
    """

    def __init__(
        self,
        generator,
        clock: SimClock,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        validator=None,
        seed: int = 0,
        tracer=None,
    ):
        self.inner = generator
        self.clock = clock
        self.retry = retry or RetryPolicy()
        self.breaker = breaker or CircuitBreaker(clock)
        self.latency = generator.latency
        self._validate = validator or _default_validator
        self._rng = spawn_rng(seed, "resilience-jitter")
        self._tracer = tracer or Tracer()

    # ------------------------------------------------------------------
    def generate_batch(self, prompts: list[str]) -> GenerationBatch:
        """Generate with retries; failed prompts come back as ``None``.

        A call-level fault fails the whole remaining batch for that
        attempt; a rejected (garbage) generation re-enters the next
        attempt alone.  Backoffs and generation latency both advance the
        simulated clock, and the deadline budget covers their sum.
        """
        outcome = GenerationBatch(generations=[None] * len(prompts), attempts=0)
        remaining = list(range(len(prompts)))
        started = self.clock.now()
        while remaining:
            if outcome.attempts and not self.retry.allows(
                outcome.attempts, self.clock.now() - started
            ):
                break
            if not self.breaker.allow():
                outcome.breaker_refused = True
                break
            if outcome.attempts:
                with self._tracer.traced_span("resilience.backoff",
                                              retry=outcome.attempts):
                    wait = self.retry.backoff_s(outcome.attempts, self._rng)
                    self.clock.advance(wait)
                outcome.wait_s += wait
                outcome.retries += 1
            outcome.attempts += 1
            before = self.latency.total_simulated_s
            with self._tracer.traced_span("resilience.attempt",
                                          attempt=outcome.attempts,
                                          prompts=len(remaining)) as span:
                try:
                    generations = self.inner.generate_batch(
                        [prompts[i] for i in remaining]
                    ).generations
                except GeneratorFault:
                    self.clock.advance(self.latency.total_simulated_s - before)
                    outcome.errors += 1
                    self.breaker.record_failure()
                    span.set_attribute("outcome", "fault")
                    continue
                self.clock.advance(self.latency.total_simulated_s - before)
                span.set_attribute("outcome", "ok")
            self.breaker.record_success()
            still_failed = []
            for index, generation in zip(remaining, generations):
                if self._validate(generation.text):
                    outcome.generations[index] = generation
                else:
                    outcome.rejected += 1
                    still_failed.append(index)
            remaining = still_failed
        return outcome
