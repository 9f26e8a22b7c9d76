"""Retry, circuit breaking, and resilient generation for serving.

The serving stack's availability under generator faults rests on three
pieces composed by :class:`ResilientGenerator`:

* retries — exponential backoff with jitter under a per-request deadline
  budget;
* :class:`CircuitBreaker` — a failure-rate breaker (closed → open →
  half-open) that fails fast during sustained outages and probes its way
  back to closed;
* output validation — garbage generations (see
  :mod:`repro.serving.faults`) are rejected and retried per prompt.

The policy is fixed: the backoff schedule and the breaker's thresholds
are the module constants below, and the one setting is the attempt
budget, ``max_attempts``.  Every wait — backoff between attempts,
generation latency, breaker cooldown — is charged to the
:class:`~repro.serving.clock.SimClock`.  Nothing here sleeps on the wall
clock, so chaos scenarios covering simulated hours run in milliseconds
and replay bit-identically.
"""

from __future__ import annotations

from collections import deque
from enum import Enum

from repro.llm.interface import GenerationBatch
from repro.obs.tracing import Tracer
from repro.serving.clock import SimClock
from repro.serving.faults import GeneratorFault
from repro.utils.rng import spawn_rng

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "ResilientGenerator",
]

#: The backoff before retry ``n`` (1 = first retry) is
#: ``min(MAX_BACKOFF_S, BASE_BACKOFF_S * BACKOFF_MULTIPLIER**(n - 1))``
#: spread by ``±JITTER``; no backoff ends, and no attempt starts, once
#: ``DEADLINE_S`` of simulated time has been spent on the request.
BASE_BACKOFF_S = 0.05
BACKOFF_MULTIPLIER = 2.0
MAX_BACKOFF_S = 2.0
JITTER = 0.25
DEADLINE_S = 30.0

#: A closed breaker trips once its last ``WINDOW`` outcomes number at
#: least ``MIN_CALLS`` and fail at ``FAILURE_THRESHOLD`` or more; it then
#: refuses calls for ``COOLDOWN_S``, and ``HALF_OPEN_PROBES`` successful
#: probes close it again.
FAILURE_THRESHOLD = 0.5
WINDOW = 20
MIN_CALLS = 5
COOLDOWN_S = 120.0
HALF_OPEN_PROBES = 2


class BreakerState(str, Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Failure-rate circuit breaker on simulated time.

    CLOSED: calls flow and outcomes enter a sliding window of ``WINDOW``;
    once the window holds at least ``MIN_CALLS`` outcomes and the failure
    rate reaches ``FAILURE_THRESHOLD``, the breaker trips OPEN.  OPEN:
    calls are refused until ``COOLDOWN_S`` of simulated time elapses,
    after which the next :meth:`allow` moves to HALF_OPEN.  HALF_OPEN:
    trial calls are admitted; ``HALF_OPEN_PROBES`` consecutive successes
    close the breaker, any failure re-opens it and restarts the cooldown.
    """

    def __init__(self, clock: SimClock):
        self._clock = clock
        self.state = BreakerState.CLOSED
        self.opens = 0
        self.closes = 0
        self.refusals = 0
        self._outcomes: deque[bool] = deque(maxlen=WINDOW)
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

    def cooling_down_at(self, now: float) -> bool:
        """True while the breaker is OPEN and ``now`` is inside its
        cooldown.

        Unlike :meth:`allow` this is a pure read: it neither counts a
        refusal nor transitions to HALF_OPEN, so the cluster can consult
        it when picking a failover replica without disturbing breaker
        state.  ``now`` is the time a call would reach the breaker, which
        can be later than the breaker's own clock: a replica's clock
        stands still while all its traffic fails over, so a cooldown read
        on it alone would never end.  Once the cooldown elapses this
        turns False, making the replica routable again so the next real
        call can probe it.
        """
        return (self.state is BreakerState.OPEN
                and now - self._opened_at < COOLDOWN_S)

    @property
    def cooling_down(self) -> bool:
        """:meth:`cooling_down_at` on the breaker's own clock."""
        return self.cooling_down_at(self._clock.now())

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Whether a call may proceed right now."""
        if self.state is BreakerState.OPEN:
            if self.cooling_down:
                self.refusals += 1
                return False
            self._probe_successes = 0
            self._set_state(BreakerState.HALF_OPEN)
        return True

    def record_success(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= HALF_OPEN_PROBES:
                self._outcomes.clear()
                self._set_state(BreakerState.CLOSED)
        else:
            self._outcomes.append(True)

    def record_failure(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._trip()
            return
        self._outcomes.append(False)
        if len(self._outcomes) >= MIN_CALLS and self.failure_rate >= FAILURE_THRESHOLD:
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
    and nothing else of it is forwarded.  A call makes at most
    ``max_attempts`` attempts.
    """

    def __init__(
        self,
        generator,
        clock: SimClock,
        max_attempts: int = 4,
        validator=None,
        seed: int = 0,
        tracer=None,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.inner = generator
        self.clock = clock
        self.max_attempts = max_attempts
        self.breaker = CircuitBreaker(clock)
        self.latency = generator.latency
        self._validate = validator or _default_validator
        self._rng = spawn_rng(seed, "resilience-jitter")
        self._tracer = tracer or Tracer()

    # ------------------------------------------------------------------
    @staticmethod
    def _backoff_s(retry: int, rng) -> float:
        """Backoff before the ``retry``-th retry (1 = first retry),
        jittered by one draw of ``rng``."""
        raw = min(MAX_BACKOFF_S, BASE_BACKOFF_S * BACKOFF_MULTIPLIER ** (retry - 1))
        spread = JITTER * (2.0 * float(rng.random()) - 1.0)
        return max(0.0, raw * (1.0 + spread))

    def _allows(self, attempts_made: int, elapsed_s: float) -> bool:
        """Whether another attempt fits the attempt and deadline budgets."""
        return attempts_made < self.max_attempts and elapsed_s < DEADLINE_S

    def generate_batch(self, prompts: list[str]) -> GenerationBatch:
        """Generate with retries; failed prompts come back as ``None``.

        A call-level fault fails the whole remaining batch for that
        attempt; a rejected (garbage) generation re-enters the next
        attempt alone.  Backoffs and generation latency both advance the
        simulated clock, and the deadline budget covers their sum: a
        backoff that would end at or past ``DEADLINE_S`` is not waited,
        and the call ends there.
        """
        outcome = GenerationBatch(generations=[None] * len(prompts), attempts=0)
        remaining = list(range(len(prompts)))
        started = self.clock.now()
        while remaining:
            if outcome.attempts and not self._allows(
                outcome.attempts, self.clock.now() - started
            ):
                break
            if not self.breaker.allow():
                outcome.breaker_refused = True
                break
            if outcome.attempts:
                wait = self._backoff_s(outcome.attempts, self._rng)
                if self.clock.now() - started + wait >= DEADLINE_S:
                    break
                with self._tracer.traced_span("resilience.backoff",
                                              retry=outcome.attempts):
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
