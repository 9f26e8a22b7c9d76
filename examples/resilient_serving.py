"""Fault-tolerant serving: retries, circuit breaking, graceful degradation.

Walks the resilience subsystem end to end with a deterministic scripted
generator (no pipeline training, runs in well under a second):

1. inject a mixed fault schedule into the generator and watch the retry
   policy absorb it during batch processing;
2. script a total outage — the circuit breaker opens, requests degrade to
   stale feature-store entries instead of failing, and dead-lettered
   queries are re-driven by the daily refresh;
3. recovery — half-open probes close the breaker and the cache heals.

Everything runs on the simulated clock; re-running prints identical
numbers.

Run:  python examples/resilient_serving.py
"""

from repro.serving import CosmoService, ServeRequest, SimClock
from repro.serving.chaos import ScriptedGenerator, response_ok
from repro.serving.faults import FaultInjector, FaultPlan, FlakyGenerator
from repro.serving.resilience import CircuitBreaker

QUERIES = [f"query {i:02d}" for i in range(12)]


def serve_round(service: CosmoService, label: str) -> None:
    results = service.serve_batch([ServeRequest(query=q) for q in QUERIES])
    valid = sum(
        result.text == ScriptedGenerator.knowledge_for(q)
        for q, result in zip(QUERIES, results)
    )
    metrics = service.metrics
    print(f"  {label:28s} {valid}/{len(QUERIES)} correct | "
          f"fresh {metrics.served_fresh}, degraded {metrics.degraded_serves}, "
          f"fallback {metrics.fallbacks}")


def main() -> None:
    clock = SimClock()
    injector = FaultInjector(FaultPlan.mixed(0.3), seed=42)
    flaky = FlakyGenerator(ScriptedGenerator(), injector)
    breaker = CircuitBreaker(clock, window=20, min_calls=10, cooldown_s=120.0)
    service = CosmoService(
        flaky, clock=clock, breaker=breaker,
        response_validator=response_ok, seed=42,
        fallback_response="",
    )

    print("Phase 1 — 30% mixed faults, resilience absorbing them:")
    serve_round(service, "cold cache (all misses)")
    installed = service.run_batch()
    print(f"  batch installed {installed} responses "
          f"(retries so far: {service.metrics.retries}, "
          f"rejected garbage: {service.metrics.rejected_generations})")
    serve_round(service, "warm cache")

    print("\nPhase 2 — total outage, daily layer expired:")
    injector.plan = FaultPlan(error_rate=1.0)
    clock.advance_days(1)  # daily layer expires; demand hits the generator
    serve_round(service, "outage, degraded serving")
    service.run_batch()  # retries exhaust; queries go to the dead-letter queue
    print(f"  dead-lettered queries: {service.metrics.dead_lettered} "
          f"(after {service.metrics.retries} total retries)")
    serve_round(service, "still degraded")
    service.run_batch()  # sustained failures trip the breaker
    service.run_batch()  # refused fast while the breaker is open
    print(f"  breaker state: {breaker.state.value} "
          f"(opens: {breaker.opens}, fast refusals: {breaker.refusals})")

    print("\nPhase 3 — outage over, cooldown elapses, breaker recovers:")
    injector.plan = FaultPlan()
    clock.advance(breaker.cooldown_s)
    service.run_batch()   # half-open probe succeeds
    report = service.daily_refresh(refresh_stale=False)
    print(f"  daily refresh re-drove {report['redriven']} dead letters")
    serve_round(service, "healed")
    print(f"  breaker state: {breaker.state.value} (closes: {breaker.closes})")
    print(f"\nAvailability over the whole scenario: "
          f"{service.metrics.availability:.1%} "
          f"({service.metrics.requests} requests, "
          f"{service.metrics.fallbacks} fallbacks)")


if __name__ == "__main__":
    main()
