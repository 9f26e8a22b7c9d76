"""Fault-tolerant serving: retries, circuit breaking, graceful degradation.

Walks the resilience subsystem end to end with a deterministic scripted
generator (no pipeline training, runs in well under a second):

1. inject a mixed fault schedule into the generator and watch the retry
   policy absorb it during batch processing;
2. script a total outage — the circuit breaker opens and refuses calls
   fast, and requests degrade to stale feature-store entries instead of
   failing;
3. the generator comes back answering garbage — half-open probes succeed
   and close the breaker, but output validation rejects every answer, so
   the queries exhaust their retries and are dead-lettered;
4. recovery — the daily refresh re-drives the dead letters and the cache
   heals.

Everything runs on the simulated clock; re-running prints identical
numbers.

Run:  python examples/resilient_serving.py
"""

from repro.serving import CosmoService, ServeRequest, SimClock
from repro.serving.chaos import ScriptedGenerator, response_ok
from repro.serving.faults import FaultInjector, FaultPlan, FlakyGenerator
from repro.serving.resilience import COOLDOWN_S

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
    service = CosmoService(
        flaky, clock=clock, response_validator=response_ok, seed=42,
        fallback_response="",
    )
    breaker = service.breaker

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
    service.run_batch()  # failed attempts trip the breaker; queries stay queued
    service.run_batch()  # refused fast while the breaker is open
    print(f"  breaker state: {breaker.state.value} "
          f"(opens: {breaker.opens}, fast refusals: {breaker.refusals}, "
          f"still queued: {service.cache.pending_size})")
    serve_round(service, "still degraded")

    print("\nPhase 3 — cooldown elapses, generator back but answering garbage:")
    injector.plan = FaultPlan(garbage_rate=1.0)
    clock.advance(COOLDOWN_S)
    service.run_batch()  # probes succeed, validation rejects every answer
    print(f"  breaker state: {breaker.state.value} (closes: {breaker.closes})")
    print(f"  dead-lettered queries: {service.metrics.dead_lettered} "
          f"(after {service.metrics.retries} total retries, "
          f"rejected garbage: {service.metrics.rejected_generations})")

    print("\nPhase 4 — generator healthy, daily refresh heals:")
    injector.plan = FaultPlan()
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
