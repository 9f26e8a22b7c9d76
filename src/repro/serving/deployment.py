"""The deployed COSMO service: operational flow of §3.5.2 / Figure 5.

Ties together the model (COSMO-LM), the two-layer asynchronous cache
store and the feature store, with simulated latency accounting:

* **request handling** — queries first hit the cache; hits return at
  cache latency, misses are enqueued and fall through the degradation
  chain (stale feature-store entry → fallback);
* **batch processing** — pending queries are answered by the model in
  bulk through the resilience layer (retry + circuit breaker + output
  validation); queries that fail after a retry land in a dead-letter
  queue;
* **daily refresh** — session logs feed back into the model (the
  feedback loop), stale features are recomputed, and the dead-letter
  queue is re-driven;
* **latency accounting** — every request is charged simulated seconds so
  p50/p99, availability and the cached-vs-direct-LLM comparison are
  measurable.

Every generator call goes through the resilience layer, whose backoff
schedule and breaker are fixed (:mod:`repro.serving.resilience`).  The
baseline arm of ``benchmarks/bench_ablation_resilience.py`` turns it down
to the original happy-path service: ``max_attempts=1`` (no retries, so a
failed prompt stays queued instead of dead-lettering),
``response_validator=lambda text: True`` (no validation) and
``degraded_serving=False`` (a miss falls back without reading the
feature store).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.llm.interface import GenerationBatch
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry, counter_attribute
from repro.obs.tracing import Tracer
from repro.serving.api import (
    SOURCE_CACHE_DAILY,
    SOURCE_CACHE_YEARLY,
    SOURCE_DIRECT,
    SOURCE_FALLBACK,
    SOURCE_FEATURE_STORE,
    ServeOutcome,
    ServeRequest,
    ServeResult,
)
from repro.serving.cache import AsyncCacheStore
from repro.serving.clock import SimClock
from repro.serving.feature_store import FeatureStore
from repro.serving.resilience import CircuitBreaker, ResilientGenerator

__all__ = ["ServingMetrics", "DeadLetter", "BatchCostModel", "CosmoService"]

_CACHE_LATENCY_S = 0.002
_DEGRADED_LATENCY_S = 0.004

#: outcome → (stage span, span attribute carrying the answer's origin,
#: per-item stage latency, :class:`ServingMetrics` counter).
_STAGES = {
    ServeOutcome.FRESH: (
        "serving.cache_serve", "layer", _CACHE_LATENCY_S, "served_fresh"),
    ServeOutcome.DEGRADED: (
        "serving.degraded_serve", "source", _DEGRADED_LATENCY_S,
        "degraded_serves"),
    ServeOutcome.FALLBACK: (
        "serving.fallback_serve", None, _CACHE_LATENCY_S, "fallbacks"),
}


@dataclass(frozen=True)
class BatchCostModel:
    """Amortized simulated cost of one vectorized serving window.

    ``serve_batch`` runs one window pass whatever the cost form; the
    cost model only decides how the window is charged.  With one, a
    window of ``n`` cached requests is charged ``batch_overhead_s + n *
    item_cost_s`` *once* — every item completes together when the window
    does, which is what a real vectorized lookup costs (one dispatch,
    per-row marginal work) instead of ``n`` sequential round trips; a
    window of one pays ``batch_overhead_s + item_cost_s``.  Without one
    (the default) each item is charged its stage latency in order, so a
    window costs exactly what its items would served alone — the golden
    equivalence suite pins a window byte-identical to windows of one.
    """

    batch_overhead_s: float = 0.002
    item_cost_s: float = 0.0002

    def __post_init__(self):
        if self.batch_overhead_s < 0 or self.item_cost_s < 0:
            raise ValueError("batch costs must be non-negative")

    def window_latency_s(self, n_items: int) -> float:
        """Simulated duration of one window of ``n_items`` requests."""
        if n_items <= 0:
            return 0.0
        return self.batch_overhead_s + n_items * self.item_cost_s

#: attribute name → (metric name, help) for the integer request counters.
_COUNTER_SPECS = {
    "batch_runs": ("serving_batch_runs_total", "batch processing cycles executed"),
    "batch_queries_processed": (
        "serving_batch_queries_processed_total", "queries answered by batch runs"),
    "served_fresh": ("serving_served_fresh_total", "requests served fresh (cache or direct)"),
    "degraded_serves": ("serving_degraded_serves_total", "requests served stale (degraded)"),
    "fallbacks": ("serving_fallbacks_total", "requests answered with the fallback response"),
    "retries": ("serving_retries_total", "generator attempts beyond the first"),
    "generator_failures": ("serving_generator_failures_total", "generator call-level faults"),
    "rejected_generations": (
        "serving_rejected_generations_total", "generations rejected by output validation"),
    "dead_lettered": ("serving_dead_lettered_total", "queries moved to the dead-letter queue"),
    "redriven": ("serving_redriven_total", "dead-lettered queries recovered on redrive"),
}


class ServingMetrics:
    """Latency, throughput and availability accounting for the service.

    Every request is counted exactly once as fresh, degraded, or a
    fallback, so ``served_fresh + degraded_serves + fallbacks ==
    requests`` always holds (the chaos property tests rely on it).

    All counters are registry-backed (see :mod:`repro.obs.metrics`):
    attribute reads keep working, writes go through :meth:`add`, the
    same values are visible through the registry's exporters, and
    request latency is a streaming fixed-bucket histogram — bounded
    memory no matter how many requests the service absorbs.
    """

    def __init__(self, registry: MetricsRegistry | None = None,
                 service: str = "cosmo"):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.service = service
        labels = {"service": service}
        self._counters = {
            attr: self.registry.counter(name, help, ("service",)).labels(**labels)
            for attr, (name, help) in _COUNTER_SPECS.items()
        }
        self.latency = self.registry.histogram(
            "serving_request_latency_seconds",
            "end-to-end simulated request latency", ("service",),
        ).labels(**labels)

    def add(self, attr: str, amount: int) -> None:
        """Count ``amount`` more of ``attr`` (the one way to increment)."""
        self._counters[attr].inc(amount)

    @property
    def requests(self) -> int:
        return self.served_fresh + self.degraded_serves + self.fallbacks

    @property
    def availability(self) -> float:
        """Fraction of requests answered with knowledge (fresh or degraded)."""
        if self.requests == 0:
            return 1.0
        return (self.served_fresh + self.degraded_serves) / self.requests


for _attr in _COUNTER_SPECS:
    setattr(ServingMetrics, _attr, counter_attribute(_attr))


@dataclass
class DeadLetter:
    """One query whose batch processing exhausted its retry budget."""

    query: str
    day: int
    attempts: int
    reason: str


class CosmoService:
    """Online serving wrapper around any batched knowledge generator.

    ``generator`` must expose ``generate_batch(prompts) ->
    GenerationBatch`` and a ``latency`` :class:`LatencyModel` — both
    :class:`~repro.core.cosmo_lm.CosmoLM` and the raw teacher qualify,
    so the serving bench can compare the two deployments.

    ``batch_costs`` opts :meth:`serve_batch` into amortized window
    accounting (see :class:`BatchCostModel`); left ``None``, a window
    charges each item what it would cost served alone.

    Generator calls go through a
    :class:`~repro.serving.resilience.ResilientGenerator`
    (``max_attempts`` / ``response_validator`` configure it) guarded by
    the service's own circuit breaker, :attr:`breaker`.  With
    ``degraded_serving`` (the default) a cache miss is answered from the
    feature store's possibly stale entry before it falls back.

    Observability: pass a shared ``registry`` to aggregate several
    services into one metrics surface (children are labeled by ``name``,
    so two services never collide), and/or a ``tracer`` to collect
    stage and batch spans; by default each service gets a private registry
    and a tracer timed on its own :class:`SimClock`.
    """

    def __init__(
        self,
        generator,
        clock: SimClock | None = None,
        prompt_builder=None,
        fallback_response: str = "",
        daily_capacity: int = 10_000,
        degraded_serving: bool = True,
        max_attempts: int = 4,
        response_validator=None,
        seed: int = 0,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        event_log: EventLog | None = None,
        name: str = "cosmo",
        batch_costs: BatchCostModel | None = None,
    ):
        self.generator = generator
        self.clock = clock or SimClock()
        self._batch_costs = batch_costs
        self.name = name
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer or Tracer(clock=self.clock.now)
        self.event_log = event_log
        self._in_degraded_mode = False
        self.cache = AsyncCacheStore(
            self.clock, daily_capacity=daily_capacity,
            registry=self.registry, name=name,
        )
        self.features = FeatureStore(self.clock)
        self.metrics = ServingMetrics(registry=self.registry, service=name)
        self.dead_letters: list[DeadLetter] = []
        self._prompt_builder = prompt_builder or (lambda query: query)
        self._fallback = fallback_response
        self._feedback: list[tuple[str, str, bool]] = []
        self._degraded_serving = degraded_serving
        self._resilient = ResilientGenerator(
            generator, self.clock, max_attempts=max_attempts,
            validator=response_validator, seed=seed, tracer=self.tracer)
        #: the circuit breaker guarding every generator call
        self.breaker: CircuitBreaker = self._resilient.breaker
        if event_log is not None:
            self.breaker.attach_event_log(event_log, component=name)

    @property
    def snapshot_version(self) -> str | None:
        """The knowledge snapshot version this replica authoritatively
        serves (None until the first :meth:`swap_snapshot`)."""
        return self.cache.snapshot_version

    def swap_snapshot(self, snapshot) -> int:
        """Atomically swap this replica onto a knowledge snapshot.

        ``snapshot`` is a :class:`~repro.refresh.snapshot.KgSnapshot`
        (duck-typed here so the serving layer stays import-independent
        of the refresh package).  One step does all three moves: the
        yearly cache layer is replaced by the snapshot's serving table
        (cache warm), daily entries computed under another version are
        invalidated, and a version-aware generator (one exposing
        ``set_snapshot``) is pointed at the new content.  Returns the
        number of cache entries invalidated.
        """
        version, previous = snapshot.manifest.version, self.snapshot_version
        invalidated = self.cache.install_snapshot(version, snapshot.entries)
        set_snapshot = getattr(self.generator, "set_snapshot", None)
        if set_snapshot is not None:
            set_snapshot(snapshot)
        if self.event_log is not None:
            self.event_log.emit(
                "service.snapshot_swap", ts=self.clock.now(),
                component=self.name, version=version,
                previous=previous or "", invalidated=invalidated,
            )
        return invalidated

    # ------------------------------------------------------------------
    def serve(self, request: ServeRequest | str) -> ServeResult:
        """Serve one request: a window of one (see :meth:`serve_batch`)."""
        return self.serve_batch([request])[0]

    def serve_batch(self, requests: Sequence[ServeRequest | str],
                    allow_enqueue: bool = True) -> list[ServeResult]:
        """Serve one window of requests (or bare query strings, each a
        cached request) as a unit; the one entrypoint.

        Cached mode walks the degradation chain: fresh cache entry →
        (possibly stale) feature-store entry → fallback.  A miss is
        enqueued for batch processing (unless ``allow_enqueue`` is False
        — cluster admission control shedding load keeps the degraded
        answer but skips the queue), so degraded answers heal on the next
        batch cycle.  Direct mode bypasses the cache and calls the model
        synchronously; the cached runs between direct requests are served
        as windows of their own, so results keep request order.

        The replica opens no span of its own: while its tracer is
        attached to an upstream span (the cluster attaches each
        dispatch's root) the stage spans are this tracer's stack roots
        and hang off that span.  Each result names its cache's snapshot version;
        the cluster stamps trace and window attribution.
        """
        results: list[ServeResult] = []
        queries: list[str] = []  # the cached run since the last direct request
        for request in requests:
            if isinstance(request, str):
                queries.append(request)
            elif request.direct:
                if queries:
                    results += self._serve_window(queries, allow_enqueue)
                    queries = []
                results.append(self._note_outcome(
                    self._serve_direct(request.query)))
            else:
                queries.append(request.query)
        if not results:  # no direct request: the whole window is one run
            return self._serve_window(queries, allow_enqueue)
        if queries:
            results += self._serve_window(queries, allow_enqueue)
        return results

    def _serve_window(self, queries: list[str],
                      allow_enqueue: bool) -> list[ServeResult]:
        """The one window pass over a run of cached queries, charged as
        :class:`BatchCostModel` describes: one cache read at the window's
        start (a day boundary crossed while a sequential window is charged
        rolls the daily layer at the next window), a hit resolved in the
        loop and a miss sent down the miss chain, outcome counters tallied
        once and latency observed once per run of equal latencies."""
        if not queries:
            return []
        hits = self.cache.fetch_many(queries, enqueue=allow_enqueue)
        version = self.cache.snapshot_version
        sequential = self._batch_costs is None
        if sequential:
            run_latency, run = 0.0, 0
        else:
            latency = self._batch_costs.window_latency_s(len(queries))
            self.clock.advance(latency)
            run_latency, run = latency, len(queries)
        observe = self.metrics.latency.observe
        fresh = ServeOutcome.FRESH
        results: list[ServeResult] = []
        for query, hit in zip(queries, hits):
            if hit is None:
                text, outcome, source = self._answer(query)
            else:
                text, layer = hit
                outcome = fresh
                source = (SOURCE_CACHE_YEARLY if layer == "yearly"
                          else SOURCE_CACHE_DAILY)
            if sequential:
                latency = self._charge_stage(outcome, source, hit)
                if latency != run_latency:
                    if run:
                        observe(run_latency, count=run)
                    run_latency, run = latency, 0
                run += 1
            result = ServeResult(query, text, outcome, source, latency,
                                 self.name, version)
            if (hit is None) != self._in_degraded_mode:
                self._note_outcome(result)
            results.append(result)
        observe(run_latency, count=run)
        misses = hits.count(None)
        if misses != len(hits):
            self.metrics.add("served_fresh", len(hits) - misses)
        if misses:
            degraded = [result.outcome for result in results].count(
                ServeOutcome.DEGRADED)
            if degraded:
                self.metrics.add("degraded_serves", degraded)
            if degraded != misses:
                self.metrics.add("fallbacks", misses - degraded)
        return results

    def _note_outcome(self, result: ServeResult) -> ServeResult:
        """Publish degraded-mode *transitions* into the event log; returns
        ``result``.

        Emitting per-request outcomes would flood the bounded log, so
        only the edges are events: the first non-fresh answer after
        fresh service enters degraded mode, the first fresh answer after
        that exits it.
        """
        degraded = result.outcome is not ServeOutcome.FRESH
        if self.event_log is not None:
            if degraded and not self._in_degraded_mode:
                self.event_log.emit(
                    "service.degraded_entry", ts=self.clock.now(),
                    component=self.name, outcome=result.outcome.value,
                    source=result.source,
                )
            elif not degraded and self._in_degraded_mode:
                self.event_log.emit(
                    "service.degraded_exit", ts=self.clock.now(),
                    component=self.name, source=result.source,
                )
        self._in_degraded_mode = degraded
        return result

    def _answer(self, query: str) -> tuple[str, ServeOutcome, str]:
        """The miss chain, written once: (possibly stale) feature-store
        text (no record built) → fallback, for a cache miss and a failed
        direct call (the window pass resolves a hit itself).  Returns
        ``(text, outcome, source)``.

        The stale step is degraded serving; without it a miss goes
        straight to the fallback and the feature store is not consulted.
        """
        if self._degraded_serving:
            text = self.features.text(query)
            if text is not None:
                return text, ServeOutcome.DEGRADED, SOURCE_FEATURE_STORE
        return self._fallback, ServeOutcome.FALLBACK, SOURCE_FALLBACK

    def _charge_stage(self, outcome: ServeOutcome, source: str,
                      hit: tuple[str, str] | None) -> float:
        """Charge one item its stage latency inside its stage span (the
        sequential form); returns the latency charged."""
        span_name, origin, stage_s, _ = _STAGES[outcome]
        attributes = {} if origin is None else {
            origin: hit[1] if hit is not None else source}
        with self.tracer.traced_span(span_name, **attributes):
            self.clock.advance(stage_s)
        return stage_s

    def _serve_answer(self, query: str, since: float) -> ServeResult:
        """Answer a direct call whose generation failed from the miss
        chain: charge its stage, observe its latency — everything the
        clock was charged since ``since`` — and count its outcome."""
        text, outcome, source = self._answer(query)
        self._charge_stage(outcome, source, None)
        latency = self.clock.now() - since
        self.metrics.latency.observe(latency)
        self.metrics.add(_STAGES[outcome][3], 1)
        return ServeResult(query, text, outcome, source, latency, self.name,
                           self.cache.snapshot_version)

    def _generate(self, prompts: list[str]) -> GenerationBatch:
        """Batch-side generation: call the generator through the
        resilience layer and fold what the call cost (retries, faults,
        rejections) into metrics."""
        outcome = self._resilient.generate_batch(prompts)
        self.metrics.add("retries", outcome.retries)
        self.metrics.add("generator_failures", outcome.errors)
        self.metrics.add("rejected_generations", outcome.rejected)
        return outcome

    def _install(self, answers: list[tuple[str, str]]) -> int:
        """Write fresh ``(query, text)`` answers through both layers that
        serve them — two bulk writes per window (the feature store, where
        degraded serving reads; the daily cache); returns how many the
        cache installed."""
        self.features.put_many(answers)
        return self.cache.apply_batch(dict(answers))

    def _serve_direct(self, query: str) -> ServeResult:
        """Bypass the cache and call the model synchronously.

        The comparison point for the serving bench: this is what serving
        the teacher LLM per-request would cost.  The call is
        retried/breaker-guarded like a batch (its ``resilience.attempt``
        / ``resilience.backoff`` spans are the generation stage), and a
        failure falls through the same answer chain as a cache miss,
        counted as one generator failure per failed request.
        """
        clock_before = self.clock.now()
        generation = self._resilient.generate_batch(
            [self._prompt_builder(query)]).generations[0]
        latency = self.clock.now() - clock_before
        if generation is None:
            self.metrics.add("generator_failures", 1)
            return self._serve_answer(query, clock_before)
        self.metrics.latency.observe(latency)
        self.metrics.add("served_fresh", 1)
        # Write through so later cached requests hit immediately.
        self._install([(query, generation.text)])
        return ServeResult(query, generation.text, ServeOutcome.FRESH,
                           SOURCE_DIRECT, latency, self.name,
                           self.cache.snapshot_version)

    # ------------------------------------------------------------------
    def run_batch(self, max_queries: int | None = None) -> int:
        """Process pending queries in bulk and install responses.

        Failed prompts are retried per the policy; prompts that still
        fail after a retry move to the dead-letter queue (re-driven by
        :meth:`daily_refresh`).  When the circuit breaker refuses the
        batch, or the policy allows no retry, failed queries simply stay
        pending for the next cycle.
        """
        pending = self.cache.pending_queries()
        if max_queries is not None:
            pending = pending[:max_queries]
        if not pending:
            return 0
        with self.tracer.span("serving.run_batch", service=self.name,
                              pending=len(pending)) as span:
            installed = self._run_batch(pending)
            span.set_attribute("installed", installed)
        return installed

    def _run_batch(self, pending: list[str]) -> int:
        self.metrics.add("batch_runs", 1)
        outcome = self._generate(
            [self._prompt_builder(query) for query in pending])
        answers = [(query, generation.text)
                   for query, generation in zip(pending, outcome.generations)
                   if generation is not None]
        failed = [pending[i] for i in outcome.failed_indices]
        if failed and outcome.retries and not outcome.breaker_refused:
            for query in failed:
                self._dead_letter(query, outcome.attempts, "retries exhausted")
            self.cache.drop_pending(failed)
            if self.event_log is not None:
                self.event_log.emit(
                    "service.dead_letter", ts=self.clock.now(),
                    component=self.name, count=len(failed),
                    attempts=outcome.attempts,
                )
        installed = self._install(answers)
        self.metrics.add("batch_queries_processed", len(answers))
        return installed

    def _dead_letter(self, query: str, attempts: int, reason: str) -> None:
        self.dead_letters.append(
            DeadLetter(query=query, day=self.clock.day, attempts=attempts, reason=reason)
        )
        self.metrics.add("dead_lettered", 1)

    def redrive_dead_letters(self) -> int:
        """Retry every dead-lettered query once more; successes install,
        failures go back on the queue with their attempt count bumped.

        :meth:`daily_refresh` re-drives at end of day as usual; the
        rollout controller calls this directly after a rollback so
        queries dead-lettered against a bad snapshot heal on the
        restored one instead of waiting for the day boundary.
        """
        if not self.dead_letters:
            return 0
        letters, self.dead_letters = self.dead_letters, []
        outcome = self._generate(
            [self._prompt_builder(letter.query) for letter in letters])
        answers = []
        for letter, generation in zip(letters, outcome.generations):
            if generation is None:
                self.dead_letters.append(
                    DeadLetter(letter.query, self.clock.day,
                               letter.attempts + 1, letter.reason)
                )
            else:
                answers.append((letter.query, generation.text))
        redriven = len(answers)
        self._install(answers)
        self.metrics.add("redriven", redriven)
        if self.event_log is not None:
            self.event_log.emit(
                "service.redrive", ts=self.clock.now(), component=self.name,
                redriven=redriven, requeued=len(self.dead_letters),
            )
        return redriven

    # ------------------------------------------------------------------
    # Feedback loop (§3.5.2): user interactions flow back into the model.
    # ------------------------------------------------------------------
    def record_feedback(self, query: str, knowledge: str, helpful: bool) -> None:
        """Log one user interaction with served knowledge."""
        self._feedback.append((query, knowledge, helpful))

    def apply_feedback(self) -> int:
        """Continually finetune the model's typicality judge on logged
        interactions (one epoch); returns the number of examples consumed.

        Requires the generator to expose a trainable ``classifier`` (the
        :class:`~repro.core.cosmo_lm.CosmoLM` interface); other
        generators simply ignore feedback.
        """
        if not self._feedback:
            return 0
        classifier = getattr(self.generator, "classifier", None)
        if classifier is None or not hasattr(classifier, "fit"):
            self._feedback.clear()
            return 0
        pairs = []
        for query, knowledge, helpful in self._feedback:
            prompt = (f"{self._prompt_builder(query).rsplit(' task: ', 1)[0]} "
                      f"knowledge: {knowledge.rstrip('.')} task: typicality")
            pairs.append((prompt, "yes" if helpful else "no"))
        classifier.fit(pairs, epochs=1)
        consumed = len(self._feedback)
        self._feedback.clear()
        return consumed

    def daily_refresh(self, refresh_stale: bool = True) -> dict[str, int]:
        """End-of-day maintenance: promote hot entries, re-drive the
        dead-letter queue, refresh stale features, advance the clock to
        the next day."""
        promoted = self.cache.promote_frequent()
        self.apply_feedback()
        redriven = self.redrive_dead_letters()
        refreshed = 0
        stale = self.features.stale_keys() if refresh_stale else []
        if stale:
            outcome = self._generate(
                [self._prompt_builder(key) for key in stale])
            # A failed generation keeps its stale entry; better than nothing.
            fresh = [(key, generation.text)
                     for key, generation in zip(stale, outcome.generations)
                     if generation is not None]
            self.features.put_many(fresh)
            refreshed = len(fresh)
        # The refresh runs at end of day: sleep to the next day boundary
        # so every simulated day starts at exactly day * SECONDS_PER_DAY
        # regardless of how much request latency accumulated during it.
        self.clock.sleep_until(self.clock.next_day_start())
        return {"promoted": promoted, "refreshed": refreshed, "redriven": redriven}
