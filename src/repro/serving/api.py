"""Structured serving API: the request/response envelope.

The serving stack's original entrypoint was a stringly-typed
``handle_request(query) -> str``, which made it impossible for callers
(and for the cluster router) to distinguish a fresh answer from a
degraded one or a fallback without re-deriving the outcome from metric
deltas.  This module is the typed replacement (the string shims were
deprecated in favor of it and have since been removed):

* :class:`ServeRequest` — one query plus its serving mode (cached or
  direct-to-model);
* :class:`ServeOutcome` — the exhaustive request-accounting enum.  Every
  request resolves to exactly one outcome, which is why
  ``served_fresh + degraded_serves + fallbacks == requests`` holds;
* :class:`ServeResult` — the answer text plus outcome, source (which
  layer of the degradation chain produced the text), simulated latency,
  and the id of the replica that served it.

``CosmoService.serve`` / ``CosmoService.serve_batch`` are the
entrypoints; :class:`~repro.serving.cluster.CosmoCluster` consumes only
the structured surface (``handle`` / ``handle_batch``).

The generation side of the contract is
:class:`~repro.llm.interface.KnowledgeGenerator` (re-exported here):
``generate_batch(prompts) -> GenerationBatch`` is the sole
serving-facing generator entrypoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.llm.interface import KnowledgeGenerator
from repro.obs.tracing import TraceContext

__all__ = [
    "KnowledgeGenerator",
    "ServeOutcome",
    "ServeRequest",
    "ServeResult",
    "SOURCE_CACHE_YEARLY",
    "SOURCE_CACHE_DAILY",
    "SOURCE_FEATURE_STORE",
    "SOURCE_DIRECT",
    "SOURCE_FALLBACK",
]

#: ``ServeResult.source`` values, in degradation-chain order.
SOURCE_CACHE_YEARLY = "cache:yearly"
SOURCE_CACHE_DAILY = "cache:daily"
SOURCE_FEATURE_STORE = "feature_store"
SOURCE_DIRECT = "direct"
SOURCE_FALLBACK = "fallback"


class ServeOutcome(str, Enum):
    """How a request was accounted.  Exactly one per request."""

    FRESH = "fresh"          #: cache hit or successful direct generation
    DEGRADED = "degraded"    #: stale knowledge (the feature store's entry)
    FALLBACK = "fallback"    #: no knowledge available; canned response


@dataclass(frozen=True)
class ServeRequest:
    """One serving request.

    ``direct=True`` bypasses the cache and calls the model synchronously
    (the expensive comparison arm of the serving bench); the default
    cached mode serves from the two-layer cache and enqueues misses for
    batch processing.

    ``trace`` is the distributed-tracing context the request carries
    (:class:`~repro.obs.tracing.TraceContext`).  The cluster mints one
    per request (or propagates a caller-supplied one) so spans opened on
    the router, the replica, the cache and the resilience layer all join
    one trace tree; ``None`` serves the request untraced.
    """

    query: str
    direct: bool = False
    trace: TraceContext | None = None


@dataclass(frozen=True)
class ServeResult:
    """The structured answer to one :class:`ServeRequest`.

    ``latency_s`` is the simulated end-to-end latency charged for the
    request.  When a request flows through
    :meth:`~repro.serving.cluster.CosmoCluster.handle`, shard queueing
    delay is folded in, so the cluster-level number can exceed what the
    replica itself charged.  ``replica`` is the serving replica's name
    (a single :class:`~repro.serving.deployment.CosmoService` reports
    its own ``name``).

    ``trace_id`` echoes the request's trace id when it carried a
    :class:`~repro.obs.tracing.TraceContext` (None otherwise), so a
    caller holding a slow result can pull the matching trace out of a
    :class:`~repro.obs.trace_query.TraceAnalyzer` or a latency-histogram
    exemplar.

    ``batch_id`` / ``batch_index`` attribute the result to its serving
    batch: ``serve_batch`` stamps every result with the flush's batch id
    and the request's position inside it, so traces and histogram
    exemplars can locate one item's latency inside a vectorized flush.
    Both stay ``None`` on the per-item ``serve`` path.
    """

    query: str
    text: str
    outcome: ServeOutcome
    source: str
    latency_s: float
    replica: str
    trace_id: str | None = None
    batch_id: str | None = None
    batch_index: int | None = None

    @property
    def served(self) -> bool:
        """True when the request was answered with knowledge."""
        return self.outcome is not ServeOutcome.FALLBACK
