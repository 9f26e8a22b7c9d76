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
  and the replica and snapshot version that answered it.

``CosmoService.serve`` / ``CosmoService.serve_batch`` are the
entrypoints; :class:`~repro.serving.cluster.CosmoCluster` consumes only
the structured surface (``handle`` / ``handle_batch``).

The generation side of the contract is
:class:`~repro.llm.interface.KnowledgeGenerator` (re-exported here):
``generate_batch(prompts) -> GenerationBatch`` is the sole
serving-facing generator entrypoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.llm.interface import KnowledgeGenerator

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
    """

    query: str
    direct: bool = False


@dataclass(slots=True)
class ServeResult:
    """The structured answer to one :class:`ServeRequest`.

    ``latency_s`` is the simulated end-to-end latency charged for the
    request.  When a request flows through
    :class:`~repro.serving.cluster.CosmoCluster`, shard queueing delay
    is folded in, so the cluster-level number can exceed what the
    replica itself charged.  ``replica`` is the serving replica's name
    (a single :class:`~repro.serving.deployment.CosmoService` reports
    its own ``name``).  ``snapshot_version`` is the snapshot the
    replica's cache held when it answered (None before its first swap).

    The last two fields are the cluster's stamps, ``None`` on a result
    a bare :class:`~repro.serving.deployment.CosmoService` returns.
    ``trace_id`` is the id of the dispatch trace that answered the
    request (None with tracing off), so a caller holding a slow result
    can pull the matching trace out of a
    :class:`~repro.obs.trace_query.TraceAnalyzer` or a latency-histogram
    exemplar.  ``batch_index`` is the request's position in its window.

    A plain mutable record, not a frozen one: the replica builds it and
    the cluster stamps it in place, once per request.
    """

    query: str
    text: str
    outcome: ServeOutcome
    source: str
    latency_s: float
    replica: str
    snapshot_version: str | None
    trace_id: str | None = field(default=None, init=False)
    batch_index: int | None = field(default=None, init=False)

    @property
    def served(self) -> bool:
        """True when the request was answered with knowledge."""
        return self.outcome is not ServeOutcome.FALLBACK
