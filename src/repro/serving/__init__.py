"""Online deployment substrate (§3.5, Figure 5)."""

from repro.serving.api import (
    KnowledgeGenerator,
    ServeOutcome,
    ServeRequest,
    ServeResult,
)
from repro.serving.cache import AsyncCacheStore, CacheStats
from repro.serving.clock import SimClock
from repro.serving.cluster import ClusterConfig, CosmoCluster
from repro.serving.deployment import (
    BatchCostModel,
    CosmoService,
    DeadLetter,
    ServingMetrics,
)
from repro.serving.faults import (
    FaultInjector,
    FaultPlan,
    FlakyGenerator,
    GeneratorError,
    GeneratorFault,
    GeneratorTimeout,
)
from repro.serving.feature_store import FeatureStore
from repro.serving.router import ConsistentHashRouter
from repro.serving.resilience import (
    BreakerState,
    CircuitBreaker,
    ResilientGenerator,
)

__all__ = [
    "SimClock",
    "KnowledgeGenerator",
    "ServeOutcome",
    "ServeRequest",
    "ServeResult",
    "ConsistentHashRouter",
    "ClusterConfig",
    "CosmoCluster",
    "AsyncCacheStore",
    "CacheStats",
    "FeatureStore",
    "BatchCostModel",
    "CosmoService",
    "ServingMetrics",
    "DeadLetter",
    "FaultPlan",
    "FaultInjector",
    "FlakyGenerator",
    "GeneratorFault",
    "GeneratorError",
    "GeneratorTimeout",
    "BreakerState",
    "CircuitBreaker",
    "ResilientGenerator",
]
