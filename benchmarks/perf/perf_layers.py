"""Per-layer spans recorded from outside the program.

The traced run wraps the public callables of each layer — as class
attributes (module attributes for functions), in the worker process only
and only for the traced repetitions — and records name, start, end and
parent of every call into an in-memory list.  A layer's **self time** is
its spans' duration minus the part their child spans cover, so the self
times of one slice of work partition the time spent inside its ingress
calls.  Spans inside ``src/repro`` itself are a later change.

A target that a later refactor removes is skipped (its metrics read 0),
so the benchmark keeps running when a layer is folded into another.
"""

from __future__ import annotations

import functools
import importlib

from repro.obs.timebase import wall_now

#: op (metric prefix) → (module, owner class or None for a module-level
#: function, attribute).  Module-level functions are wrapped in the
#: namespace that *calls* them: ``refresh.quality`` imports
#: ``compute_kg_health`` and ``evaluate_drift`` by name, so that binding
#: is the one the gate resolves.
TARGETS: dict[str, tuple[str, str | None, str]] = {
    "serving.cluster.handle_batch": ("repro.serving.cluster", "CosmoCluster", "handle_batch"),
    "serving.cluster.handle": ("repro.serving.cluster", "CosmoCluster", "handle"),
    "serving.cluster.flush": ("repro.serving.cluster", "CosmoCluster", "flush"),
    "serving.router.preference": ("repro.serving.router", "ConsistentHashRouter", "preference"),
    "serving.router.route": ("repro.serving.router", "ConsistentHashRouter", "route"),
    "serving.deployment.serve_batch": ("repro.serving.deployment", "CosmoService", "serve_batch"),
    "serving.deployment.serve": ("repro.serving.deployment", "CosmoService", "serve"),
    "serving.deployment.run_batch": ("repro.serving.deployment", "CosmoService", "run_batch"),
    "serving.deployment.swap_snapshot": ("repro.serving.deployment", "CosmoService", "swap_snapshot"),
    "serving.cache.fetch_many": ("repro.serving.cache", "AsyncCacheStore", "fetch_many"),
    "serving.cache.fetch": ("repro.serving.cache", "AsyncCacheStore", "fetch"),
    "serving.cache.apply_batch": ("repro.serving.cache", "AsyncCacheStore", "apply_batch"),
    "serving.cache.install_snapshot": ("repro.serving.cache", "AsyncCacheStore", "install_snapshot"),
    "serving.cache.preload_yearly": ("repro.serving.cache", "AsyncCacheStore", "preload_yearly"),
    "serving.feature_store.put": ("repro.serving.feature_store", "FeatureStore", "put"),
    "serving.feature_store.get": ("repro.serving.feature_store", "FeatureStore", "get"),
    "serving.resilience.generate_batch": ("repro.serving.resilience", "ResilientGenerator", "generate_batch"),
    "generator.generate_batch": ("perf_workloads", "CountingGenerator", "generate_batch"),
    "obs.metrics.observe": ("repro.obs.metrics", "Histogram", "observe"),
    "obs.metrics.inc": ("repro.obs.metrics", "Counter", "inc"),
    "obs.metrics.labels": ("repro.obs.metrics", "MetricFamily", "labels"),
    "obs.tracing.span": ("repro.obs.tracing", "Tracer", "span"),
    "obs.tracing.span_close": ("repro.obs.tracing", "Span", "__exit__"),
    "obs.tracing.attach": ("repro.obs.tracing", "Tracer", "attach"),
    "obs.sampling.finish": ("repro.obs.sampling", "TailSampler", "finish"),
    "core.kg.extend": ("repro.core.kg", "KnowledgeGraph", "extend"),
    "core.kg.triples": ("repro.core.kg", "KnowledgeGraph", "triples"),
    "core.kg.columns": ("repro.core.kg", "KnowledgeGraph", "columns"),
    "core.kg.neighbors": ("repro.core.kg", "KnowledgeGraph", "neighbors"),
    "core.kg_io.save": ("repro.core.kg_io", None, "save_kg_columnar"),
    "core.kg_io.load": ("repro.core.kg_io", None, "load_kg_columnar"),
    "refresh.snapshot.build": ("repro.refresh.snapshot", None, "build_snapshot"),
    "refresh.snapshot.digest": ("repro.refresh.snapshot", None, "columnar_digest"),
    "refresh.quality.assess": ("repro.refresh.quality", "SnapshotQualityGate", "assess"),
    "refresh.quality.snapshot_health": ("repro.refresh.quality", None, "snapshot_health"),
    "refresh.quality.edge_keys": ("repro.refresh.quality", None, "edge_keys"),
    "obs.kg_health.compute": ("repro.refresh.quality", None, "compute_kg_health"),
    "obs.drift.evaluate": ("repro.refresh.quality", None, "evaluate_drift"),
}


class SpanLog:
    """Spans of the current slice of work, folded into per-op self time."""

    def __init__(self):
        #: ``[op, start, end, parent index]``; a span is appended when it
        #: opens, so a parent always precedes its children.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, op: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [op, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = wall_now()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = wall_now()
                stack.pop()

        return wrapper

    def install(self) -> None:
        for op, (module_name, class_name, attr) in TARGETS.items():
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            setattr(owner, attr, self.wrap(op, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def fold(self) -> tuple[dict[str, list[float]], float]:
        """``({op: [self seconds, calls]}, seconds inside top-level
        spans)`` for the spans recorded since the last fold."""
        spans = self.spans
        folded: dict[str, list[float]] = {}
        covered = 0.0
        for op, start, end, parent in spans:
            duration = end - start
            entry = folded.get(op)
            if entry is None:
                entry = folded[op] = [0.0, 0]
            entry[0] += duration
            entry[1] += 1
            if parent < 0:
                covered += duration
            else:
                folded[spans[parent][0]][0] -= duration
        spans.clear()
        return folded, covered
