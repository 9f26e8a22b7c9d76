"""Serving substrate: clock, two-layer cache, feature store, service flow."""

import numpy as np
import pytest

from repro.llm.interface import Generation, GenerationBatch, LatencyModel
from repro.refresh import build_snapshot
from repro.serving import (
    AsyncCacheStore,
    CosmoService,
    FeatureStore,
    ServeRequest,
    SimClock,
)
from repro.serving.cache import PROMOTE_MIN_REQUESTS


def _handle(service, query):
    return service.serve(ServeRequest(query=query)).text


def _direct(service, query):
    return service.serve(ServeRequest(query=query, direct=True)).text


class FakeGenerator:
    """Deterministic stand-in for COSMO-LM in serving tests."""

    def __init__(self):
        self.latency = LatencyModel()
        self.parameter_count = 1_000_000
        self.calls = 0

    def generate_batch(self, prompts):
        self.calls += 1
        outputs = []
        for prompt in prompts:
            latency = self.latency.charge(self.parameter_count, 8)
            outputs.append(
                Generation(text=f"it is used for {prompt}.", tokens=8, latency_s=latency)
            )
        return GenerationBatch(generations=outputs)


# -- clock ---------------------------------------------------------------
def test_clock_advances_and_days():
    clock = SimClock()
    assert clock.day == 0
    clock.advance_days(1.5)
    assert clock.day == 1
    with pytest.raises(ValueError):
        clock.advance(-1)


# -- cache ---------------------------------------------------------------
def test_cache_layers_and_pending_queue():
    clock = SimClock()
    cache = AsyncCacheStore(clock)
    cache.preload_yearly({"hot query": "yearly answer"})
    assert cache.fetch_many(["hot query"]) == [("yearly answer", "yearly")]
    assert cache.stats.layer1_hits == 1
    assert cache.fetch_many(["cold query"]) == [None]
    assert cache.stats.misses == 1
    assert cache.pending_queries() == ["cold query"]
    cache.apply_batch({"cold query": "batched answer"})
    assert cache.fetch_many(["cold query"]) == [("batched answer", "daily")]
    assert cache.stats.layer2_hits == 1
    assert cache.pending_queries() == []


def test_daily_layer_resets_on_day_rollover():
    clock = SimClock()
    cache = AsyncCacheStore(clock)
    cache.fetch_many(["q"])
    cache.apply_batch({"q": "answer"})
    assert cache.fetch_many(["q"])[0] == ("answer", "daily")
    clock.advance_days(1)
    assert cache.fetch_many(["q"]) == [None]  # daily layer cleared


def test_daily_capacity_respected():
    cache = AsyncCacheStore(SimClock(), daily_capacity=2)
    installed = cache.apply_batch({f"q{i}": "a" for i in range(5)})
    assert installed == 2
    assert cache.fetch_many([f"q{i}" for i in range(5)]) == (
        [("a", "daily")] * 2 + [None] * 3)


def test_a_full_daily_layer_still_drains_the_miss_queue():
    """Regression: answers that found the daily layer full stayed pending,
    so every later batch run generated them again and installed nothing
    until the day rolled."""
    generator = FakeGenerator()
    service = CosmoService(generator, clock=SimClock(), daily_capacity=2)
    queries = [f"q{i}" for i in range(5)]
    for query in queries:
        _handle(service, query)
    assert service.run_batch() == 2
    assert service.cache.pending_queries() == []
    calls = generator.calls
    assert service.run_batch() == 0
    assert generator.calls == calls  # no prompt generated
    assert service.metrics.batch_queries_processed == 5
    # What did not fit is answered (degraded) from the feature store.
    assert [service.serve(ServeRequest(query=q)).source for q in queries] == (
        ["cache:daily"] * 2 + ["feature_store"] * 3)


def test_promote_frequent_moves_hot_entries_to_yearly():
    cache = AsyncCacheStore(SimClock())
    cache.fetch_many(["popular"] * 12)
    cache.apply_batch({"popular": "answer"})
    promoted = cache.promote_frequent()
    assert promoted == 1
    assert cache.fetch_many(["popular"])[0] == ("answer", "yearly")


def test_snapshot_installs_scope_the_daily_layer_to_one_version():
    """First install, re-install, swap, rollback, day rollover: what
    ``install_snapshot`` returns and which daily keys survive each step."""
    clock = SimClock()
    cache = AsyncCacheStore(clock)
    v1, v2 = {"y1": "1", "y2": "1"}, {"y1": "2", "y2": "2", "y3": "2"}

    def daily_keys():
        return [query for query in "abc"
                if (cache.fetch_many([query], enqueue=False)[0] or ("", ""))[1] == "daily"]

    cache.apply_batch({"a": "pre-snapshot"})
    assert cache.install_snapshot("v1", v1) == 1  # the version-less entry
    assert daily_keys() == []
    cache.apply_batch({"a": "1", "b": "1"})
    assert cache.install_snapshot("v1", v1) == 0  # re-install: idempotent
    assert daily_keys() == ["a", "b"]
    assert cache.install_snapshot("v2", v2) == 2 + 2  # yearly + daily of v1
    assert daily_keys() == []
    cache.apply_batch({"c": "2"})
    assert daily_keys() == ["c"]
    assert cache.install_snapshot("v1", v1) == 3 + 1  # rollback
    assert daily_keys() == [] and cache.snapshot_version == "v1"
    cache.apply_batch({"a": "1"})
    clock.advance_days(1)  # the day's entries expire before the swap counts them
    assert cache.install_snapshot("v2", v2) == 2
    assert daily_keys() == []


def test_an_installed_serving_table_is_a_private_copy():
    """Promotion writes into the yearly layer; after an install from a
    snapshot's read-only table it must reach neither that table nor the
    layer another replica installed from it.  A plain ``dict`` installs
    the same way: the same invalidation counts, the same private copy."""
    blue = build_snapshot({"y1": "1", "y2": "1"})
    green = build_snapshot({"y1": "2", "y2": "2", "y3": "2"}, parent=blue)
    first, second, plain = (AsyncCacheStore(SimClock()) for _ in range(3))
    counts = {store: [] for store in (first, second, plain)}
    for snapshot in (blue, green, blue):
        for store in (first, second):
            counts[store].append(
                store.install_snapshot(snapshot.version, snapshot.entries))
        table = dict(snapshot.entries)
        counts[plain].append(plain.install_snapshot(snapshot.version, table))
        for store in (first, plain):
            store.fetch_many(["hot"] * PROMOTE_MIN_REQUESTS)
            store.apply_batch({"hot": "answer"})
            assert store.promote_frequent() == 1
            assert store.fetch_many(["hot"])[0] == ("answer", "yearly")
        assert "hot" not in snapshot.entries and "hot" not in table
        assert second.fetch_many(["hot"], enqueue=False)[0] is None
    # The first install invalidates nothing; each swap drops the yearly
    # layer and, on the promoting stores, the promoted daily entry.
    assert counts[first] == counts[plain] == [0, 2 + 1 + 1, 3 + 1 + 1]
    assert counts[second] == [0, 2, 3]


def test_hit_rate():
    cache = AsyncCacheStore(SimClock())
    cache.preload_yearly({"a": "1"})
    cache.fetch_many(["a"])
    cache.fetch_many(["b"])
    assert cache.stats.hit_rate == pytest.approx(0.5)


# -- feature store ---------------------------------------------------------
def test_feature_store_unparseable_response():
    store = FeatureStore(SimClock())
    store.put_many([("q", "nonsense text")])  # stored as given, never parsed
    assert store.text("q") == "nonsense text"


def test_feature_store_staleness():
    clock = SimClock()
    store = FeatureStore(clock)
    store.put_many([("old", "it is used for camping.")])
    clock.advance_days(3)
    store.put_many([("fresh", "it is used for hiking.")])
    assert store.stale_keys() == ["old"]


# -- full service flow -------------------------------------------------------
def test_request_miss_then_batch_then_hit():
    generator = FakeGenerator()
    service = CosmoService(generator, fallback_response="(no knowledge yet)")
    first = _handle(service, "camping tent")
    assert first == "(no knowledge yet)"
    assert service.metrics.fallbacks == 1
    installed = service.run_batch()
    assert installed == 1
    assert len(service.features) == 1
    second = _handle(service, "camping tent")
    assert "camping tent" in second


def test_cached_latency_far_below_direct():
    generator = FakeGenerator()
    service = CosmoService(generator)
    direct = _direct(service, "q1")
    assert direct
    service.run_batch()
    _handle(service, "q1")
    # The direct call dominates the latency distribution's max; the cache
    # lookup sits at its min.
    direct_latency = service.metrics.latency.max
    cache_latency = service.metrics.latency.min
    assert cache_latency < direct_latency


def test_daily_refresh_promotes_and_refreshes():
    generator = FakeGenerator()
    service = CosmoService(generator)
    for _ in range(12):
        _handle(service, "hot")
    service.run_batch()
    service.clock.advance_days(2)  # make the feature stale
    report = service.daily_refresh()
    assert report["refreshed"] == 1
    assert service.clock.day >= 3


def test_percentiles_monotone():
    generator = FakeGenerator()
    service = CosmoService(generator)
    for i in range(20):
        _handle(service, f"q{i}")
    latency = service.metrics.latency
    assert latency.percentile(50) <= latency.percentile(99)


# -- feedback loop ------------------------------------------------------------
def test_feedback_loop_on_plain_generator_is_ignored():
    service = CosmoService(FakeGenerator())
    service.record_feedback("q", "it is used for x.", helpful=True)
    assert service.apply_feedback() == 0
    # ...and dropped, not kept for a later trainable generator.
    service.generator.classifier = type("Judge", (), {"fit": lambda *a, **k: None})()
    assert service.apply_feedback() == 0


def test_feedback_loop_finetunes_cosmo_classifier():
    from repro.behavior import WorldConfig
    from repro.core import CosmoLMConfig, CosmoPipeline, PipelineConfig

    result = CosmoPipeline(PipelineConfig(
        seed=51,
        world=WorldConfig(seed=51, products_per_domain=12,
                          broad_queries_per_domain=6, specific_queries_per_domain=6),
        cobuy_pairs_per_domain=12,
        searchbuy_records_per_domain=15,
        annotation_budget=120,
        lm=CosmoLMConfig(epochs=3, hidden_dim=48),
        expand_with_lm=False,
    )).run()
    lm = result.cosmo_lm
    service = CosmoService(lm)
    # Teach the judge that a specific knowledge string is unhelpful.
    for _ in range(30):
        service.record_feedback("some query", "it is used for zzzz", helpful=False)
    consumed = service.apply_feedback()
    assert consumed == 30
    prediction = lm.predict_typicality(
        "domain: X search query: some query type: thing task: generation",
        "it is used for zzzz",
    )
    assert prediction == "no"


def test_run_batch_respects_max_queries():
    service = CosmoService(FakeGenerator())
    for i in range(10):
        _handle(service, f"q{i}")
    installed = service.run_batch(max_queries=4)
    assert installed == 4
    assert len(service.cache.pending_queries()) == 6


def test_run_batch_with_no_pending_is_noop():
    service = CosmoService(FakeGenerator())
    assert service.run_batch() == 0
    assert service.metrics.batch_runs == 0


def test_flash_sale_staleness_mechanism():
    """Unit-level version of the §3.5.3 limitation bench."""

    class Stateful(FakeGenerator):
        mode = "before"

        def generate_batch(self, prompts):
            outs = super().generate_batch(prompts).generations
            return GenerationBatch(generations=[
                Generation(text=f"{o.text} {self.mode}", tokens=o.tokens,
                           latency_s=o.latency_s) for o in outs])

    generator = Stateful()
    service = CosmoService(generator)
    _handle(service, "deal")
    service.run_batch()
    generator.mode = "after"  # the world changed
    assert "before" in _handle(service, "deal")  # stale until refresh
    service.clock.advance_days(1)
    # Daily layer cleared: a cache miss now serves the stale feature-store
    # entry (degraded) instead of failing outright.
    degraded = _handle(service, "deal")
    assert "before" in degraded
    assert service.metrics.degraded_serves == 1
    service.run_batch()
    assert "after" in _handle(service, "deal")
