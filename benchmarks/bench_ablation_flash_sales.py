"""The §3.5.3 limitation, measured: daily refresh vs flash sales.

The paper acknowledges that a daily model/cache refresh cannot track
time-sensitive events such as flash sales.  This bench makes the
limitation quantitative: a flash sale changes the correct response for a
set of hot queries mid-day; the cached deployment keeps serving the
pre-sale responses until the next refresh cycle, and the staleness rate
during the sale window is measured against a (hypothetical) real-time
deployment.
"""

import pytest
from conftest import publish

from repro.llm.interface import Generation, GenerationBatch, LatencyModel
from repro.reporting import Table, format_percent
from repro.serving import CosmoService, ServeRequest


class SaleAwareGenerator:
    """Generator whose correct answer changes when a flash sale starts."""

    def __init__(self):
        self.latency = LatencyModel()
        self.parameter_count = 1_000_000
        self.sale_active = False

    def generate_batch(self, prompts):
        suffix = "flash sale price" if self.sale_active else "regular price"
        outputs = []
        for prompt in prompts:
            latency = self.latency.charge(self.parameter_count, 6)
            outputs.append(Generation(text=f"it is used for {prompt} at {suffix}.",
                                      tokens=6, latency_s=latency))
        return GenerationBatch(generations=outputs)


@pytest.fixture(scope="module")
def flash_sale_run():
    generator = SaleAwareGenerator()
    service = CosmoService(generator, fallback_response="")
    queries = [f"deal query {i}" for i in range(40)]
    requests = [ServeRequest(query=query) for query in queries]

    # Morning: cold traffic, batch fills the cache with pre-sale responses.
    service.serve_batch(requests)
    service.run_batch()

    # Midday: the flash sale starts — the *correct* response changes.
    generator.sale_active = True
    stale = fresh = 0
    for _ in range(5):
        for result in service.serve_batch(requests):
            if "regular price" in result.text:
                stale += 1
            elif "flash sale" in result.text:
                fresh += 1
    sale_window_requests = stale + fresh

    # The daily refresh (next cycle) finally recomputes the features.
    service.clock.advance_days(1)
    service.serve_batch(requests)  # daily layer cleared → misses
    service.run_batch()
    post_refresh_stale = sum(
        "regular price" in result.text
        for result in service.serve_batch(requests)
    )
    return stale, sale_window_requests, post_refresh_stale, len(queries), service


def test_flash_sale_staleness(flash_sale_run):
    stale, window_requests, post_refresh_stale, n_queries, service = flash_sale_run
    staleness = stale / window_requests if window_requests else 0.0

    table = Table("§3.5.3 limitation — flash sales vs daily refresh",
                  ["Phase", "Stale responses"])
    table.add_row("During the sale (before refresh)",
                  f"{format_percent(staleness)} of {window_requests} requests")
    table.add_row("After the daily refresh", f"{post_refresh_stale} of {n_queries}")
    table.add_row("Cache hit rate overall",
                  format_percent(service.cache.stats.hit_rate))
    publish("ablation_flash_sales", table.render())

    # The limitation is real: the entire sale window is served stale...
    assert staleness > 0.95
    # ...and the daily refresh is what repairs it.
    assert post_refresh_stale == 0
