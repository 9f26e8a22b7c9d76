"""Tracing overhead: what the per-request span tree costs.

Drives identical Zipf traffic through two clusters — one with
``trace_requests=False`` (the bare path) and one with full request
tracing plus a tail sampler attached — and checks the tracing contract
from DESIGN.md §9: tracing *observes* the request path without steering
it, so both arms must produce identical accounting (request totals,
availability, per-outcome counts), and the traced drive must stay
within 1.8x of the bare one — the measured ratio, not a target: ten
runs read 1.17–1.60x, 1.41x at the median (EXPERIMENTS.md, "Tracing
cheap enough to leave on"; 0.99–1.60x, median 1.51x, before a traced
dispatch paid once for its trace); the span tree — two spans per direct
request — costs 6–16 us per direct request (12 at the median, 15
before), and every PR that made the bare path cheaper raised the ratio.

The drive uses *direct* (synchronous-generation) requests — the
representative expensive path: prompt build, resilient generator call,
structuring, write-through.  The cache-hit path is a hash lookup a few
microseconds long, so a multiplicative bound there would measure
Python object-allocation floors, not tracing design.

The wall-clock bound is *paired*: each repetition drives the bare and
traced clusters back-to-back and the assert takes the best repetition's
``traced - 1.8 * bare`` excess, with no absolute floor to fall back
on.  Comparing within a pair is what makes the bound stable on a shared
machine — load swings inflate both arms of a pair together and cancel
in the excess, whereas independent minima can come from different noise
windows and compare a quiet bare run against a busy traced one.  The
structural equalities are exact and deterministic.
"""

import gc

from conftest import publish

from repro.obs import TailSampler, TraceAnalyzer, wall_now
from repro.reporting import Table
from repro.scenarios import zipf_traffic
from repro.serving import ClusterConfig, CosmoCluster, ServeRequest
from repro.serving.chaos import ScriptedGenerator
from repro.utils.rng import spawn_rng

N_REQUESTS = 3000
N_QUERIES = 200
INTER_ARRIVAL_S = 0.002
BEST_OF = 5
MAX_OVERHEAD_RATIO = 1.8
QUERIES = [f"query {i:03d}" for i in range(N_QUERIES)]


def _build(traced: bool):
    sampler = TailSampler(slowest_k=3, window_s=1.0, head_every=100) if traced else None
    cluster = CosmoCluster(
        lambda i: ScriptedGenerator(),
        config=ClusterConfig(n_replicas=3, max_batch_size=16,
                             max_batch_delay_s=0.25, seed=7,
                             name="traced" if traced else "bare",
                             trace_requests=traced),
        sampler=sampler,
    )
    # Warm the yearly layer so both arms serve fresh; cold-start fallback
    # behaviour is the chaos scenario's job, not the overhead bench's.
    cluster.preload_yearly({q: ScriptedGenerator.knowledge_for(q) for q in QUERIES})
    return cluster, sampler


def _drive(cluster, sampler, traffic) -> float:
    """Wall seconds to send ``traffic`` as direct requests and flush."""
    # GC paused during the timed section (identically for both arms):
    # collector scheduling is allocation-count noise, not request-path
    # cost, and it lands unevenly across repetitions.
    gc.collect()
    gc.disable()
    try:
        started = wall_now()
        for query in traffic:
            cluster.handle(ServeRequest(query=query, direct=True))
            cluster.clock.advance(INTER_ARRIVAL_S)
        cluster.flush()
        elapsed = wall_now() - started
    finally:
        gc.enable()
    if sampler is not None:
        sampler.flush()
    return elapsed


def test_trace_overhead():
    traffic = zipf_traffic(spawn_rng(7, "trace-overhead-traffic"), QUERIES, N_REQUESTS)

    # Best-of-N *pairs* over fresh clusters: each repetition times bare
    # then traced back-to-back, and the bound takes the cleanest pair.
    arms: dict[str, list] = {"bare": [], "traced": []}
    for rep in range(BEST_OF):
        for traced in (False, True):
            arm = "traced" if traced else "bare"
            cluster, sampler = _build(traced)
            arms[arm].append((_drive(cluster, sampler, traffic), cluster, sampler))
    pairs = [(arms["bare"][rep][0], arms["traced"][rep][0])
             for rep in range(BEST_OF)]
    bare_s, traced_s = min(pairs,
                           key=lambda p: p[1] - MAX_OVERHEAD_RATIO * p[0])
    ratio = traced_s / bare_s if bare_s > 0 else float("inf")

    bare_cluster = arms["bare"][-1][1]
    traced_cluster, sampler = arms["traced"][-1][1], arms["traced"][-1][2]

    # Tracing observes, never steers: identical accounting, exactly.
    assert traced_cluster.metrics_totals() == bare_cluster.metrics_totals()
    assert traced_cluster.availability == bare_cluster.availability

    # The sampler retained something and every retained trace reassembles
    # into one connected tree whose stage breakdown sums to its duration.
    tracers = [(traced_cluster.config.name, traced_cluster.tracer)]
    tracers += [(rid, s.tracer) for rid, s in traced_cluster.services.items()]
    analyzer = TraceAnalyzer(tracers)
    retained = analyzer.trace_ids()
    assert retained, "tail sampler retained no traces"
    assert sampler.decisions["dropped"] > 0, "tail sampler dropped nothing"
    for trace_id in retained:
        assert analyzer.is_connected(trace_id)
        total = sum(analyzer.stage_breakdown(trace_id).values())
        assert abs(total - analyzer.duration_s(trace_id)) < 1e-9

    table = Table("Tracing overhead — same drive, bare vs traced",
                  ["Arm", f"Wall, best pair of {BEST_OF} (s)", "Traces kept",
                   "Spans kept"])
    table.add_row("bare", f"{bare_s:.3f}", 0, 0)
    kept_spans = sum(len(analyzer.spans_for(t)) for t in retained)
    table.add_row("traced", f"{traced_s:.3f}", len(retained), kept_spans)
    publish("trace_overhead", table.render()
            + f"\noverhead ratio (nondeterministic): {ratio:.2f}x"
            + f"\nsampler decisions: {sampler.decisions}")

    # The headline bound, with nothing added to it.
    assert traced_s <= bare_s * MAX_OVERHEAD_RATIO, (
        f"best pair bare={bare_s:.3f}s traced={traced_s:.3f}s "
        f"({ratio:.2f}x > {MAX_OVERHEAD_RATIO}x)")
