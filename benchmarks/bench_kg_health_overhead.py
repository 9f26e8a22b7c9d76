"""Knowledge-health overhead: what gating a snapshot costs.

The quality gate runs on the rollout path, so it must be cheap relative
to what it guards.  This bench builds a parent and a child snapshot the
way a refresh round does — merge the triples into a columnar
:class:`KnowledgeGraph`, freeze via ``build_snapshot`` (the columnar
digest the version hashes) — and then times the gate the rollout
controller calls, ``SnapshotQualityGate(store).assess(child)`` on a
cold gate: two health reports off the snapshots' frozen columns, the
integer edge delta between them, and the drift rules.

The contract from DESIGN.md §14: health is a handful of
``np.bincount``/``np.histogram`` passes over columns the snapshot
already has, so the full gate check must stay under
``MAX_HEALTH_FRACTION`` of one snapshot *build* (plus a small absolute
floor for sub-second runs).  The bound is paired best-of-N like
``bench_trace_overhead``: each repetition times build then gate
back-to-back with GC paused, and the assert takes the cleanest pair,
so shared-machine load swings cancel instead of flaking the bound.

Structural checks are exact: the gate's reports must count every edge
of the graphs that were frozen, the health document must validate
against ``repro.obs.kg_health/v1``, and the healthy child must promote.
"""

import gc

from conftest import publish

from repro.core.kg import KnowledgeGraph
from repro.core.relations import Relation
from repro.core.triples import KnowledgeTriple
from repro.obs import (KG_HEALTH_SCHEMA, compute_kg_health, kg_health_report,
                       validate, wall_now)
from repro.refresh import SnapshotQualityGate, SnapshotStore, build_snapshot
from repro.reporting import Table

N_QUERIES = 4000
EDGES_PER_QUERY = 5
BEST_OF = 5
MAX_HEALTH_FRACTION = 0.5
ABS_FLOOR_S = 0.05

_RELATIONS = (Relation.USED_FOR_FUNC, Relation.CAPABLE_OF, Relation.USED_TO,
              Relation.USED_FOR_AUD, Relation.USED_WITH, Relation.USED_BY)
_DOMAINS = ("Apparel", "Electronics", "Grocery", "Home")


def _triples(count: int, offset: int = 0) -> list[KnowledgeTriple]:
    # Deterministic arithmetic (no RNG): identical inputs every run, so
    # snapshot versions — and therefore the work timed — are stable.
    return [
        KnowledgeTriple(
            head=f"query {(k // EDGES_PER_QUERY) % N_QUERIES:04d}",
            relation=_RELATIONS[k % len(_RELATIONS)],
            tail=f"intent {k % 511:03d}",
            domain=_DOMAINS[k % len(_DOMAINS)],
            behavior="search-buy" if k % 3 else "co-buy",
            plausibility=0.55 + 0.4 * ((k * 37) % 100) / 100.0,
            typicality=0.45 + 0.5 * ((k * 53) % 100) / 100.0,
            support=1 + k % 3,
        )
        for k in range(offset, offset + count)
    ]


def _build_arm(triples, entries, parent=None):
    """What a refresh round pays to freeze a snapshot."""
    graph = KnowledgeGraph()
    graph.extend(triples)
    return build_snapshot(entries, parent=parent, graph=graph), graph


def test_kg_health_overhead(benchmark):
    base = _triples(N_QUERIES * EDGES_PER_QUERY)
    grown = base + _triples(N_QUERIES // 2,
                            offset=N_QUERIES * EDGES_PER_QUERY)
    entries = {f"query {i:04d}": f"it is used for query {i:04d}."
               for i in range(N_QUERIES)}

    pairs = []
    last = None
    for rep in range(BEST_OF):
        # GC paused around each timed section (identically for both
        # arms): collection scheduling is allocation noise, not cost.
        gc.collect()
        gc.disable()
        try:
            started = wall_now()
            parent_snap, parent_graph = _build_arm(base, entries)
            child_snap, child_graph = _build_arm(grown, entries, parent=parent_snap)
            built = wall_now()
            store = SnapshotStore()
            store.add(parent_snap)
            store.add(child_snap)
            gated = wall_now()
            last = SnapshotQualityGate(store).assess(child_snap)
            assessed = wall_now()
        finally:
            gc.enable()
        pairs.append(((built - started) / 2.0, assessed - gated))
    build_s, health_s = min(
        pairs, key=lambda p: p[1] - MAX_HEALTH_FRACTION * p[0])
    fraction = health_s / build_s if build_s > 0 else float("inf")

    parent_health, child_health, drift = (last.parent_health, last.health,
                                          last.drift)

    # Exact structural checks: health saw every edge, the export
    # validates, and organic growth promotes under the default rules.
    assert parent_health.triples == len(parent_graph)
    assert child_health.triples == len(child_graph)
    doc = kg_health_report([parent_health, child_health], drift=[drift])
    validate(KG_HEALTH_SCHEMA, doc)
    assert last.promote, f"healthy growth breached: {last.breaches}"

    table = Table("KG health overhead — snapshot build vs gate pass",
                  ["Arm", f"Wall, best pair of {BEST_OF} (s)", "Triples"])
    table.add_row("snapshot build (one)", f"{build_s:.3f}",
                  child_health.triples)
    table.add_row("gate pass (health x2 + drift)", f"{health_s:.3f}",
                  parent_health.triples + child_health.triples)
    publish("kg_health_overhead", table.render()
            + f"\ngate fraction of one build (nondeterministic): "
              f"{fraction:.3f}")

    # The headline bound: gating a snapshot costs at most half of
    # building it (plus a floor so sub-100ms runs can't flake).
    assert health_s <= build_s * MAX_HEALTH_FRACTION + ABS_FLOOR_S, (
        f"best pair build={build_s:.3f}s health={health_s:.3f}s "
        f"({fraction:.2f}x > {MAX_HEALTH_FRACTION}x + {ABS_FLOOR_S}s)")

    # Benchmark kernel: one steady-state vectorized health pass.
    benchmark(lambda: compute_kg_health(child_snap.columns,
                                        version=child_snap.version))
