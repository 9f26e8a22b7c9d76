"""The four workloads: inputs from the seed, set-up, timed drive, checks.

Every workload is a closed loop with one client — the driver thread —
because the system under test is a single-threaded discrete-event
simulation whose arrival :class:`~repro.serving.clock.SimClock` the
driver advances between calls.  Inputs come from ``--seed`` through
:func:`repro.utils.rng.spawn_rng`; the program only ever sees the
generated requests and triples.  Why each workload exists is recorded in
``BENCHMARK.json`` and the README beside this file.
"""

from __future__ import annotations

import gc
import pathlib
from dataclasses import dataclass

import numpy as np
from perf_kernel import Recorder, ReferenceKernel

from repro.core import kg_io
from repro.core.kg import KnowledgeGraph
from repro.core.relations import Relation
from repro.core.triples import KnowledgeTriple
from repro.obs import TailSampler
from repro.obs.timebase import wall_now
from repro.refresh import snapshot as snapshot_mod
from repro.refresh.quality import SnapshotQualityGate
from repro.refresh.snapshot import SnapshotStore
from repro.serving import BatchCostModel, ClusterConfig, CosmoCluster, ServeRequest
from repro.serving.chaos import ScriptedGenerator
from repro.utils.rng import spawn_rng

OUT_DIR = pathlib.Path(__file__).parent / "out"

WINDOW = 16
ZIPF_EXPONENT = 1.3
#: Ingress calls per slice: ≈25 ms of work between two kernel samples.
WINDOWS_PER_SLICE = 25
ITEMS_PER_SLICE = 400
LOOKUPS_PER_SLICE = 400
#: ``--smoke`` divides every size by this; code paths and checks stay.
SMOKE_DIVISOR = 20


class GeneratorTally:
    """Calls and prompts that reached any replica's generator."""

    def __init__(self):
        self.calls = 0
        self.prompts = 0


class CountingGenerator(ScriptedGenerator):
    """The scripted COSMO-LM stand-in, counting what reaches it."""

    def __init__(self, tally: GeneratorTally):
        super().__init__()
        self._tally = tally

    def generate_batch(self, prompts):
        self._tally.calls += 1
        self._tally.prompts += len(prompts)
        return super().generate_batch(prompts)


@dataclass
class Repetition:
    """What one repetition of a workload hands back to the estimator."""

    cost: Recorder            #: calls summed into ``ref_us_per_unit``
    calls: Recorder           #: calls the percentiles are taken over
    units: int                #: requests, or edges of the base graph
    attempted: int
    failed: int
    counts: dict              #: exact per-repetition outputs
    tracked_objects: int = 0  #: gc-tracked objects the cycle left held
    setup: Recorder | None = None  #: the one set-up slice, set by the worker


def _zipf_picks(rng, universe: int, size: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, universe + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    return rng.choice(universe, size=size, p=weights)


def _windows(queries: list[str]) -> list[list[str]]:
    return [queries[start:start + WINDOW]
            for start in range(0, len(queries), WINDOW)]


def _cluster_counts(cluster: CosmoCluster, tally: GeneratorTally,
                    pending_peak: int) -> dict:
    """Exact outputs of one drive, read through public accessors."""
    services = list(cluster.services.values())
    counts = dict(cluster.metrics_totals())
    counts["sim_p99_ms"] = cluster.percentile(99) * 1000.0
    counts["batch_runs"] = sum(s.metrics.batch_runs for s in services)
    counts["batch_queries"] = sum(s.metrics.batch_queries_processed
                                  for s in services)
    counts["retries"] = sum(s.metrics.retries for s in services)
    counts["dead_lettered"] = sum(s.metrics.dead_lettered for s in services)
    counts["cache_requests"] = sum(s.cache.stats.requests for s in services)
    counts["cache_hits"] = sum(s.cache.stats.layer1_hits
                               + s.cache.stats.layer2_hits for s in services)
    counts["generator_calls"] = tally.calls
    counts["generator_prompts"] = tally.prompts
    counts["pending_peak"] = pending_peak
    counts["ring_size"] = cluster.router.vnodes * len(cluster.router.replicas)
    sampler = cluster.sampler
    decisions = sampler.decisions if sampler is not None else {}
    counts["traces_finished"] = sum(decisions.values())
    counts["traces_kept"] = counts["traces_finished"] - decisions.get("dropped", 0)
    return counts


def _conservation_failures(counts: dict, requests: int) -> int:
    """1 unless ``fresh + degraded + fallbacks == requests == handled``."""
    answered = (counts["served_fresh"] + counts["degraded_serves"]
                + counts["fallbacks"])
    return int(not (answered == counts["requests"] == counts["handled"]
                    == requests))


def _drive(cluster: CosmoCluster, ingress, requests: list, per_slice: int,
           gap_s: float, rec: Recorder, wrong) -> tuple[int, int]:
    """Closed-loop drive of one ingress; ``(failed, pending peak)``.

    ``ingress(request)`` is timed call by call (what the cost per
    request and the per-call percentiles are made of), in slices of
    ``per_slice`` calls between kernel readings; the driver advances the
    arrival clock after each.  Answers are verified between slices,
    outside the timed section: ``wrong(request, answer)`` counts the
    results that are not what the request must get.  The drive ends with
    the cluster's (and the tail sampler's) forced flush, timed as one
    more call.
    """
    failed = pending_peak = 0
    clock = cluster.clock
    rec.open()
    for start in range(0, len(requests), per_slice):
        chunk = requests[start:start + per_slice]
        call_s, answers = [], []
        slice_started = wall_now()
        for request in chunk:
            called = wall_now()
            answer = ingress(request)
            call_s.append(wall_now() - called)
            clock.advance(gap_s)
            answers.append(answer)
        rec.close(wall_now() - slice_started, call_s)
        pending_peak = max(pending_peak, cluster.queue_depth)
        failed += sum(wrong(request, answer)
                      for request, answer in zip(chunk, answers))
    flush_started = wall_now()
    cluster.flush()
    if cluster.sampler is not None:
        cluster.sampler.flush()
    flush_s = wall_now() - flush_started
    rec.close(flush_s, (flush_s,))
    return failed, pending_peak


def _wrong_in_window(expected_text):
    """Checker for one ``handle_batch`` window: request order,
    ``batch_index``, and the text ``expected_text(query, result)``."""
    def wrong(window: list[str], results) -> int:
        if len(results) != len(window):
            return len(window)
        return sum(
            result.query != query or result.batch_index != position
            or result.text != expected_text(query, result)
            for position, (query, result) in enumerate(zip(window, results)))
    return wrong


class Workload:
    """Sizes are class attributes; ``--smoke`` shrinks the listed ones."""

    name = ""
    smoke_scaled: tuple[str, ...] = ()
    replicas = 4
    trace_requests = False

    def __init__(self, kernel: ReferenceKernel, smoke: bool):
        self.kernel = kernel
        if smoke:
            for attr in self.smoke_scaled:
                setattr(self, attr, getattr(self, attr) // SMOKE_DIVISOR)

    def cluster_kwargs(self) -> dict:
        """What the cluster gets beyond its shape."""
        return {"batch_costs": BatchCostModel()}

    def preload(self, cluster: CosmoCluster) -> None:
        """Nothing, unless the workload starts warm."""

    def build(self, inputs):
        """A fresh cluster (the per-repetition part of set-up)."""
        tally = GeneratorTally()
        cluster = CosmoCluster(
            lambda index: CountingGenerator(tally),
            config=ClusterConfig(n_replicas=self.replicas, max_batch_size=WINDOW,
                                 max_batch_delay_s=0.25, seed=7, name=self.name,
                                 trace_requests=self.trace_requests),
            **self.cluster_kwargs(),
        )
        self.preload(cluster)
        return cluster, tally


class ServeHot(Workload):
    """Every request is a cache read on a 4-replica cluster."""

    name = "serve_hot"
    unit = "request"
    smoke_scaled = ("requests",)
    requests = 48_000
    universe = 400
    gap_s = 0.005

    def inputs(self, seed: int):
        rng = spawn_rng(seed, f"perf-{self.name}-traffic")
        picks = _zipf_picks(rng, self.universe, self.requests)
        return _windows([f"query {int(i):03d}" for i in picks])

    def preload(self, cluster: CosmoCluster) -> None:
        cluster.preload_yearly({
            query: ScriptedGenerator.knowledge_for(query)
            for query in (f"query {i:03d}" for i in range(self.universe))
        })

    per_slice = WINDOWS_PER_SLICE

    @staticmethod
    def ingress(cluster: CosmoCluster):
        return cluster.handle_batch

    @staticmethod
    def _expected(query, result):
        return ScriptedGenerator.knowledge_for(query)

    def checker(self):
        """``wrong(request, answer)`` for :func:`_drive`."""
        return _wrong_in_window(self._expected)

    def drive(self, state, requests, log) -> Repetition:
        cluster, tally = state
        rec = Recorder(self.kernel, log)
        failed, pending_peak = _drive(cluster, self.ingress(cluster), requests,
                                      self.per_slice, self.gap_s, rec,
                                      self.checker())
        counts = _cluster_counts(cluster, tally, pending_peak)
        failed += _conservation_failures(counts, self.requests)
        return Repetition(cost=rec, calls=rec, units=self.requests,
                          attempted=self.requests + 1, failed=failed,
                          counts=counts)


class ServeMiss(ServeHot):
    """Nothing preloaded, nearly every query new: the cache's write side."""

    name = "serve_miss"
    smoke_scaled = ("requests", "universe")
    requests = 32_000
    universe = 256_000
    replicas = 1
    gap_s = 0.080

    def inputs(self, seed: int):
        rng = spawn_rng(seed, f"perf-{self.name}-traffic")
        picks = rng.integers(0, self.universe, size=self.requests)
        return _windows([f"query {int(i):06d}" for i in picks])

    def cluster_kwargs(self) -> dict:
        # The daily layer must hold a repetition's distinct queries: at
        # the service's default of 10 000, ``apply_batch`` stops
        # installing a third of the way in, the pending queue never
        # drains, and the rest of the run measures admission control
        # shedding two requests in three.
        return {"batch_costs": BatchCostModel(), "daily_capacity": 50_000}

    def preload(self, cluster: CosmoCluster) -> None:
        """Cold start: every first sighting is a miss."""

    @staticmethod
    def _expected(query, result):
        # A first sighting has no knowledge yet and gets the (empty)
        # fallback; anything served must be the scripted knowledge.
        return ScriptedGenerator.knowledge_for(query) if result.served else ""


class ServeItemsTraced(ServeHot):
    """Per-item ``handle`` with the product's own request tracing on."""

    name = "serve_items_traced"
    requests = 24_000
    replicas = 3
    trace_requests = True
    gap_s = 0.004
    direct_share = 0.25

    def inputs(self, seed: int):
        rng = spawn_rng(seed, f"perf-{self.name}-traffic")
        picks = _zipf_picks(rng, self.universe, self.requests)
        direct = rng.random(self.requests) < self.direct_share
        return [ServeRequest(query=f"query {int(i):03d}", direct=bool(d))
                for i, d in zip(picks, direct)]

    per_slice = ITEMS_PER_SLICE

    @staticmethod
    def ingress(cluster: CosmoCluster):
        return cluster.handle

    def cluster_kwargs(self) -> dict:
        return {"sampler": TailSampler(slowest_k=3, window_s=1.0, head_every=100)}

    def checker(self):
        def wrong(request: ServeRequest, result) -> int:
            return int(result.query != request.query or result.trace_id is None
                       or result.text != self._expected(request.query, result))
        return wrong


_RELATIONS = (Relation.USED_FOR_FUNC, Relation.CAPABLE_OF, Relation.USED_TO,
              Relation.USED_FOR_AUD, Relation.USED_WITH, Relation.USED_BY)
_DOMAINS = ("Apparel", "Electronics", "Grocery", "Home")
EDGES_PER_HEAD = 5


@dataclass
class RefreshInputs:
    base: list[KnowledgeTriple]
    grown: list[KnowledgeTriple]      #: base + 10 % new edges on new heads
    entries: dict[str, str]
    child_entries: dict[str, str]
    post_swap: list[list[str]]        #: request windows after the swap
    lookups: list[str]                #: heads for the read phase


class KgRefresh(Workload):
    """One knowledge-refresh cycle at 10⁵ edges, then a read phase."""

    name = "kg_refresh"
    unit = "edge"
    smoke_scaled = ("edges", "post_swap_requests", "lookups")
    edges = 100_000
    post_swap_requests = 2_000
    lookups = 5_000
    gap_s = 0.005

    def _triples(self, rng, first: int, count: int) -> list[KnowledgeTriple]:
        # Head and relation follow the edge index (five distinct
        # relations per head, so no two edges share a key and the graph
        # has exactly ``count`` edges on every seed); tails and critic
        # scores are drawn from the seed.
        tails = rng.integers(0, 511, size=count)
        plausibility = 0.55 + 0.4 * rng.random(count)
        typicality = 0.45 + 0.5 * rng.random(count)
        return [
            KnowledgeTriple(
                head=f"query {k // EDGES_PER_HEAD:05d}",
                relation=_RELATIONS[k % len(_RELATIONS)],
                tail=f"intent {int(tails[k - first]):03d}",
                domain=_DOMAINS[k % len(_DOMAINS)],
                behavior="search-buy" if k % 3 else "co-buy",
                plausibility=float(plausibility[k - first]),
                typicality=float(typicality[k - first]),
                support=1 + k % 3,
            )
            for k in range(first, first + count)
        ]

    def inputs(self, seed: int) -> RefreshInputs:
        rng = spawn_rng(seed, f"perf-{self.name}-graph")
        growth = self.edges // 10
        base = self._triples(rng, 0, self.edges)
        grown = base + self._triples(rng, self.edges, growth)
        heads = self.edges // EDGES_PER_HEAD
        child_heads = heads + growth // EDGES_PER_HEAD
        child_entries = {f"query {i:05d}": f"it is used for query {i:05d}."
                         for i in range(child_heads)}
        entries = {f"query {i:05d}": child_entries[f"query {i:05d}"]
                   for i in range(heads)}
        picks = _zipf_picks(rng, child_heads, self.post_swap_requests)
        lookups = rng.integers(0, child_heads, size=self.lookups)
        return RefreshInputs(
            base=base, grown=grown, entries=entries, child_entries=child_entries,
            post_swap=_windows([f"query {int(i):05d}" for i in picks]),
            lookups=[f"query {int(i):05d}" for i in lookups],
        )

    def drive(self, state, inputs: RefreshInputs, log) -> Repetition:
        cluster, tally = state
        cycle = Recorder(self.kernel, log)
        failed = 0
        tracked_before = len(gc.get_objects()) if log is not None else 0
        OUT_DIR.mkdir(exist_ok=True)
        archive = OUT_DIR / f"{self.name}.npz"

        def stage(work):
            started = wall_now()
            result = work()
            cycle.close_stage(wall_now() - started)
            return result

        cycle.open(coarse=True)
        graph = KnowledgeGraph()
        stage(lambda: graph.extend(inputs.base))
        stage(lambda: kg_io.save_kg_columnar(graph, archive))
        loaded = stage(lambda: kg_io.load_kg_columnar(archive))
        archive_bytes = archive.stat().st_size
        archive.unlink()
        failed += int(snapshot_mod.columnar_digest(loaded)
                      != snapshot_mod.columnar_digest(graph))

        cycle.open(coarse=True)
        parent = stage(lambda: snapshot_mod.build_snapshot(inputs.entries,
                                                           graph=loaded))
        stage(lambda: cluster.install_snapshot(parent))
        child_graph = KnowledgeGraph()
        stage(lambda: child_graph.extend(inputs.grown))
        child = stage(lambda: snapshot_mod.build_snapshot(
            inputs.child_entries, parent=parent, graph=child_graph))
        store = SnapshotStore()
        store.add(parent)
        store.add(child)
        gate = SnapshotQualityGate(store)
        decision = stage(lambda: gate.assess(child))
        failed += int(not decision.promote)
        stage(lambda: cluster.install_snapshot(child))
        versions = cluster.snapshot_versions()
        failed += int(len(versions) != self.replicas
                      or set(versions.values()) != {child.version})
        # The refreshed graph answers its first lookup (which builds the
        # CSR index) before the cycle counts as done.
        stage(lambda: child_graph.neighbors(inputs.lookups[0]))

        window_failed, pending_peak = _drive(
            cluster, cluster.handle_batch, inputs.post_swap, WINDOWS_PER_SLICE,
            self.gap_s, cycle,
            _wrong_in_window(lambda query, result: child.entries[query]))
        failed += window_failed

        reads = Recorder(self.kernel, log)
        reads.open()
        for start in range(0, len(inputs.lookups), LOOKUPS_PER_SLICE):
            chunk = inputs.lookups[start:start + LOOKUPS_PER_SLICE]
            call_s, found = [], []
            slice_started = wall_now()
            for head in chunk:
                called = wall_now()
                edges = child_graph.neighbors(head)
                call_s.append(wall_now() - called)
                found.append(edges)
            reads.close(wall_now() - slice_started, call_s)
            failed += sum(1 for head, edges in zip(chunk, found)
                          if len(edges) != EDGES_PER_HEAD
                          or any(edge.head != head for edge in edges))

        counts = _cluster_counts(cluster, tally, pending_peak)
        failed += _conservation_failures(counts, self.post_swap_requests)
        stats = child_graph.stats()
        counts.update(edges=stats.edges, nodes=stats.nodes,
                      archive_bytes=archive_bytes,
                      gate_promote=int(decision.promote),
                      child_version=child.version)
        tracked = len(gc.get_objects()) - tracked_before if log is not None else 0
        # checks: digest, gate, versions, conservation — plus every
        # post-swap answer and every lookup.
        attempted = 4 + self.post_swap_requests + self.lookups
        return Repetition(cost=cycle, calls=reads, units=self.edges,
                          attempted=attempted, failed=failed,
                          counts=counts, tracked_objects=tracked)


WORKLOADS = {cls.name: cls for cls in
             (ServeHot, ServeMiss, ServeItemsTraced, KgRefresh)}
