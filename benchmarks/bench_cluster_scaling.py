"""Cluster scaling: throughput and tail latency vs replica count.

Offers the *same* Zipf traffic at the same arrival rate to clusters of
1, 2 and 4 replicas and measures what sharding buys: a single replica is
overloaded (arrivals outpace its simulated service rate, so queueing
delay piles up and the tail explodes), while four shards absorb the load
— throughput rises monotonically and the p99 falls back toward pure
service latency.  This is the quantitative backing for the ROADMAP's
"shard the serving layer" north star.

Traffic arrives in *windows* through the batch-first ingress
(:meth:`CosmoCluster.handle_batch`), played by the scenario runner's
request loop ``Drive.apply(Traffic(None, traffic, window=WINDOW))``, and
every replica runs with a :class:`BatchCostModel`, so a window of
requests landing on one shard is charged ``overhead + n·item`` instead
of ``n`` sequential cache probes — the amortization the columnar/batch
redesign exists to buy.  The seed per-item driver topped out near 500
req/s per replica (2 ms per cache hit); the batch path clears 3 000+
req/s on a single replica and scales from there.

Everything runs on simulated clocks with a scripted generator, so the
sweep is deterministic end to end and its artifacts are byte-stable.
The sweep's numbers are also written to
``benchmarks/results/cluster_scaling.json`` for the perf-smoke CI job,
which checks the file byte for byte against its line in
``ci/artifact_digests.sha256``.
"""

import json
import pathlib

from conftest import publish

from repro.reporting import Table, format_percent
from repro.scenarios import INVARIANTS, Drive, Traffic, zipf_traffic
from repro.serving import BatchCostModel, ClusterConfig, CosmoCluster
from repro.serving.chaos import ScriptedGenerator
from repro.utils.rng import spawn_rng

#: Requests per arrival window and the gap between windows: 16 requests
#: every 2 ms is 8 000 req/s offered — far above one replica's batch
#: service rate (a full window costs 2 ms overhead + 16·0.2 ms ≈ 5.2 ms),
#: so the single-replica arm saturates and the sweep measures real
#: scaling, not idle shards.
WINDOW = 16
WINDOW_GAP_S = 0.002
N_REQUESTS = 4000
N_QUERIES = 400

#: The acceptance floor for the 4-replica arm (req/s).  The seed's
#: per-item driver measured ~1 089 req/s here; the batch-first path must
#: hold at least 3× that.
MIN_THROUGHPUT_X4 = 3300.0

RESULTS_JSON = pathlib.Path(__file__).parent / "results" / "cluster_scaling.json"
QUERIES = [f"query {i:03d}" for i in range(N_QUERIES)]


def _drive(n_replicas: int, traffic: list[str], registry) -> dict:
    config = ClusterConfig(
        n_replicas=n_replicas,
        max_batch_size=16,
        max_batch_delay_s=0.25,
        seed=7,
        name=f"x{n_replicas}",
    )
    cluster = CosmoCluster(lambda i: ScriptedGenerator(), config=config,
                           registry=registry,
                           batch_costs=BatchCostModel())
    drive = Drive(cluster=cluster, gap_s=WINDOW_GAP_S)
    drive.apply(Traffic(None, traffic, window=WINDOW))
    cluster.flush()
    horizon = cluster.busy_horizon_s
    return {
        "replicas": n_replicas,
        "throughput": cluster.requests / horizon,
        "p50_ms": cluster.percentile(50) * 1000.0,
        "p99_ms": cluster.percentile(99) * 1000.0,
        "availability": cluster.availability,
        "horizon_s": horizon,
        "drive": drive,
    }


def test_cluster_scaling(benchmark, obs_registry):
    traffic = zipf_traffic(spawn_rng(7, "cluster-scaling-traffic"), QUERIES, N_REQUESTS)
    arms = [_drive(n, traffic, obs_registry) for n in (1, 2, 4)]

    table = Table("Cluster scaling — same offered load, 1/2/4 replicas",
                  ["Replicas", "Throughput (req/s)", "p50 (ms)", "p99 (ms)",
                   "Served", "Horizon (s)"])
    for arm in arms:
        table.add_row(
            arm["replicas"],
            f"{arm['throughput']:,.0f}",
            f"{arm['p50_ms']:.2f}",
            f"{arm['p99_ms']:.2f}",
            format_percent(arm["availability"]),
            f"{arm['horizon_s']:.2f}",
        )
    publish("cluster_scaling", table.render())

    # Machine-readable sweep results; CI pins the file by digest.
    RESULTS_JSON.parent.mkdir(exist_ok=True)
    RESULTS_JSON.write_text(json.dumps(
        {
            "window": WINDOW,
            "window_gap_s": WINDOW_GAP_S,
            "n_requests": N_REQUESTS,
            "arms": [
                {key: arm[key] for key in
                 ("replicas", "throughput", "p50_ms", "p99_ms", "horizon_s")}
                for arm in arms
            ],
        },
        sort_keys=True, indent=2) + "\n")

    # Benchmark kernel: steady-state sharded window handling.
    bench_drive = Drive(cluster=CosmoCluster(
        lambda i: ScriptedGenerator(), batch_costs=BatchCostModel(),
        config=ClusterConfig(n_replicas=4, seed=7, name="bench")), gap_s=WINDOW_GAP_S)
    benchmark(lambda: bench_drive.apply(Traffic(None, traffic[:200], window=WINDOW)))

    # The run's invariants hold for every arm: the batch ingress counts
    # every request exactly once, same as per-item handling would.
    for arm in arms:
        assert [failure for check in INVARIANTS for failure in check(arm["drive"])] == []
        assert arm["drive"].cluster.metrics_totals()["requests"] == N_REQUESTS

    # Shape: throughput scales monotonically with replica count, and the
    # 4-replica tail beats the overloaded single replica at the same
    # offered load.
    assert arms[0]["throughput"] < arms[1]["throughput"] < arms[2]["throughput"]
    assert arms[2]["p99_ms"] <= arms[0]["p99_ms"]

    # The redesign's headline: the 4-replica batch path clears the 3×
    # floor over the seed per-item driver (~1 089 req/s).
    assert arms[2]["throughput"] >= MIN_THROUGHPUT_X4
