"""Property: every answer names the snapshot version that answered it.

Hypothesis draws programs of ``handle_batch`` windows of 1..16 requests
(a few of them direct), per-replica ``swap_snapshot`` to one of three
snapshots, clock advances and ``flush`` calls, on one to three replicas
of :class:`~repro.refresh.rollout.SnapshotGenerator`.  The third snapshot
lacks some queries, so a miss enqueued under it can be answered under
another version and written to the daily layer before the next swap.

After each window every result's ``snapshot_version`` is its replica's
version read right after the window returned, and every FRESH cache
answer is the stamped snapshot's entry for its query.  At the end, after
whatever swaps came later, ``mixed_version_violation`` flags none of the
held results: the check reads the stamp, not the replica's current
version.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.refresh import (
    SnapshotGenerator,
    SnapshotStore,
    build_snapshot,
    mixed_version_violation,
)
from repro.serving import ClusterConfig, CosmoCluster, ServeOutcome, ServeRequest
from repro.serving.chaos import response_ok

QUERIES = [f"query {i:02d}" for i in range(12)]


def _snapshots():
    blue = build_snapshot({q: f"it is used for {q} (blue)." for q in QUERIES},
                          note="blue")
    green = build_snapshot({q: f"it is used for {q} (green)." for q in QUERIES},
                           parent=blue, note="green")
    red = build_snapshot({q: f"it is used for {q} (red)." for q in QUERIES[:8]},
                         parent=green, note="red, missing four queries")
    return blue, green, red


_request = st.tuples(st.integers(0, len(QUERIES) - 1),
                     st.sampled_from([False] * 7 + [True]))
_op = st.one_of(
    st.tuples(st.just("window"), st.lists(_request, min_size=1, max_size=16)),
    st.tuples(st.just("swap"), st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.just("advance"), st.sampled_from([0.001, 0.05, 0.3, 2.0])),
    st.tuples(st.just("flush")),
)


@given(st.integers(1, 3), st.lists(_op, min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_each_answer_names_the_snapshot_that_answered_it(n_replicas, program):
    snapshots = _snapshots()
    store = SnapshotStore()
    for snapshot in snapshots:
        store.add(snapshot)
    cluster = CosmoCluster(
        lambda i: SnapshotGenerator(snapshots[0]),
        config=ClusterConfig(n_replicas=n_replicas, max_batch_size=4,
                             max_batch_delay_s=0.25, seed=5, name="stamp"),
        response_validator=response_ok)
    cluster.install_snapshot(snapshots[0])
    replicas = cluster.router.replicas
    held = []
    for op in program:
        match op:
            case ("window", requests):
                results = cluster.handle_batch([
                    ServeRequest(query=QUERIES[index], direct=direct)
                    for index, direct in requests])
                for result in results:
                    version = result.snapshot_version
                    assert version == cluster.services[result.replica].snapshot_version
                    if (result.outcome is ServeOutcome.FRESH
                            and result.source.startswith("cache:")):
                        assert result.text == store.get(version).entries.get(
                            result.query), result
                held += results
            case ("swap", replica, snapshot):
                cluster.swap_snapshot(replicas[replica % n_replicas],
                                      snapshots[snapshot])
            case ("advance", seconds):
                cluster.clock.advance(seconds)
            case ("flush",):
                cluster.flush()
    for replica_id in replicas:      # the fleet moves on after the answers
        cluster.swap_snapshot(replica_id, snapshots[1])
    assert not [result for result in held
                if mixed_version_violation(store, result)]
