"""Critic keep-threshold sweep (§3.3.2 design choice).

The paper keeps knowledge with plausibility score > 0.5.  The bench
sweeps the threshold and measures the volume/precision trade-off of the
resulting KG edges against the oracle, confirming 0.5 is a sensible
operating point (high precision without collapsing volume).
"""

import numpy as np
import pytest
from conftest import publish

from repro.reporting import Table, format_percent

_GOOD = {"typical", "plausible"}


@pytest.fixture(scope="module")
def threshold_sweep(bench_pipeline):
    critic = bench_pipeline.critic
    pool = bench_pipeline.filtered
    scores = critic.score(pool)[:, 0]
    truth = np.array([c.truth.quality in _GOOD for c in pool])
    rows = []
    for threshold in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
        kept = scores > threshold
        volume = int(kept.sum())
        precision = float(truth[kept].mean()) if volume else 0.0
        recall = float(truth[kept].sum() / max(truth.sum(), 1))
        rows.append((threshold, volume, precision, recall))
    return rows, len(pool), float(truth.mean())


def test_critic_threshold_sweep(threshold_sweep):
    rows, pool_size, base_precision = threshold_sweep
    table = Table(
        f"Critic threshold sweep (pool {pool_size}, base precision "
        f"{format_percent(base_precision)})",
        ["Threshold", "Edges kept", "Oracle precision", "Oracle recall"],
    )
    for threshold, volume, precision, recall in rows:
        table.add_row(f"{threshold:.1f}", volume,
                      format_percent(precision), format_percent(recall))
    publish("ablation_critic_threshold", table.render())

    by_threshold = {t: (v, p, r) for t, v, p, r in rows}
    # Precision rises monotonically-ish with the threshold...
    assert by_threshold[0.7][1] >= by_threshold[0.3][1]
    # ...and the paper's 0.5 beats the unfiltered pool while keeping
    # a non-trivial share of candidates.
    volume_05, precision_05, recall_05 = by_threshold[0.5]
    assert precision_05 > base_precision
    assert recall_05 > 0.4
