"""Shared benchmark fixtures.

One bench-scale pipeline run (with a finetuned COSMO-LM) backs most of
the table/figure benches; it is computed once per session.  Every bench
prints its paper-shaped table and also writes it under
``benchmarks/results/`` so the regenerated artifacts survive pytest's
output capturing.
"""

from __future__ import annotations

import os
import sys

#: One BLAS thread for every numpy import of the session: the thread count
#: changes float summation order, and with it which prompts COSMO-LM
#: decodes to nothing, so the seeded results hold only at one thread.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and any(os.environ.get(v) != "1" for v in _BLAS_THREAD_VARS):
    raise RuntimeError("numpy was imported before conftest.py pinned BLAS to one "
                       "thread; set " + "=1 ".join(_BLAS_THREAD_VARS) + "=1")
os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

import json
import pathlib

import pytest

from repro.behavior import WorldConfig
from repro.core import CosmoLMConfig, CosmoPipeline, PipelineConfig
from repro.obs import SNAPSHOT_SCHEMA, MetricsRegistry, snapshot, validate

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

BENCH_PIPELINE_CONFIG = PipelineConfig(
    seed=7,
    world=WorldConfig(
        seed=7,
        products_per_domain=60,
        broad_queries_per_domain=30,
        specific_queries_per_domain=30,
    ),
    cobuy_pairs_per_domain=100,
    searchbuy_records_per_domain=150,
    annotation_budget=3000,
    lm=CosmoLMConfig(epochs=18, hidden_dim=96, lr=3e-3),
)


@pytest.fixture(scope="session")
def bench_pipeline():
    """The bench-scale pipeline result (trains COSMO-LM once)."""
    return CosmoPipeline(BENCH_PIPELINE_CONFIG).run()


@pytest.fixture(scope="session")
def bench_world(bench_pipeline):
    return bench_pipeline.world


@pytest.fixture
def obs_registry(request):
    """A per-bench metrics registry, snapshotted to results/ on teardown.

    Benches that wire their services/pipelines onto this registry get a
    ``<test name>.metrics.json`` artifact next to their result table, so
    cache hit rates and latency percentiles are inspectable after CI.
    """
    registry = MetricsRegistry()
    yield registry
    if not len(registry):
        return
    snap = snapshot(registry)
    validate(SNAPSHOT_SCHEMA, snap)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{request.node.name}.metrics.json"
    path.write_text(json.dumps(snap, sort_keys=True,
                               separators=(",", ":")) + "\n")


def publish(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
