"""Shared fixtures: one tiny world, one tiny pipeline run and one trained
COSMO-LM per session."""

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

import pytest

from repro.behavior import World, WorldConfig
from repro.core import CosmoLMConfig, CosmoPipeline, PipelineConfig


TINY_WORLD = WorldConfig(
    seed=11,
    products_per_domain=24,
    broad_queries_per_domain=10,
    specific_queries_per_domain=10,
)


@pytest.fixture(scope="session")
def world() -> World:
    return World(TINY_WORLD)


@pytest.fixture(scope="session")
def pipeline_result():
    """A small end-to-end pipeline run (no LM finetuning, for speed)."""
    config = PipelineConfig(
        seed=11,
        world=TINY_WORLD,
        cobuy_pairs_per_domain=30,
        searchbuy_records_per_domain=40,
        annotation_budget=300,
        finetune_lm=False,
        expand_with_lm=False,
    )
    return CosmoPipeline(config).run()


@pytest.fixture(scope="session")
def trained_pipeline_run():
    """``(pipeline, result)`` of a small pipeline run that finetunes
    COSMO-LM — the one trained model the generation and persistence tests
    share (nothing they assert depends on the seed); the signal inventory
    reads the pipeline's tracer."""
    config = PipelineConfig(
        seed=41,
        world=WorldConfig(seed=41, products_per_domain=16,
                          broad_queries_per_domain=8, specific_queries_per_domain=8),
        cobuy_pairs_per_domain=20,
        searchbuy_records_per_domain=25,
        annotation_budget=200,
        lm=CosmoLMConfig(epochs=4, hidden_dim=48),
        expand_with_lm=False,
    )
    pipeline = CosmoPipeline(config)
    return pipeline, pipeline.run()


@pytest.fixture(scope="session")
def trained_pipeline(trained_pipeline_run):
    return trained_pipeline_run[1]
