"""Incremental refresh rounds: lineage, budget deferral, determinism."""

import pytest

from repro.core.filtering import KnowledgeFilter
from repro.core.generation import CANDIDATES_PER_SAMPLE
from repro.embeddings import TextEncoder
from repro.llm import TeacherLLM
from repro.refresh import KnowledgeRefresher, RefreshConfig, build_snapshot


@pytest.fixture(scope="module")
def refresh_env(pipeline_result):
    """Trained filter + critic from the shared tiny pipeline run."""
    world = pipeline_result.world
    return {
        "world": world,
        "teacher": TeacherLLM(world, seed=5),
        "filter": KnowledgeFilter(TextEncoder(seed=5)),
        "critic": pipeline_result.critic,
        "samples": pipeline_result.samples,
    }


def _refresher(env, **config_kwargs):
    return KnowledgeRefresher(
        env["world"], env["teacher"], env["filter"], env["critic"],
        config=RefreshConfig(seed=5, **config_kwargs),
    )


def test_round_extends_parent_lineage_and_accounting(refresh_env):
    parent = build_snapshot({"existing query": "it is used for camping."})
    refresher = _refresher(refresh_env)
    child, report = refresher.refresh(parent, refresh_env["samples"][:20])

    assert child.parent == parent.version
    assert report.parent_version == parent.version
    assert report.version == child.version
    assert report.samples_in == report.samples_processed == 20
    assert report.samples_deferred == 0
    assert report.llm_calls == 20 * CANDIDATES_PER_SAMPLE
    assert report.candidates >= report.survivors >= report.kept >= 0
    # Parent entries survive unless the round regenerated them.
    assert child.entries["existing query"] == "it is used for camping."
    assert len(child.entries) <= len(parent.entries) + report.new_entries
    assert len(child.entries) >= len(parent.entries)
    assert (len(child.columns["head"])
            == len(parent.columns["head"]) + report.new_triples)


def test_budget_defers_overflow_to_next_round(refresh_env):
    parent = build_snapshot({})
    refresher = _refresher(refresh_env, llm_call_budget=15)  # 5 samples per round
    samples = refresh_env["samples"][:12]

    first, report1 = refresher.refresh(parent, samples)
    assert report1.samples_processed == 5
    assert report1.samples_deferred == 7
    assert report1.llm_calls <= 15
    assert refresher.deferred == samples[5:]

    # Deferred samples clear before new arrivals.
    _, report2 = refresher.refresh(first, samples[12:12])
    assert report2.samples_in == 7
    assert report2.samples_processed == 5
    assert report2.samples_deferred == 2


def test_rounds_are_deterministic(refresh_env):
    parent = build_snapshot({})
    samples = refresh_env["samples"][:15]
    versions = []
    for _ in range(2):
        env = dict(refresh_env,
                   teacher=TeacherLLM(refresh_env["world"], seed=5))
        child, _ = _refresher(env).refresh(parent, samples)
        versions.append(child.version)
    assert versions[0] == versions[1]


def test_round_counter_advances_version_even_on_same_batch(refresh_env):
    """Round index feeds the generation seed: re-running the same batch
    in a later round may legitimately differ, and the rounds counter
    advances regardless of outcome."""
    parent = build_snapshot({})
    refresher = _refresher(refresh_env)
    refresher.refresh(parent, refresh_env["samples"][:5])
    refresher.refresh(parent, refresh_env["samples"][:5])
    assert refresher.rounds == 2


def test_config_validation():
    with pytest.raises(ValueError, match="llm_call_budget"):
        RefreshConfig(seed=0, llm_call_budget=0)
