"""End-to-end pipeline invariants (no LM finetuning; see integration tests
for the full run including COSMO-LM)."""

import math

from repro.core.critic import KEEP_THRESHOLD


def test_artifacts_present(pipeline_result):
    assert pipeline_result.samples
    assert pipeline_result.candidates
    assert pipeline_result.filtered
    assert pipeline_result.annotated_candidates
    assert len(pipeline_result.annotations) == len(pipeline_result.annotated_candidates)
    assert len(pipeline_result.kg) > 0


def test_annotation_budget_split(pipeline_result):
    budget = pipeline_result.config.annotation_budget
    assert len(pipeline_result.annotated_candidates) <= budget
    by_behavior = {}
    for candidate in pipeline_result.annotated_candidates:
        by_behavior.setdefault(candidate.sample.behavior, []).append(candidate)
    for behavior, group in by_behavior.items():
        assert len(group) <= budget // 2 + 1


def test_table4_shape(pipeline_result):
    ratios = pipeline_result.quality_ratios
    assert set(ratios) == {"co-buy", "search-buy"}
    for behavior, values in ratios.items():
        assert 0.0 <= values["typicality"] <= values["plausibility"] <= 1.0
    # The paper's shape: search-buy clearly more typical than co-buy.
    assert ratios["search-buy"]["typicality"] > ratios["co-buy"]["typicality"]


def test_audit_accuracy_above_90(pipeline_result):
    assert pipeline_result.audit.accuracy > 0.9


def test_filter_report_consistency(pipeline_result):
    report = pipeline_result.filter_report
    assert report.input_count == len(pipeline_result.candidates)
    assert report.kept == len(pipeline_result.filtered)
    assert report.kept + sum(report.dropped.values()) == report.input_count


def test_critic_accuracy_beats_chance(pipeline_result):
    accuracy = pipeline_result.critic_accuracy
    assert accuracy["plausibility"] > 0.5 or math.isnan(accuracy["plausibility"])


def test_kg_edges_pass_critic_threshold(pipeline_result):
    for triple in pipeline_result.kg.triples():
        assert triple.plausibility > KEEP_THRESHOLD


def test_table3_bookkeeping(pipeline_result):
    pair_counts = pipeline_result.behavior_pair_counts()
    annotation_counts = pipeline_result.annotation_counts()
    assert sum(pair_counts.values()) == len(pipeline_result.samples)
    assert sum(annotation_counts.values()) == len(pipeline_result.annotated_candidates)
    # Annotations only for sampled behaviors.
    for key in annotation_counts:
        assert key in pair_counts


def test_kg_covers_all_domains(pipeline_result):
    assert pipeline_result.kg.stats().domains == 18


def test_teacher_latency_tracked(pipeline_result):
    total = pipeline_result.teacher_latency.total_simulated_s
    assert total > 0
    per_candidate = total / len(pipeline_result.candidates)
    # A 30B-parameter model at ~0.45 s/token: whole seconds per candidate.
    assert per_candidate > 0.5
