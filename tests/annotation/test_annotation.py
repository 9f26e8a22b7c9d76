"""Annotation simulator: protocol, noise, audit."""

from repro.annotation import (
    QUESTIONS,
    TRUTH_TABLE,
    AnnotatorPool,
    audit_annotations,
)


def test_truth_table_covers_all_questions():
    for quality, answers in TRUTH_TABLE.items():
        assert set(answers) == set(QUESTIONS)


def test_typical_requires_plausible_in_truth_table():
    for quality, answers in TRUTH_TABLE.items():
        if answers["typical"]:
            assert answers["plausible"], quality


def test_zero_noise_reproduces_truth():
    pool = AnnotatorPool(error_rate=0.0, adjudicator_error_rate=0.0, seed=1)
    for quality, truth in TRUTH_TABLE.items():
        result = pool.annotate(f"c-{quality}", quality)
        assert result.answers == truth
        assert not result.needed_adjudication
    assert pool.total_adjudications == 0


def test_result_properties_reflect_answers():
    pool = AnnotatorPool(error_rate=0.0, seed=1)
    typical = pool.annotate("c1", "typical")
    generic = pool.annotate("c2", "generic")
    assert typical.plausible and typical.typical
    assert generic.plausible and not generic.typical


def test_noise_triggers_adjudication():
    pool = AnnotatorPool(error_rate=0.3, adjudicator_error_rate=0.0, seed=2)
    results = pool.annotate_batch([(f"c{i}", "typical") for i in range(100)])
    assert pool.total_adjudications > 0
    assert any(r.needed_adjudication for r in results)


def test_judgment_accounting():
    pool = AnnotatorPool(error_rate=0.0, seed=3)
    pool.annotate("c", "plausible")
    # Two annotators × five questions, zero adjudications.
    assert pool.total_judgments == 10


def test_adjudicator_usually_recovers_truth():
    pool = AnnotatorPool(error_rate=0.5, adjudicator_error_rate=0.0, seed=4)
    correct = 0
    n = 200
    for index in range(n):
        result = pool.annotate(f"c{index}", "typical")
        correct += int(result.answers["typical"])
    # With one annotator pair at 50% error, the adjudicator resolves
    # most disagreements correctly; accuracy well above a coin flip.
    assert correct / n > 0.6


def test_audit_accuracy_perfect_with_zero_noise():
    pool = AnnotatorPool(error_rate=0.0, seed=5)
    items = [(f"c{i}", "generic") for i in range(50)]
    results = pool.annotate_batch(items)
    report = audit_annotations(results, dict(items), sample_rate=0.2, seed=5)
    assert report.accuracy == 1.0
    assert report.sampled == 10


def test_audit_detects_noise():
    pool = AnnotatorPool(error_rate=0.4, adjudicator_error_rate=0.4, seed=6)
    items = [(f"c{i}", "typical") for i in range(100)]
    results = pool.annotate_batch(items)
    report = audit_annotations(results, dict(items), sample_rate=0.5, seed=6)
    assert report.accuracy < 1.0


def test_audit_empty_results():
    report = audit_annotations([], {}, seed=0)
    assert report.accuracy == 1.0
    assert report.sampled == 0


def test_paper_scale_audit_accuracy_above_90_percent():
    # Default noise levels must reproduce the paper's ">90% accuracy".
    pool = AnnotatorPool(seed=7)
    items = [(f"c{i}", quality) for i, quality in
             enumerate(list(TRUTH_TABLE) * 30)]
    results = pool.annotate_batch(items)
    report = audit_annotations(results, dict(items), sample_rate=0.3, seed=7)
    assert report.accuracy > 0.9
