"""Instruction-data construction (§3.4): 5 tasks, templates, coverage."""

import pytest

from repro.core.instructions import GENERATION_OVERSAMPLE, TASKS, build_instruction_dataset


@pytest.fixture(scope="module")
def dataset(pipeline_result):
    return pipeline_result.instruction_dataset


def test_five_task_types(dataset):
    assert set(TASKS) == {
        "generation", "plausibility", "typicality", "copurchase", "search_relevance",
    }
    assert set(dataset.task_distribution()) == set(TASKS)


def test_coverage_scaleup(dataset):
    coverage = dataset.coverage()
    assert coverage["domains"] == 18
    assert coverage["relations"] >= 12
    assert coverage["tasks"] == 5
    assert coverage["examples"] > 0


def test_task_marker_at_prompt_end(dataset):
    for example in dataset.examples[:200]:
        assert " task: " in example.prompt
        marker = example.prompt.rsplit(" task: ", 1)[1]
        assert example.task.replace("_", " ").startswith(marker.split()[0])


def _for_task(dataset, task):
    return [example for example in dataset.examples if example.task == task]


def test_generation_targets_are_knowledge_text(dataset):
    from repro.core.relations import parse_predicate

    generation = _for_task(dataset, "generation")
    assert generation
    parseable = sum(parse_predicate(e.target + ".") is not None for e in generation)
    assert parseable / len(generation) > 0.9


def test_label_tasks_have_yes_no_targets(dataset):
    for task in ("plausibility", "typicality", "copurchase", "search_relevance"):
        for example in _for_task(dataset, task):
            assert example.target in ("yes", "no")


def test_label_tasks_have_both_classes(dataset):
    for task in ("plausibility", "typicality"):
        targets = {e.target for e in _for_task(dataset, task)}
        assert targets == {"yes", "no"}


def test_generation_oversampling(pipeline_result):
    oversampled = build_instruction_dataset(
        pipeline_result.world,
        pipeline_result.annotated_candidates,
        pipeline_result.annotations,
        seed=0,
    )
    demonstrations = sum(
        annotation.typical and candidate.parsed
        for candidate, annotation in zip(pipeline_result.annotated_candidates,
                                         pipeline_result.annotations))
    assert len(_for_task(oversampled, "generation")) == GENERATION_OVERSAMPLE * demonstrations


def test_pairs_alignment(dataset):
    pairs = dataset.pairs()
    assert len(pairs) == len(dataset)
    assert pairs[0] == (dataset.examples[0].prompt, dataset.examples[0].target)


def test_misaligned_inputs_rejected(pipeline_result):
    with pytest.raises(ValueError):
        build_instruction_dataset(
            pipeline_result.world,
            pipeline_result.annotated_candidates,
            pipeline_result.annotations[:3],
        )
