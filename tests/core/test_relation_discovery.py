"""Data-driven relation discovery (§3.1): recovering Table 2 from text."""

import pytest

from repro.core.relation_discovery import RelationDiscovery
from repro.core.relations import RELATION_SPECS, Relation, TailType, verbalize


@pytest.fixture(scope="module")
def discovery():
    return RelationDiscovery(min_count=2)


def test_recovers_all_relations_from_template_corpus(discovery):
    texts = []
    for relation, spec in RELATION_SPECS.items():
        texts.extend([f"{verbalize(relation, spec.example)}."] * 3)
    mined = discovery.mine(texts)
    assert {m.relation for m in mined} == set(Relation)


def test_counts_and_ordering(discovery):
    texts = ["it is capable of hold snacks."] * 5 + ["it is used by cat owner."] * 2
    mined = discovery.mine(texts)
    assert mined[0].relation == Relation.CAPABLE_OF
    assert mined[0].count == 5
    assert mined[1].count == 2


def test_min_count_filters_rare_patterns():
    texts = ["it is capable of hold snacks."] * 3 + ["it is used by cat owner."]
    mined = RelationDiscovery(min_count=2).mine(texts)
    assert {m.relation for m in mined} == {Relation.CAPABLE_OF}


def test_used_for_splits_by_tail_type(discovery):
    # Same surface pattern, different tail types → different relations.
    texts = (
        ["it is used for dry face."] * 3            # function (Health bank)
        + ["it is used for camping."] * 3           # activity (Sports bank)
    )
    mined = discovery.mine(texts)
    relations = {m.relation for m in mined}
    assert Relation.USED_FOR_FUNC in relations
    assert Relation.USED_FOR_EVE in relations


def test_modifier_stripping_for_tail_typing(discovery):
    texts = ["it is used for winter camping."] * 3
    mined = discovery.mine(texts)
    assert mined[0].relation == Relation.USED_FOR_EVE
    assert mined[0].tail_type == TailType.ACTIVITY


def test_examples_collected_without_duplicates(discovery):
    texts = [
        "it is capable of hold snacks.",
        "it is capable of hold snacks.",
        "it is capable of keep drinks cold.",
    ]
    mined = discovery.mine(texts)
    record = mined[0]
    assert record.examples == ["hold snacks", "keep drinks cold"]


def test_pipeline_candidates_recover_most_relations(pipeline_result):
    discovery = RelationDiscovery(min_count=2)
    mined = discovery.mine([c.text for c in pipeline_result.candidates])
    assert len({m.relation for m in mined}) >= 12
