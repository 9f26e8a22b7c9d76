"""Edge cases of relation discovery."""

from repro.core.relation_discovery import MAX_EXAMPLES, RelationDiscovery
from repro.core.relations import Relation


def test_unresolved_tail_type_falls_back():
    mined = RelationDiscovery(min_count=1).mine(
        ["it is used for zzz unknown phrase."] * 2
    )
    assert mined[0].relation == Relation.USED_FOR_FUNC  # default family mapping
    assert mined[0].tail_type is None


def test_empty_tail_is_ignored():
    mined = RelationDiscovery(min_count=1).mine(["it is used for."])
    assert mined == []


def test_no_pattern_no_result():
    mined = RelationDiscovery(min_count=1).mine(["completely unrelated sentence."])
    assert mined == []


def test_max_examples_cap():
    texts = [f"it is capable of task {i}." for i in range(10)]
    mined = RelationDiscovery(min_count=1).mine(texts)
    assert len(mined[0].examples) == MAX_EXAMPLES


def test_longest_pattern_wins_over_substring():
    # "is used in the" contains "is used in"-like stems; the longest
    # pattern must be matched so the tail excludes the article.
    mined = RelationDiscovery(min_count=1).mine(["it is used in the bedroom."] * 2)
    assert mined[0].relation == Relation.USED_IN_LOC
    assert mined[0].examples == ["bedroom"]
