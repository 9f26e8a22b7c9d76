"""Relation taxonomy: Table 2 contents and verbalize/parse round trips."""

from repro.core.relations import (
    RELATION_SPECS,
    SEED_RELATIONS,
    Relation,
    TailType,
    parse_predicate,
    relations_for_tail_type,
    verbalize,
)


def test_fifteen_relations():
    assert len(Relation) == 15
    assert len(RELATION_SPECS) == 15


def test_table2_examples_present():
    assert RELATION_SPECS[Relation.CAPABLE_OF].example == "hold snacks"
    assert RELATION_SPECS[Relation.USED_IN_BODY].example == "sensitive skin"
    assert RELATION_SPECS[Relation.X_WANT].example == "play tennis"


def test_four_seed_relations():
    assert SEED_RELATIONS == ("usedFor", "capableOf", "isA", "cause")
    assert {spec.seed for spec in RELATION_SPECS.values()} <= set(SEED_RELATIONS)


def test_verbalize_parse_roundtrip_all_relations():
    for relation, spec in RELATION_SPECS.items():
        text = verbalize(relation, spec.example) + "."
        parsed = parse_predicate(text)
        assert parsed is not None, relation
        parsed_relation, tail = parsed
        assert parsed_relation == relation
        assert tail == spec.example


def test_parse_handles_whitespace_and_case():
    parsed = parse_predicate("  It is capable of hold snacks.  ")
    assert parsed == (Relation.CAPABLE_OF, "hold snacks")


def test_parse_rejects_non_template_text():
    assert parse_predicate("completely unrelated sentence.") is None
    assert parse_predicate("") is None
    assert parse_predicate("it is capable of") is None  # empty tail


def test_longest_prefix_disambiguation():
    # "used in the" must not be parsed as the shorter "used on"/"used".
    parsed = parse_predicate("it is used in the bedroom.")
    assert parsed == (Relation.USED_IN_LOC, "bedroom")
    parsed_on = parse_predicate("it is used on sensitive skin.")
    assert parsed_on == (Relation.USED_IN_BODY, "sensitive skin")


def test_relations_for_tail_type_partition():
    seen = []
    for tail_type in TailType:
        seen.extend(relations_for_tail_type(tail_type))
    assert sorted(seen, key=lambda r: r.value) == sorted(Relation, key=lambda r: r.value)


def test_audience_has_three_relations():
    audience = set(relations_for_tail_type(TailType.AUDIENCE))
    assert audience == {Relation.USED_FOR_AUD, Relation.USED_BY, Relation.X_IS_A}
