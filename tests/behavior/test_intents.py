"""Latent intent space: hierarchy, vectors, determinism."""

import numpy as np

from repro.behavior.intents import IntentSpace
from repro.core.relations import TailType


def test_space_covers_all_domains(world):
    domains = {intent.domain for intent in world.intents.all()}
    assert len(domains) == 18


def test_children_are_refinements_of_parent(world):
    found_children = 0
    for intent in world.intents.all():
        for child in world.intents.children(intent.intent_id):
            found_children += 1
            assert child.parent == intent.intent_id
            assert child.tail.endswith(intent.tail)
            assert child.tail != intent.tail
            assert child.tail_type == TailType.ACTIVITY
    assert found_children > 0


def test_roots_have_no_parent(world):
    for root in world.intents.roots():
        assert root.parent is None


def test_roots_filter_by_domain(world):
    # Every domain has base intents to refine.
    domains = {intent.domain for intent in world.intents.all()}
    assert {root.domain for root in world.intents.roots()} == domains


def test_child_vectors_closer_to_parent_than_random(world):
    closer = total = 0
    rng = np.random.default_rng(0)
    all_ids = [i.intent_id for i in world.intents.all()]
    for intent in world.intents.all():
        for child in world.intents.children(intent.intent_id):
            random_id = all_ids[rng.integers(len(all_ids))]
            parent_sim = world.intents.similarity(child.intent_id, intent.intent_id)
            random_sim = world.intents.similarity(child.intent_id, random_id)
            closer += int(parent_sim > random_sim)
            total += 1
    assert closer / total > 0.9


def test_similarity_bounds(world):
    intents = world.intents.all()[:20]
    for a in intents:
        assert world.intents.similarity(a.intent_id, a.intent_id) > 0.999
        for b in intents[:5]:
            sim = world.intents.similarity(a.intent_id, b.intent_id)
            assert -1.0 <= sim <= 1.0 + 1e-9


def test_determinism():
    a = IntentSpace(seed=4)
    b = IntentSpace(seed=4)
    assert [i.intent_id for i in a.all()] == [i.intent_id for i in b.all()]
    assert [i.tail for i in a.all()] == [i.tail for i in b.all()]
    first = a.all()[0].intent_id
    assert np.array_equal(a.vector(first), b.vector(first))


def test_relation_matches_tail_type(world):
    from repro.core.relations import RELATION_SPECS

    for intent in world.intents.all():
        assert RELATION_SPECS[intent.relation].tail_type == intent.tail_type
