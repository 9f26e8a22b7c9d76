"""Refinement cascade (§3.3.1): each stage removes its failure mode."""

import pytest

from repro.core.filtering import (
    GENERIC_MIN_HEADS,
    FilterConfig,
    KnowledgeFilter,
    build_reference_lm,
)
from repro.core.relations import Relation
from repro.core.triples import BehaviorSample, KnowledgeCandidate
from repro.embeddings import TextEncoder


def _sample(behavior="search-buy", head="winter camping gear ||| acme brand camping tent"):
    return BehaviorSample(
        sample_id="s1",
        behavior=behavior,
        domain="Sports & Outdoors",
        product_ids=("p1",) if behavior == "search-buy" else ("p1", "p2"),
        query_id="q1" if behavior == "search-buy" else None,
        head_text=head,
        intent_id=None,
    )


def _candidate(text, relation=Relation.USED_FOR_EVE, tail=None, sample=None, cid="c"):
    return KnowledgeCandidate(
        candidate_id=cid,
        sample=sample or _sample(),
        text=text,
        relation=relation,
        tail=tail,
    )


@pytest.fixture(scope="module")
def knowledge_filter():
    return KnowledgeFilter(TextEncoder(seed=0))


def test_unparseable_candidates_dropped(knowledge_filter):
    candidate = _candidate("random words with no template.", relation=None, tail=None)
    survivors, report = knowledge_filter.apply([candidate])
    assert not survivors
    assert report.dropped["completeness"] == 1


def test_incomplete_sentence_dropped(knowledge_filter):
    candidate = _candidate("it is used for", tail="")
    survivors, _ = knowledge_filter.apply([candidate])
    assert not survivors


def test_well_formed_knowledge_survives(knowledge_filter):
    candidate = _candidate(
        "it can be used when they winter camping.", tail="winter camping"
    )
    survivors, report = knowledge_filter.apply([candidate])
    assert survivors == [candidate]
    assert report.kept == 1


def test_query_overlap_is_not_a_paraphrase(knowledge_filter):
    # Tail contained in the QUERY is the semantic bridge — must survive.
    candidate = _candidate(
        "it is used for winter camping.", relation=Relation.USED_FOR_FUNC,
        tail="winter camping",
    )
    survivors, _ = knowledge_filter.apply([candidate])
    assert survivors


def test_product_title_paraphrase_dropped(knowledge_filter):
    candidate = _candidate(
        "it is a type of camping tent.", relation=Relation.IS_A, tail="camping tent"
    )
    survivors, report = knowledge_filter.apply([candidate])
    assert not survivors
    assert report.dropped["context_overlap"] == 1


def test_generic_tail_detection():
    knowledge_filter = KnowledgeFilter(TextEncoder(seed=0))
    candidates = [
        _candidate(
            "it is used for the same reason.",
            relation=Relation.USED_FOR_FUNC,
            tail="the same reason",
            sample=_sample(head=f"query {i} ||| product {i}"),
            cid=f"c{i}",
        )
        for i in range(GENERIC_MIN_HEADS)
    ]
    survivors, report = knowledge_filter.apply(candidates)
    assert not survivors
    assert report.dropped["generic"] == GENERIC_MIN_HEADS


def test_stage_toggles():
    config = FilterConfig(
        enable_completeness=False,
        enable_context_overlap=False,
        enable_generic=False,
        enable_similarity=False,
    )
    knowledge_filter = KnowledgeFilter(TextEncoder(seed=0), config=config)
    junk = _candidate("it is used for", relation=None, tail=None)
    survivors, report = knowledge_filter.apply([junk])
    assert survivors == [junk]
    assert report.kept == report.input_count == 1


def test_report_accounting(knowledge_filter):
    good = _candidate("it can be used when they winter camping.", tail="winter camping")
    bad = _candidate("gibberish.", relation=None, tail=None, cid="c2")
    survivors, report = knowledge_filter.apply([good, bad])
    assert report.input_count == 2
    assert report.kept == 1


def test_reference_lm_prefers_template_sentences():
    lm = build_reference_lm()
    assert lm.perplexity("it is used for dry face.") < lm.perplexity("face used it dry for")
