"""Domain registry invariants."""

from repro.catalog import DOMAIN_NAMES, all_domains
from repro.core.relations import TailType


def _domain(name):
    return {domain.name: domain for domain in all_domains()}[name]


def test_exactly_eighteen_domains():
    assert len(DOMAIN_NAMES) == 18
    assert len(all_domains()) == 18


def test_table3_names_present():
    for name in ("Clothing, Shoes & Jewelry", "Electronics", "Pet Supplies", "Others"):
        assert name in DOMAIN_NAMES


def test_every_domain_has_products_and_core_intent_banks():
    for domain in all_domains():
        assert len(domain.product_types) >= 8
        assert domain.tail_phrases(TailType.FUNCTION)
        assert domain.tail_phrases(TailType.ACTIVITY)
        assert domain.tail_phrases(TailType.AUDIENCE)


def test_concept_tails_are_the_product_types():
    domain = _domain("Sports & Outdoors")
    assert domain.tail_phrases(TailType.CONCEPT) == domain.product_types


def test_tail_phrases_unknown_bank_is_empty():
    domain = _domain("Toys & Games")
    # Toys has no body-part bank in the vocab.
    assert domain.tail_phrases(TailType.BODY_PART) == ()
