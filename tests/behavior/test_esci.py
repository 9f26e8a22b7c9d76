"""ESCI dataset generator: label semantics, locales, statistics."""

import pytest

from repro.behavior import LOCALES, generate_esci
from repro.behavior.esci import ESCILabel


@pytest.fixture(scope="module")
def dataset(world):
    return generate_esci(world, locale="KDD Cup", pairs_per_query=6, max_queries=60, seed=3)


def test_locales_list(world):
    assert set(LOCALES) == {"KDD Cup", "US", "CA", "UK", "IN"}
    with pytest.raises(ValueError):
        generate_esci(world, locale="XX", pairs_per_query=1, seed=0)


def test_exact_label_is_ground_truth_consistent(world, dataset):
    for example in dataset.train + dataset.test:
        if example.label != ESCILabel.EXACT:
            continue
        query = world.queries.get(example.query_id)
        product = world.catalog.get(example.product_id)
        if query.breadth == "broad":
            assert query.intent_id in product.intent_ids
        else:
            assert product.product_type == query.product_type


def test_irrelevant_products_come_from_other_domains(world, dataset):
    for example in dataset.train + dataset.test:
        if example.label != ESCILabel.IRRELEVANT:
            continue
        query = world.queries.get(example.query_id)
        product = world.catalog.get(example.product_id)
        assert product.domain != query.domain


def test_label_distribution_is_exact_heavy(dataset):
    distribution = dataset.label_distribution()
    total = sum(distribution.values())
    assert distribution[ESCILabel.EXACT] / total > 0.45
    assert distribution[ESCILabel.EXACT] > distribution[ESCILabel.SUBSTITUTE]


def test_stats_fields(dataset):
    stats = dataset.stats()
    assert stats["train_pairs"] + stats["test_pairs"] > 0
    assert stats["unique_queries"] <= 60
    assert stats["exact_pairs"] <= stats["train_pairs"] + stats["test_pairs"]


def test_locale_scaling(world):
    big = generate_esci(world, locale="KDD Cup", pairs_per_query=4, seed=3)
    small = generate_esci(world, locale="CA", pairs_per_query=4, seed=3)
    assert len(small.train) + len(small.test) < len(big.train) + len(big.test)


def test_uk_locale_substitutions_applied(world):
    dataset = generate_esci(world, locale="UK", pairs_per_query=4, max_queries=200, seed=3)
    texts = " ".join(e.query_text + " " + e.product_title for e in dataset.train + dataset.test)
    assert "waterproof" not in texts  # replaced by "showerproof"


def test_split_is_deterministic(world):
    a = generate_esci(world, locale="US", pairs_per_query=4, max_queries=40, seed=8)
    b = generate_esci(world, locale="US", pairs_per_query=4, max_queries=40, seed=8)
    assert [e.example_id for e in a.train] == [e.example_id for e in b.train]
    assert [e.label for e in a.test] == [e.label for e in b.test]
