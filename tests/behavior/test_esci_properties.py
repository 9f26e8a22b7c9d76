"""Property checks over ESCI generation parameters."""

import pytest

from repro.behavior import generate_esci
from repro.behavior.esci import LOCALE_SCALE, LOCALES


@pytest.mark.parametrize("locale", LOCALES)
def test_every_locale_generates_nonempty_valid_data(world, locale):
    dataset = generate_esci(world, locale=locale, pairs_per_query=3,
                            max_queries=30, seed=2)
    examples = dataset.train + dataset.test
    assert examples
    for example in examples[:50]:
        assert example.locale == locale
        assert example.label in ("Exact", "Substitute", "Complement", "Irrelevant")
        assert example.query_text and example.product_title


def test_test_fraction_controls_split(world):
    # It is a quarter, not a parameter.
    dataset = generate_esci(world, pairs_per_query=3, max_queries=60, seed=2)
    total = len(dataset.train) + len(dataset.test)
    assert len(dataset.train) == int(total * 0.75)


def test_locale_scale_ordering_matches_table5(world):
    sizes = {}
    for locale in LOCALES:
        dataset = generate_esci(world, locale=locale, pairs_per_query=3, seed=2)
        sizes[locale] = len(dataset.train) + len(dataset.test)
    # Dataset sizes are ordered like the configured locale scales.
    ranked_measured = sorted(LOCALES, key=lambda l: sizes[l])
    ranked_config = sorted(LOCALES, key=lambda l: LOCALE_SCALE[l])
    assert ranked_measured[0] == ranked_config[0] == "CA"


def test_example_ids_unique(world):
    dataset = generate_esci(world, pairs_per_query=4, max_queries=50, seed=3)
    ids = [e.example_id for e in dataset.train + dataset.test]
    assert len(ids) == len(set(ids))
