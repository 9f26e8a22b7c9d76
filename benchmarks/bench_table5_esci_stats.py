"""Table 5: ESCI dataset statistics across locales.

Regenerates the five locale datasets and prints the Table 5 layout
(training/test pairs, exact pairs, unique queries and products).  The
paper's relative locale sizes (CA smallest, KDD Cup/IN largest) must
hold.
"""

from conftest import publish

from repro.behavior import LOCALES, generate_esci
from repro.reporting import Table


def test_table5_esci_statistics(bench_world, benchmark):
    datasets = {
        locale: generate_esci(bench_world, locale=locale, pairs_per_query=6, seed=7)
        for locale in LOCALES
    }
    benchmark(generate_esci, bench_world, locale="CA", pairs_per_query=6, seed=7)

    table = Table("Table 5 — ESCI statistics per locale (bench scale)",
                  ["", *LOCALES])
    rows = {
        "# Training Pairs": lambda s: s["train_pairs"],
        "# Test Pairs": lambda s: s["test_pairs"],
        "# Exact Pairs": lambda s: s["exact_pairs"],
        "# Unique Queries": lambda s: s["unique_queries"],
        "# Unique Products": lambda s: s["unique_products"],
    }
    stats = {locale: datasets[locale].stats() for locale in LOCALES}
    for label, getter in rows.items():
        table.add_row(label, *(getter(stats[locale]) for locale in LOCALES))
    publish("table5_esci_stats", table.render())

    # Shape: CA is the smallest locale; KDD Cup and IN the largest —
    # exactly the paper's ordering.
    sizes = {locale: stats[locale]["train_pairs"] + stats[locale]["test_pairs"]
             for locale in LOCALES}
    assert sizes["CA"] == min(sizes.values())
    assert sizes["IN"] >= sizes["UK"] >= sizes["CA"]
    # Exact pairs dominate every locale (class imbalance of Table 5).
    for locale in LOCALES:
        total = sizes[locale]
        assert stats[locale]["exact_pairs"] / total > 0.45
