"""Table 1: comparison among commonsense knowledge graphs.

Static rows for the published KGs come from the paper; the COSMO row is
*computed* from the KG our pipeline builds at bench scale (so absolute
counts are scaled down while the qualitative columns — source, node
types, intention coverage, behavior coverage — are reproduced exactly).
"""

from conftest import publish

from repro.reporting import Table

# (name, nodes, edges, relations, source, ecommerce, intention, behavior)
_PUBLISHED = (
    ("ConceptNet", "8M", "21M", 36, "Crowdsource", "x", "yes", "x"),
    ("ATOMIC", "300K", "870K", 9, "Crowdsource", "x", "yes", "x"),
    ("AliCoCo", "163K", "813K", 91, "Extraction", "yes", "x", "search logs"),
    ("AliCG", "5M", "13.5M", 1, "Extraction", "x", "x", "search logs"),
    ("FolkScope", "1.2M", "12M", 19, "LLM Generation", "2 domains", "yes", "co-buy"),
)


def _build_table(kg) -> str:
    stats = kg.stats()
    behaviors = sorted({t.behavior for t in kg.triples()})
    table = Table(
        "Table 1 — KG comparison (COSMO row computed at bench scale)",
        ["KG", "# Nodes", "# Edges", "# Rels", "Source", "E-com", "Intention", "Behavior"],
    )
    for row in _PUBLISHED:
        table.add_row(*row)
    table.add_separator()
    table.add_row(
        "COSMO (ours, scaled)",
        stats.nodes,
        stats.edges,
        stats.relations,
        "LLM Generation",
        f"{stats.domains} domains",
        "yes",
        "&".join(b.replace("-", "") for b in behaviors),
    )
    return table.render()


def test_table1_kg_comparison(bench_pipeline):
    kg = bench_pipeline.kg
    stats = kg.stats()
    publish("table1_kg_comparison", _build_table(kg))
    # Shape: COSMO covers all 18 domains and more relations than AliCG,
    # from LLM generation over both behavior types.
    assert stats.domains == 18
    assert stats.relations >= 12
    behaviors = {t.behavior for t in kg.triples()}
    assert behaviors == {"co-buy", "search-buy"}
