"""Table 4: plausibility and typicality ratios of annotated data.

The paper reports ~35% typicality for search-buy and a "notably low"
co-buy ratio (the teacher explains one product, not the pair).  The
bench regenerates the ratios from the simulated annotation pass.
"""

from conftest import publish

from repro.reporting import Table, format_percent


def test_table4_quality_ratios(bench_pipeline):
    ratios = bench_pipeline.quality_ratios

    table = Table(
        "Table 4 — annotated quality ratios (paper: SB typicality 35.0%)",
        ["Behavior", "Plausibility", "Typicality"],
    )
    for behavior in ("co-buy", "search-buy"):
        table.add_row(
            behavior,
            format_percent(ratios[behavior]["plausibility"]),
            format_percent(ratios[behavior]["typicality"]),
        )
    audit = bench_pipeline.audit
    extra = (f"Annotation audit: {audit.sampled} sampled, "
             f"accuracy {format_percent(audit.accuracy)} (paper: >90%)")
    publish("table4_quality_ratios", table.render() + "\n" + extra)

    # Paper shape: search-buy ≈ 35% typical; co-buy notably lower.
    assert 0.15 <= ratios["search-buy"]["typicality"] <= 0.50
    assert ratios["co-buy"]["typicality"] < ratios["search-buy"]["typicality"]
    assert ratios["co-buy"]["plausibility"] < ratios["search-buy"]["plausibility"]
    assert audit.accuracy > 0.9
