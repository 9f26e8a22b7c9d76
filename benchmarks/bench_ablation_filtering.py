"""Filtering ablation (§3.3.1 design choices).

Measures the oracle precision (fraction of surviving candidates that are
typical or at least plausible) with the refinement cascade fully on,
fully off, and with each stage disabled individually — quantifying what
each coarse-grained filter contributes.
"""

import pytest
from conftest import publish

from repro.core.filtering import FilterConfig, KnowledgeFilter
from repro.embeddings import TextEncoder
from repro.reporting import Table, format_percent

_GOOD = {"typical", "plausible"}


def _precision(candidates):
    if not candidates:
        return 0.0
    return sum(c.truth.quality in _GOOD for c in candidates) / len(candidates)


@pytest.fixture(scope="module")
def variants(bench_pipeline):
    encoder = TextEncoder(seed=7)
    candidates = bench_pipeline.candidates
    configs = {
        "all stages on": FilterConfig(),
        "no filtering": FilterConfig(enable_completeness=False, enable_context_overlap=False,
                                     enable_generic=False, enable_similarity=False),
        "w/o completeness": FilterConfig(enable_completeness=False),
        "w/o context-overlap": FilterConfig(enable_context_overlap=False),
        "w/o generic-tail": FilterConfig(enable_generic=False),
        "w/o similarity": FilterConfig(enable_similarity=False),
    }
    rows = {}
    for name, config in configs.items():
        survivors, report = KnowledgeFilter(encoder, config=config).apply(candidates)
        rows[name] = (len(survivors), _precision(survivors), report)
    return rows


def test_filtering_ablation(variants):
    table = Table("Refinement ablation — oracle precision of survivors",
                  ["Configuration", "Survivors", "Typical+plausible precision"])
    for name, (kept, precision, _) in variants.items():
        table.add_row(name, kept, format_percent(precision))
    publish("ablation_filtering", table.render())

    full_kept, full_precision, _ = variants["all stages on"]
    raw_kept, raw_precision, _ = variants["no filtering"]
    # The cascade trades volume for precision, as the paper intends.
    assert full_precision > raw_precision + 0.05
    assert full_kept < raw_kept
    # Each stage contributes: removing completeness hurts precision most
    # (it also drops unparseable text) and every stage keeps more than
    # the full cascade.
    for name in ("w/o completeness", "w/o context-overlap",
                 "w/o generic-tail", "w/o similarity"):
        kept, precision, _ = variants[name]
        assert kept >= full_kept
