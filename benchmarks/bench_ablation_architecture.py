"""COSMO-LM architecture ablation.

The production student is a pointer-generator attention seq2seq; the
ablation baseline is a plain left-to-right GRU LM trained on identical
instruction data.  The copy mechanism is what makes knowledge generation
(a content-transfer task) learnable from few demonstrations, so the
seq2seq must dominate on held-out generation quality.
"""

import pytest
from conftest import publish

from repro.core.cosmo_lm import CosmoLM, CosmoLMConfig
from repro.reporting import Table, format_percent


@pytest.fixture(scope="module")
def architectures(bench_pipeline):
    world = bench_pipeline.world
    annotated = {c.sample.sample_id for c in bench_pipeline.annotated_candidates}
    held = [s for s in bench_pipeline.samples
            if s.sample_id not in annotated and s.intent_id is not None][:250]

    results = {}
    seq2seq = bench_pipeline.cosmo_lm  # already finetuned by the pipeline
    texts = [g.text for g in seq2seq.generate_batch(
        [seq2seq.prompt_for_sample(world, s) for s in held]).require()]
    results["pointer seq2seq (production)"] = CosmoLM.judge_generations(world, held, texts)

    plain = CosmoLM(config=CosmoLMConfig(architecture="lm", epochs=12), seed=7)
    plain.finetune(bench_pipeline.instruction_dataset)
    plain_texts = [g.text for g in plain.generate_batch(
        [plain.prompt_for_sample(world, s) for s in held]).require()]
    results["plain GRU LM (ablation)"] = CosmoLM.judge_generations(world, held, plain_texts)
    return results


def test_architecture_ablation(architectures):
    table = Table("COSMO-LM architecture ablation (held-out behaviors)",
                  ["Architecture", "Parsed", "Plausible", "Typical"])
    for name, quality in architectures.items():
        table.add_row(name,
                      format_percent(quality.parsed / quality.total),
                      format_percent(quality.plausible_rate),
                      format_percent(quality.typical_rate))
    publish("ablation_architecture", table.render())

    seq2seq = architectures["pointer seq2seq (production)"]
    plain = architectures["plain GRU LM (ablation)"]
    # The copy mechanism drives held-out generation quality.
    assert seq2seq.typical_rate >= plain.typical_rate
    assert seq2seq.plausible_rate > plain.plausible_rate
