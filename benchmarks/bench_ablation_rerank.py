"""Sample-and-rerank ablation.

§3.4 notes the finetuned LM "generates typical knowledge and judges
knowledge quality as well"; combining both gives a quality-over-latency
generation mode: sample several candidates and keep the one the model's
own typicality head prefers.  The bench compares greedy vs reranked
generation on held-out behaviors.
"""

import pytest
from conftest import publish

from repro.core.cosmo_lm import CosmoLM
from repro.reporting import Table, format_percent


@pytest.fixture(scope="module")
def rerank_comparison(bench_pipeline):
    world = bench_pipeline.world
    lm = bench_pipeline.cosmo_lm
    annotated = {c.sample.sample_id for c in bench_pipeline.annotated_candidates}
    held = [s for s in bench_pipeline.samples
            if s.sample_id not in annotated and s.intent_id is not None][:150]
    prompts = [lm.prompt_for_sample(world, s) for s in held]

    before = lm.latency.total_simulated_s
    greedy = [g.text for g in lm.generate_batch(prompts).require()]
    greedy_latency = (lm.latency.total_simulated_s - before) / len(held)

    before = lm.latency.total_simulated_s
    reranked = [g.text for g in lm.generate_reranked(prompts)]
    rerank_latency = (lm.latency.total_simulated_s - before) / len(held)

    return (CosmoLM.judge_generations(world, held, greedy), greedy_latency,
            CosmoLM.judge_generations(world, held, reranked), rerank_latency)


def test_rerank_ablation(rerank_comparison):
    greedy_q, greedy_lat, rerank_q, rerank_lat = rerank_comparison

    table = Table("Generation mode ablation — greedy vs sample-and-rerank",
                  ["Mode", "Typical", "Plausible", "Latency / gen"])
    table.add_row("greedy (serving default)",
                  format_percent(greedy_q.typical_rate),
                  format_percent(greedy_q.plausible_rate),
                  f"{greedy_lat * 1000:.2f} ms")
    table.add_row("sample-and-rerank (k=4)",
                  format_percent(rerank_q.typical_rate),
                  format_percent(rerank_q.plausible_rate),
                  f"{rerank_lat * 1000:.2f} ms")
    publish("ablation_rerank", table.render())

    # Reranking pays ~4x latency; at our self-judge accuracy it is
    # quality-neutral (the paper's LLaMA-scale judge is stronger) — the
    # bench verifies the latency cost is real and quality stays in the
    # same regime.
    assert rerank_q.plausible_rate >= greedy_q.plausible_rate - 0.08
    assert rerank_lat > greedy_lat
