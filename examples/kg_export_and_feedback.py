"""KG export, model persistence, and the serving feedback loop.

Shows the durable-artifact side of the system: build the KG once, ship
it as a columnar archive (and export it as JSON Lines for downstream
consumers), persist the finetuned COSMO-LM, then run the serving
feedback loop (§3.5.2) where user interactions continually refresh the
model's typicality judge.

Run:  python examples/kg_export_and_feedback.py
"""

import tempfile
from pathlib import Path

from repro.behavior import WorldConfig
from repro.core import CosmoLMConfig, CosmoPipeline, PipelineConfig
from repro.core.cosmo_lm import CosmoLM
from repro.core.kg_io import load_kg_columnar, save_kg, save_kg_columnar
from repro.serving import CosmoService


def main() -> None:
    config = PipelineConfig(
        seed=17,
        world=WorldConfig(seed=17, products_per_domain=24,
                          broad_queries_per_domain=10, specific_queries_per_domain=10),
        cobuy_pairs_per_domain=30,
        searchbuy_records_per_domain=40,
        annotation_budget=400,
        lm=CosmoLMConfig(epochs=8, hidden_dim=64),
    )
    print("Building the KG and finetuning COSMO-LM...")
    result = CosmoPipeline(config).run()

    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir)

        # 1. Ship the knowledge graph: the archive round-trips exactly,
        # the JSON Lines export is one-way.
        kg_path = workdir / "cosmo_kg.npz"
        written = save_kg_columnar(result.kg, kg_path)
        reloaded = load_kg_columnar(kg_path)
        print(f"\nKG archive: {written} edges -> {kg_path.name} "
              f"({kg_path.stat().st_size / 1024:.0f} KiB), "
              f"reload check: {reloaded.triples() == result.kg.triples()}")
        export_path = workdir / "cosmo_kg.jsonl"
        save_kg(result.kg, export_path)
        print(f"KG export: {export_path.name} "
              f"({export_path.stat().st_size / 1024:.0f} KiB)")

        # 2. Persist and restore the model (the deployment refresh artifact).
        model_dir = workdir / "cosmo-lm"
        result.cosmo_lm.save(model_dir)
        restored = CosmoLM.load(model_dir)
        sample = result.samples[0]
        prompt = restored.prompt_for_sample(result.world, sample)
        print(f"Model restore: generation {restored.generate_batch([prompt]).require()[0].text!r}")

        # 3. Feedback loop: user interactions continually finetune the
        # judge head — here, repeated positive engagement teaches it to
        # accept a knowledge string it initially rejected.
        service = CosmoService(restored)
        knowledge = restored.generate_batch([prompt]).require()[0].text.rstrip(".")
        before = restored.predict_typicality(prompt, knowledge)
        for _ in range(25):
            service.record_feedback(prompt.rsplit(" task: ", 1)[0], knowledge,
                                    helpful=True)
        consumed = service.apply_feedback()
        after = restored.predict_typicality(prompt, knowledge)
        print(f"Feedback loop: consumed {consumed} interactions; "
              f"judge on engaged knowledge: {before!r} -> {after!r}")


if __name__ == "__main__":
    main()
