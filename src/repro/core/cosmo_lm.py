"""COSMO-LM: the instruction-finetuned knowledge model (§3.4).

Wraps the trainable student LM with tokenizer construction, instruction
finetuning, knowledge generation for both behavior types, label
prediction for the auxiliary tasks, and an oracle-based quality
evaluator used by the distillation benches (is a generated tail the
behavior's true intent? is it at least true of the product?).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass, fields

from repro.behavior.world import World
from repro.core.instructions import InstructionDataset
from repro.core.relations import parse_predicate
from repro.core.triples import BehaviorSample
from repro.llm.interface import Generation, GenerationBatch, LatencyModel
from repro.llm.seq2seq import Seq2SeqLM
from repro.llm.student import StudentLM
from repro.llm.tokenizer import Tokenizer

__all__ = ["CosmoLMConfig", "CosmoLM", "KnowledgeQuality"]

EMBED_DIM = 48
RERANK_CANDIDATES = 4       #: the greedy candidate plus three sampled ones
RERANK_TEMPERATURE = 0.7


@dataclass(frozen=True)
class CosmoLMConfig:
    """Model size and finetuning hyperparameters."""

    architecture: str = "seq2seq"  # "seq2seq" (attention) | "lm" (ablation)
    hidden_dim: int = 96
    epochs: int = 10
    lr: float = 4e-3


@dataclass(frozen=True)
class KnowledgeQuality:
    """Oracle judgment of a batch of generations."""

    total: int
    parsed: int
    typical: int
    plausible: int

    @property
    def typical_rate(self) -> float:
        return self.typical / self.total if self.total else 0.0

    @property
    def plausible_rate(self) -> float:
        return self.plausible / self.total if self.total else 0.0


class CosmoLM:
    """The deployable knowledge model: finetune once, generate cheaply."""

    def __init__(
        self,
        config: CosmoLMConfig | None = None,
        seed: int = 0,
        latency: LatencyModel | None = None,
    ):
        self.config = config or CosmoLMConfig()
        self.seed = seed
        self.latency = latency or LatencyModel()
        self.tokenizer: Tokenizer | None = None
        self.model: StudentLM | Seq2SeqLM | None = None
        self.classifier: StudentLM | Seq2SeqLM | None = None

    # ------------------------------------------------------------------
    def _model_class(self):
        if self.config.architecture == "seq2seq":
            return Seq2SeqLM
        if self.config.architecture == "lm":
            return StudentLM
        raise ValueError(f"unknown architecture {self.config.architecture!r}")

    def _new_model(self, name: str):
        return self._model_class()(
            self.tokenizer,
            embed_dim=EMBED_DIM,
            hidden_dim=self.config.hidden_dim,
            name=name,
            seed=self.seed,
            latency=self.latency,
        )

    def finetune(self, dataset: InstructionDataset) -> list[float]:
        """Build the vocabulary and instruction-finetune the student.

        One LLaMA-7b learns all five tasks jointly (§3.4); at our ~1e5
        parameter scale joint training lets the numerous yes/no tasks
        crowd out generation, so the tasks are split over two small heads
        behind the same API.  Returns the generation head's per-epoch
        losses.
        """
        corpus = [example.prompt for example in dataset.examples]
        corpus += [example.target for example in dataset.examples]
        self.tokenizer = Tokenizer().fit(corpus)
        self.model = self._new_model("cosmo-lm-gen")
        generation = [(e.prompt, e.target) for e in dataset.examples
                      if e.task == "generation"]
        labels = [(e.prompt, e.target) for e in dataset.examples
                  if e.task != "generation"]
        # The generation subset is much smaller than the label tasks, so
        # the generation head gets proportionally more epochs.
        losses = self.model.fit(
            generation or dataset.pairs(),
            epochs=min(self.config.epochs * 2, 40),
            lr=self.config.lr,
        )
        self.classifier = self._new_model("cosmo-lm-cls")
        if labels:
            self.classifier.fit(
                labels,
                epochs=max(self.config.epochs // 2, 2),
                lr=self.config.lr,
            )
        return losses

    # ------------------------------------------------------------------
    # Persistence (the SageMaker "model refresh" needs a durable artifact)
    # ------------------------------------------------------------------
    def save(self, directory: str | pathlib.Path) -> None:
        """Persist config, tokenizer and both heads to a directory."""
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if self.tokenizer is None or self.model is None or self.classifier is None:
            raise RuntimeError("nothing to save: finetune first")
        (directory / "config.json").write_text(json.dumps(asdict(self.config)))
        self.tokenizer.save(directory / "tokenizer.json")
        self.model.save(str(directory / "generator.npz"))
        self.classifier.save(str(directory / "classifier.npz"))

    @classmethod
    def load(cls, directory: str | pathlib.Path) -> "CosmoLM":
        """Restore a model previously written by :meth:`save`."""
        directory = pathlib.Path(directory)
        path = directory / "config.json"
        try:
            stored = json.loads(path.read_text())
        except ValueError as error:
            raise ValueError(f"{path}: not JSON ({error})") from None
        expected = {f.name for f in fields(CosmoLMConfig)}
        keys = set(stored) if isinstance(stored, dict) else set()
        if keys != expected:
            raise ValueError(
                f"{path}: not this version's COSMO-LM config "
                f"(unknown keys {sorted(keys - expected)}, "
                f"missing keys {sorted(expected - keys)})")
        instance = cls(config=CosmoLMConfig(**stored))
        instance.tokenizer = Tokenizer.load(directory / "tokenizer.json")
        instance.model = instance._new_model("cosmo-lm-gen")
        instance.model.load(str(directory / "generator.npz"))
        instance.model.eval()
        instance.classifier = instance._new_model("cosmo-lm-cls")
        instance.classifier.load(str(directory / "classifier.npz"))
        instance.classifier.eval()
        return instance

    def _require_model(self) -> StudentLM | Seq2SeqLM:
        if self.model is None:
            raise RuntimeError("CosmoLM must be finetuned before inference")
        return self.model

    def _require_classifier(self) -> StudentLM | Seq2SeqLM:
        if self.classifier is None:
            raise RuntimeError("CosmoLM must be finetuned before inference")
        return self.classifier

    @property
    def parameter_count(self) -> int:
        return (self._require_model().parameter_count
                + self._require_classifier().parameter_count)

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    @staticmethod
    def searchbuy_prompt(query_text: str, domain: str, product_type: str) -> str:
        """The canonical generation prompt: query + product type (the
        fields the feature store serves), matching training."""
        type_part = f"type: {product_type} " if product_type else ""
        return f"domain: {domain} search query: {query_text} {type_part}task: generation"

    @staticmethod
    def cobuy_prompt(title_a: str, title_b: str, domain: str,
                     type_a: str, type_b: str) -> str:
        if type_a and type_b:
            return f"domain: {domain} types: {type_a} and {type_b} task: generation"
        return (
            f"behavior: co buy domain: {domain} "
            f"products bought together: {title_a} and {title_b} "
            "task: generation"
        )

    def generate_batch(self, prompts: list[str]) -> GenerationBatch:
        """Batched greedy knowledge generation — the
        :class:`~repro.llm.interface.KnowledgeGenerator` entrypoint the
        serving stack calls."""
        return self._require_model().generate_batch(prompts)

    def generate_reranked(self, prompts: list[str]) -> list[Generation]:
        """Sample-and-rerank generation (§3.4: the finetuned LM both
        generates knowledge *and judges its quality*).

        For each prompt, the greedy candidate plus
        ``RERANK_CANDIDATES - 1`` sampled ones are scored by the model's
        own typicality head (log p("yes") − log p("no")); the
        best-scoring candidate wins.  Costs ~``RERANK_CANDIDATES``× a
        greedy pass, so this is the quality-over-latency mode.
        """
        from repro.utils.rng import spawn_rng

        model = self._require_model()
        if not hasattr(model, "_sample_top_k"):
            raise RuntimeError("reranked generation requires the seq2seq architecture")
        rng = spawn_rng(self.seed, "rerank-sampling")
        pools: list[list[Generation]] = [model.decode_batch(prompts)]
        for _ in range(RERANK_CANDIDATES - 1):
            pools.append(model.decode_batch(prompts, temperature=RERANK_TEMPERATURE, rng=rng))
        winners: list[Generation] = []
        for index, prompt in enumerate(prompts):
            body = prompt.rsplit(" task: ", 1)[0]
            best, best_score = None, -float("inf")
            seen: set[str] = set()
            for pool in pools:
                candidate = pool[index]
                if not candidate.text or candidate.text in seen:
                    continue
                seen.add(candidate.text)
                judge_prompt = (
                    f"{body} knowledge: {candidate.text.rstrip('.')} task: typicality"
                )
                judge = self._require_classifier()
                score = (judge.sequence_logprob(judge_prompt, "yes")
                         - judge.sequence_logprob(judge_prompt, "no"))
                if score > best_score:
                    best, best_score = candidate, score
            winners.append(best if best is not None else pools[0][index])
        return winners

    def prompt_for_sample(self, world: World, sample: BehaviorSample) -> str:
        if sample.behavior == "search-buy":
            query = world.queries.get(sample.query_id)
            product = world.catalog.get(sample.product_ids[0])
            return self.searchbuy_prompt(query.text, sample.domain, product.product_type)
        product_a = world.catalog.get(sample.product_ids[0])
        product_b = world.catalog.get(sample.product_ids[1])
        return self.cobuy_prompt(product_a.title, product_b.title, sample.domain,
                                 product_a.product_type, product_b.product_type)

    # ------------------------------------------------------------------
    # Label prediction (auxiliary tasks)
    # ------------------------------------------------------------------
    def predict_typicality(self, behavior_prompt: str, knowledge: str) -> str:
        """yes/no typicality judgment for a (behavior, knowledge) pair.

        ``behavior_prompt`` is a generation-style prompt; its task marker
        is swapped for the typicality one.
        """
        body = behavior_prompt.rsplit(" task: ", 1)[0]
        return self._require_classifier().classify(
            f"{body} knowledge: {knowledge} task: typicality"
        )

    # ------------------------------------------------------------------
    # Oracle evaluation
    # ------------------------------------------------------------------
    @staticmethod
    def judge_generations(
        world: World,
        samples: list[BehaviorSample],
        texts: list[str],
    ) -> KnowledgeQuality:
        """Score generations against the world's ground truth.

        *typical*: the parsed tail names the behavior's true intent (or,
        when the behavior has no single intent, any intent shared by all
        head products).  *plausible*: the tail names any intent of any
        head product.
        """
        parsed = typical = plausible = 0
        for sample, text in zip(samples, texts):
            result = parse_predicate(text)
            if result is None:
                continue
            parsed += 1
            _, tail = result
            tail_norm = tail.lower().strip()
            head_tails: set[str] = set()
            for product_id in sample.product_ids:
                for intent_id in world.catalog.get(product_id).intent_ids:
                    head_tails.add(world.intents.get(intent_id).tail.lower())
            if tail_norm in head_tails:
                plausible += 1
            if sample.intent_id is not None:
                true_tail = world.intents.get(sample.intent_id).tail.lower()
                if tail_norm == true_tail:
                    typical += 1
        return KnowledgeQuality(
            total=len(texts), parsed=parsed, typical=typical, plausible=plausible
        )
