"""Language-model substrate: teacher LLM, n-gram filter LM, student LM."""

from repro.llm.interface import (
    Generation,
    GenerationTruth,
    KnowledgeGenerator,
    LatencyModel,
)
from repro.llm.ngram import NGramLanguageModel
from repro.llm.seq2seq import Seq2SeqLM
from repro.llm.student import StudentLM
from repro.llm.teacher import QUALITY_MIX, TeacherLLM
from repro.llm.tokenizer import Tokenizer

__all__ = [
    "Generation",
    "GenerationTruth",
    "KnowledgeGenerator",
    "LatencyModel",
    "NGramLanguageModel",
    "Seq2SeqLM",
    "StudentLM",
    "TeacherLLM",
    "QUALITY_MIX",
    "Tokenizer",
]
