"""N-gram LM: perplexity ordering is what the completeness filter needs."""

import pytest

from repro.llm import NGramLanguageModel, ngram

CORPUS = [
    "it is used for camping.",
    "it is used for walking the dog.",
    "it is capable of holding snacks.",
    "it is a type of smart watch.",
    "it is used in the bedroom.",
]


@pytest.fixture(scope="module")
def model():
    return NGramLanguageModel().fit(CORPUS)


def test_unfitted_model_raises():
    with pytest.raises(RuntimeError):
        NGramLanguageModel().perplexity("anything")


def test_training_sentences_score_low(model):
    for sentence in CORPUS:
        assert model.perplexity(sentence) < 10.0


def test_incomplete_scores_higher_than_complete(model):
    complete = model.perplexity("it is used for camping")
    truncated = model.perplexity("it is used for")
    assert truncated > complete


def test_word_salad_scores_higher_than_grammatical(model):
    grammatical = model.perplexity("it is used for holding snacks")
    salad = model.perplexity("snacks for it used holding")
    assert salad > grammatical


def test_empty_text_is_infinite(model):
    assert model.perplexity("") == float("inf")


def test_log_prob_is_negative(model):
    assert model.log_prob("it is used for camping") < 0


def test_invalid_configuration_rejected():
    # Order and weights are constants; what the constructor used to reject
    # is checked here instead.
    assert len(ngram.INTERPOLATION) == ngram.ORDER
    assert sum(ngram.INTERPOLATION) == pytest.approx(1.0)
