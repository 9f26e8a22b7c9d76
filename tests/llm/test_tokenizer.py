"""Tokenizer: vocabulary, round trips, special tokens."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import Tokenizer
from repro.utils.textproc import tokenize_words


def test_specials_present_and_first():
    tok = Tokenizer()
    assert len(tok) == len(Tokenizer.SPECIALS)
    assert tok.pad_id == 0
    assert tok.token(tok.eos_id) == Tokenizer.EOS


def test_fit_and_encode_known_words():
    tok = Tokenizer().fit(["the cat sat", "the dog ran"])
    ids = tok.encode("the cat ran")
    assert tok.unk_id not in ids
    assert tok.decode(ids) == "the cat ran"


def test_unknown_words_map_to_unk():
    tok = Tokenizer().fit(["hello world"])
    ids = tok.encode("hello mars")
    assert ids[1] == tok.unk_id


def test_add_eos_flag():
    # There is none: the decoders append ``eos_id`` to their targets themselves.
    tok = Tokenizer().fit(["a b"])
    assert tok.encode("a") == [tok.id_of("a")]


def test_decode_skips_specials_by_default():
    tok = Tokenizer().fit(["x y"])
    ids = [tok.bos_id, *tok.encode("x y"), tok.eos_id]
    assert tok.decode(ids) == "x y"


def test_min_count_and_max_vocab():
    # Neither exists: every word gets an id, most frequent first.
    tok = Tokenizer().fit(["c b b a a a"])
    assert [tok.id_of(word) - len(Tokenizer.SPECIALS) for word in "abc"] == [0, 1, 2]


def test_id_of_raises_for_unknown():
    tok = Tokenizer().fit(["a"])
    with pytest.raises(KeyError):
        tok.id_of("zzz")


@given(st.text(alphabet="abc def", min_size=0, max_size=30))
@settings(max_examples=50, deadline=None)
def test_roundtrip_for_in_vocab_text(text):
    tok = Tokenizer().fit([text])
    assert tok.decode(tok.encode(text)) == " ".join(tokenize_words(text))
