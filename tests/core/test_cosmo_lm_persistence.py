"""Tokenizer and COSMO-LM persistence: the deployment refresh artifact."""

import json

import pytest

from repro.core.cosmo_lm import CosmoLM
from repro.llm import Tokenizer


def test_tokenizer_roundtrip(tmp_path):
    tok = Tokenizer().fit(["winter camping gear", "dog leash"])
    path = tmp_path / "tok.json"
    tok.save(path)
    loaded = Tokenizer.load(path)
    assert len(loaded) == len(tok)
    text = "winter dog camping"
    assert loaded.encode(text) == tok.encode(text)


def test_tokenizer_load_validates(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "other", "tokens": []}))
    with pytest.raises(ValueError, match="not a tokenizer"):
        Tokenizer.load(path)
    path.write_text(json.dumps({"format": "cosmo-tokenizer", "tokens": ["<bad>"]}))
    with pytest.raises(ValueError, match="special tokens"):
        Tokenizer.load(path)


def test_cosmo_lm_save_load_identical_generations(tmp_path, trained_pipeline):
    lm = trained_pipeline.cosmo_lm
    world = trained_pipeline.world
    directory = tmp_path / "cosmo-lm"
    lm.save(directory)
    restored = CosmoLM.load(directory)

    samples = trained_pipeline.samples[:10]
    prompts = [lm.prompt_for_sample(world, s) for s in samples]
    original = [g.text for g in lm.generate_batch(prompts).require()]
    reloaded = [g.text for g in restored.generate_batch(prompts).require()]
    assert original == reloaded


def test_cosmo_lm_save_load_preserves_classifier(tmp_path, trained_pipeline):
    lm = trained_pipeline.cosmo_lm
    world = trained_pipeline.world
    directory = tmp_path / "cosmo-lm"
    lm.save(directory)
    restored = CosmoLM.load(directory)
    sample = trained_pipeline.samples[0]
    prompt = lm.prompt_for_sample(world, sample)
    assert (restored.predict_typicality(prompt, "it is used for camping")
            == lm.predict_typicality(prompt, "it is used for camping"))


def test_save_before_finetune_raises(tmp_path):
    with pytest.raises(RuntimeError, match="finetune"):
        CosmoLM().save(tmp_path / "x")


def test_stale_config_is_rejected_with_the_path_and_the_keys(tmp_path, trained_pipeline):
    """A directory saved before ``split_heads`` was folded (or by any other
    version) fails at the byte boundary, naming what does not match."""
    directory = tmp_path / "cosmo-lm"
    trained_pipeline.cosmo_lm.save(directory)
    path = directory / "config.json"
    config = json.loads(path.read_text())
    del config["lr"]
    config["split_heads"] = True
    path.write_text(json.dumps(config))
    with pytest.raises(ValueError) as error:
        CosmoLM.load(directory)
    message = str(error.value)
    assert message.startswith(f"{path}: ")
    assert "unknown keys ['split_heads']" in message
    assert "missing keys ['lr']" in message
    for damaged in ("[]", "{"):     # not a config at all; not JSON at all
        path.write_text(damaged)
        with pytest.raises(ValueError) as error:
            CosmoLM.load(directory)
        assert str(error.value).startswith(f"{path}: ")
