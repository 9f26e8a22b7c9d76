"""End-to-end inference-efficiency claims at the substrate level."""

from repro.llm import LatencyModel, Seq2SeqLM, StudentLM, Tokenizer
from repro.llm.interface import MAX_NEW_TOKENS


def test_student_models_report_true_parameter_counts():
    tok = Tokenizer().fit(["some small corpus of words"])
    seq2seq = Seq2SeqLM(tok, embed_dim=16, hidden_dim=24, name="cosmo-lm-seq2seq", seed=0, latency=LatencyModel())
    plain = StudentLM(tok, embed_dim=16, hidden_dim=24, name="cosmo-lm-sim", seed=0, latency=LatencyModel())
    for model in (seq2seq, plain):
        manual = sum(p.size for p in model.parameters())
        assert model.parameter_count == manual


def test_teacher_to_student_cost_ratio_is_orders_of_magnitude():
    latency = LatencyModel()
    teacher_cost = latency.charge(30_000_000_000, tokens=10)
    tok = Tokenizer().fit(["a b c"])
    student = Seq2SeqLM(tok, embed_dim=8, hidden_dim=8, name="cosmo-lm-seq2seq", seed=0, latency=LatencyModel())
    student_cost = latency.charge(student.parameter_count, tokens=10)
    # The per-request overhead floors the student's cost; the gap is
    # still three orders of magnitude.
    assert teacher_cost / student_cost > 1_000


def test_generation_latency_scales_with_output_length():
    tok = Tokenizer().fit(["word " * 50])
    model = Seq2SeqLM(tok, embed_dim=8, hidden_dim=8, name="cosmo-lm-seq2seq", seed=0, latency=LatencyModel())
    generation = model.decode_batch(["word"])[0]
    # Latency is charged per produced token (floor of one).
    assert generation.tokens <= MAX_NEW_TOKENS
    assert generation.latency_s == LatencyModel().charge(
        model.parameter_count, max(generation.tokens, 1))
