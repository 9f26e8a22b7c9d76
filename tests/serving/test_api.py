"""Structured serving API: envelope contents, removed shims, generator protocol."""

from repro.llm import KnowledgeGenerator, LatencyModel, StudentLM, Tokenizer
from repro.serving import (
    CosmoService,
    FaultInjector,
    FaultPlan,
    FlakyGenerator,
    ResilientGenerator,
    ServeOutcome,
    ServeRequest,
    ServeResult,
    SimClock,
)
from repro.serving.api import (
    SOURCE_CACHE_DAILY,
    SOURCE_CACHE_YEARLY,
    SOURCE_DIRECT,
    SOURCE_FALLBACK,
    SOURCE_FEATURE_STORE,
)
from repro.serving.chaos import ScriptedGenerator


def _service(**kwargs) -> CosmoService:
    return CosmoService(ScriptedGenerator(), fallback_response="(down)",
                        name="svc", **kwargs)


# -- envelope per degradation stage ----------------------------------------
def test_serve_reports_yearly_and_daily_cache_sources():
    service = _service()
    service.cache.preload_yearly({"hot": "hot answer."})
    result = service.serve(ServeRequest(query="hot"))
    assert result == ServeResult(query="hot", text="hot answer.",
                                 outcome=ServeOutcome.FRESH,
                                 source=SOURCE_CACHE_YEARLY,
                                 latency_s=result.latency_s, replica="svc",
                                 snapshot_version=None)
    assert result.served

    service.serve(ServeRequest(query="cold"))  # miss → pending
    service.run_batch()
    daily = service.serve(ServeRequest(query="cold"))
    assert daily.outcome is ServeOutcome.FRESH
    assert daily.source == SOURCE_CACHE_DAILY


def test_serve_reports_degraded_sources_and_fallback():
    service = _service()
    first = service.serve(ServeRequest(query="q"))
    assert first.outcome is ServeOutcome.FALLBACK
    assert first.source == SOURCE_FALLBACK
    assert first.text == "(down)"
    assert not first.served

    service.run_batch()
    service.clock.advance_days(1)  # daily layer expires; features survive
    stale = service.serve(ServeRequest(query="q"))
    assert stale.outcome is ServeOutcome.DEGRADED
    assert stale.source == SOURCE_FEATURE_STORE
    assert stale.text == "it is used for q."


def test_serve_direct_reports_source_and_measured_latency():
    service = _service()
    result = service.serve(ServeRequest(query="q", direct=True))
    assert result.outcome is ServeOutcome.FRESH
    assert result.source == SOURCE_DIRECT
    assert result.latency_s > 0.0
    assert result.replica == "svc"


def test_serve_without_enqueue_skips_the_pending_queue():
    service = _service()
    (shed,) = service.serve_batch([ServeRequest(query="q")], allow_enqueue=False)
    assert shed.outcome is ServeOutcome.FALLBACK
    assert service.cache.pending_size == 0  # not queued, still counted
    assert service.metrics.requests == 1


# -- removed shims (tombstone) ---------------------------------------------
def test_string_shims_are_gone():
    """The deprecated ``handle_request``/``handle_request_direct`` string
    shims were removed after a full deprecation cycle; ``serve()`` with a
    :class:`ServeRequest` is the only entry point."""
    assert not hasattr(CosmoService, "handle_request")
    assert not hasattr(CosmoService, "handle_request_direct")


def test_no_in_repo_caller_resurrects_the_shims():
    """No code under src/, benchmarks/, examples/, or tests/ calls the
    removed string shims; everything goes through serve()."""
    import ast
    from pathlib import Path

    import repro

    repo_root = Path(repro.__file__).resolve().parents[2]
    shimmed = {"handle_request", "handle_request_direct"}
    offenders = []
    for tree_root in ("src", "benchmarks", "examples", "tests"):
        for path in sorted((repo_root / tree_root).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in shimmed):
                    offenders.append(f"{path.relative_to(repo_root)}:"
                                     f"{node.lineno}")
    assert offenders == []


# -- KnowledgeGenerator protocol -------------------------------------------
def test_serving_generators_satisfy_knowledge_generator_protocol():
    scripted = ScriptedGenerator()
    flaky = FlakyGenerator(scripted, FaultInjector(FaultPlan(), seed=0))
    resilient = ResilientGenerator(scripted, SimClock())
    tokenizer = Tokenizer().fit(["winter tent camping gear"])
    student = StudentLM(tokenizer, embed_dim=32, hidden_dim=64, name="cosmo-lm-sim", seed=0, latency=LatencyModel())
    for generator in (scripted, flaky, resilient, student):
        assert isinstance(generator, KnowledgeGenerator)
        assert hasattr(generator, "latency")


def test_student_generate_knowledge_matches_generate_batch():
    tokenizer = Tokenizer().fit(["winter tent camping gear"])
    student = StudentLM(tokenizer, embed_dim=32, hidden_dim=64, name="cosmo-lm-sim", seed=0, latency=LatencyModel())
    prompts = ["winter tent"]
    batch = student.generate_batch(prompts)
    knowledge = student.decode_batch(prompts)
    assert batch.ok and len(batch) == len(prompts)
    assert [g.text for g in knowledge] == [g.text for g in batch.require()]
