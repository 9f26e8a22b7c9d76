"""The API inventory (ROADMAP crumbs, PRs 21 and 22).  Two tables over one
source loading: every public function, class, method and property of
``src/repro`` has a caller (first half), and every option of ``src/repro``
has two values in use (second half, from ``PRODUCTION`` down).

A caller is a ``Name`` / ``Attribute`` / import / identifier-valued string
constant with the same identifier anywhere in ``src/``, ``benchmarks/``,
``examples/`` or ``scripts/`` outside the definition's own lines;
``__init__.py`` re-exports and ``tests/`` do not count.  The index is by
bare identifier, so a name that collides with a common one (``add``,
``get``, ``put``) is never reported, nor is a method that fills a base-class
or ``Protocol`` slot some caller invokes: the scan can only under-report.
``KEPT`` is the whole list of exceptions, each row with its reason; a name
in it that the scan no longer reports is itself a failure.
"""

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CALLER_ROOTS = ("src", "benchmarks", "examples", "scripts")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: (names, reason): at most six rows.
KEPT = (
    (("KnowledgeRefresher",),
     "paper 3.5's incremental refresh, which only tests/refresh/test_builder.py "
     "drives (its RefreshConfig / RefreshReport are referenced from it)"),
    (("TailSampler.pending_traces",), "ROADMAP item 1's quiescence invariant"),
)


def _public(node: ast.AST) -> bool:
    """A def the audit covers: not private, not a ``cmd_*`` dispatch target."""
    return isinstance(node, _DEFS) and not node.name.startswith(("_", "cmd_"))


def uncalled(sources: dict[str, str]) -> dict[str, int]:
    """``qualname -> definition lines`` for every public name defined under
    ``src/repro/`` in ``sources`` (``path -> text``) that nothing refers to."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    refs: dict[str, list[tuple[str, int]]] = {}
    for path, tree in trees.items():
        reexports = path.endswith("__init__.py")
        exported = {id(entry) for stmt in tree.body if isinstance(stmt, ast.Assign)
                    and getattr(stmt.targets[0], "id", "") == "__all__"
                    for entry in ast.walk(stmt)}
        for node in ast.walk(tree):
            if id(node) in exported:
                continue
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexports:
                names = [alias.name.rpartition(".")[2] for alias in node.names]
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier() and not reexports):
                names = [node.value]
            else:
                continue
            for name in names:
                refs.setdefault(name, []).append((path, node.lineno))
    report: dict[str, int] = {}
    for path, tree in trees.items():
        if not path.startswith("src/repro/"):
            continue
        top = [(node.name, node) for node in tree.body if _public(node)]
        members = [(f"{cls.name}.{node.name}", node)
                   for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body if _public(node)]
        for qualname, node in top + members:
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            inside = range(first, (node.end_lineno or first) + 1)
            if all(where == path and line in inside
                   for where, line in refs.get(node.name, ())):
                report[qualname] = len(inside)
    return report


def audit(report: dict, kept=KEPT, finding="no caller ({} lines)") -> list[str]:
    """What is wrong: a reported name with no row, a row for a name the scan
    does not report, a row with no reason.  A row is ``(names, reason, ...)``."""
    names = {name for row, *_ in kept for name in row}
    return ([f"{name}: {finding.format(detail)}"
             for name, detail in sorted(report.items()) if name not in names]
            + [f"{name}: stale KEPT row" for name in sorted(names - set(report))]
            + [f"{row}: KEPT row names no reason" for row, reason, *_ in kept
               if not reason.strip()])


def load_sources(roots=CALLER_ROOTS, repo: Path = REPO) -> dict[str, str]:
    return {str(path.relative_to(repo)): path.read_text()
            for root in roots for path in sorted((repo / root).rglob("*.py"))}


def test_every_public_name_has_a_caller_or_a_kept_row():
    assert len(KEPT) <= 6
    problems = audit(uncalled(load_sources()))
    assert not problems, "\n".join(problems)


_LIB = "src/repro/lib.py"


def test_scan_reports_a_callerless_function():
    sources = {_LIB: "def used():\n    return 1\n\ndef orphan():\n    return orphan()\n",
               "examples/demo.py": "from repro.lib import used\nused()\n",
               "src/repro/__init__.py": "from repro.lib import orphan\n__all__ = ['orphan']\n"}
    assert audit(uncalled(sources), kept=()) == ["orphan: no caller (2 lines)"]


def test_scan_reports_a_callerless_method_but_not_a_called_base_class_slot():
    sources = {_LIB: ("class Base:\n    def run(self):\n        return self.step()\n"
                      "    def step(self):\n        raise NotImplementedError\n\n"
                      "class Impl(Base):\n    def step(self):\n        return 1\n"
                      "    @property\n    def idle(self):\n        return 2\n"),
               "scripts/go.py": "from repro.lib import Impl\nImpl().run()\n"}
    assert audit(uncalled(sources), kept=()) == ["Impl.idle: no caller (3 lines)"]


def test_a_kept_row_for_a_name_with_a_caller_is_stale():
    sources = {_LIB: "def kept():\n    return 1\n", "scripts/go.py": "kept()\n"}
    assert audit(uncalled(sources), kept=((("kept",), "once needed"),)) == [
        "kept: stale KEPT row"]


# ---------------------------------------------------------------------------
# Options (PR 22): every settable value of ``src/repro`` has two values in use
#
# An *option* is a parameter with a default, a constructor-settable dataclass
# / NamedTuple field with a default (``field(init=False)`` is state, not an
# option), or a command-line flag (``add_argument`` / ``Scenario.flags``).  A
# method that fills a ``Protocol`` or base-class slot carries no options of
# its own.  A *setter* is a call site under ``PRODUCTION`` — by keyword, by
# position, through ``replace()``, ``partial()``, a ``**{...}`` literal (or a
# ``**f()`` whose ``f`` returns one), down any chain of ``**kwargs``, and
# for flags the commands of ``ci.yml``; ``tests/`` and ``examples/`` are
# recorded but never count.  The *values in use* are the passed expressions —
# an expression that forwards another option (``config.x``, ``args.x``, a
# same-named parameter) stands for that option's values, any other computed
# expression for two — plus the default when a production call site omits the
# option; a flag's default is always in use (a bare invocation omits it).
# Matching is by bare identifier, so the scan can only under-report.
# ``KEPT_OPTIONS`` is the whole list of exceptions.
# ---------------------------------------------------------------------------
PRODUCTION = ("src/", "benchmarks/", "scripts/", ".github/")
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: (options, reason, the tests or files that need them settable): at most 12 rows.
KEPT_OPTIONS = (
    (("AsyncCacheStore.pending_capacity", "AsyncCacheStore.pending_max_age_days"),
     "memory bound of the pending queue: a test shrinks it to reach eviction",
     ("tests/serving/test_degradation.py::test_pending_capacity_evicts_oldest",
      "tests/serving/test_degradation.py::test_pending_age_eviction_on_day_roll",
      "tests/serving/test_cache_properties.py::"
      "test_pending_queue_matches_scan_forms_under_arbitrary_operations")),
    (("Tracer.max_spans", "TailSampler.max_buffered_spans"),
     "span memory caps: a test shrinks each to reach the drop path",
     ("tests/obs/test_tracing.py::test_max_spans_bounds_memory",
      "tests/obs/test_tail_sampling.py::"
      "test_buffer_bound_refuses_spans_and_counts_overflow")),
    (("RetryPolicy.deadline_s", "RetryPolicy.base_backoff_s",
      "RetryPolicy.backoff_multiplier", "RetryPolicy.max_backoff_s", "RetryPolicy.jitter"),
     "retry budget and deadline: tests exhaust both with a small policy",
     ("tests/serving/test_resilience.py::test_deadline_and_attempt_budgets",
      "tests/serving/test_resilience.py::"
      "test_retries_exhausted_raises_and_deadline_is_respected",
      "tests/serving/test_degradation.py::"
      "test_exhausted_retries_dead_letter_and_daily_refresh_redrives")),
    (("CircuitBreaker.failure_threshold", "CircuitBreaker.cooldown_s",
      "CircuitBreaker.half_open_probes", "CircuitBreaker.window",
      "CircuitBreaker.min_calls", "CosmoService.breaker", "ResilientGenerator.breaker"),
     "failure boundary: tests open, cool down and probe a breaker in a few calls, "
     "or hand a service one that never opens",
     ("tests/serving/test_resilience.py::test_breaker_trips_at_failure_threshold",
      "tests/serving/test_resilience.py::test_breaker_half_open_probe_cycle",
      "tests/serving/test_resilience.py::test_open_breaker_fails_fast",
      "tests/serving/test_degradation.py::test_breaker_refusal_leaves_queries_pending",
      "tests/serving/test_degradation.py::"
      "test_exhausted_retries_dead_letter_and_daily_refresh_redrives")),
    (("RefreshConfig.llm_call_budget",),
     "LLM-call budget per refresh round: a test sets it to reach deferral",
     ("tests/refresh/test_builder.py::test_budget_defers_overflow_to_next_round",)),
    (("cli generate --seed", "cli generate --scale", "cli generate --lm-epochs",
      "cli chaos --seed", "cli chaos --fault-rate",
      "cli cluster --replicas", "cli trace --replicas", "cli trace --seed",
      "cli trace --requests", "cli trace --n-queries", "cli trace --fault-rate",
      "cli kghealth --seed", "cli monitor --replicas",
      "cli monitor --requests-per-phase", "cli monitor --n-queries",
      "cli rollout --replicas", "cli rollout --requests-per-phase",
      "cli rollout --n-queries", "cli kghealth --replicas",
      "cli kghealth --requests-per-phase", "cli kghealth --n-queries"),
     "the command line is input from outside the program (README 'CLI and "
     "persistence'); tier-1 drives every command at reduced size through these",
     ("tests/test_cli.py", "tests/test_scenarios.py")),
    (("PipelineConfig.finetune_lm", "PipelineConfig.expand_with_lm",
      "CosmoLMConfig.hidden_dim", "SessionConfig.n_sessions"),
     "tier-1's wall budget: the shared fixtures skip or shrink COSMO-LM training, "
     "and the session tests simulate a few hundred sessions, not table 7's 1 500",
     ("tests/conftest.py", "tests/integration/test_end_to_end.py",
      "tests/behavior/test_sessions.py")),
    (("BatchCostModel.batch_overhead_s", "BatchCostModel.item_cost_s",
      "CosmoService.fallback_response", "TailSampler.slowest_k"),
     "set where their values are pinned: the golden equivalence suite's digests "
     "and benchmarks/perf's workloads, which a serving change may not edit",
     ("tests/serving/test_batch_equivalence.py", "benchmarks/perf/perf_workloads.py")),
    (("AnnotatorPool.error_rate", "AnnotatorPool.adjudicator_error_rate",
      "audit_annotations.sample_rate", "simulate_searchbuy.noise_rate",
      "NavigationABTest.seed", "NavigationABTest.treatment_fraction",
      "QueryRewriteStudy.seed"),
     "the simulators' draws: at zero noise truth is recovered exactly, and the "
     "A/B and query-rewrite shape tests draw on other seeds and splits than the benches",
     ("tests/annotation/test_annotation.py::test_audit_accuracy_perfect_with_zero_noise",
      "tests/behavior/test_searchbuy.py",
      "tests/apps/test_navigation.py::test_ab_test_shape",
      "tests/apps/test_navigation.py::test_ab_outcome_rates_bounded",
      "tests/apps/test_navigation.py::test_query_rewrite_study_cosmo_reduces_rewrites")),
    (("SamplingConfig.min_type_pair_count", "SamplingConfig.min_clicks",
      "SamplingConfig.min_purchase_rate", "SamplingConfig.low_engagement_fraction",
      "sample_cobuy.config", "sample_searchbuy.config", "RelationDiscovery.min_count",
      "MetricsRegistry.histogram.buckets", "SnapshotQualityGate.rules"),
     "threshold semantics: a test moves the threshold (or empties the rule set) "
     "to show which side of it a record falls on",
     ("tests/core/test_sampling.py::test_searchbuy_low_engagement_slice",
      "tests/core/test_relation_discovery.py::test_min_count_filters_rare_patterns",
      "tests/obs/test_metrics.py", "tests/refresh/test_quality.py")),
    (("ConsistentHashRouter.vnodes", "ConsistentHashRouter.preference.limit",
      "Tensor.backward.grad", "Tracer.record.parent", "ServeRequest.trace",
      "TraceContext.parent_ref", "CosmoService.prompt_builder"),
     "what a reference-model or hand-built test feeds in: small rings against the "
     "naive ring walk, an upstream gradient, an after-the-fact span, a caller's "
     "trace context and its remote parent, the trained LM's prompt",
     ("tests/serving/test_router.py", "tests/nn/test_tensor.py",
      "tests/obs/test_trace_query.py", "tests/serving/test_request_tracing.py",
      "tests/integration/test_end_to_end.py")),
    (("CosmoCluster.clock",),
     "the clock-injection source rule: a component accepts its clock",
     ("tests/test_source_rules.py::test_the_live_tree_breaks_no_source_rule",)),
)


@dataclass
class Option:
    """``default`` is source text; a setter is ``(path, line, value)`` where
    ``value`` is source text, ``<text>`` for a computed expression, or the
    tuple of option keys a forwarding expression stands for."""
    default: str
    setters: list = field(default_factory=list)
    omitted: bool = False       #: some production call site leaves the default


def _ident(node: ast.AST) -> str:
    return getattr(node, "id", None) or getattr(node, "attr", "")


def _constant(node: ast.AST) -> bool:
    """Source text naming one value: literals, ``UPPER_CASE`` / ``Class.MEMBER``
    names, lambdas, and containers or constructor calls of those."""
    if isinstance(node, (ast.Constant, ast.Lambda)):
        return True
    if isinstance(node, ast.Name):
        return node.id[:1].isupper()
    if isinstance(node, ast.Attribute):
        return node.attr.isupper() or _constant(node.value)
    if isinstance(node, ast.Call):
        return ((_constant(node.func) or _ident(node.func) in ("field", "frozenset", "tuple"))
                and all(map(_constant, node.args))
                and all(_constant(k.value) for k in node.keywords))
    if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict, ast.UnaryOp, ast.BinOp)):
        return all(_constant(child) for child in ast.iter_child_nodes(node)
                   if isinstance(child, ast.expr))
    return False


def _text(node: ast.AST) -> str:
    """A default or passed expression as a value: ``field(default_factory=F)``
    reads ``F()``, anything not constant reads ``<...>``."""
    if isinstance(node, ast.Call) and _ident(node.func) == "field":
        for keyword in node.keywords:
            if keyword.arg in ("default", "default_factory"):
                return ast.unparse(keyword.value) + "()" * (keyword.arg != "default")
    return ast.unparse(node) if _constant(node) else f"<{ast.unparse(node)}>"


def _signature(fn, bound: bool):
    """``[(name, default | None)]`` positional and keyword-only, ``self`` dropped."""
    a = fn.args
    positional = a.posonlyargs + a.args
    defaults = [None] * (len(positional) - len(a.defaults)) + list(a.defaults)
    return ([(p.arg, d) for p, d in zip(positional, defaults)][1 if bound else 0:],
            [(p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults)])


def _is_record(cls: ast.ClassDef) -> bool:
    return (any(_ident(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                for d in cls.decorator_list)
            or any(_ident(b) == "NamedTuple" for b in cls.bases))


def _fields(cls: ast.ClassDef):
    """Constructor-settable fields of a dataclass / NamedTuple body, in order."""
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and "ClassVar" not in ast.unparse(stmt.annotation):
            state = (isinstance(stmt.value, ast.Call) and _ident(stmt.value.func) == "field"
                     and any(k.arg == "init" and getattr(k.value, "value", True) is False
                             for k in stmt.value.keywords))
            if not state:
                yield stmt.target.id, stmt.value


def _cli_flags(trees: dict[str, ast.Module]):
    """``(module, command, flag, default text)`` per optional flag: literal
    ``add_argument("--flag", ...)`` calls keyed by the ``add_parser`` name of
    their receiver, and the ``flags`` dict of each ``Scenario(...)`` literal;
    a parser created under a computed name serves every scenario command."""
    scenarios = [node for tree in trees.values() for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and _ident(node.func) == "Scenario"
                 and len(node.args) > 3 and isinstance(node.args[3], ast.Dict)]
    commands = [call.args[0].value for call in scenarios]
    for path, tree in trees.items():
        if not path.startswith("src/repro/"):
            continue
        module = (path.removeprefix("src/repro/").removesuffix(".py")
                  .removesuffix("/cli").replace("/", "."))
        parsers = {_ident(node.targets[0]): node.value.args[0] for node in ast.walk(tree)
                   if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                   and _ident(node.value.func) == "add_parser" and node.value.args}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _ident(node.func) == "add_argument"
                    and node.args and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value.startswith("--")):
                continue
            keywords = {k.arg: k.value for k in node.keywords}
            if getattr(keywords.get("required"), "value", False):
                continue
            default = ("False" if getattr(keywords.get("action"), "value", "") == "store_true"
                       else _text(keywords["default"]) if "default" in keywords else "None")
            name = parsers.get(_ident(node.func.value))
            for command in ([""] if name is None else [name.value]
                            if isinstance(name, ast.Constant) else commands):
                yield module, command, node.args[0].value, default
        if any(not isinstance(name, ast.Constant) for name in parsers.values()):
            for call in scenarios:
                for flag, default in zip(call.args[3].keys, call.args[3].values):
                    yield (module, call.args[0].value,
                           "--" + flag.value.replace("_", "-"), _text(default))


def options(sources: dict[str, str], ci_text: str = "") -> dict[str, Option]:
    """Every option defined under ``src/repro/`` in ``sources`` (``path ->
    text``) with its setters from all of ``sources`` and from ``ci_text``."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    classes = {cls.name: cls for path, tree in trees.items() if path.startswith("src/repro/")
               for cls in tree.body if isinstance(cls, ast.ClassDef)}

    def lineage(name, seen=()):
        cls = classes.get(name)
        if cls is None or name in seen:
            return []
        return [cls] + [anc for b in cls.bases for anc in lineage(_ident(b), seen + (name,))]

    def methods(cls):
        return {n.name: n for n in cls.body if isinstance(n, _FUNCS)}

    slots = {(cls.name, m) for cls in classes.values()
             if any(_ident(b) == "Protocol" for b in cls.bases) for m in methods(cls)}
    slots |= {("", m) for _cls, m in slots}          # ... and whatever implements one
    for name, cls in classes.items():
        for ancestor in lineage(name)[1:]:
            for shared in methods(cls).keys() & methods(ancestor).keys():
                slots |= {(name, shared), (ancestor.name, shared)}

    found: dict[str, Option] = {}
    callees: dict[str, list] = {}       # identifier -> [(owner, positional, kwonly)]
    fields_by_name: dict[str, list[str]] = {}       # what ``replace(x=...)`` may set
    required: set[str] = set()          # field names some record declares without default
    enclosing: dict[int, tuple[str, dict]] = {}     # node id -> (owner, {param: default})

    def declare(owner, ident, positional, kwonly, body=None):
        callees.setdefault(ident, []).append((owner, positional, kwonly))
        params = dict(positional + kwonly)
        found.update({f"{owner}.{name}": Option(_text(default))
                      for name, default in params.items() if default is not None})
        for inner in ast.walk(body) if body is not None else ():
            enclosing[id(inner)] = (owner, params)

    for path, tree in trees.items():
        for node in tree.body if path.startswith("src/repro/") else ():
            if isinstance(node, _FUNCS):
                declare(node.name, node.name, *_signature(node, bound=False), body=node)
            if not isinstance(node, ast.ClassDef):
                continue
            if "__init__" in methods(node):
                init = methods(node)["__init__"]
                declare(node.name, node.name, *_signature(init, bound=True), body=init)
            elif _is_record(node):
                fields = [f for cls in reversed(lineage(node.name)) if _is_record(cls)
                          for f in _fields(cls)]
                declare(node.name, node.name, fields, [])
                required |= {name for name, default in fields if default is None}
                for name, default in fields:
                    if default is not None:
                        fields_by_name.setdefault(name, []).append(f"{node.name}.{name}")
            for name, fn in methods(node).items():
                if name == "__init__":
                    continue
                static = any(_ident(d) == "staticmethod" for d in fn.decorator_list)
                positional, kwonly = _signature(fn, bound=not static)
                if (node.name, name) in slots or ("", name) in slots:
                    positional = [(n, None) for n, _ in positional]
                    kwonly = [(n, None) for n, _ in kwonly]
                declare(f"{node.name}.{name}", name, positional, kwonly, body=fn)

    # ``x.name`` may forward a record field, a constructor parameter kept as
    # an attribute, or a flag's ``args.name``.
    attributes = {name: list(keys) for name, keys in fields_by_name.items()}
    for key in found:
        owner, _, name = key.rpartition(".")
        if owner in classes and key not in attributes.get(name, ()):
            attributes.setdefault(name, []).append(key)

    joined_ci = re.sub(r"\\\n\s*", " ", ci_text)
    ci_commands = [(m.group(1), m.group(2).split())
                   for m in re.finditer(r"python3? -m repro\.(\w+)([^\n|&]*)", joined_ci)]
    for module, command, flag, default in _cli_flags(trees):
        key = " ".join(filter(None, (module, command, flag)))
        option = found[key] = Option(default, omitted=True)
        attributes.setdefault(flag[2:].replace("-", "_"), []).append(key)
        for ci_module, tokens in ci_commands:
            if ci_module == module and flag in tokens and (
                    not command or tokens[:1] == [command]):
                after = tokens[tokens.index(flag) + 1: tokens.index(flag) + 2]
                value = after[0] if after and not after[0].startswith("--") else "True"
                option.setters.append((".github/workflows/ci.yml", 0,
                                       f"<{value}>" if "$" in value else value))
        option.setters += [(path, 0, "<argv>") for path, text in sources.items()
                           if not path.startswith(PRODUCTION)
                           and re.search(rf"['\"]{flag}['\"]", text)]

    def literal(node):
        return isinstance(node, ast.Dict) and all(isinstance(k, ast.Constant) for k in node.keys)

    returned: dict[str, list] = {}      # function name -> dict literals / names it returns
    passes_on: dict[str, list[str]] = {}        # owner -> callees its ``**kwargs`` reach
    for tree in trees.values():
        for fn in (n for n in ast.walk(tree) if isinstance(n, _FUNCS)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Return) and (
                        literal(node.value) or isinstance(node.value, ast.Name)):
                    returned.setdefault(fn.name, []).append(node.value)
                elif isinstance(node, ast.Call) and fn.args.kwarg and any(
                        k.arg is None and _ident(k.value) == fn.args.kwarg.arg
                        for k in node.keywords):
                    passes_on.setdefault(enclosing.get(id(node), ("",))[0], []).append(
                        _ident(node.func))

    def value_of(expr, call):
        owner, params = enclosing.get(id(call), ("", {}))
        if isinstance(expr, ast.Name) and params.get(expr.id) is not None:
            return (f"{owner}.{expr.id}",)
        if isinstance(expr, ast.Attribute) and expr.attr in attributes \
                and expr.attr not in required and not _constant(expr):
            return tuple(attributes[expr.attr])
        return _text(expr)

    for path, tree in trees.items():
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            ident, args = _ident(call.func), list(call.args)
            keywords = {k.arg: k.value for k in call.keywords if k.arg}
            opaque = any(isinstance(a, ast.Starred) for a in args)
            for spread in (k.value for k in call.keywords if k.arg is None):
                inner = spread.func if isinstance(spread, ast.Call) else None
                for each in filter(literal, [spread] + returned.get(_ident(inner), [])):
                    keywords.update({k.value: v for k, v in zip(each.keys, each.values)})
                opaque = opaque or not literal(spread)
            if ident == "replace":
                for name, expr in keywords.items():
                    for key in fields_by_name.get(name, ()):
                        found[key].setters.append((path, call.lineno, value_of(expr, call)))
                continue
            if ident == "partial" and args:      # the eventual call may pass the rest
                ident, args, opaque = _ident(args[0]), args[1:], True
            here = enclosing.get(id(call), ("",))[0]
            if ident == "cls" and "." in here:              # a classmethod's own class
                ident = here.partition(".")[0]
            idents = [ident] if not isinstance(call.func, ast.Call) else [
                r.id for r in returned.get(_ident(call.func.func), ())
                if isinstance(r, ast.Name)]          # ``self._model_class()(...)``
            matched = [sig for each in idents for sig in callees.get(each, ())]
            # Keywords no signature takes walk down ``**kwargs`` chains, each
            # hop keeping what the callee's own parameters did not claim.
            hops = [(owner, set(keywords) - {name for name, _ in positional + kwonly})
                    for owner, positional, kwonly in matched]
            reached = {owner for owner, _ in hops}
            while hops:
                owner, extra = hops.pop(0)
                for o, pos, kw in [sig for target in passes_on.get(owner, ()) if extra
                                   for sig in callees.get(target, ())]:
                    if o not in reached:
                        reached.add(o)
                        claimed = [p for p in pos + kw if p[0] in extra]
                        matched.append((o, [], claimed))
                        hops.append((o, extra - {name for name, _ in claimed}))
            for owner, positional, kwonly in matched:
                for index, (name, default) in enumerate(positional + kwonly):
                    if default is None:
                        continue
                    option = found[f"{owner}.{name}"]
                    if name in keywords:
                        expr = keywords[name]
                    elif index < len(positional) and index < len(args) and not any(
                            isinstance(a, ast.Starred) for a in args[:index + 1]):
                        expr = args[index]
                    else:
                        option.omitted |= (path.startswith(PRODUCTION) and not opaque
                                           and bool(positional or not kwonly))
                        continue
                    option.setters.append((path, call.lineno, value_of(expr, call)))
    return found


def values_in_use(found: dict[str, Option], key: str, seen=()) -> set[str]:
    option, values = found[key], set()
    production = [value for path, _line, value in option.setters
                  if path.startswith(PRODUCTION)]
    for value in production:
        if isinstance(value, tuple):
            for forwarded in value:
                if forwarded != key and forwarded not in seen:
                    values |= values_in_use(found, forwarded, seen + (key,))
        else:
            values.add(value)
    return values | {option.default} if option.omitted or not values else values


def single_valued(found: dict[str, Option]) -> dict[str, str]:
    """``option -> its one value`` for every option with fewer than two values
    in use (a computed ``<expression>`` counts as two)."""
    in_use = {key: values_in_use(found, key) for key in found}
    return {key: min(values) for key, values in in_use.items()
            if sum(2 if value.startswith("<") else 1 for value in values) < 2}


def load_ci(repo: Path = REPO) -> str:
    return (repo / ".github/workflows/ci.yml").read_text()


def test_every_option_has_two_values_in_use_or_a_kept_row():
    assert len(KEPT_OPTIONS) <= 12
    found = options(load_sources(CALLER_ROOTS + ("tests",)), load_ci())
    problems = audit(single_valued(found), KEPT_OPTIONS, finding="one value in use ({})")
    problems += [f"{row}: KEPT_OPTIONS row names no test that needs it"
                 for row, _reason, needed_by in KEPT_OPTIONS if not needed_by]
    problems += [f"{test}: named by a KEPT_OPTIONS row, not in the tree"
                 for _row, _reason, needed_by in KEPT_OPTIONS for test in needed_by
                 if not (REPO / test.partition("::")[0]).is_file()
                 or test.partition("::")[2] not in (REPO / test.partition("::")[0]).read_text()]
    assert not problems, "\n".join(problems)


def _one_valued(sources: dict[str, str], ci_text: str = "", kept=()) -> list[str]:
    return audit(single_valued(options(sources, ci_text)), kept,
                 finding="one value in use ({})")


def test_a_never_set_parameter_is_reported_with_its_default():
    sources = {_LIB: "def build(size=8, *, verbose=False):\n    return size\n",
               "scripts/go.py": "from repro.lib import build\nbuild()\n",
               "tests/test_lib.py": "from repro.lib import build\nbuild(verbose=True)\n"}
    assert _one_valued(sources) == ["build.size: one value in use (8)",
                                    "build.verbose: one value in use (False)"]


def test_positional_replace_partial_and_spread_setters_each_count():
    lib = ("from dataclasses import dataclass\n"
           "@dataclass\nclass Config:\n    depth: int = 1\n    width: int = 2\n"
           "def run(config, rounds=3, chunk=4, gap=5):\n    return config\n")
    caller = ("from dataclasses import replace\nfrom functools import partial\n"
              "from repro.lib import Config, run\n"
              "base = Config()\nwide = replace(base, width=9)\n"
              "run(base, 7)\nlater = partial(run, chunk=6)\nrun(wide, **{'gap': 0.5})\n"
              "def extras():\n    return {'depth': 3}\ndeep = Config(**extras())\n")
    assert _one_valued({_LIB: lib, "benchmarks/bench.py": caller}) == []
    # ... and without the caller every one of the five is reported.
    assert len(_one_valued({_LIB: lib})) == 5


def test_a_keyword_reaches_its_option_down_a_chain_of_kwargs():
    lib = ("class Service:\n    def __init__(self, gen, degraded=True):\n        pass\n"
           "class Cluster:\n    def __init__(self, factory, size=1, **service_kwargs):\n"
           "        Service(factory(), **service_kwargs)\n"
           "def rig(make, *, gap=0.5, **service_kwargs):\n"
           "    return Cluster(make, **service_kwargs)\n")
    caller = "from repro.lib import Service, rig\nService(1)\nrig(list, **{'degraded': False})\n"
    # ``degraded=False`` reaches ``Service`` two hops down; ``Service(1)``
    # keeps the default in use.
    assert _one_valued({_LIB: lib, "src/repro/go.py": caller}) == [
        "Cluster.size: one value in use (1)", "rig.gap: one value in use (0.5)"]


def test_a_forwarded_config_field_stands_for_its_own_values():
    lib = ("from dataclasses import dataclass\n"
           "@dataclass\nclass Config:\n    dim: int = 48\n"
           "class Model:\n    def __init__(self, dim=16):\n        self.dim = dim\n"
           "def build(config):\n    return Model(dim=config.dim)\n")
    one = {_LIB: lib, "scripts/go.py": "from repro.lib import Config\nConfig()\n"}
    assert _one_valued(one) == ["Config.dim: one value in use (48)",
                                "Model.dim: one value in use (48)"]
    two = {_LIB: lib, "scripts/go.py": "from repro.lib import Config\nConfig()\nConfig(dim=96)\n"}
    assert _one_valued(two) == []


def test_protocol_and_base_class_slots_and_state_fields_are_not_options():
    lib = ("from dataclasses import dataclass, field\nfrom typing import Protocol\n"
           "class Scorer(Protocol):\n    def score(self, text, scale=1.0): ...\n"
           "class Base:\n    def forward(self, items, knowledge=None):\n        raise NotImplementedError\n"
           "class Impl(Base):\n    def forward(self, items, knowledge=None):\n        return items\n"
           "    def score(self, text, scale=1.0):\n        return scale\n"
           "@dataclass\nclass Report:\n    name: str\n"
           "    total: int = field(default=0, init=False)\n"
           "    rows: list = field(default_factory=list, init=False)\n")
    assert options({_LIB: lib}) == {}


def test_an_option_whose_every_setter_passes_its_default_has_one_value():
    sources = {_LIB: "def hits(scores, k=10):\n    return scores[:k]\n",
               "src/repro/train.py": "from repro.lib import hits\nhits([], k=10)\nhits([], 10)\n"}
    assert _one_valued(sources) == ["hits.k: one value in use (10)"]


def test_a_flag_is_set_by_ci_commands_and_its_default_is_always_in_use():
    cli = ("def build_parser(sub):\n    drive = sub.add_parser('drive')\n"
           "    drive.add_argument('--seed', type=int, default=7)\n"
           "    drive.add_argument('--size', type=int, default=100)\n"
           "    drive.add_argument('--out', required=True)\n")
    ci = "run: |\n  python -m repro.cli drive \\\n    --seed 7 --size 40 --out x.json\n"
    assert _one_valued({"src/repro/cli.py": cli}, ci) == [
        "cli drive --seed: one value in use (7)"]


def test_a_kept_options_row_is_stale_once_two_values_are_in_use_and_needs_a_reason():
    sources = {_LIB: "def build(size=8, depth=2):\n    return size\n",
               "scripts/go.py": "from repro.lib import build\nbuild()\nbuild(size=64)\n"}
    kept = ((("build.size",), "once only tests set it", ("tests/test_lib.py",)),
            (("build.depth",), " ", ("tests/test_lib.py",)))
    assert _one_valued(sources, kept=kept) == [
        "build.size: stale KEPT row", "('build.depth',): KEPT row names no reason"]
