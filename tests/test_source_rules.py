"""Eleven source rules over ``src``, ``benchmarks`` and ``examples``: contracts the
reproduction's numbers rely on that no behavioural test sees (DESIGN.md §8).

Each rule is a function of ``(tree, path)`` yielding ``(node, message)``
findings for one parsed file; it names call targets through the file's own
imports and scopes itself by the file's path, which is relative to the tree
being checked (``src/repro/serving/cluster.py``), so a test runs from that
tree's root.  A finding prints as ``path:line:col: [rule-id] message``.
"""

import ast
import textwrap
from pathlib import Path
from typing import NamedTuple

import pytest

REPO = Path(__file__).resolve().parents[1]
ROOTS = ("src", "benchmarks", "examples")


class Finding(NamedTuple):
    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


def _resolver(tree: ast.Module):
    """Canonical dotted name of an attribute chain through the file's imports
    (``np.random.default_rng`` -> ``numpy.random.default_rng``), or ``None``."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds "a"; "import a.b as c" binds a.b.
                name = alias.asname or alias.name.split(".", 1)[0]
                aliases[name] = alias.name if alias.asname else name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name != "*":
                    aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def resolve(node: ast.expr) -> str | None:
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name) or node.id not in aliases:
            return None
        return ".".join([aliases[node.id], *reversed(parts)])

    return resolve


def _calls(tree: ast.Module):
    return (node for node in ast.walk(tree) if isinstance(node, ast.Call))


def _allowlisted(path: Path, allowlist: tuple[str, ...]) -> bool:
    """Whether ``path`` ends with one of the ``/``-separated suffixes."""
    return any(path.parts[-len(suffix):] == suffix
               for suffix in (tuple(entry.split("/")) for entry in allowlist))


# -- the rules --------------------------------------------------------------


def unscoped_rng(tree, path):
    """Bit-stable regression numbers (Tables 1/3/6): every stream comes from
    ``repro.utils.rng.spawn_rng``, the one sanctioned wrapper."""
    if path.parts[-2:] == ("utils", "rng.py"):
        return
    resolve = _resolver(tree)
    for node in _calls(tree):
        name = resolve(node.func)
        if name is None:
            continue
        if name.startswith("numpy.random."):
            yield node, (f"call to {name} bypasses the seed+scope discipline; "
                         "derive streams via repro.utils.rng.spawn_rng(seed, scope=...)")
        elif name == "random" or name.startswith("random."):
            yield node, (f"stdlib {name} draws from hidden global state; "
                         "use repro.utils.rng.spawn_rng(seed, scope=...) instead")


#: Where wall-clock calls are permitted: the one sanctioned timebase.
WALL_CLOCK_ALLOWLIST = ("obs/timebase.py",)
_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.sleep", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today",
}


def wall_clock(tree, path):
    """Deterministic, sleep-free pipeline, serving and chaos runs: time comes
    from simulated clocks everywhere but the allowlisted timebase."""
    if _allowlisted(path, WALL_CLOCK_ALLOWLIST):
        return
    resolve = _resolver(tree)
    for node in _calls(tree):
        name = resolve(node.func)
        if name in _WALL_CLOCK:
            yield node, (f"call to {name} reads the wall clock; time must come from a "
                         "simulated clock (only obs/timebase.py may read real time)")


_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def mutable_default(tree, path):
    """No state shared across calls through a default argument value."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if isinstance(default, _MUTABLE_LITERALS) or (
                    isinstance(default, ast.Call) and isinstance(default.func, ast.Name)
                    and default.func.id in {"list", "dict", "set", "bytearray"}):
                yield default, ("mutable default argument is shared across calls; "
                                "default to None (or use dataclasses.field(default_factory=...))")


def overbroad_except(tree, path):
    """Typed faults reach the retry/circuit-breaker machinery: no bare
    ``except:``, and ``except Exception`` only when the handler re-raises."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield node, ("bare except catches everything including KeyboardInterrupt; "
                         "catch the specific fault types instead")
        elif (isinstance(node.type, ast.Name) and node.type.id in {"Exception", "BaseException"}
              and not any(isinstance(child, ast.Raise) for child in ast.walk(node))):
            yield node, (f"except {node.type.id} without re-raise swallows faults the "
                         "resilience layer needs to see; narrow it or re-raise")


def float_equality(tree, path):
    """Metric thresholds stable under rounding: metrics code never compares
    against a float literal with ``==`` / ``!=``."""
    if not (path.name == "metrics.py" or {"metrics", "reporting"} & set(path.parts[:-1])):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, right in zip(node.ops, node.comparators):
            if isinstance(op, (ast.Eq, ast.NotEq)) and any(
                    isinstance(operand, ast.Constant) and isinstance(operand.value, float)
                    for operand in operands):
                yield right, ("float equality comparison is unstable under rounding; "
                              "use math.isclose or an explicit tolerance")
                break


#: Serving files allowed to write to stdout directly (none today).
EVENT_LOG_ALLOWLIST: tuple[str, ...] = ()
_STREAM_WRITES = {"sys.stdout.write", "sys.stderr.write",
                  "sys.stdout.writelines", "sys.stderr.writelines"}


def event_log_only(tree, path):
    """Alerts can cross-reference every operational transition: serving
    modules publish through the structured event log, never stdout."""
    if "serving" not in path.parts[:-1] or _allowlisted(path, EVENT_LOG_ALLOWLIST):
        return
    resolve = _resolver(tree)
    for node in _calls(tree):
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            yield node, ("print() in a serving module bypasses the structured event "
                         "log; emit via obs.events.EventLog so alerts can correlate it")
        elif (name := resolve(node.func)) in _STREAM_WRITES:
            yield node, (f"{name} in a serving module bypasses the structured "
                         "event log; emit via obs.events.EventLog instead")


def _is_trace_id_key(key: str) -> bool:
    return "traceid" in key.lower().replace("_", "").replace("-", "")


def trace_id_contract(tree, path):
    """One trace-id key across spans, events and exemplars: serving modules
    open a trace root or attach an upstream span instead of writing
    ``trace_id=`` themselves (a non-literal key such as ``TRACE_ID_ATTR``
    is not flagged)."""
    if "serving" not in path.parts[:-1]:
        return
    for node in _calls(tree):
        method = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
        if method not in ("span", "emit", "record", "set_attribute"):
            continue
        if method == "set_attribute" and node.args:
            first = node.args[0]
            if (isinstance(first, ast.Constant) and isinstance(first.value, str)
                    and _is_trace_id_key(first.value)):
                yield node, (f"span attribute key {first.value!r} hand-writes a trace id; "
                             "open a root (Tracer.trace), attach the upstream "
                             "span (Tracer.attach) or use "
                             "obs.tracing.TRACE_ID_ATTR so analyzers can find it")
        for keyword in node.keywords:
            if keyword.arg is not None and _is_trace_id_key(keyword.arg):
                yield node, (f"ad-hoc trace-id attribute {keyword.arg!r} on {method}(); "
                             "trace ids flow via Tracer.attach / Tracer.trace "
                             "under the sanctioned obs.tracing.TRACE_ID_ATTR key")


def _bound(target: ast.expr):
    """Names an assignment target binds (``a``, ``a, b``, ``*rest``)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _bound(element)
    elif isinstance(target, ast.Starred):
        yield from _bound(target.value)


def _top_level(body: list[ast.stmt]):
    """Statements that bind at module level: the bodies of top-level
    if / try / with blocks included, function and class bodies not."""
    for node in body:
        if isinstance(node, ast.If):
            yield from _top_level(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            yield from _top_level(node.body + [s for h in node.handlers for s in h.body]
                                  + node.orelse + node.finalbody)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            yield from _top_level(node.body)
        else:
            yield node


def _module_names(tree: ast.Module) -> tuple[set[str], bool]:
    """Top-level bindings, and whether the module star-imports."""
    defined: set[str] = set()
    star_import = False
    for node in _top_level(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(name for target in node.targets for name in _bound(target))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            defined.update(_bound(node.target))
        elif isinstance(node, ast.Import):
            defined.update(alias.asname or alias.name.split(".", 1)[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            star_import |= any(alias.name == "*" for alias in node.names)
            defined.update(alias.asname or alias.name for alias in node.names
                           if alias.name != "*")
    return defined, star_import


def _find_all(tree: ast.Module) -> ast.Assign | ast.AnnAssign | None:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
            return node
    return None


def _siblings(path: Path) -> set[str]:
    """A package ``__init__``'s sibling modules and subpackages: legitimate
    ``__all__`` entries even when the module never imports them."""
    if path.name != "__init__.py":
        return set()
    return {entry.stem for entry in path.parent.iterdir()
            if entry.suffix == ".py" and entry.is_file() and entry.name != "__init__.py"
            or entry.is_dir() and (entry / "__init__.py").exists()}


def all_consistency(tree, path):
    """The public API surface is explicit: a public package module declares
    ``__all__``, and lists only names it defines.  Script trees (no
    ``__init__.py`` beside them), ``_private`` and test modules are exempt."""
    defined, star_import = _module_names(tree)
    dunder_all = _find_all(tree)
    if dunder_all is None:
        module = path.stem
        if ((path.parent / "__init__.py").exists()
                and module not in {"__main__", "conftest", "setup"}
                and not module.startswith("test_")
                and not (module.startswith("_") and module != "__init__")
                and any(not name.startswith("_") for name in defined)):
            yield (tree.body[0] if tree.body else tree,
                   "public module defines no __all__; declare its export list")
        return
    value = dunder_all.value
    if star_import or not isinstance(value, (ast.List, ast.Tuple)) or not all(
            isinstance(e, ast.Constant) and isinstance(e.value, str) for e in value.elts):
        return  # a dynamic __all__ or a star import cannot be checked
    siblings = _siblings(path)
    for element in value.elts:
        if element.value not in defined and element.value not in siblings:
            yield element, f"__all__ lists {element.value!r} but the module never defines it"


def _repro_module(path: Path) -> str | None:
    """Dotted module name of a ``repro`` package file, from its path."""
    dirs = path.parts[:-1]
    if not (path.parent / "__init__.py").exists() or "repro" not in dirs:
        return None
    start = len(dirs) - 1 - dirs[::-1].index("repro")
    return ".".join(dirs[start:] + (() if path.stem == "__init__" else (path.stem,)))


def _constructions(tree, path, guarded: str, sanctioned: tuple[str, ...]):
    """Calls constructing the ``repro`` class ``guarded`` in a ``repro``
    module outside ``sanctioned`` (and their submodules).  The
    constructor-default fallback ``x or C()`` / ``x if ... else C()`` is the
    sanctioned injection idiom; scripts outside ``repro`` are exempt."""
    module = _repro_module(path)
    if module is None or any(module == allowed or module.startswith(allowed + ".")
                             for allowed in sanctioned):
        return
    fallbacks: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            fallbacks.update(map(id, node.values[1:]))
        elif isinstance(node, ast.IfExp):
            fallbacks.update((id(node.body), id(node.orelse)))
    resolve = _resolver(tree)
    for node in _calls(tree):
        name = resolve(node.func)
        if (name is not None and name.startswith("repro.")
                and name.rsplit(".", 1)[-1] == guarded and id(node) not in fallbacks):
            yield node


def clock_injection(tree, path):
    """One simulated timeline per scenario: ``SimClock`` is built only by the
    sanctioned factories and injected everywhere else."""
    for node in _constructions(tree, path, "SimClock",
                               ("repro.cli", "repro.serving.clock")):
        yield node, ("SimClock constructed outside a sanctioned factory couples this "
                     "component to a private timeline; accept an injected clock "
                     "(clock: SimClock | None = None) or derive one with clock.fork()")


def registry_injection(tree, path):
    """One scrape surface (DESIGN.md §9): components accept a shared
    ``MetricsRegistry`` and never build their own."""
    for node in _constructions(tree, path, "MetricsRegistry",
                               ("repro.cli", "repro.scenarios", "repro.obs")):
        yield node, ("MetricsRegistry constructed inside a component fragments the "
                     "scrape surface; accept an injected registry (registry: "
                     "MetricsRegistry | None = None) and default only via the "
                     "`x if x is not None else MetricsRegistry()` fallback idiom")


def _string_annotation_names(tree: ast.Module):
    """Names inside quoted annotations (``rng: "np.random.Generator"``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for text in ast.walk(annotation):
                if isinstance(text, ast.Constant) and isinstance(text.value, str):
                    try:
                        parsed = ast.parse(text.value, mode="eval")
                    except SyntaxError:
                        continue
                    yield from (name.id for name in ast.walk(parsed)
                                if isinstance(name, ast.Name))


def unused_import(tree, path):
    """Every import is read: a name a file imports appears in it as a name
    (an attribute chain's root included), a parameter (a pytest fixture), a
    quoted annotation or an ``__all__`` entry.  Package ``__init__.py``
    files re-export and are exempt."""
    if path.name == "__init__.py":
        return
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    used.update(_string_annotation_names(tree))
    dunder_all = _find_all(tree)
    if dunder_all is not None and isinstance(dunder_all.value, (ast.List, ast.Tuple)):
        used |= {element.value for element in dunder_all.value.elts
                 if isinstance(element, ast.Constant)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".", 1)[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        else:
            continue
        for name in names:
            if name not in used:
                yield node, f"{name!r} is imported but never used; delete the import"


RULES = {
    "unscoped-rng": unscoped_rng,
    "wall-clock": wall_clock,
    "mutable-default": mutable_default,
    "overbroad-except": overbroad_except,
    "float-equality": float_equality,
    "all-consistency": all_consistency,
    "event-log-only": event_log_only,
    "trace-id-contract": trace_id_contract,
    "clock-injection": clock_injection,
    "registry-injection": registry_injection,
    "unused-import": unused_import,
}


def check_file(tree: ast.Module, path: Path, rules=RULES) -> list[Finding]:
    return sorted(Finding(str(path), getattr(node, "lineno", 1),
                          getattr(node, "col_offset", 0) + 1, rule_id, message)
                  for rule_id, rule in rules.items() for node, message in rule(tree, path))


def check_tree(roots=ROOTS, rules=RULES) -> list[Finding]:
    """Every finding under ``roots``, relative to the working directory."""
    return [finding for root in roots for path in sorted(Path(root).rglob("*.py"))
            for finding in check_file(ast.parse(path.read_text(encoding="utf-8")),
                                      path, rules)]


def test_the_live_tree_breaks_no_source_rule(monkeypatch):
    monkeypatch.chdir(REPO)
    assert [str(finding) for finding in check_tree()] == []
    # Tests may read the wall clock or build a bare rng, but like the
    # code under them they import only what they use.
    unused = {"unused-import": RULES["unused-import"]}
    assert [str(finding) for finding in check_tree(("tests",), unused)] == []


# -- each rule fires on the plant DESIGN.md §8 names for it -----------------

#: (file, anchor, replacement, the one rule that must report it): each plant
#: passes every other tier-1 test, so only its rule stands between it and main.
PLANTS = [
    ("src/repro/apps/recommendation/baselines.py",
     'rng = spawn_rng(seed, "csrm")',
     "rng = np.random.default_rng(seed)", "unscoped-rng"),
    ("src/repro/refresh/rollout.py",
     'or None when the rollout is already finished.\n        """\n',
     'or None when the rollout is already finished.\n        """\n'
     "        import time\n        self._tick_wall_s = time.perf_counter()\n", "wall-clock"),
    ("src/repro/obs/kg_health.py",
     "    drift: Sequence[Any] = (),",
     "    drift: Sequence[Any] = [],",
     "mutable-default"),
    ("src/repro/refresh/rollout.py",
     "except ValueError:\n                drained = False",
     "except Exception:\n                drained = False", "overbroad-except"),
    ("src/repro/apps/relevance/metrics.py",
     "if total_tp == 0:", "if total_tp == 0.0:", "float-equality"),
    ("src/repro/serving/router.py",
     '__all__ = ["ConsistentHashRouter"]',
     '__all__ = ["ConsistentHashRouter", "RendezvousRouter"]', "all-consistency"),
    ("src/repro/serving/router.py",
     '        self._emit("router.drain", replica)',
     '        print(f"draining {replica}")\n        self._emit("router.drain", replica)',
     "event-log-only"),
    ("src/repro/serving/cluster.py",
     'tracer.record("cluster.queueing", arrival, start,',
     'tracer.record("cluster.queueing", arrival, start, trace_id=trace_id,',
     "trace-id-contract"),
    ("src/repro/serving/cluster.py",
     "self._started_at = self.clock.now()",
     "self._started_at = SimClock().now()", "clock-injection"),
    ("src/repro/serving/deployment.py",
     "        self._in_degraded_mode = False\n",
     '        self._swaps = MetricsRegistry().counter("service_snapshot_swaps_total", '
     '"snapshot swaps")\n        self._in_degraded_mode = False\n', "registry-injection"),
    ("src/repro/obs/export.py",
     "from repro.obs.metrics import Histogram, MetricsRegistry",
     "from repro.obs.metrics import Histogram, MetricFamily, MetricsRegistry",
     "unused-import"),
]


@pytest.mark.parametrize("file, anchor, replacement, rule", PLANTS,
                         ids=[plant[-1] for plant in PLANTS])
def test_each_planted_violation_is_reported_by_exactly_its_rule(
        monkeypatch, file, anchor, replacement, rule):
    monkeypatch.chdir(REPO)
    source = Path(file).read_text(encoding="utf-8")
    assert source.count(anchor) == 1, f"{file}: the plant's anchor moved; update PLANTS"
    planted = ast.parse(source.replace(anchor, replacement))
    assert [finding.rule for finding in check_file(planted, Path(file))] == [rule]


# -- every rule on fixture snippets -----------------------------------------


@pytest.fixture
def run_rule(tmp_path, monkeypatch):
    """``run_rule(rule, source, path=..., in_package=...)``: the findings of one
    rule on ``source`` written at ``path`` under a fresh tree, with or without
    an ``__init__.py`` beside it."""
    monkeypatch.chdir(tmp_path)

    def run(rule, source, path="pkg/mod.py", in_package=True):
        path, source = Path(path), textwrap.dedent(source)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        init = path.parent / "__init__.py"
        init.touch() if in_package else init.unlink(missing_ok=True)
        return check_file(ast.parse(source), path, {rule.__name__.replace("_", "-"): rule})

    return run


# -- unscoped-rng -------------------------------------------------------


def test_unscoped_rng_flags_default_rng_via_alias(run_rule):
    diags = run_rule(
        unscoped_rng,
        """
        import numpy as np
        rng = np.random.default_rng(7)
        """,
    )
    assert [d.rule for d in diags] == ["unscoped-rng"]
    assert diags[0].line == 3
    assert "numpy.random.default_rng" in diags[0].message


def test_unscoped_rng_flags_from_import_and_module_functions(run_rule):
    diags = run_rule(
        unscoped_rng,
        """
        from numpy.random import default_rng
        import random
        a = default_rng(0)
        b = random.random()
        random.seed(3)
        """,
    )
    assert [d.rule for d in diags] == ["unscoped-rng"] * 3
    assert [d.line for d in diags] == [4, 5, 6]


def test_unscoped_rng_ignores_annotations_and_generator_methods(run_rule):
    diags = run_rule(
        unscoped_rng,
        """
        import numpy as np
        from repro.utils.rng import spawn_rng

        def draw(rng: np.random.Generator) -> float:
            return float(rng.random())

        rng = spawn_rng(7, "component")
        """,
    )
    assert diags == []


def test_unscoped_rng_exempts_the_rng_module_itself(run_rule):
    source = """
    import numpy as np
    seq = np.random.SeedSequence(1)
    """
    assert run_rule(unscoped_rng, source, path="src/repro/utils/rng.py") == []
    assert len(run_rule(unscoped_rng, source, path="src/repro/core/x.py")) == 1


# -- wall-clock ---------------------------------------------------------


def test_wall_clock_flags_time_and_datetime_in_serving(run_rule):
    diags = run_rule(
        wall_clock,
        """
        import time
        from datetime import datetime
        t = time.time()
        time.sleep(0.1)
        now = datetime.now()
        """,
        path="src/repro/serving/thing.py",
    )
    assert [d.rule for d in diags] == ["wall-clock"] * 3
    assert [d.line for d in diags] == [4, 5, 6]


def test_wall_clock_enforced_repo_wide(run_rule):
    source = """
    import time
    t = time.time()
    """
    assert len(run_rule(wall_clock, source, path="src/repro/core/pipeline.py")) == 1
    assert len(run_rule(wall_clock, source, path="benchmarks/bench_x.py")) == 1


def test_wall_clock_allowlists_only_the_obs_timebase(run_rule):
    source = """
    import time

    def wall_now():
        return time.perf_counter()
    """
    # The sanctioned narrow waist is exempt...
    assert run_rule(wall_clock, source, path="src/repro/obs/timebase.py") == []
    # ...but a second perf_counter call site anywhere else is flagged,
    # even under a same-named file outside obs/.
    flagged = run_rule(wall_clock, source, path="src/repro/serving/timebase.py")
    assert [d.rule for d in flagged] == ["wall-clock"]
    assert "perf_counter" in flagged[0].message


# -- event-log-only -----------------------------------------------------


def test_event_log_only_flags_print_and_stream_writes_in_serving(run_rule):
    diags = run_rule(
        event_log_only,
        """
        import sys

        def drain(replica):
            print(f"draining {replica}")
            sys.stderr.write("drained\\n")
        """,
        path="src/repro/serving/router.py",
    )
    assert [d.rule for d in diags] == ["event-log-only"] * 2
    assert [d.line for d in diags] == [5, 6]
    assert "EventLog" in diags[0].message


def test_event_log_only_scoped_to_serving_trees(run_rule):
    source = """
    print("table output")
    """
    assert run_rule(event_log_only, source, path="src/repro/cli.py") == []
    assert run_rule(event_log_only, source, path="benchmarks/bench_x.py") == []
    assert len(run_rule(event_log_only, source,
                        path="src/repro/serving/cluster.py")) == 1


def test_event_log_only_respects_allowlist(run_rule, monkeypatch):
    source = """
    print("human-only debug output")
    """
    assert len(run_rule(event_log_only, source,
                        path="src/repro/serving/debug.py")) == 1
    monkeypatch.setitem(globals(), "EVENT_LOG_ALLOWLIST", ("serving/debug.py",))
    assert run_rule(event_log_only, source,
                    path="src/repro/serving/debug.py") == []


# -- mutable-default ----------------------------------------------------


def test_mutable_default_flags_literals_and_constructor_calls(run_rule):
    diags = run_rule(
        mutable_default,
        """
        def f(a, items=[], *, lookup={}):
            return a

        def g(tags=set(), names=dict()):
            return tags

        h = lambda acc=[]: acc
        """,
    )
    assert [d.rule for d in diags] == ["mutable-default"] * 5


def test_mutable_default_allows_none_and_immutable_defaults(run_rule):
    diags = run_rule(
        mutable_default,
        """
        def f(a=None, b=(), c="x", d=0, e=frozenset()):
            return a
        """,
    )
    assert diags == []


# -- overbroad-except ---------------------------------------------------


def test_overbroad_except_flags_bare_and_swallowed_exception(run_rule):
    diags = run_rule(
        overbroad_except,
        """
        try:
            work()
        except:
            pass

        try:
            work()
        except Exception:
            log()
        """,
    )
    assert [d.rule for d in diags] == ["overbroad-except"] * 2
    assert [d.line for d in diags] == [4, 9]


def test_overbroad_except_allows_reraise_and_narrow_handlers(run_rule):
    diags = run_rule(
        overbroad_except,
        """
        try:
            work()
        except Exception:
            log()
            raise

        try:
            work()
        except ValueError:
            pass
        """,
    )
    assert diags == []


# -- float-equality -----------------------------------------------------


def test_float_equality_flags_eq_and_ne_against_float_literals(run_rule):
    diags = run_rule(
        float_equality,
        """
        def check(score):
            if score == 0.5:
                return True
            return score != 1.0
        """,
        path="src/repro/apps/relevance/metrics.py",
    )
    assert [d.rule for d in diags] == ["float-equality"] * 2
    assert [d.line for d in diags] == [3, 5]


def test_float_equality_allows_int_literals_and_ordering(run_rule):
    diags = run_rule(
        float_equality,
        """
        def check(score):
            return score == 0 or score >= 0.5
        """,
        path="src/repro/apps/relevance/metrics.py",
    )
    assert diags == []


def test_float_equality_scoped_to_metrics_code(run_rule):
    source = """
    x = 1.0
    ok = x == 1.0
    """
    assert run_rule(float_equality, source, path="src/repro/core/pipeline.py") == []
    assert len(run_rule(float_equality, source, path="src/repro/reporting/tables.py")) == 1


# -- all-consistency ----------------------------------------------------


def test_all_consistency_requires_all_in_public_package_modules(run_rule):
    diags = run_rule(
        all_consistency,
        """
        def public_thing():
            return 1
        """,
    )
    assert [d.rule for d in diags] == ["all-consistency"]
    assert "no __all__" in diags[0].message


def test_all_consistency_flags_undefined_exports(run_rule):
    diags = run_rule(
        all_consistency,
        """
        __all__ = ["present", "missing"]

        def present():
            return 1
        """,
    )
    assert [d.rule for d in diags] == ["all-consistency"]
    assert "'missing'" in diags[0].message


def test_all_consistency_exempts_scripts_tests_and_private_modules(run_rule):
    source = """
    def public_thing():
        return 1
    """
    # not a package member (benchmarks/, examples/ style)
    assert run_rule(all_consistency, source, in_package=False) == []
    assert run_rule(all_consistency, source, path="pkg/test_mod.py") == []
    assert run_rule(all_consistency, source, path="pkg/_private.py") == []
    assert run_rule(all_consistency, source, path="pkg/conftest.py") == []


def test_all_consistency_accepts_conditional_and_tuple_definitions(run_rule):
    diags = run_rule(
        all_consistency,
        """
        __all__ = ["a", "b", "maybe", "Klass"]

        a, b = 1, 2

        if True:
            maybe = 3

        class Klass:
            pass
        """,
    )
    assert diags == []


def test_all_consistency_skips_dynamic_all(run_rule):
    diags = run_rule(
        all_consistency,
        """
        __all__ = [name for name in ("a",)]

        def f():
            return 1
        """,
    )
    assert diags == []


# -- trace-id-contract --------------------------------------------------


def test_trace_id_contract_flags_ad_hoc_span_keyword(run_rule):
    diags = run_rule(
        trace_id_contract,
        """
        with tracer.span("serve", trace_id=context.trace_id):
            pass
        """,
        path="src/repro/serving/deployment.py",
    )
    assert [d.rule for d in diags] == ["trace-id-contract"]
    assert "Tracer.attach" in diags[0].message


def test_trace_id_contract_flags_spelling_variants_on_emit_and_record(run_rule):
    diags = run_rule(
        trace_id_contract,
        """
        event_log.emit("serve", "request", traceId=tid)
        tracer.record("flush", 0.0, 1.0, TraceID=tid)
        """,
        path="src/repro/serving/cluster.py",
    )
    assert [d.rule for d in diags] == ["trace-id-contract"] * 2


def test_trace_id_contract_flags_literal_set_attribute_key(run_rule):
    diags = run_rule(
        trace_id_contract,
        """
        span.set_attribute("trace_id", context.trace_id)
        """,
        path="src/repro/serving/cache.py",
    )
    assert [d.rule for d in diags] == ["trace-id-contract"]


def test_trace_id_contract_allows_the_sanctioned_constant(run_rule):
    diags = run_rule(
        trace_id_contract,
        """
        from repro.obs.tracing import TRACE_ID_ATTR

        span.set_attribute(TRACE_ID_ATTR, context.trace_id)
        """,
        path="src/repro/serving/deployment.py",
    )
    assert diags == []


def test_trace_id_contract_allows_trace_id_outside_attr_methods(run_rule):
    diags = run_rule(
        trace_id_contract,
        """
        from dataclasses import replace

        result = replace(result, trace_id=context.trace_id)
        sampler.finish(context.trace_id, ts=now, duration_s=d, flagged=True)
        """,
        path="src/repro/serving/cluster.py",
    )
    assert diags == []


def test_trace_id_contract_scoped_to_serving_modules(run_rule):
    source = """
    with tracer.span("assemble", trace_id=tid):
        pass
    """
    assert run_rule(trace_id_contract, source,
                    path="src/repro/obs/trace_query.py") == []
    assert len(run_rule(trace_id_contract, source,
                        path="src/repro/serving/router.py")) == 1


# -- clock-injection / registry-injection ---------------------------------


def test_clock_injection_flags_raw_ctor_but_not_fallback(run_rule):
    diags = run_rule(
        clock_injection,
        """
        from repro.serving.clock import SimClock

        def build(clock=None):
            a = SimClock()
            b = clock or SimClock()
            c = clock if clock is not None else SimClock()
            return a, b, c
        """,
        path="src/repro/serving/cluster.py",
    )
    assert [d.rule for d in diags] == ["clock-injection"]
    assert diags[0].line == 5
    assert "accept an injected clock" in diags[0].message


def test_clock_injection_sanctioned_factory_and_outside_root(run_rule):
    source = """
    from repro.serving import clock

    timeline = clock.SimClock()
    """
    assert len(run_rule(clock_injection, source,
                        path="src/repro/refresh/rollout.py")) == 1
    # The defining module and its sanctioned siblings are factories...
    assert run_rule(clock_injection, source, path="src/repro/serving/clock.py") == []
    assert run_rule(clock_injection, source, path="src/repro/cli.py") == []
    # ...and scripts outside the repro package are exempt entirely.
    assert run_rule(clock_injection, source, path="benchmarks/bench_x.py",
                    in_package=False) == []
    assert run_rule(clock_injection, source, path="scripts/tool.py") == []


def test_registry_injection_flags_component_owned_registry(run_rule):
    source = """
    from repro.obs.metrics import MetricsRegistry

    def build(registry=None):
        shared = registry or MetricsRegistry()
        private = MetricsRegistry()
        return shared, private
    """
    diags = run_rule(registry_injection, source, path="src/repro/serving/api.py")
    assert [d.rule for d in diags] == ["registry-injection"]
    assert diags[0].line == 6
    assert "fragments the scrape surface" in diags[0].message
    assert run_rule(registry_injection, source, path="src/repro/obs/slo.py") == []


# -- unused-import ------------------------------------------------------


def test_unused_import_flags_each_name_nothing_reads(run_rule):
    diags = run_rule(
        unused_import,
        """
        import os.path
        import numpy as np
        from math import ceil, floor

        def f(x):
            return floor(x)
        """,
    )
    assert [d.rule for d in diags] == ["unused-import"] * 3
    assert [d.line for d in diags] == [2, 3, 4]
    assert [d.message.split()[0] for d in diags] == ["'os'", "'np'", "'ceil'"]


def test_unused_import_counts_names_parameters_quoted_annotations_and_all(run_rule):
    diags = run_rule(
        unused_import,
        """
        from __future__ import annotations
        import numpy as np
        from typing import TYPE_CHECKING
        from fixtures import pipeline
        from helpers import exported

        if TYPE_CHECKING:
            from tracer import Span

        __all__ = ["exported"]

        def test_uses(pipeline, span: "Span | None") -> None:
            return np.zeros(3)
        """,
    )
    assert diags == []


def test_unused_import_exempts_package_reexports(run_rule):
    source = """
    from pkg.mod import thing
    """
    assert run_rule(unused_import, source, path="pkg/__init__.py") == []
    assert len(run_rule(unused_import, source, path="pkg/other.py")) == 1


# -- a fixture tree that trips every rule once ----------------------------


def test_every_file_scope_rule_fires_exactly_once(tmp_path, monkeypatch):
    """Each rule trips exactly once in a package with one violation of each,
    at the location a failure prints."""
    monkeypatch.chdir(tmp_path)
    modules = {
        "proj/rngmod.py": """
            __all__ = ["make_rng"]
            import numpy as np

            def make_rng():
                return np.random.default_rng(7)
            """,
        "proj/serving/clocked.py": """
            __all__ = ["stamp"]
            import time

            def stamp():
                return time.time()
            """,
        "proj/metrics.py": """
            __all__ = ["is_perfect"]

            def is_perfect(score):
                return score == 1.0
            """,
        "proj/defaults.py": """
            __all__ = ["collect"]

            def collect(item, bucket=[]):
                bucket.append(item)
                return bucket
            """,
        "proj/excepts.py": """
            __all__ = ["swallow"]

            def swallow(fn):
                try:
                    return fn()
                except:
                    return None
            """,
        "proj/allmod.py": """
            def exported():
                return 1
            """,
        "proj/repro/serving/owned.py": """
            __all__ = ["build"]
            from repro.obs.metrics import MetricsRegistry
            from repro.serving.clock import SimClock

            def build():
                return SimClock(), MetricsRegistry()
            """,
        "proj/serving/printer.py": """
            __all__ = ["announce"]

            def announce(replica):
                print("draining", replica)
            """,
        "proj/serving/tagger.py": """
            __all__ = ["tag"]

            def tag(tracer, tid):
                with tracer.span("serve", trace_id=tid):
                    return tid
            """,
        "proj/imports.py": """
            __all__ = ["double"]
            import math

            def double(x):
                return 2 * x
            """,
    }
    for name, body in modules.items():
        path = Path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body).lstrip())
    for package in ("proj", "proj/serving", "proj/repro", "proj/repro/serving"):
        Path(package, "__init__.py").touch()

    findings = check_tree(["proj"])
    found = [(f.rule, f.path, f.line, f.col) for f in findings]
    assert sorted(found) == sorted([
        ("all-consistency", "proj/allmod.py", 1, 1),
        ("mutable-default", "proj/defaults.py", 3, 26),
        ("overbroad-except", "proj/excepts.py", 6, 5),
        ("float-equality", "proj/metrics.py", 4, 21),
        ("clock-injection", "proj/repro/serving/owned.py", 6, 12),
        ("registry-injection", "proj/repro/serving/owned.py", 6, 24),
        ("unscoped-rng", "proj/rngmod.py", 5, 12),
        ("wall-clock", "proj/serving/clocked.py", 5, 12),
        ("event-log-only", "proj/serving/printer.py", 4, 5),
        ("trace-id-contract", "proj/serving/tagger.py", 4, 10),
        ("unused-import", "proj/imports.py", 2, 1),
    ])
    assert sorted(f[0] for f in found) == sorted(RULES)
    assert str(findings[0]) == (
        "proj/allmod.py:1:1: [all-consistency] "
        "public module defines no __all__; declare its export list")
