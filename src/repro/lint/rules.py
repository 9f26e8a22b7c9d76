"""The cosmolint rule set: the repo's determinism and serving contracts.

Each rule encodes an invariant the reproduction's regression numbers or
serving benches rely on; DESIGN.md ("Static invariants") documents the
mapping.  Every rule reads one file: rules are scoped by path where the
contract is local (float equality only matters in metrics code) or carry
an explicit allowlist (wall-clock time is banned repo-wide except
``obs/timebase.py``).
"""

from __future__ import annotations

import ast
from typing import ClassVar

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import FileContext, LintRule, register

__all__ = [
    "ImportMap",
    "UnscopedRngRule",
    "WallClockRule",
    "MutableDefaultRule",
    "OverbroadExceptRule",
    "FloatEqualityRule",
    "AllConsistencyRule",
    "EventLogOnlyRule",
    "TraceIdContractRule",
    "ClockInjectionRule",
    "RegistryInjectionRule",
]


class ImportMap:
    """Alias → canonical dotted module map for one file.

    Resolves names like ``np.random.default_rng`` back to
    ``numpy.random.default_rng`` regardless of how numpy was imported
    (``import numpy``, ``import numpy as np``, ``from numpy import
    random as npr``, ``from numpy.random import default_rng``, ...).
    """

    def __init__(self, tree: ast.Module):
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".", 1)[0]
                    # "import a.b" binds "a"; "import a.b as c" binds a.b.
                    self.aliases[name] = alias.name if alias.asname else name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.aliases[bound] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> str | None:
        """Canonical dotted name for an attribute chain, or ``None``."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))


class _ImportsRule(LintRule):
    """A rule that names call targets through the file's own imports."""

    def check(self, tree: ast.Module) -> list[Diagnostic]:
        self._imports = ImportMap(tree)
        return super().check(tree)


@register
class UnscopedRngRule(_ImportsRule):
    """Ban RNG streams that bypass ``repro.utils.rng.spawn_rng``.

    Direct ``np.random.*`` / ``random.*`` / ``default_rng`` calls couple
    a component's stream to global state or to a raw seed, so adding any
    new draw perturbs every downstream stream — exactly what the
    seed+scope discipline exists to prevent.  ``utils/rng.py`` itself is
    exempt (it is the one sanctioned wrapper).
    """

    id = "unscoped-rng"
    summary = "RNG must come from spawn_rng, never raw numpy/stdlib streams"
    invariant = "bit-stable regression numbers for Tables 1/3/6"

    @classmethod
    def applies_to(cls, context: FileContext) -> bool:
        return context.parts[-2:] != ("utils", "rng.py")

    def visit_Call(self, node: ast.Call) -> None:
        name = self._imports.resolve(node.func)
        if name is not None:
            if name.startswith("numpy.random."):
                self.report(
                    node,
                    f"call to {name} bypasses the seed+scope discipline; "
                    "derive streams via repro.utils.rng.spawn_rng(seed, scope=...)",
                )
            elif name == "random" or name.startswith("random."):
                self.report(
                    node,
                    f"stdlib {name} draws from hidden global state; "
                    "use repro.utils.rng.spawn_rng(seed, scope=...) instead",
                )
        self.generic_visit(node)


@register
class WallClockRule(_ImportsRule):
    """Ban wall-clock time everywhere except the sanctioned timebase.

    The serving layer (§3.5, Figure 5) runs entirely on simulated
    :class:`~repro.serving.clock.SimClock` time and the pipeline on
    simulated LLM seconds, so traces, chaos scenarios and latency
    benches are deterministic and never sleep for real.  Real elapsed-
    time profiling flows through one narrow waist —
    :mod:`repro.obs.timebase`, the sole ``allowlist`` entry — and a
    wall-clock call anywhere else is an error.
    """

    id = "wall-clock"
    summary = "use simulated clocks; wall-clock calls only in obs/timebase.py"
    invariant = "deterministic, sleep-free pipeline, serving and chaos benches"

    #: ``/``-separated path suffixes where wall-clock calls are permitted.
    allowlist: ClassVar[tuple[str, ...]] = ("obs/timebase.py",)

    _BANNED = {
        "time.time",
        "time.time_ns",
        "time.sleep",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }

    @classmethod
    def applies_to(cls, context: FileContext) -> bool:
        for entry in cls.allowlist:
            suffix = tuple(entry.split("/"))
            if context.parts[-len(suffix):] == suffix:
                return False
        return True

    def visit_Call(self, node: ast.Call) -> None:
        name = self._imports.resolve(node.func)
        if name in self._BANNED:
            self.report(
                node,
                f"call to {name} reads the wall clock; time must come from a "
                "simulated clock (only obs/timebase.py may read real time)",
            )
        self.generic_visit(node)


@register
class MutableDefaultRule(LintRule):
    """Ban mutable default argument values.

    A list/dict/set default is created once at definition time and
    shared across calls — state leaks between requests and between
    pipeline stages.
    """

    id = "mutable-default"
    summary = "no mutable default argument values"
    invariant = "no state shared across calls through default arguments"

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray"}
    _MUTABLE_LITERALS = (
        ast.List,
        ast.Dict,
        ast.Set,
        ast.ListComp,
        ast.DictComp,
        ast.SetComp,
    )

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> None:
        defaults = [*node.args.defaults, *node.args.kw_defaults]
        for default in defaults:
            if default is None:
                continue
            mutable = isinstance(default, self._MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in self._MUTABLE_CALLS
            )
            if mutable:
                self.report(
                    default,
                    "mutable default argument is shared across calls; "
                    "default to None (or use dataclasses.field(default_factory=...))",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


@register
class OverbroadExceptRule(LintRule):
    """Ban bare ``except:`` and swallowing ``except Exception:``.

    The resilience layer depends on typed fault classes propagating to
    the retry/breaker machinery; a broad handler that does not re-raise
    silently converts faults into wrong answers.  ``except Exception``
    is allowed when the handler re-raises.
    """

    id = "overbroad-except"
    summary = "no bare except; except Exception/BaseException must re-raise"
    invariant = "typed faults reach the retry/circuit-breaker machinery"

    _BROAD = {"Exception", "BaseException"}

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(isinstance(child, ast.Raise) for child in ast.walk(handler))

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare except catches everything including KeyboardInterrupt; "
                "catch the specific fault types instead",
            )
        elif (
            isinstance(node.type, ast.Name)
            and node.type.id in self._BROAD
            and not self._reraises(node)
        ):
            self.report(
                node,
                f"except {node.type.id} without re-raise swallows faults the "
                "resilience layer needs to see; narrow it or re-raise",
            )
        self.generic_visit(node)


@register
class FloatEqualityRule(LintRule):
    """Ban ``==`` / ``!=`` against float literals in metrics code.

    Metric computations accumulate rounding error; exact comparison
    against a float literal silently flips regression thresholds.  Use
    ``math.isclose`` or an explicit tolerance.
    """

    id = "float-equality"
    summary = "metrics code must not compare floats with == / !="
    invariant = "metric thresholds stable under floating-point rounding"

    @classmethod
    def applies_to(cls, context: FileContext) -> bool:
        filename = context.parts[-1] if context.parts else context.display_path
        return (
            filename == "metrics.py"
            or "metrics" in context.parts[:-1]
            or "reporting" in context.parts[:-1]
        )

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, right in zip(node.ops, node.comparators):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if any(
                isinstance(operand, ast.Constant) and isinstance(operand.value, float)
                for operand in operands
            ):
                self.report(
                    right,
                    "float equality comparison is unstable under rounding; "
                    "use math.isclose or an explicit tolerance",
                )
                break
        self.generic_visit(node)


@register
class EventLogOnlyRule(_ImportsRule):
    """Serving/cluster modules must publish lifecycle state through the
    structured event log, never ad-hoc stdout writes.

    The monitoring pipeline (DESIGN.md §11) correlates alerts with
    :class:`~repro.obs.events.EventLog` records; a ``print`` or
    ``sys.stdout.write`` in the serving tree is operational information
    that bypasses that contract (and pollutes byte-compared CLI output).
    Emit an event — or, for genuinely human-only output, add the file to
    ``allowlist`` the way ``wall-clock`` allowlists ``obs/timebase.py``.
    """

    id = "event-log-only"
    summary = "serving modules publish lifecycle via EventLog, not prints"
    invariant = "alerts can cross-reference every operational transition"

    #: ``/``-separated path suffixes where direct stdout writes are
    #: permitted (none today; CLI/reporting trees are out of scope).
    allowlist: ClassVar[tuple[str, ...]] = ()

    _STREAM_WRITES = {
        "sys.stdout.write",
        "sys.stderr.write",
        "sys.stdout.writelines",
        "sys.stderr.writelines",
    }

    @classmethod
    def applies_to(cls, context: FileContext) -> bool:
        if "serving" not in context.parts[:-1]:
            return False
        for entry in cls.allowlist:
            suffix = tuple(entry.split("/"))
            if context.parts[-len(suffix):] == suffix:
                return False
        return True

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            self.report(
                node,
                "print() in a serving module bypasses the structured event "
                "log; emit via obs.events.EventLog so alerts can correlate it",
            )
        else:
            name = self._imports.resolve(node.func)
            if name in self._STREAM_WRITES:
                self.report(
                    node,
                    f"{name} in a serving module bypasses the structured "
                    "event log; emit via obs.events.EventLog instead",
                )
        self.generic_visit(node)


@register
class TraceIdContractRule(LintRule):
    """Serving modules must not invent ad-hoc trace-id attribute keys on
    spans or events.

    Trace correlation (DESIGN.md §9) works because exactly one attribute
    key — :data:`repro.obs.tracing.TRACE_ID_ATTR` — carries a trace id,
    stamped automatically by :meth:`~repro.obs.tracing.Tracer.attach`
    and :meth:`~repro.obs.events.EventLog.trace_scope`.  A serving
    module writing its own ``trace_id=...`` span/event attribute (or a
    spelling variant like ``traceId``) creates records the
    :class:`~repro.obs.trace_query.TraceAnalyzer`, the exemplar lookup
    and the event correlation all silently miss.  Propagate a
    :class:`~repro.obs.tracing.TraceContext` instead, or reference the
    sanctioned constant (a non-literal key is not flagged).
    """

    id = "trace-id-contract"
    summary = ("trace ids flow via Tracer.attach / EventLog.trace_scope, "
               "never ad-hoc span/event attribute keys")
    invariant = ("one sanctioned trace-id key across spans, events and "
                 "exemplars (trace reassembly and correlation)")

    #: span/event construction entry points whose attribute keys we police.
    _ATTR_METHODS = ("span", "emit", "record", "set_attribute")

    @classmethod
    def applies_to(cls, context: FileContext) -> bool:
        return "serving" in context.parts[:-1]

    @staticmethod
    def _is_trace_id_key(key: str) -> bool:
        normalized = key.lower().replace("_", "").replace("-", "")
        return "traceid" in normalized

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        method = None
        if isinstance(func, ast.Attribute):
            method = func.attr
        elif isinstance(func, ast.Name):
            method = func.id
        if method in self._ATTR_METHODS:
            if method == "set_attribute" and node.args:
                first = node.args[0]
                if (isinstance(first, ast.Constant)
                        and isinstance(first.value, str)
                        and self._is_trace_id_key(first.value)):
                    self.report(
                        node,
                        f"span attribute key {first.value!r} hand-writes a "
                        "trace id; attach a TraceContext (Tracer.attach) or "
                        "use obs.tracing.TRACE_ID_ATTR so analyzers can "
                        "find it",
                    )
            for keyword in node.keywords:
                if keyword.arg is not None and self._is_trace_id_key(keyword.arg):
                    self.report(
                        node,
                        f"ad-hoc trace-id attribute {keyword.arg!r} on "
                        f"{method}(); trace ids flow via Tracer.attach / "
                        "EventLog.trace_scope under the sanctioned "
                        "obs.tracing.TRACE_ID_ATTR key",
                    )
        self.generic_visit(node)


@register
class AllConsistencyRule(LintRule):
    """``__all__`` must exist in public package modules and list only
    names the module actually defines.

    The serving and pipeline layers re-export through ``__all__``; a
    missing or stale export list turns refactors into silent API
    breaks.  Script trees (``benchmarks/``, ``examples/`` — not package
    members) and docstring-only modules are exempt.
    """

    id = "all-consistency"
    summary = "__all__ present in public modules and every listed name defined"
    invariant = "the public API surface is explicit and importable"

    _EXEMPT_MODULES = {"__main__", "conftest", "setup"}

    def check(self, tree: ast.Module) -> list[Diagnostic]:
        defined, star_import = self._module_names(tree)
        dunder_all = self._find_all(tree)
        if dunder_all is None:
            if self._requires_all(defined):
                self.report(
                    tree.body[0] if tree.body else tree,
                    "public module defines no __all__; declare its export list",
                )
            return self.diagnostics
        names = self._literal_names(dunder_all.value)
        if names is None or star_import:
            return self.diagnostics  # dynamic __all__ or star import: unverifiable
        for name, node in names:
            if name not in defined and name not in self.context.sibling_modules:
                self.report(
                    node,
                    f"__all__ lists {name!r} but the module never defines it",
                )
        return self.diagnostics

    # -- helpers --------------------------------------------------------
    def _requires_all(self, defined: set[str]) -> bool:
        module = self.context.module_name
        if not self.context.in_package:
            return False
        if module in self._EXEMPT_MODULES or module.startswith("test_"):
            return False
        if module.startswith("_") and module != "__init__":
            return False
        return any(not name.startswith("_") for name in defined)

    @staticmethod
    def _find_all(tree: ast.Module) -> ast.Assign | ast.AnnAssign | None:
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        return node
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and node.target.id == "__all__":
                    return node
        return None

    @staticmethod
    def _literal_names(value: ast.expr | None) -> list[tuple[str, ast.expr]] | None:
        if not isinstance(value, (ast.List, ast.Tuple)):
            return None
        names: list[tuple[str, ast.expr]] = []
        for element in value.elts:
            if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
                return None
            names.append((element.value, element))
        return names

    @staticmethod
    def _module_names(tree: ast.Module) -> tuple[set[str], bool]:
        """Top-level bindings, walking into top-level if/try blocks."""
        defined: set[str] = set()
        star_import = False

        def collect_target(target: ast.expr) -> None:
            if isinstance(target, ast.Name):
                defined.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    collect_target(element)
            elif isinstance(target, ast.Starred):
                collect_target(target.value)

        def scan(body: list[ast.stmt]) -> None:
            nonlocal star_import
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.add(node.name)
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        collect_target(target)
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    collect_target(node.target)
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        defined.add(alias.asname or alias.name.split(".", 1)[0])
                elif isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        if alias.name == "*":
                            star_import = True
                        else:
                            defined.add(alias.asname or alias.name)
                elif isinstance(node, ast.If):
                    scan(node.body)
                    scan(node.orelse)
                elif isinstance(node, ast.Try):
                    scan(node.body)
                    for handler in node.handlers:
                        scan(handler.body)
                    scan(node.orelse)
                    scan(node.finalbody)
                elif isinstance(node, (ast.With, ast.AsyncWith)):
                    scan(node.body)
        scan(tree.body)
        return defined, star_import


def _repro_module(context: FileContext) -> str | None:
    """Dotted module name of a ``repro`` package file, from its path."""
    dirs = context.parts[:-1]
    if not context.in_package or "repro" not in dirs:
        return None
    start = len(dirs) - 1 - dirs[::-1].index("repro")
    stem = context.parts[-1].removesuffix(".py")
    return ".".join(dirs[start:] + (() if stem == "__init__" else (stem,)))


class _InjectionRule(_ImportsRule):
    """A guarded ``repro`` class that only sanctioned modules construct.

    Everywhere else in ``repro`` it is injected; the constructor-default
    fallback (``x or C()`` / ``x if x is not None else C()``) is the
    sanctioned injection idiom.  Scripts outside ``repro`` are exempt.
    """

    #: Leaf class name being guarded (e.g. ``SimClock``).
    guarded: ClassVar[str] = ""
    #: Modules (with their submodules) allowed to construct it freely.
    sanctioned: ClassVar[tuple[str, ...]] = ()
    message: ClassVar[str] = ""

    @classmethod
    def applies_to(cls, context: FileContext) -> bool:
        module = _repro_module(context)
        return module is not None and not any(
            module == allowed or module.startswith(allowed + ".")
            for allowed in cls.sanctioned)

    def check(self, tree: ast.Module) -> list[Diagnostic]:
        self._fallbacks: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
                self._fallbacks.update(map(id, node.values[1:]))
            elif isinstance(node, ast.IfExp):
                self._fallbacks.update((id(node.body), id(node.orelse)))
        return super().check(tree)

    def visit_Call(self, node: ast.Call) -> None:
        name = self._imports.resolve(node.func)
        if (name is not None and name.startswith("repro.")
                and name.rsplit(".", 1)[-1] == self.guarded
                and id(node) not in self._fallbacks):
            self.report(node, self.message)
        self.generic_visit(node)


@register
class ClockInjectionRule(_InjectionRule):
    """SimClock is constructed only by sanctioned factories."""

    id = "clock-injection"
    summary = "SimClock constructed only in sanctioned factories; elsewhere injected"
    invariant = "one simulated timeline per scenario (no drifting private clocks)"

    guarded = "SimClock"
    sanctioned = ("repro.cli", "repro.serving.clock", "repro.serving.chaos")
    message = (
        "SimClock constructed outside a sanctioned factory couples this "
        "component to a private timeline; accept an injected clock "
        "(clock: SimClock | None = None) or derive one with clock.fork()"
    )


@register
class RegistryInjectionRule(_InjectionRule):
    """MetricsRegistry is injected into components, never self-created."""

    id = "registry-injection"
    summary = "components accept a shared MetricsRegistry, never instantiate one"
    invariant = "all components publish into one scrape surface (DESIGN.md §9)"

    guarded = "MetricsRegistry"
    sanctioned = ("repro.cli", "repro.scenarios", "repro.obs")
    message = (
        "MetricsRegistry constructed inside a component fragments the "
        "scrape surface; accept an injected registry (registry: "
        "MetricsRegistry | None = None) and default only via the "
        "`x if x is not None else MetricsRegistry()` fallback idiom"
    )
