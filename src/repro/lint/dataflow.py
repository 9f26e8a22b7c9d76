"""Cross-module dataflow contract rules.

These rules use the project symbol table to check what actually *flows
across module boundaries*, which file-local AST rules cannot see:

* ``rng-provenance`` — an argument bound to a remote ``rng`` parameter
  (name ``rng`` or a ``Generator`` annotation, discovered in the callee's
  defining module) must not be a numeric literal or an inline
  ``numpy.random``/stdlib-``random`` construction.  Together with the
  file-local ``unscoped-rng`` ban this closes the loop: every Generator
  reaching a constructor originates from ``spawn_rng`` or an injected
  stream, repo-wide.
* ``clock-injection`` — only sanctioned factory modules may construct
  ``SimClock``; everything else accepts an injected clock (the
  ``clock if clock is not None else SimClock()`` constructor-default
  idiom is the sanctioned injection fallback) or derives one via
  ``SimClock.fork()``.
* ``registry-injection`` — serving/pipeline components must accept a
  shared ``MetricsRegistry`` rather than instantiate their own, so all
  replicas publish into one scrape surface (DESIGN.md §9).
"""

from __future__ import annotations

from typing import ClassVar

from repro.lint.diagnostics import Diagnostic
from repro.lint.project import ProjectContext, is_inline_rng_origin
from repro.lint.registry import ProjectRule, register

__all__ = ["RngProvenanceRule", "ClockInjectionRule", "RegistryInjectionRule"]


@register
class RngProvenanceRule(ProjectRule):
    """RNG arguments crossing module boundaries keep spawn_rng provenance."""

    id = "rng-provenance"
    summary = "Generators passed to rng parameters must come from spawn_rng or injection"
    invariant = "every random stream is traceable to a (seed, scope) pair, repo-wide"

    def check(self, project: ProjectContext) -> list[Diagnostic]:
        for summary in project.modules():
            for site in summary.calls:
                info = project.resolve_symbol(site.callee)
                if info is None or not info.has_params:
                    continue
                rng_params = info.rng_params()
                if not rng_params:
                    continue
                leaf = site.callee.rsplit(".", 1)[-1]
                for arg in site.args:
                    bound = self._bound_param(arg, rng_params, site.positional_reliable)
                    if bound is None:
                        continue
                    if arg.kind == "const":
                        self.report(
                            summary.path, arg.line, arg.col,
                            f"{leaf}() parameter {bound!r} expects a Generator "
                            f"but receives the literal {arg.detail}; derive the "
                            "stream with repro.utils.rng.spawn_rng(seed, "
                            "scope=...) or inject it from the caller",
                        )
                    elif arg.kind == "call" and is_inline_rng_origin(arg.detail):
                        self.report(
                            summary.path, arg.line, arg.col,
                            f"Generator passed to {leaf}() parameter {bound!r} "
                            f"is created inline via {arg.detail}, outside the "
                            "seed+scope provenance; use repro.utils.rng."
                            "spawn_rng(seed, scope=...) instead",
                        )
        return self.diagnostics

    @staticmethod
    def _bound_param(arg, rng_params, positional_reliable: bool) -> str | None:
        for index, name in rng_params:
            if arg.keyword:
                if arg.keyword == name:
                    return name
            elif positional_reliable and arg.slot == index:
                return name
        return None


class _InjectionRule(ProjectRule):
    """Shared machinery: a guarded class constructible only in factories."""

    #: Leaf class name being guarded (e.g. ``SimClock``).
    guarded: ClassVar[str] = ""
    #: Modules allowed to construct it freely.
    sanctioned_modules: ClassVar[frozenset[str]] = frozenset()
    #: Module prefixes allowed to construct it freely (own package).
    sanctioned_prefixes: ClassVar[tuple[str, ...]] = ()
    #: Root package the rule patrols (scripts/benchmarks are exempt).
    root: ClassVar[str] = "repro"

    def _sanctioned(self, module: str) -> bool:
        if module in self.sanctioned_modules:
            return True
        return any(module == prefix or module.startswith(prefix + ".")
                   for prefix in self.sanctioned_prefixes)

    def _message(self, site_name: str) -> str:
        raise NotImplementedError

    def check(self, project: ProjectContext) -> list[Diagnostic]:
        for summary in project.modules():
            if summary.module != self.root and not summary.module.startswith(self.root + "."):
                continue
            if self._sanctioned(summary.module):
                continue
            for site in summary.ctors:
                if not site.name.startswith(self.root + "."):
                    continue
                if site.name.rsplit(".", 1)[-1] != self.guarded:
                    continue
                if site.injected_fallback:
                    continue  # the constructor-default injection idiom
                self.report(summary.path, site.line, site.col, self._message(site.name))
        return self.diagnostics


@register
class ClockInjectionRule(_InjectionRule):
    """SimClock is constructed only by sanctioned factories."""

    id = "clock-injection"
    summary = "SimClock constructed only in sanctioned factories; elsewhere injected"
    invariant = "one simulated timeline per scenario (no drifting private clocks)"

    guarded = "SimClock"
    sanctioned_modules = frozenset({"repro.cli"})
    sanctioned_prefixes = ("repro.serving.clock", "repro.serving.chaos")

    def _message(self, site_name: str) -> str:
        return (
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
    sanctioned_modules = frozenset({"repro.cli", "repro.scenarios"})
    sanctioned_prefixes = ("repro.obs",)

    def _message(self, site_name: str) -> str:
        return (
            "MetricsRegistry constructed inside a component fragments the "
            "scrape surface; accept an injected registry (registry: "
            "MetricsRegistry | None = None) and default only via the "
            "`x if x is not None else MetricsRegistry()` fallback idiom"
        )
