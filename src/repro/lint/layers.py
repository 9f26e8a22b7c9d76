"""Layering and import-cycle rules driven by a declared architecture map.

The reproduction's packages form a DAG of layers: catalog/behavior feed
the core pipeline, core feeds serving, serving feeds refresh, and the
CLI sits on top.  :data:`ARCHITECTURE` writes that DAG down; the
``layering`` rule flags any ``repro``-internal import the map does not
sanction (e.g. ``core`` reaching into ``serving``), and ``import-cycle``
flags strongly-connected components in the module import graph.

The map is *intent*, not a transcription of today's imports: a
violation means either the code or the declared architecture must
change, and the decision is recorded by fixing the import or by a
``# cosmolint: disable=layering`` comment on it (see DESIGN.md §8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lint.diagnostics import Diagnostic
from repro.lint.project import ModuleSummary, ProjectContext
from repro.lint.registry import ProjectRule, register

__all__ = ["Architecture", "ARCHITECTURE", "LayeringRule", "ImportCycleRule"]


@dataclass(frozen=True)
class Architecture:
    """A declared layering map for one root package.

    ``allowed`` maps each first-level package to the set of sibling
    packages it may import from; ``shared_modules`` lists individual
    modules (dotted names) importable from anywhere — the small shared
    vocabulary (relation taxonomy, prompt templates) that lower layers
    legitimately depend on.
    """

    root: str
    allowed: dict[str, frozenset[str]]
    shared_modules: frozenset[str]

    def package_of(self, module: str) -> str | None:
        """First-level package of ``module``, or None outside ``root``."""
        prefix = self.root + "."
        if not module.startswith(prefix):
            return None
        return module[len(prefix):].split(".", 1)[0]


_EVERYTHING = frozenset({
    "utils", "nn", "catalog", "behavior", "embeddings", "annotation", "llm",
    "core", "obs", "serving", "refresh", "apps", "reporting", "lint",
    "scenarios",
})

#: The declared architecture of the COSMO reproduction (DESIGN.md §3).
#: Key contracts: core/behavior/catalog may not import serving/refresh/obs
#: (determinism flows upward, instrumentation is injected); serving may
#: not import refresh (snapshots are pushed into serving, never pulled);
#: the scenario runner composes the serving planes and only the CLI may
#: import everything.
ARCHITECTURE = Architecture(
    root="repro",
    allowed={
        "utils": frozenset(),
        "nn": frozenset({"utils"}),
        "catalog": frozenset({"utils", "behavior"}),
        "behavior": frozenset({"utils", "catalog"}),
        "embeddings": frozenset({"utils", "nn"}),
        "annotation": frozenset({"utils"}),
        "llm": frozenset({"utils", "nn", "catalog", "behavior"}),
        "core": frozenset({"utils", "nn", "catalog", "behavior", "llm",
                           "embeddings", "annotation"}),
        "obs": frozenset({"utils"}),
        "serving": frozenset({"utils", "obs", "llm", "core"}),
        "refresh": frozenset({"utils", "obs", "core", "llm", "behavior",
                              "serving"}),
        "apps": frozenset({"utils", "nn", "catalog", "behavior", "core",
                           "embeddings", "llm"}),
        "reporting": frozenset({"utils"}),
        "lint": frozenset({"utils"}),
        "scenarios": frozenset({"utils", "core", "obs", "serving", "refresh",
                                "reporting"}),
        "cli": _EVERYTHING,
    },
    # The shared vocabulary: relation taxonomy and prompt templates are
    # leaf data modules imported by catalog/behavior/llm below core.
    shared_modules=frozenset({"repro.core.relations", "repro.core.prompts"}),
)


@register
class LayeringRule(ProjectRule):
    """Enforce the declared package layering across the whole program."""

    id = "layering"
    summary = "repro-internal imports must follow the declared architecture map"
    invariant = "determinism contracts compose across module boundaries (no layer inversion)"

    def __init__(self, architecture: Architecture | None = None):
        super().__init__()
        self.architecture = architecture if architecture is not None else ARCHITECTURE

    def check(self, project: ProjectContext) -> list[Diagnostic]:
        arch = self.architecture
        unmapped_reported: set[str] = set()
        for summary in project.modules():
            src_pkg = arch.package_of(summary.module)
            if src_pkg is None:
                continue
            if src_pkg not in arch.allowed:
                if src_pkg not in unmapped_reported:
                    unmapped_reported.add(src_pkg)
                    self.report(
                        summary.path, 1, 1,
                        f"package '{src_pkg}' is not in the declared architecture "
                        "map; add it to repro.lint.layers.ARCHITECTURE with its "
                        "allowed imports",
                    )
                continue
            for record, target in project.import_edges(summary):
                dst_pkg = arch.package_of(target)
                if dst_pkg is None or dst_pkg == src_pkg:
                    continue
                if target in arch.shared_modules:
                    continue
                if dst_pkg not in arch.allowed[src_pkg]:
                    self.report(
                        summary.path, record.line, record.col,
                        f"layer '{src_pkg}' may not import layer '{dst_pkg}' "
                        f"({summary.module} -> {target}); the declared "
                        f"architecture allows {src_pkg} -> "
                        f"{{{', '.join(sorted(arch.allowed[src_pkg])) or 'nothing'}}}",
                    )
        return self.diagnostics


@register
class ImportCycleRule(ProjectRule):
    """Flag strongly-connected components in the module import graph."""

    id = "import-cycle"
    summary = "the module import graph must stay acyclic"
    invariant = "modules initialize in one deterministic order (no partial-import states)"

    def check(self, project: ProjectContext) -> list[Diagnostic]:
        graph = project.import_graph()
        for cycle in _strongly_connected(graph):
            anchor = cycle[0]
            summary = project.by_module[anchor]
            line, col = self._edge_location(project, summary, set(cycle))
            ring = " -> ".join([*cycle, anchor])
            self.report(
                summary.path, line, col,
                f"import cycle between {len(cycle)} modules: {ring}; break the "
                "cycle by extracting the shared piece into a lower layer",
            )
        return self.diagnostics

    @staticmethod
    def _edge_location(project: ProjectContext, summary: ModuleSummary,
                       members: set[str]) -> tuple[int, int]:
        for record, target in project.import_edges(summary):
            if target in members:
                return record.line, record.col
        return 1, 1


def _strongly_connected(graph: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan SCCs of size > 1, each sorted, in deterministic order."""
    index_of: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = 0
    cycles: list[list[str]] = []

    def connect(root: str) -> None:
        nonlocal counter
        # Iterative Tarjan: (node, iterator position) work stack.
        work = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                index_of[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            children = sorted(target for target in graph.get(node, ())
                              if target in graph)
            advanced = False
            for position in range(child_index, len(children)):
                child = children[position]
                if child not in index_of:
                    work.append((node, position + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[child])
            if advanced:
                continue
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    cycles.append(sorted(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    for node in sorted(graph):
        if node not in index_of:
            connect(node)
    return sorted(cycles)
