"""The import graph of ``src``, ``benchmarks`` and ``examples`` follows the
declared layers of ``repro`` and has no cycle (DESIGN.md §3 and §8).

``from pkg import sub`` is refined to ``pkg.sub`` when ``sub`` is a module,
so a package re-export does not read as a cycle; an import under ``if
TYPE_CHECKING:`` adds no edge, because it never runs.
"""

import ast
import graphlib
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ROOTS = ("src", "benchmarks", "examples")

#: Package of ``repro`` -> the sibling packages it may import.  Determinism
#: flows upward: core, behavior and catalog import no serving, refresh or obs
#: (instrumentation is injected); serving imports no refresh (snapshots are
#: pushed into serving, never pulled); the scenario runner composes the
#: serving planes, and only the CLI imports everything.
ARCHITECTURE = {
    "utils": set(),
    "nn": {"utils"},
    "catalog": {"utils", "behavior"},
    "behavior": {"utils", "catalog"},
    "embeddings": {"utils", "nn"},
    "annotation": {"utils"},
    "llm": {"utils", "nn", "catalog", "behavior"},
    "core": {"utils", "nn", "catalog", "behavior", "llm", "embeddings", "annotation"},
    "obs": {"utils"},
    "serving": {"utils", "obs", "llm", "core"},
    "refresh": {"utils", "obs", "core", "llm", "behavior", "serving"},
    "apps": {"utils", "nn", "catalog", "behavior", "core", "embeddings", "llm"},
    "reporting": {"utils"},
    "scenarios": {"utils", "core", "obs", "serving", "refresh", "reporting"},
}
ARCHITECTURE["cli"] = set(ARCHITECTURE)

#: The shared vocabulary every package may import: the relation taxonomy and
#: prompt templates that catalog, behavior and llm use below core.
SHARED = {"repro.core.relations", "repro.core.prompts"}

#: Imports the map does not sanction, each accepted for a reason.  An
#: exception whose import is gone fails the test, so none outlives its cause.
EXCEPTIONS = {
    ("repro.core.pipeline", "repro.obs.tracing"):
        "the pipeline's stage spans (DESIGN.md §9); the Tracer is injected",
}


def module_name(path: Path) -> str:
    """``src/repro/core/kg.py`` is ``repro.core.kg``; ``benchmarks/bench_x.py``
    (no package) is ``bench_x``."""
    parts = [] if path.stem == "__init__" else [path.stem]
    while (path := path.parent).joinpath("__init__.py").exists():
        parts.append(path.name)
    return ".".join(reversed(parts))


def _imports(node: ast.AST):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.If) and ast.unparse(child.test).endswith("TYPE_CHECKING"):
            child = ast.Module(body=child.orelse, type_ignores=[])
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        else:
            yield from _imports(child)


def import_graph(roots=ROOTS, base: Path = REPO) -> dict[str, set[str]]:
    """Module -> the modules of the tree it imports."""
    trees = {module_name(path): ast.parse(path.read_text(encoding="utf-8"))
             for root in roots for path in sorted((base / root).rglob("*.py"))}
    graph: dict[str, set[str]] = {}
    for module, tree in trees.items():
        graph[module] = set()
        for node in _imports(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif node.module and node.level == 0:
                targets = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for target in targets:
                while target and target not in trees:
                    target = target.rpartition(".")[0]
                if target and target != module:
                    graph[module].add(target)
    return graph


def _layer(module: str) -> str | None:
    root, _, rest = module.partition(".")
    return rest.partition(".")[0] if root == "repro" and rest else None


def layering_problems(graph: dict[str, set[str]], exceptions=EXCEPTIONS) -> list[str]:
    problems = {f"{module} -> {target}: stale exception, the import is gone"
                for module, target in exceptions if target not in graph.get(module, ())}
    for module, targets in graph.items():
        if (layer := _layer(module)) is None:
            continue
        if layer not in ARCHITECTURE:
            problems.add(f"package {layer!r} is not in ARCHITECTURE")
            continue
        for target in targets:
            other = _layer(target)
            if (other not in (None, layer) and other not in ARCHITECTURE[layer]
                    and target not in SHARED and (module, target) not in exceptions):
                problems.add(f"{module} -> {target}: layer {layer!r} may not import {other!r}")
    return sorted(problems)


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as error:
        return error.args[1]
    return None


def test_the_live_tree_follows_the_declared_layers():
    problems = layering_problems(import_graph())
    assert not problems, "\n".join(problems)


def test_the_live_tree_has_no_import_cycle():
    cycle = find_cycle(import_graph())
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def _graph(tmp_path: Path, files: dict[str, str]) -> dict[str, set[str]]:
    """The import graph of ``files``, with a package init in every directory."""
    for relative, body in files.items():
        (tmp_path / relative).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / relative).write_text(textwrap.dedent(body))
        for package in Path(relative).parents[:-1]:
            (tmp_path / package / "__init__.py").touch()
    return import_graph(["."], base=tmp_path)


def test_core_importing_serving_breaks_the_layers(tmp_path):
    graph = _graph(tmp_path, {"repro/core/kg.py": "from repro.serving.clock import SimClock\n",
                              "repro/serving/clock.py": "class SimClock:\n    pass\n"})
    assert layering_problems(graph, exceptions={}) == [
        "repro.core.kg -> repro.serving.clock: layer 'core' may not import 'serving'"]


def test_a_declared_edge_keeps_the_layers(tmp_path):
    graph = _graph(tmp_path, {"repro/serving/api.py": "from repro.core import kg\n",
                              "repro/core/kg.py": ""})
    assert graph["repro.serving.api"] == {"repro.core.kg"}
    assert layering_problems(graph, exceptions={}) == []


def test_a_shared_module_is_importable_from_anywhere(tmp_path):
    # behavior may not import core, but core.relations is shared vocabulary.
    graph = _graph(tmp_path, {
        "repro/behavior/world.py": "from repro.core.relations import Relation\n",
        "repro/core/relations.py": "Relation = str\n"})
    assert graph["repro.behavior.world"] == {"repro.core.relations"}
    assert layering_problems(graph, exceptions={}) == []


def test_an_unmapped_package_and_a_stale_exception_fail(tmp_path):
    graph = _graph(tmp_path, {"repro/zeta/alpha.py": "", "repro/core/pipeline.py": "",
                              "repro/obs/tracing.py": ""})
    assert layering_problems(graph) == [
        "package 'zeta' is not in ARCHITECTURE",
        "repro.core.pipeline -> repro.obs.tracing: stale exception, the import is gone"]


def test_package_reexport_is_not_a_cycle(tmp_path):
    # pkg/__init__ re-exports from pkg.b while pkg.b imports a sibling through
    # the package; the refined edge is pkg.b -> pkg.a, not pkg.b -> pkg.
    graph = _graph(tmp_path, {"pkg/__init__.py": "from pkg.b import thing\n",
                              "pkg/a.py": "", "pkg/b.py": "thing = 1\nfrom pkg import a\n"})
    assert graph["pkg.b"] == {"pkg.a"}
    assert find_cycle(graph) is None


def test_a_type_checking_import_adds_no_edge(tmp_path):
    graph = _graph(tmp_path, {
        "pkg/a.py": """
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                from pkg import b
            else:
                import pkg.c
            """,
        "pkg/b.py": "from pkg import a\n",
        "pkg/c.py": "",
    })
    assert graph["pkg.a"] == {"pkg.c"}
    assert find_cycle(graph) is None


def test_a_two_module_cycle_is_reported(tmp_path):
    graph = _graph(tmp_path, {"pkg/a.py": "from pkg import b\n",
                              "pkg/b.py": "from pkg import a\n"})
    cycle = find_cycle(graph)
    assert cycle[0] == cycle[-1] and sorted(cycle[1:]) == ["pkg.a", "pkg.b"]


def test_a_three_module_ring_is_reported(tmp_path):
    graph = _graph(tmp_path, {"pkg/a.py": "import pkg.b\n",
                              "pkg/b.py": "def f():\n    import pkg.c\n",
                              "pkg/c.py": "from pkg import a\n"})
    cycle = find_cycle(graph)
    assert cycle[0] == cycle[-1] and sorted(cycle[1:]) == ["pkg.a", "pkg.b", "pkg.c"]
