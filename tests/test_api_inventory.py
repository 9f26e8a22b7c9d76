"""The API inventory (ROADMAP crumbs, PR 21): every public function, class,
method and property of ``src/repro`` has a caller.

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
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CALLER_ROOTS = ("src", "benchmarks", "examples", "scripts")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: (names, reason): at most six rows.
KEPT = (
    (("KnowledgeRefresher",),
     "paper 3.5's incremental refresh and ROADMAP 3(b)'s producer (its "
     "RefreshConfig / RefreshReport are referenced from it)"),
    (("TailSampler.pending_traces",), "ROADMAP item 1's quiescence invariant"),
    (("FeatureStore.writes",),
     "rides feature_store_ops_total (so does `reads`, hidden by a local of "
     "that name), whose deletion re-pins six digest lines: the next audit's"),
    (("lint_source",), "the rule tests' entry point: rules run on fixture "
                       "snippets, never the live tree (lint/engine.py docstring)"),
)


def _public(node: ast.AST) -> bool:
    """A def the audit covers: not private, not a ``visit_*``/``cmd_*``
    dispatch target, not a decorator-registered rule."""
    if not isinstance(node, _DEFS):
        return False
    registered = any(isinstance(d, ast.Name) and d.id == "register"
                     for d in node.decorator_list)
    return not (node.name.startswith(("_", "visit_", "cmd_")) or registered)


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


def audit(report: dict[str, int], kept=KEPT) -> list[str]:
    """What is wrong: a caller-less name with no row, a row for a name the
    scan does not report, a row with no reason."""
    names = {name for row, _reason in kept for name in row}
    return ([f"{name}: no caller ({lines} lines)"
             for name, lines in sorted(report.items()) if name not in names]
            + [f"{name}: stale KEPT row" for name in sorted(names - set(report))]
            + [f"{row}: KEPT row names no reason" for row, reason in kept
               if not reason.strip()])


def test_every_public_name_has_a_caller_or_a_kept_row():
    assert len(KEPT) <= 6
    sources = {str(path.relative_to(REPO)): path.read_text()
               for root in CALLER_ROOTS for path in sorted((REPO / root).rglob("*.py"))}
    problems = audit(uncalled(sources))
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
