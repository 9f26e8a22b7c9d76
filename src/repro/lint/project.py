"""Whole-program analysis: module summaries, import graph, symbol table.

The project phase parses every file once and hands the assembled
:class:`ProjectContext` to the project-scope rules.  A summary is a
deliberately small extract of one module:

* **imports** — every ``import``/``from`` statement with its source
  location, feeding the layering and cycle rules;
* **symbols** — top-level functions and classes with their parameter
  lists (``__init__`` for classes, field order for dataclasses), the
  cross-module half of the RNG-provenance contract;
* **calls** — call sites whose arguments are provably suspicious
  (constants, resolvable nested calls), matched against remote ``rng``
  parameters at project time;
* **ctors** — construction sites of guarded infrastructure classes
  (``SimClock``, ``MetricsRegistry``) with an ``injected-fallback``
  flag for the sanctioned ``x if x is not None else C()`` idiom;
* **suppressions** — the file's ``# cosmolint: disable`` table, so
  project-level diagnostics honor the same suppression syntax as
  file-level ones.

Project rules consume summaries only — never raw ASTs — so each one
reads the whole program as plain data.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

__all__ = [
    "ImportMap",
    "ImportRecord",
    "SymbolInfo",
    "ArgRecord",
    "CallSite",
    "CtorSite",
    "ModuleSummary",
    "ProjectContext",
    "module_name_for",
    "extract_summary",
    "is_inline_rng_origin",
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


@dataclass(frozen=True)
class ImportRecord:
    """One ``import`` / ``from ... import`` statement."""

    line: int
    col: int
    target: str  # the module named in the statement
    names: tuple[str, ...] = ()  # imported names ("from" form only)


@dataclass(frozen=True)
class SymbolInfo:
    """A top-level function or class and its callable parameter list."""

    name: str
    kind: str  # "func" | "class"
    line: int
    params: tuple[str, ...] = ()
    annotations: tuple[str, ...] = ()  # aligned with params; "" when absent
    has_params: bool = True  # False: parameter list unknown (e.g. inherited __init__)

    def rng_params(self) -> list[tuple[int, str]]:
        """``(index, name)`` of parameters that expect an RNG stream."""
        found = []
        for index, (param, annotation) in enumerate(zip(self.params, self.annotations)):
            if param == "rng" or "Generator" in annotation:
                found.append((index, param))
        return found


@dataclass(frozen=True)
class ArgRecord:
    """One provably-classifiable argument at a call site.

    ``slot`` is the positional index, or ``-1`` with ``keyword`` set.
    ``kind`` is ``"const"`` (non-None literal, ``detail`` its repr) or
    ``"call"`` (nested call, ``detail`` the resolved dotted callee).
    """

    slot: int
    keyword: str
    kind: str
    detail: str
    line: int
    col: int


@dataclass(frozen=True)
class CallSite:
    """A call whose callee resolved to a dotted name, with suspicious args."""

    line: int
    col: int
    callee: str
    args: tuple[ArgRecord, ...]
    positional_reliable: bool  # False when *args makes slots ambiguous


@dataclass(frozen=True)
class CtorSite:
    """A construction site of a guarded infrastructure class."""

    line: int
    col: int
    name: str  # resolved dotted callee, e.g. repro.serving.clock.SimClock
    injected_fallback: bool  # inside `x or C()` / `x if ... else C()`


#: Leaf class names whose construction sites are summarized for the
#: injection rules (resolution keeps the full dotted path).
_GUARDED_CTORS = {"SimClock", "MetricsRegistry"}


def is_inline_rng_origin(detail: str) -> bool:
    """Whether a resolved callee creates an RNG outside the seed+scope
    discipline (raw numpy / stdlib streams)."""
    return (
        detail.startswith("numpy.random.")
        or detail == "random"
        or detail.startswith("random.")
    )


@dataclass
class ModuleSummary:
    """Everything the project phase knows about one module."""

    module: str
    path: str
    imports: tuple[ImportRecord, ...] = ()
    symbols: dict[str, SymbolInfo] = field(default_factory=dict)
    exports: dict[str, str] = field(default_factory=dict)  # bound name -> dotted ref
    calls: tuple[CallSite, ...] = ()
    ctors: tuple[CtorSite, ...] = ()
    suppress_file: tuple[str, ...] = ()
    suppress_lines: dict[int, tuple[str, ...]] = field(default_factory=dict)

    def is_suppressed(self, rule: str, line: int) -> bool:
        for active in (self.suppress_file, self.suppress_lines.get(line, ())):
            if rule in active or "all" in active:
                return True
        return False


def module_name_for(path: Path) -> str:
    """Dotted module name from the filesystem package structure.

    Walks up while parent directories are packages (contain an
    ``__init__.py``), so ``src/repro/serving/cluster.py`` names
    ``repro.serving.cluster`` and a standalone ``benchmarks/bench_x.py``
    names ``bench_x``.
    """
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if parts[0] == "__init__":
        parts = parts[1:] or [path.parent.name]
    return ".".join(reversed(parts))


def _annotation_text(node: ast.expr | None) -> str:
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except (ValueError, RecursionError):  # pragma: no cover - cosmetic only
        return ""


def _function_params(node: ast.FunctionDef | ast.AsyncFunctionDef,
                     drop_self: bool = False) -> tuple[tuple[str, ...], tuple[str, ...]]:
    args = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
    if drop_self and args and args[0].arg in ("self", "cls"):
        args = args[1:]
    names = tuple(arg.arg for arg in args)
    annotations = tuple(_annotation_text(arg.annotation) for arg in args)
    return names, annotations


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target: ast.expr = decorator
        if isinstance(target, ast.Call):
            target = target.func
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else "")
        if name == "dataclass":
            return True
    return False


def _class_symbol(node: ast.ClassDef) -> SymbolInfo:
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == "__init__":
            params, annotations = _function_params(item, drop_self=True)
            return SymbolInfo(node.name, "class", node.lineno, params, annotations)
    if _is_dataclass_decorated(node):
        params = []
        annotations = []
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                if _annotation_text(item.annotation).startswith("ClassVar"):
                    continue
                params.append(item.target.id)
                annotations.append(_annotation_text(item.annotation))
        return SymbolInfo(node.name, "class", node.lineno, tuple(params), tuple(annotations))
    # Inherited or dynamic __init__: parameter list unknown.
    return SymbolInfo(node.name, "class", node.lineno, (), (), has_params=False)


def _is_type_checking(test: ast.expr) -> bool:
    """True for ``TYPE_CHECKING`` / ``typing.TYPE_CHECKING`` guards."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


class _SummaryVisitor(ast.NodeVisitor):
    """One pass collecting imports, symbols, call sites and ctor sites."""

    def __init__(self, module: str, imports: ImportMap):
        self.module = module
        self.imports = imports
        self.import_records: list[ImportRecord] = []
        self.calls: list[CallSite] = []
        self.ctors: list[CtorSite] = []
        # Call nodes in injected-fallback position: the non-first operand
        # of an `or`, or either branch of a conditional expression.
        self._fallback_calls: set[ast.Call] = set()

    # -- imports ------------------------------------------------------
    def visit_If(self, node: ast.If) -> None:
        # Imports under `if TYPE_CHECKING:` are erased at runtime, so
        # they create neither layering edges nor real import cycles.
        if _is_type_checking(node.test):
            for stmt in node.orelse:
                self.visit(stmt)
            return
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.import_records.append(
                ImportRecord(node.lineno, node.col_offset + 1, alias.name))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            names = tuple(alias.name for alias in node.names if alias.name != "*")
            self.import_records.append(
                ImportRecord(node.lineno, node.col_offset + 1, node.module, names))
        self.generic_visit(node)

    # -- fallback-position tracking -----------------------------------
    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        if isinstance(node.op, ast.Or):
            for value in node.values[1:]:
                if isinstance(value, ast.Call):
                    self._fallback_calls.add(value)
        self.generic_visit(node)

    def visit_IfExp(self, node: ast.IfExp) -> None:
        for value in (node.body, node.orelse):
            if isinstance(value, ast.Call):
                self._fallback_calls.add(value)
        self.generic_visit(node)

    # -- call sites ----------------------------------------------------
    def _resolve_callee(self, func: ast.expr) -> str | None:
        resolved = self.imports.resolve(func)
        if resolved is not None:
            return resolved
        if isinstance(func, ast.Name):
            # Same-module call: qualify with the module's own name so the
            # symbol table lookup works uniformly.
            return f"{self.module}.{func.id}"
        return None

    def visit_Call(self, node: ast.Call) -> None:
        callee = self._resolve_callee(node.func)
        if callee is not None:
            leaf = callee.rsplit(".", 1)[-1]
            if leaf in _GUARDED_CTORS:
                self.ctors.append(
                    CtorSite(node.lineno, node.col_offset + 1, callee,
                             node in self._fallback_calls))
            arg_records = self._classify_args(node)
            if arg_records:
                reliable = not any(isinstance(arg, ast.Starred) for arg in node.args)
                self.calls.append(
                    CallSite(node.lineno, node.col_offset + 1, callee,
                             tuple(arg_records), reliable))
        self.generic_visit(node)

    def _classify_args(self, node: ast.Call) -> list[ArgRecord]:
        records: list[ArgRecord] = []
        for slot, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                continue
            record = self._classify_expr(arg, slot, "")
            if record is not None:
                records.append(record)
        for keyword in node.keywords:
            if keyword.arg is None:  # **kwargs
                continue
            record = self._classify_expr(keyword.value, -1, keyword.arg)
            if record is not None:
                records.append(record)
        return records

    def _classify_expr(self, expr: ast.expr, slot: int, keyword: str) -> ArgRecord | None:
        # Only provably-suspicious expressions are summarized: numeric
        # literals (a seed where a Generator belongs) and inline RNG
        # constructions.  Everything else is unknown and never flagged,
        # which also keeps summaries small.
        if isinstance(expr, ast.Constant):
            if not isinstance(expr.value, (int, float)) or isinstance(expr.value, bool):
                return None
            return ArgRecord(slot, keyword, "const", repr(expr.value),
                             expr.lineno, expr.col_offset + 1)
        if isinstance(expr, ast.Call):
            resolved = self.imports.resolve(expr.func)
            if resolved is not None and is_inline_rng_origin(resolved):
                return ArgRecord(slot, keyword, "call", resolved,
                                 expr.lineno, expr.col_offset + 1)
        return None


def extract_summary(
    tree: ast.Module,
    module: str,
    display_path: str,
    suppress_file: tuple[str, ...] = (),
    suppress_lines: dict[int, tuple[str, ...]] | None = None,
) -> ModuleSummary:
    """Build the project-phase summary for one parsed module."""
    imports = ImportMap(tree)
    visitor = _SummaryVisitor(module, imports)
    visitor.visit(tree)
    symbols: dict[str, SymbolInfo] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params, annotations = _function_params(node)
            symbols[node.name] = SymbolInfo(node.name, "func", node.lineno,
                                            params, annotations)
        elif isinstance(node, ast.ClassDef):
            symbols[node.name] = _class_symbol(node)
    return ModuleSummary(
        module=module,
        path=display_path,
        imports=tuple(visitor.import_records),
        symbols=symbols,
        exports=dict(imports.aliases),
        calls=tuple(visitor.calls),
        ctors=tuple(visitor.ctors),
        suppress_file=suppress_file,
        suppress_lines=dict(suppress_lines or {}),
    )


class ProjectContext:
    """The assembled whole-program view handed to project rules."""

    def __init__(self, summaries: list[ModuleSummary]):
        self.by_module: dict[str, ModuleSummary] = {}
        self.by_path: dict[str, ModuleSummary] = {}
        for summary in summaries:
            # First occurrence wins so iteration order (sorted paths) is
            # deterministic even if two trees define the same module name.
            self.by_module.setdefault(summary.module, summary)
            self.by_path[summary.path] = summary

    def modules(self) -> Iterator[ModuleSummary]:
        """Summaries in sorted module-name order (deterministic)."""
        for module in sorted(self.by_module):
            yield self.by_module[module]

    # -- import graph --------------------------------------------------
    def resolve_import_target(self, record: ImportRecord) -> str | None:
        """Project module a statement imports, refined to submodules.

        ``from pkg import sub`` resolves to ``pkg.sub`` when ``sub`` is a
        project module (re-export edges through ``__init__`` would
        otherwise read as cycles); plain ``import pkg.mod`` resolves to
        the deepest known prefix.
        """
        target = record.target
        if record.names:
            submodules = [f"{target}.{name}" for name in record.names
                          if f"{target}.{name}" in self.by_module]
            if submodules and len(submodules) == len(record.names):
                # Every imported name is itself a module: this is a
                # submodule import, not a symbol import.
                return submodules[0]
        candidate = target
        while candidate:
            if candidate in self.by_module:
                return candidate
            candidate = candidate.rpartition(".")[0]
        return None

    def import_edges(self, summary: ModuleSummary) -> Iterator[tuple[ImportRecord, str]]:
        """(record, resolved project module) for a summary's imports."""
        for record in summary.imports:
            resolved = self.resolve_import_target(record)
            if resolved is not None and resolved != summary.module:
                yield record, resolved

    def import_graph(self) -> dict[str, set[str]]:
        """Module → imported project modules (submodule-refined)."""
        graph: dict[str, set[str]] = {}
        for summary in self.modules():
            graph[summary.module] = {target for _, target in self.import_edges(summary)}
        return graph

    # -- symbol table --------------------------------------------------
    def resolve_symbol(self, ref: str, _depth: int = 0) -> SymbolInfo | None:
        """Look up a dotted reference in the project symbol table.

        Follows re-export chains (``from .cluster import CosmoCluster``
        in a package ``__init__`` makes ``pkg.CosmoCluster`` an alias of
        ``pkg.cluster.CosmoCluster``) up to a bounded depth.
        """
        if _depth > 8:
            return None
        module, _, symbol = ref.rpartition(".")
        while module and module not in self.by_module:
            module, _, rest = module.rpartition(".")
            symbol = f"{rest}.{symbol}"
        if not module or "." in symbol:
            return None
        summary = self.by_module[module]
        info = summary.symbols.get(symbol)
        if info is not None:
            return info
        alias = summary.exports.get(symbol)
        if alias is not None and alias != ref:
            return self.resolve_symbol(alias, _depth + 1)
        return None
