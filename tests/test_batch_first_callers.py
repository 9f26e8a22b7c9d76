"""Static sweep: benchmarks and examples drive serving batch-first.

The api_redesign moved every in-repo driver onto ``serve_batch`` /
``handle_batch`` — a per-item ``serve``/``handle`` call inside a loop
re-creates exactly the per-request overhead the redesign amortized
away.  This scan walks ``benchmarks/`` and ``examples/`` and pins the
set of files still looping per-item to the two benchmarks whose
*purpose* is measuring per-request cost (``bench_monitor_overhead``
drives through the scenario runner's ``Traffic`` step instead).  The
allowlist is asserted exactly in both directions, so it cannot go
stale: a migrated file must leave it, a regressed file cannot hide in
it.
"""

import ast
import pathlib

_REPO = pathlib.Path(__file__).resolve().parents[1]
_SCANNED_DIRS = ("benchmarks", "examples")
_PER_ITEM_CALLS = {"serve", "handle"}
# Intentionally per-item: these measure per-request trace/rollout
# overhead, which an amortized batch would hide.
_ALLOWED_PER_ITEM = {
    "bench_rollout_staleness",
    "bench_trace_overhead",
}

_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While,
               ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _has_per_item_loop(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if not isinstance(node, _LOOP_NODES):
            continue
        for inner in ast.walk(node):
            if (isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr in _PER_ITEM_CALLS):
                return True
    return False


def _per_item_loop_files() -> set[str]:
    found = set()
    for directory in _SCANNED_DIRS:
        for path in sorted((_REPO / directory).glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if _has_per_item_loop(tree):
                found.add(path.stem)
    return found

def test_scan_covers_real_files():
    for directory in _SCANNED_DIRS:
        assert list((_REPO / directory).glob("*.py")), f"{directory}/ is empty?"


def test_no_unapproved_per_item_serving_loops():
    found = _per_item_loop_files()
    regressed = found - _ALLOWED_PER_ITEM
    assert not regressed, (
        f"per-item .serve()/.handle() loop in {sorted(regressed)}; migrate "
        "to serve_batch()/handle_batch() (or, for a genuine per-request "
        "overhead microbenchmark, extend the allowlist with a rationale)")


def test_per_item_allowlist_is_exact():
    found = _per_item_loop_files()
    stale = _ALLOWED_PER_ITEM - found
    assert not stale, (
        f"allowlist entries {sorted(stale)} no longer loop per-item; "
        "drop them so the allowlist stays an honest inventory")
