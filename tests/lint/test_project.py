"""Project-scope rules: layering, import cycles, cross-module dataflow.

These tests build small ``repro``-shaped trees in a temp dir and run
``lint_paths`` with the relevant rule selected, so each contract is
exercised end-to-end through summary extraction, the import graph and
the symbol table.
"""

import ast
import textwrap
from pathlib import Path

from repro.lint import lint_paths
from repro.lint.layers import Architecture, ImportCycleRule, LayeringRule
from repro.lint.project import (
    ModuleSummary,
    ProjectContext,
    extract_summary,
    module_name_for,
)


def build_tree(root: Path, files: dict[str, str]) -> Path:
    """Materialize ``files`` under ``root``, auto-creating package inits."""
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body).lstrip("\n"))
    for path in list(root.rglob("*.py")):
        current = path.parent
        while current != root:
            init = current / "__init__.py"
            if not init.exists():
                init.write_text("")
            current = current.parent
    return root


def summarize(module: str, source: str, path: str = "mod.py") -> ModuleSummary:
    return extract_summary(ast.parse(source), module, path)


# ---------------------------------------------------------------------------
# module naming


def test_module_name_for_walks_packages(tmp_path):
    tree = build_tree(tmp_path / "t", {"repro/serving/cluster.py": "x = 1\n"})
    assert module_name_for(tree / "repro/serving/cluster.py") == "repro.serving.cluster"
    assert module_name_for(tree / "repro/serving/__init__.py") == "repro.serving"


def test_module_name_for_standalone_script(tmp_path):
    script = tmp_path / "bench_thing.py"
    script.write_text("x = 1\n")
    assert module_name_for(script) == "bench_thing"


# ---------------------------------------------------------------------------
# layering


def test_layering_flags_core_importing_serving(tmp_path):
    tree = build_tree(tmp_path / "t", {
        "repro/core/pipeline.py": "from repro.serving.cluster import Cluster\n",
        "repro/serving/cluster.py": "class Cluster:\n    pass\n",
    })
    result = lint_paths([tree], select={"layering"})
    assert [d.rule for d in result.diagnostics] == ["layering"]
    diagnostic = result.diagnostics[0]
    assert diagnostic.path.endswith("pipeline.py")
    assert diagnostic.line == 1
    assert "layer 'core' may not import layer 'serving'" in diagnostic.message
    assert "repro.core.pipeline -> repro.serving.cluster" in diagnostic.message


def test_layering_allows_declared_edges(tmp_path):
    tree = build_tree(tmp_path / "t", {
        "repro/serving/cluster.py": "from repro.core.pipeline import run\n",
        "repro/core/pipeline.py": "def run():\n    return 1\n",
    })
    result = lint_paths([tree], select={"layering"})
    assert result.diagnostics == []


def test_layering_shared_modules_are_importable_from_anywhere(tmp_path):
    # behavior may not import core in general, but core.relations is in
    # the declared shared vocabulary.
    tree = build_tree(tmp_path / "t", {
        "repro/behavior/world.py": "from repro.core.relations import RELATIONS\n",
        "repro/core/relations.py": "RELATIONS = ()\n",
    })
    result = lint_paths([tree], select={"layering"})
    assert result.diagnostics == []


def test_layering_reports_unmapped_package_once(tmp_path):
    tree = build_tree(tmp_path / "t", {
        "repro/zeta/alpha.py": "x = 1\n",
        "repro/zeta/beta.py": "y = 2\n",
    })
    result = lint_paths([tree], select={"layering"})
    assert len(result.diagnostics) == 1
    assert "package 'zeta' is not in the declared architecture map" in (
        result.diagnostics[0].message)


def test_layering_with_custom_architecture():
    arch = Architecture(
        root="app",
        allowed={"a": frozenset(), "b": frozenset({"a"})},
        shared_modules=frozenset(),
    )
    context = ProjectContext([
        summarize("app.a.x", "import app.b.y\n", "a/x.py"),
        summarize("app.b.y", "import app.a.x\n", "b/y.py"),
        summarize("app.a", "", "a/__init__.py"),
        summarize("app.b", "", "b/__init__.py"),
    ])
    diagnostics = LayeringRule(arch).check(context)
    assert len(diagnostics) == 1
    assert diagnostics[0].path == "a/x.py"
    assert "layer 'a' may not import layer 'b'" in diagnostics[0].message
    assert "allows a -> {nothing}" in diagnostics[0].message


# ---------------------------------------------------------------------------
# import cycles


def test_import_cycle_detected(tmp_path):
    tree = build_tree(tmp_path / "t", {
        "pkg/a.py": "from pkg import b\n",
        "pkg/b.py": "from pkg import a\n",
    })
    result = lint_paths([tree], select={"import-cycle"})
    assert [d.rule for d in result.diagnostics] == ["import-cycle"]
    message = result.diagnostics[0].message
    assert "import cycle between 2 modules" in message
    assert "pkg.a -> pkg.b -> pkg.a" in message


def test_package_reexport_is_not_a_cycle(tmp_path):
    # pkg/__init__ re-exports from pkg.b while pkg.b imports a *sibling*
    # through the package (`from pkg import a`).  Submodule refinement
    # resolves that edge to pkg.a, so no pkg <-> pkg.b pseudo-cycle.
    tree = build_tree(tmp_path / "t", {
        "pkg/__init__.py": "from pkg.b import thing\n",
        "pkg/a.py": "x = 1\n",
        "pkg/b.py": "thing = 1\nfrom pkg import a\n",
    })
    result = lint_paths([tree], select={"import-cycle"})
    assert result.diagnostics == []


def test_three_module_cycle_reports_full_ring(tmp_path):
    tree = build_tree(tmp_path / "t", {
        "pkg/a.py": "import pkg.b\n",
        "pkg/b.py": "import pkg.c\n",
        "pkg/c.py": "import pkg.a\n",
    })
    result = lint_paths([tree], select={"import-cycle"})
    assert len(result.diagnostics) == 1
    assert "pkg.a -> pkg.b -> pkg.c -> pkg.a" in result.diagnostics[0].message


def test_cycle_rule_uses_iterative_tarjan_on_deep_chains():
    # A 500-module chain closed into one ring: a recursive SCC would
    # overflow; the iterative one reports a single 500-member cycle.
    summaries = [
        summarize(f"chain.m{i:03d}", f"import chain.m{(i + 1) % 500:03d}\n",
                  f"m{i:03d}.py")
        for i in range(500)
    ]
    context = ProjectContext(summaries)
    rule = ImportCycleRule()
    diagnostics = rule.check(context)
    assert len(diagnostics) == 1
    assert "import cycle between 500 modules" in diagnostics[0].message


# ---------------------------------------------------------------------------
# rng-provenance


def test_rng_provenance_flags_literal_seed_keyword(tmp_path):
    tree = build_tree(tmp_path / "t", {
        "repro/nn/model.py": "def train(data, rng):\n    return data\n",
        "repro/core/run.py": """
            from repro.nn.model import train

            def go(data):
                return train(data, rng=7)
        """,
    })
    result = lint_paths([tree], select={"rng-provenance"})
    assert [d.rule for d in result.diagnostics] == ["rng-provenance"]
    message = result.diagnostics[0].message
    assert "train() parameter 'rng' expects a Generator" in message
    assert "receives the literal 7" in message


def test_rng_provenance_flags_inline_numpy_stream(tmp_path):
    tree = build_tree(tmp_path / "t", {
        "repro/nn/model.py": "def train(data, rng):\n    return data\n",
        "repro/core/run.py": """
            import numpy as np
            from repro.nn.model import train

            def go(data):
                return train(data, np.random.default_rng(3))
        """,
    })
    result = lint_paths([tree], select={"rng-provenance"})
    assert len(result.diagnostics) == 1
    assert "created inline via numpy.random.default_rng" in result.diagnostics[0].message


def test_rng_provenance_accepts_spawn_rng_and_names(tmp_path):
    tree = build_tree(tmp_path / "t", {
        "repro/utils/rng.py": "def spawn_rng(seed, scope):\n    return seed\n",
        "repro/nn/model.py": "def train(data, rng):\n    return data\n",
        "repro/core/run.py": """
            from repro.utils.rng import spawn_rng
            from repro.nn.model import train

            def go(data, seed, stream):
                train(data, spawn_rng(seed, scope="model"))
                return train(data, rng=stream)
        """,
    })
    result = lint_paths([tree], select={"rng-provenance"})
    assert result.diagnostics == []


def test_rng_provenance_positional_into_annotated_ctor(tmp_path):
    tree = build_tree(tmp_path / "t", {
        "repro/nn/net.py": """
            class Net:
                def __init__(self, size, stream: "np.random.Generator"):
                    self.size = size
        """,
        "repro/core/mk.py": """
            from repro.nn.net import Net

            def mk():
                return Net(4, 7)
        """,
    })
    result = lint_paths([tree], select={"rng-provenance"})
    assert len(result.diagnostics) == 1
    assert "Net() parameter 'stream'" in result.diagnostics[0].message


def test_rng_provenance_follows_package_reexports(tmp_path):
    tree = build_tree(tmp_path / "t", {
        "repro/nn/__init__.py": "from repro.nn.net import Net\n",
        "repro/nn/net.py": """
            class Net:
                def __init__(self, rng):
                    self.rng = rng
        """,
        "repro/core/mk.py": """
            from repro.nn import Net

            def mk():
                return Net(rng=13)
        """,
    })
    result = lint_paths([tree], select={"rng-provenance"})
    assert len(result.diagnostics) == 1
    assert "Net() parameter 'rng'" in result.diagnostics[0].message


def test_rng_provenance_star_args_disable_positional_matching(tmp_path):
    tree = build_tree(tmp_path / "t", {
        "repro/nn/model.py": "def train(data, rng):\n    return data\n",
        "repro/core/run.py": """
            from repro.nn.model import train

            def go(extra):
                return train(*extra, 7)
        """,
    })
    result = lint_paths([tree], select={"rng-provenance"})
    assert result.diagnostics == []


# ---------------------------------------------------------------------------
# clock-injection / registry-injection


def test_clock_injection_flags_raw_ctor_but_not_fallback(tmp_path):
    tree = build_tree(tmp_path / "t", {
        "repro/serving/clock.py": """
            class SimClock:
                def __init__(self, start=0.0):
                    self.start = start
        """,
        "repro/serving/cluster.py": """
            from repro.serving.clock import SimClock

            def build(clock=None):
                a = SimClock()
                b = clock or SimClock()
                c = clock if clock is not None else SimClock()
                return a, b, c
        """,
    })
    result = lint_paths([tree], select={"clock-injection"})
    assert [d.rule for d in result.diagnostics] == ["clock-injection"]
    assert result.diagnostics[0].line == 4
    assert "accept an injected clock" in result.diagnostics[0].message


def test_clock_injection_sanctioned_factory_and_outside_root(tmp_path):
    tree = build_tree(tmp_path / "t", {
        # The defining module itself is a sanctioned factory...
        "repro/serving/clock.py": """
            class SimClock:
                def __init__(self, start=0.0):
                    self.start = start

            def default_clock():
                return SimClock()
        """,
        # ...and scripts outside the repro root are exempt entirely.
        "driver.py": """
            from repro.serving.clock import SimClock

            clock = SimClock()
        """,
    })
    result = lint_paths([tree], select={"clock-injection"})
    assert result.diagnostics == []


def test_registry_injection_flags_component_owned_registry(tmp_path):
    tree = build_tree(tmp_path / "t", {
        "repro/obs/metrics.py": """
            class MetricsRegistry:
                def __init__(self):
                    self.metrics = {}
        """,
        "repro/serving/api.py": """
            from repro.obs.metrics import MetricsRegistry

            def build(registry=None):
                shared = registry or MetricsRegistry()
                private = MetricsRegistry()
                return shared, private
        """,
    })
    result = lint_paths([tree], select={"registry-injection"})
    assert [d.rule for d in result.diagnostics] == ["registry-injection"]
    assert result.diagnostics[0].line == 5
    assert "fragments the scrape surface" in result.diagnostics[0].message


# ---------------------------------------------------------------------------
# suppressions on project-level diagnostics


def test_file_wide_suppression_silences_project_rule(tmp_path):
    tree = build_tree(tmp_path / "t", {
        "repro/core/pipeline.py": (
            "# cosmolint: disable-file=layering\n"
            "from repro.serving.cluster import Cluster\n"
        ),
        "repro/serving/cluster.py": "class Cluster:\n    pass\n",
    })
    result = lint_paths([tree], select={"layering"})
    assert result.diagnostics == []
    assert result.suppressed == 1


def test_line_suppression_silences_project_rule_on_that_line_only(tmp_path):
    tree = build_tree(tmp_path / "t", {
        "repro/core/pipeline.py": (
            "from repro.serving.cluster import Cluster  # cosmolint: disable=layering\n"
            "from repro.serving.clock import SimClock\n"
        ),
        "repro/serving/cluster.py": "class Cluster:\n    pass\n",
        "repro/serving/clock.py": "class SimClock:\n    pass\n",
    })
    result = lint_paths([tree], select={"layering"})
    assert len(result.diagnostics) == 1
    assert result.diagnostics[0].line == 2
    assert result.suppressed == 1
