import ast
import importlib
from pathlib import Path

import pytest

import prefhedge

MODULES = sorted(p for p in Path(prefhedge.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """Names a module imports but never reads (``__future__`` features aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_guard_sees_an_unused_import():
    source = ("from dataclasses import dataclass, field\nimport numpy as np\n"
              "@dataclass\nclass A:\n    x: int\n")
    assert unused_imports(source) == [(1, "field"), (2, "np")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def solver_imports(source):
    """The solver modules (pide, equilibrium) a module's source imports from."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + (
                [alias.name for alias in node.names] if not node.module else [])
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found |= {name.rsplit(".", 1)[-1] for name in names} & {"pide", "equilibrium"}
    return sorted(found)


def test_guard_sees_a_solver_import():
    assert solver_imports("from .pide import HSurface\nimport numpy\n") == ["pide"]
    assert solver_imports("from . import equilibrium\n") == ["equilibrium"]
    assert solver_imports("import prefhedge.pide as p\n") == ["pide"]
    assert solver_imports("from .model import eval_policy\n") == []


def test_monte_carlo_imports_nothing_from_the_solver():
    # The Monte Carlo oracles referee the solver: mc.py takes the solver's
    # values as numbers and imports none of its code.
    assert solver_imports((Path(prefhedge.__file__).parent / "mc.py").read_text()) == []


# Names the benchmark's tracer wraps that the library no longer has; the
# tracer reports them absent.  The solve writes the factor archive level by
# level as it marches (persist.h_surface_writer), inside fixed_point_solve,
# so no cli.save_h_surface call is left to wrap.
STALE_TRACED = {"prefhedge.equilibrium.solve_h", "prefhedge.equilibrium.coefficients",
                "prefhedge.cli.policy_to_csv", "prefhedge.cli.save_h_surface"}


def traced_names():
    """The (module, attribute) pairs of perfbench/tracing.py's WRAPPED, read without running it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            return [(module, attr) for module, attr, _span, _hook in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracing.py defines no WRAPPED")


def test_benchmark_traces_names_the_library_has():
    # A refactor that drops a traced name would leave that layer's metrics
    # reading 0 in the benchmark; it fails here instead.
    names = traced_names()
    assert len(names) > len(STALE_TRACED)
    missing = {f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(module), attr)}
    assert sorted(missing - STALE_TRACED) == []
