"""Module layering: every ``gallai.*`` import inside the package points to a
strictly lower layer, so there is no import cycle, lazy or otherwise."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import gallai

PACKAGE = Path(gallai.__file__).parent

# Lowest first; a module may import only from layers below its own.
LAYERS = (
    ("graphs",),
    ("canonical", "detectors", "formulas"),
    ("constructions",),
    ("structure",),
    ("search",),
    ("cli",),
)
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names}
EXEMPT = {"__init__"}

MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in EXEMPT)


def gallai_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, imported gallai module) for every import at any depth; a bare
    ``from gallai import x`` counts as an import of the package itself."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                found.append((node.lineno, ".".join(filter(None, ("gallai", node.module)))))
            elif node.module:
                found.append((node.lineno, node.module))
    return sorted(
        (line, name) for line, name in found if name == "gallai" or name.startswith("gallai.")
    )


def test_every_module_has_a_layer():
    assert set(MODULES) == set(RANK)


@pytest.mark.parametrize("module", MODULES)
def test_imports_point_to_lower_layers(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    wrong = [
        f"line {line}: {name}"
        for line, name in gallai_imports(tree)
        if RANK.get(name.partition(".")[2].partition(".")[0], len(LAYERS)) >= RANK[module]
    ]
    assert not wrong, f"gallai.{module} imports from its own or a higher layer: {wrong}"


def test_detects_nested_and_relative_imports():
    tree = ast.parse(
        "def f():\n"
        "    from gallai.search import verify_witness\n"
        "    if True:\n"
        "        from .cli import main\n"
        "        import gallai.structure\n"
    )
    assert gallai_imports(tree) == [
        (2, "gallai.search"),
        (4, "gallai.cli"),
        (5, "gallai.structure"),
    ]


def test_every_exported_name_resolves():
    missing = [name for name in gallai.__all__ if not hasattr(gallai, name)]
    assert not missing, f"gallai.__all__ names that do not resolve: {missing}"
