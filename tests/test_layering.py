"""Module layering: every ``gallai.*`` import inside the package points to a
strictly lower layer, so there is no import cycle, lazy or otherwise; and
the other static reads of the source: no unread name, no environment read."""

from __future__ import annotations

import ast
from collections import Counter
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


def _names_read(node: ast.AST) -> Counter:
    """How often each name, attribute or imported name occurs under node."""
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
    return found


def test_nothing_reads_the_environment():
    """No module of the package, the scripts or the benchmark names
    ``environ``, ``getenv`` or ``putenv``: no option, thread count or
    other setting comes from an environment variable, so every command,
    script and workload answers the same under any environment."""
    root = Path(__file__).resolve().parents[1]
    paths = [*PACKAGE.glob("*.py"), *root.glob("scripts/*.py"), *root.glob("perfbench/*.py")]
    assert {path.parent.name for path in paths} == {"gallai", "scripts", "perfbench"}
    found = [
        f"{path.parent.name}/{path.name}: {name}"
        for path in paths
        for name in _names_read(ast.parse(path.read_text()))
        if name in ("environ", "getenv", "putenv")
    ]
    assert not found, f"environment reads: {found}"


def _top_level_definitions(tree: ast.Module):
    """(name, statement) for every top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node


def test_every_top_level_name_has_a_reader():
    """Every top-level function, class and constant of the package is named
    elsewhere in the package, exported, bound by the benchmark's tracer, or
    imported by a benchmark script."""
    from test_bench_targets import BENCH_IMPORTS, TRACER

    traced = {attr for _, attr, _, _ in TRACER.TARGETS}
    bench_read = {f"{module.removeprefix('gallai.')}.{name}" for module, name in BENCH_IMPORTS}
    exported = set(gallai.__all__)
    paths = sorted(PACKAGE.glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in paths]
    everywhere = sum(map(_names_read, trees), Counter())
    dead = [
        f"{path.stem}.{name}"
        for path, tree in zip(paths, trees)
        for name, definition in _top_level_definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in exported
        and name not in traced
        and f"{path.stem}.{name}" not in bench_read
        and everywhere[name] == _names_read(definition)[name]
    ]
    assert not dead, f"top-level names nothing reads: {dead}"


def _class_members(tree: ast.Module):
    """(class, name) for every method, property and annotated field of each
    top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def test_every_class_member_has_a_reader():
    """Every method, property and annotated field of a package class is read
    as an attribute somewhere in the package; dunders are exempt."""
    paths = sorted(PACKAGE.glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in paths]
    read = {
        sub.attr
        for tree in trees
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    dead = [
        f"{path.stem}.{cls}.{name}"
        for path, tree in zip(paths, trees)
        for cls, name in _class_members(tree)
        if not (name.startswith("__") and name.endswith("__")) and name not in read
    ]
    assert not dead, f"class members nothing reads: {dead}"
