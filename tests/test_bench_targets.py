"""Every name the benchmark's tracer wraps or its scripts import is still
bound where they look.

``perfbench/tracer.py`` patches ``(module, name)`` pairs from its
``TARGETS`` table, and the ``perfbench`` scripts import names from
``gallai``; a program change that drops one of those bindings would only
show as an error in a benchmark run.  These tests read the table and the
imports (they change nothing under ``perfbench/``) and look each name up.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from functools import cache
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@cache
def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TRACER = _load("tracer")


@pytest.mark.parametrize(
    "module_name, attr",
    [(module_name, attr) for module_name, attr, _, _ in TRACER.TARGETS],
    ids=[f"{module_name}.{attr}" for module_name, attr, _, _ in TRACER.TARGETS],
)
def test_traced_name_is_bound(module_name, attr):
    if module_name == "workloads":
        module = _load("workloads")
    else:
        module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is not bound"


def _bench_imports() -> list[tuple[str, str]]:
    """(module, name) for every ``from gallai.M import N`` in
    ``perfbench/*.py``, at any depth, so a function-local import counts."""
    found = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gallai."):
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


BENCH_IMPORTS = _bench_imports()


def test_bench_imports_include_function_local_ones():
    assert ("gallai.structure", "resolve_threads") in BENCH_IMPORTS


@pytest.mark.parametrize(
    "module_name, attr", BENCH_IMPORTS, ids=[f"{m}.{a}" for m, a in BENCH_IMPORTS]
)
def test_bench_import_is_bound(module_name, attr):
    module = importlib.import_module(module_name)
    assert hasattr(module, attr), f"{module_name}.{attr} is not bound"
